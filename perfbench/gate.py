"""Correctness gate: every emitted density against certified reference values.

The reference values in `reference/values.json` were computed once with
the production path at full precision. `make_reference.py` certified them
against oracles that share no algebra with that path and wrote the
verdict to `reference/certification.json`, which carries the SHA-256 of
the values it certified.

A run passes a value when it stays within ATOL + RTOL * |ref| of its
reference, plus half a unit in the ninth significant digit for the CSV
rounding. That allows the relative shifts expected from a batched
spectrum solve (~6e-11) and from a closed-form FDE transform (~1e-9)
and the inverter's ~1e-10 absolute floor, but fails a lost digit
(1e-8 relative) on values above ~0.2. Transport values past the ballistic
front |x| > speed * t are ringing of the inverter around a true value of
zero; there only |u| <= FRONT_BOUND is required, so zeroing that region
is not a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import Command, series_key

RTOL = 3e-9
ATOL = 2e-10
CSV_DIGITS = 9
FRONT_BOUND = 1e-5
# relative deviations are reported only above this size, where the
# inverter floor is below 1e-4 relative
REL_FLOOR = 1e-6

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
VALUES = os.path.join(REFERENCE_DIR, "values.json")
CERTIFICATION = os.path.join(REFERENCE_DIR, "certification.json")

PROFILE_HEADER = "x_cm,u_rte,u_de,u_normal,t_min,scenario"
COMPARE_HEADER = PROFILE_HEADER + ",diff_rte_de,reldiff_rte_de"
COLUMN = {"RTE": 1, "FDE": 2, "NORMAL": 3}


class ReferenceError(RuntimeError):
    """The reference values are missing, altered or not certified."""


def load_reference() -> dict:
    """Reference series keyed by `series_key`, after checking the
    certification covers exactly these bytes and passed."""
    try:
        with open(VALUES, "rb") as fh:
            raw = fh.read()
        with open(CERTIFICATION, encoding="utf-8") as fh:
            cert = json.load(fh)
    except OSError as exc:
        raise ReferenceError(f"cannot read reference files: {exc}") from exc
    if hashlib.sha256(raw).hexdigest() != cert.get("values_sha256"):
        raise ReferenceError("values.json differs from the certified values")
    if not cert.get("all_passed"):
        raise ReferenceError("certification of the reference values failed")
    return json.loads(raw)["series"]


def value_ok(solver: str, x: float, u: float, ref: float,
             front: float) -> bool:
    if not math.isfinite(u):
        return False
    if solver == "RTE" and abs(x) > front:
        return abs(u) <= FRONT_BOUND
    return abs(u - ref) <= ATOL + RTOL * abs(ref) + _csv_quantum(ref)


def _csv_quantum(value: float) -> float:
    """Largest error of printing `value` with CSV_DIGITS significant digits."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - CSV_DIGITS + 1)


def _parse_csv(path: str, compare: bool) -> dict[str, list[list[str]]]:
    """Rows grouped by series key; raises ValueError on a malformed file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = COMPARE_HEADER if compare else PROFILE_HEADER
    if not lines or lines[0] != header:
        raise ValueError(f"{os.path.basename(path)}: unexpected header")
    width = header.count(",") + 1
    groups: dict[tuple[str, float], list[list[str]]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"{os.path.basename(path)}: bad row {line!r}")
        groups.setdefault((cells[5], float(cells[4])), []).append(cells)
    return {series_key(sc, t, len(rows)): rows
            for (sc, t), rows in groups.items()}


def _cell(text: str) -> float:
    return float(text) if text else math.nan


class Checker:
    """Accumulates pass/fail per operation (one density value) over the
    repetitions of a workload; an operation fails if it fails once."""

    def __init__(self, reference: dict, commands: list[Command]):
        self.reference = reference
        self.ops = set()
        for cmd in commands:
            for key in cmd.series:
                n = len(reference[series_key(*key)]["x"])
                self.ops.update((series_key(*key), solver, i)
                                for solver in cmd.solvers for i in range(n))
        self.failed: set = set()
        self.problems: list[str] = []
        self.max_abs_dev = {"RTE": 0.0, "FDE": 0.0, "NORMAL": 0.0}
        self.max_rel_dev = {"RTE": 0.0, "FDE": 0.0, "NORMAL": 0.0}

    def _fail_command(self, cmd: Command, why: str) -> None:
        self.problems.append(f"{' '.join(cmd.argv[:3])}: {why}")
        for key in cmd.series:
            k = series_key(*key)
            self.failed.update(op for op in self.ops if op[0] == k)

    def check(self, cmd: Command, returncode: int | None) -> None:
        """Check the CSV one command wrote; None means it never finished."""
        if returncode != 0:
            self._fail_command(cmd, f"exit code {returncode}")
            return
        try:
            groups = _parse_csv(cmd.out, cmd.compare)
        except (OSError, ValueError) as exc:
            self._fail_command(cmd, str(exc))
            return
        for key in cmd.series:
            k = series_key(*key)
            ref = self.reference[k]
            rows = groups.get(k)
            if rows is None:
                self._fail_command(cmd, f"series {k} missing")
                continue
            for i, cells in enumerate(rows):
                x = float(cells[0])
                if abs(x - ref["x"][i]) > 1e-9 * max(1.0, abs(ref["x"][i])):
                    self.problems.append(f"{k}: x[{i}] = {x}")
                    self.failed.update((k, s, i) for s in cmd.solvers)
                    continue
                for solver in cmd.solvers:
                    self._check_value(k, solver, i, x, _cell(cells[COLUMN[solver]]),
                                      ref[solver][i], ref["front"])
                if cmd.compare and not _diff_ok(cells):
                    self.problems.append(f"{k}: difference columns at x={x}")
                    self.failed.update([(k, "RTE", i), (k, "FDE", i)])

    def _check_value(self, k, solver, i, x, u, ref, front) -> None:
        if not value_ok(solver, x, u, ref, front):
            self.failed.add((k, solver, i))
            return
        if solver == "RTE" and abs(x) > front:
            return
        dev = abs(u - ref)
        self.max_abs_dev[solver] = max(self.max_abs_dev[solver], dev)
        if abs(ref) >= REL_FLOOR:
            self.max_rel_dev[solver] = max(self.max_rel_dev[solver],
                                           dev / abs(ref))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems


def _diff_ok(cells: list[str]) -> bool:
    """The compare columns restate u_rte - u_de and its relative size,
    up to the rounding of all four printed numbers."""
    u_r, u_d = _cell(cells[1]), _cell(cells[2])
    diff, rel = _cell(cells[6]), _cell(cells[7])
    q = _csv_quantum
    slack = 1.0 + 1e-6  # float error of the recomputation itself
    if not abs(diff - (u_r - u_d)) <= slack * (q(diff) + q(u_r) + q(u_d)):
        return False
    if u_d == 0.0:
        return math.isinf(rel)
    if diff == 0.0:
        return rel == 0.0
    share = q(diff) / abs(diff) + q(u_d) / abs(u_d)
    return abs(rel - abs(diff) / abs(u_d)) <= slack * (rel * share + q(rel))
