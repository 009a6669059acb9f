"""Cold-process benchmark of trapdiff's three solvers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload panels-rte --seed 1 --seconds 40 --trace 0

Each repetition ("pass") of a workload runs in a fresh Python process
(`worker.py`), because `transport` keeps spectra in a process-wide cache:
a second pass in the same process would time cache hits. Passes repeat
while the next one is likely to fit in `--seconds`; there is at least
one. Import-only probes top the set-up samples up to MIN_SETUPS. After
every pass, each density value the workload emits is checked against
the certified reference values (`gate.py`).

--trace 0 prints the end-to-end metrics: medians over the passes of
set-up time (spawn until `trapdiff.cli` is imported), wall and CPU time
inside the `cli.main` calls, and peak resident memory. --trace 1
alternates untraced passes with passes that record spans around the
public functions of the solver modules (`spans.py`) and prints the
per-layer metrics. The last line of standard output is the result
object; the line before it records the run context.

Every time is reported at the machine's reference speed. On a shared
machine the speed of the same code drifts by up to 1.8x over tens of
seconds, and whole 40-second runs land in slow or fast spells. Each
worker therefore times a fixed calibration kernel (`worker.calibrate`)
right after its imports and after each command. Each command's times
are scaled by CAL_REF_S over the mean of the two kernel times around
it, the set-up time by CAL_REF_S over the first kernel time, and span
self times by CAL_REF_S over the mean kernel time of their process.
The unscaled medians and the kernel time are printed in the context
line and, with --trace 1, as the `raw.*` and `calibration.kernel_s`
metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import NamedTuple

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "trapdiff")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench-work")

MIN_SETUPS = 8
# calibration kernel time on an idle 2-core x86-64 machine (Python 3.11,
# numpy 2.4 with OpenBLAS 0.3.31); scaled times read as seconds there
CAL_REF_S = 0.07
# a run must end within 180 s; leave room to check and report
RUN_LIMIT_S = 170.0
MODULES = ("__init__", "cli", "errors", "fde", "harness", "ilt", "specfun",
           "transport", "waiting")


class _Pass(NamedTuple):
    """Outcome of one worker process; `report` is None if it failed."""

    report: dict | None
    seconds: float
    setup_s: float

    def setup_speed(self) -> float:
        return CAL_REF_S / self.report["calibration_s"][0]

    def scaled(self, key: str) -> float:
        """Sum of a per-command time, each scaled by the kernel times
        measured just before and just after that command."""
        kernel = self.report["calibration_s"]
        return sum(c[key] * CAL_REF_S / (0.5 * (kernel[i] + kernel[i + 1]))
                   for i, c in enumerate(self.report["commands"]))

    def speed(self) -> float:
        kernel = self.report["calibration_s"]
        return CAL_REF_S * len(kernel) / sum(kernel)


def _spawn(commands, trace: bool, context: bool, timeout: float) -> _Pass:
    job = json.dumps({"src": SRC, "commands": [list(c.argv) for c in commands],
                      "trace": trace, "context": context})
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, job], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return _Pass(None, time.perf_counter() - t_spawn, float("nan"))
    seconds = time.perf_counter() - t_spawn
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return _Pass(None, seconds, float("nan"))
    report = json.loads(proc.stdout.splitlines()[-1])
    return _Pass(report, seconds, report["t_ready"] - t_spawn)


def _src_lines() -> dict[str, int]:
    def lines(path):
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")

    out = {}
    for name in MODULES:
        path = os.path.join(PACKAGE, f"{name}.py")
        out[f"src_lines.{name}"] = lines(path) if os.path.exists(path) else 0
    out["src_lines.total"] = sum(
        lines(p) for p in glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                    recursive=True))
    return out


def _measure(args, commands, checker):
    """Run passes, then probes; returns (plain, traced, set-up samples)."""
    plain: list[_Pass] = []
    traced: list[_Pass] = []
    start = time.perf_counter()
    while True:
        traced_next = args.trace == 1 and len(traced) < len(plain)
        for cmd in commands:
            if os.path.exists(cmd.out):
                os.remove(cmd.out)
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        p = _spawn(commands, traced_next, not plain, left)
        if p.report is None:
            for cmd in commands:
                checker.check(cmd, None)
            break
        for cmd, res in zip(commands, p.report["commands"]):
            checker.check(cmd, res["rc"])
        (traced if traced_next else plain).append(p)
        elapsed = time.perf_counter() - start
        # a pass can run a quarter slower than the slowest one so far
        estimate = 1.25 * max(q.seconds for q in plain + traced)
        if elapsed + estimate > args.seconds and (args.trace == 0 or traced):
            break
    setups = plain + traced
    while len(setups) < MIN_SETUPS and plain:
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        probe = _spawn([], False, False, left)
        if probe.report is None:
            break
        setups.append(probe)
    return plain, traced, setups


def _end_to_end(plain, setups) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (median(p.setup_s * p.setup_speed() for p in setups), "s"),
        "wall_s": (median(p.scaled("seconds") for p in plain), "s"),
        "cpu_s": (median(p.scaled("cpu_s") for p in plain), "s"),
        "peak_rss_mb": (median(p.report["peak_rss_mb"] for p in plain), "MB"),
    }


def _raw(plain, setups) -> dict[str, float]:
    return {
        "raw.setup_s": median(p.setup_s for p in setups),
        "raw.wall_s": median(p.report["wall_s"] for p in plain),
        "raw.cpu_s": median(p.report["cpu_s"] for p in plain),
        "calibration.kernel_s": median(k for p in setups
                                       for k in p.report["calibration_s"]),
    }


def _per_layer(plain, traced, setups, checker) -> dict[str, tuple[float, str]]:
    first = traced[0].report["trace"]
    out = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = median(p.report["trace"][name] * p.speed() for p in traced)
            out[name] = (value, "s")
        else:
            out[name] = (value, "bytes" if name.endswith(".bytes") else "count")
    for key in ("import_numpy_s", "import_scipy_s", "import_trapdiff_s"):
        out[f"setup.{key}"] = (median(p.report[key] * p.setup_speed()
                                      for p in setups), "s")
    wall_traced = median(p.scaled("seconds") for p in traced)
    wall_plain = median(p.scaled("seconds") for p in plain)
    out["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    for name, value in _raw(plain, setups).items():
        out[name] = (value, "s")
    out["check.rte.max_abs_dev"] = (checker.max_abs_dev["RTE"], "1/cm")
    out["check.rte.max_rel_dev"] = (checker.max_rel_dev["RTE"], "ratio")
    out["check.fde.max_rel_dev"] = (checker.max_rel_dev["FDE"], "ratio")
    for name, value in _src_lines().items():
        out[name] = (value, "lines")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"no trapdiff sources under {SRC}", file=sys.stderr)
        return 2
    try:
        reference = gate.load_reference()
    except gate.ReferenceError as exc:
        print(f"reference values unusable: {exc}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, str(os.getpid()))
    commands = workloads.build(args.workload, args.seed, workdir)
    checker = gate.Checker(reference, commands)
    os.makedirs(workdir)
    try:
        plain, traced, setups = _measure(args, commands, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    if not plain or (args.trace == 1 and not traced):
        metrics = {}
        checker.problems.append("no complete pass")
    elif args.trace == 0:
        metrics = _end_to_end(plain, setups)
    else:
        metrics = _per_layer(plain, traced, setups, checker)

    first = plain[0].report if plain else {}
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": first.get("python"), "numpy": first.get("numpy"),
        "scipy": first.get("scipy"), "blas": first.get("blas"),
        "passes": len(plain), "traced_passes": len(traced),
        "setup_samples": len(setups),
        "raw": _raw(plain, setups) if metrics else {},
        "pass_wall_s": [p.report["wall_s"] for p in plain],
        "pass_speed": [p.speed() for p in plain],
        "commands": [" ".join(c.argv[:-2]) for c in commands],
        "problems": checker.problems[:20],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": checker.correct and bool(metrics),
        "attempted": checker.attempted,
        "failed": len(checker.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
