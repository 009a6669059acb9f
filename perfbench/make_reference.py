"""Generate and certify the reference values of the correctness gate.

Usage (from the root of a checkout):

    python3 perfbench/make_reference.py --commit <id>     # values + certification
    python3 perfbench/make_reference.py --certify-only    # re-certify values.json

Values come from `harness.run_scenario` at full precision, one scenario
per (panel or comparison, t, grid) series that a workload emits. The
certification then recomputes each value through an oracle that shares
no algebra with the production path and records the worst deviation
against a tolerance set by the oracle's own accuracy:

* RTE: fixed-Talbot `ilt.invert_reference` of `transport.laplace_density`
  instead of the double-exponential Bromwich rule. Only |x| <= 0.85 *
  speed * t is certified: near and past the ballistic front the fixed
  Talbot rule cannot resolve the fronts. At t = 10 the fronts still
  leave it an absolute error near 1e-5 (up to ~1e-2 relative where the
  density is small); from t = 20 on it agrees to 1e-7 relative.
* FDE: `invert_reference` of `fde.laplace_density`, the numerical
  Fourier route, instead of the time-domain subordination quadrature.
* NORMAL: `invert_reference` of the heat kernel's Laplace transform
  exp(-|x| sqrt((s + sigma_a)/D)) / sqrt(D (s + sigma_a)) instead of
  its time-domain closed form.

Takes about two minutes on two cores.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from trapdiff import fde, transport  # noqa: E402
from trapdiff.harness import SpatialGrid, builtin_scenarios, run_scenario  # noqa: E402
from trapdiff.ilt import invert_reference  # noqa: E402
from trapdiff.specfun import gauss_legendre  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

SOLVERS = ("RTE", "FDE", "NORMAL")
FRONT_SHARE = 0.85  # certify RTE only for |x| <= FRONT_SHARE * speed * t


def _tolerance(solver: str, t: float) -> tuple[float, float]:
    """(rtol, atol) set by the oracle's accuracy, not the solver's."""
    if solver == "RTE" and t < 20.0:
        return 1e-3, 2e-5
    return 1e-7, 1e-10


def _scenario(scenario: str, t: float, count: int):
    sc = builtin_scenarios()[scenario]
    grid = SpatialGrid(sc.grid.x_min, sc.grid.x_max, count)
    return dataclasses.replace(sc, times=(t,), grid=grid,
                               solvers=frozenset(SOLVERS))


def generate(commit: str) -> bytes:
    lines = ["{", f' "commit": {json.dumps(commit)},', ' "series": {']
    entries = []
    for scenario, t, count in workloads.all_series():
        sc = _scenario(scenario, t, count)
        profiles = {p.solver: p for p in run_scenario(sc)}
        entry = {"scenario": scenario, "t": t, "front": sc.transport.speed * t,
                 "x": list(profiles["RTE"].xs())}
        for solver in SOLVERS:
            entry[solver] = [u for _, u in profiles[solver].points]
        key = workloads.series_key(scenario, t, count)
        entries.append(f"  {json.dumps(key)}: {json.dumps(entry)}")
        print(f"generated {key}", file=sys.stderr)
    lines.append(",\n".join(entries))
    lines += [" }", "}"]
    return ("\n".join(lines) + "\n").encode()


def _oracle(solver: str, sc, x: float, t: float) -> float:
    tp = sc.transport
    if solver == "RTE":
        quadrature = gauss_legendre(sc.n_ordinates)
        return invert_reference(
            lambda s: transport.laplace_density(tp, quadrature, s, x), t)
    p = fde.from_transport(tp)
    if solver == "FDE":
        return invert_reference(lambda s: fde.laplace_density(p, x, s), t)

    def heat(s: complex) -> complex:
        q = s + p.sigma_a
        return cmath.exp(-abs(x) * cmath.sqrt(q / p.diffusivity)) / cmath.sqrt(
            p.diffusivity * q)

    return invert_reference(heat, t)


def certify(raw: bytes) -> dict:
    series = json.loads(raw)["series"]
    out = {}
    all_passed = True
    for key, entry in series.items():
        t = entry["t"]
        sc = _scenario(entry["scenario"], t, len(entry["x"]))
        out[key] = {}
        for solver in SOLVERS:
            rtol, atol = _tolerance(solver, t)
            worst_abs = worst_rel = 0.0
            worst_x = None
            checked = skipped = 0
            passed = True
            for x, ref in zip(entry["x"], entry[solver]):
                if solver == "RTE" and abs(x) > FRONT_SHARE * entry["front"]:
                    skipped += 1
                    continue
                oracle = _oracle(solver, sc, x, t)
                dev = abs(ref - oracle)
                checked += 1
                if dev > atol + rtol * abs(oracle):
                    passed = False
                if dev > worst_abs:
                    worst_abs, worst_x = dev, x
                if oracle != 0.0:
                    worst_rel = max(worst_rel, dev / abs(oracle))
            all_passed &= passed
            out[key][solver] = {
                "certified": checked, "skipped_near_front": skipped,
                "max_abs_dev": worst_abs, "x_of_max_abs_dev": worst_x,
                "max_rel_dev": worst_rel, "rtol": rtol, "atol": atol,
                "passed": passed,
            }
            print(f"{key} {solver}: {checked} certified, max abs {worst_abs:.2e}"
                  f" rel {worst_rel:.2e} {'ok' if passed else 'FAILED'}",
                  file=sys.stderr)
    return {
        "values_sha256": hashlib.sha256(raw).hexdigest(),
        "all_passed": all_passed,
        "oracles": {
            "RTE": "ilt.invert_reference of transport.laplace_density, "
                   f"|x| <= {FRONT_SHARE} * speed * t",
            "FDE": "ilt.invert_reference of fde.laplace_density",
            "NORMAL": "ilt.invert_reference of "
                      "exp(-|x| sqrt((s+sigma_a)/D)) / sqrt(D (s+sigma_a))",
        },
        "rule": "|ref - oracle| <= atol + rtol * |oracle|",
        "series": out,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--commit", help="commit the values are generated at")
    group.add_argument("--certify-only", action="store_true")
    args = parser.parse_args()
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    if args.certify_only:
        with open(gate.VALUES, "rb") as fh:
            raw = fh.read()
    else:
        raw = generate(args.commit)
        with open(gate.VALUES, "wb") as fh:
            fh.write(raw)
    cert = certify(raw)
    with open(gate.CERTIFICATION, "w", encoding="utf-8") as fh:
        json.dump(cert, fh, indent=1)
        fh.write("\n")
    return 0 if cert["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
