"""The benchmark's workloads: the `trapdiff` commands each one runs.

Every workload is a closed loop of one client that runs its commands one
after another, like a batch script. The inputs are fixed; the seed only
permutes the order of the commands (or, for the single `compare`
command, the order of its output times). That changes no value, but it
exposes order-dependent state such as the process-wide spectrum cache.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

PANELS = ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c")
PANEL_TIME = {"fig1": 10.0, "fig2": 100.0}
PANEL_COUNT = 151
LATE_SCENARIO = "fig1a"
LATE_TIMES = (10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0, 200.0)
LATE_COUNT = 16

NAMES = ("panels-rte", "panels-fde", "late-times")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the density values it must emit.

    `series` lists (scenario, t, x_count) keys of the reference file;
    every solver in `solvers` must appear for every series.
    """

    argv: tuple[str, ...]
    out: str
    compare: bool
    series: tuple[tuple[str, float, int], ...]
    solvers: tuple[str, ...]


def series_key(scenario: str, t: float, count: int) -> str:
    return f"{scenario}:t={t:g}:n={count}"


def _panel_command(panel: str, solvers: tuple[str, ...], outdir: str) -> Command:
    out = os.path.join(outdir, f"{panel}.csv")
    argv = ("profile", "--scenario", panel, "--solvers", ",".join(solvers),
            "--out", out)
    return Command(argv=argv, out=out, compare=False,
                   series=((panel, PANEL_TIME[panel[:4]], PANEL_COUNT),),
                   solvers=solvers)


def build(name: str, seed: int, outdir: str) -> list[Command]:
    """The commands of workload `name`, in the order given by `seed`."""
    rng = random.Random(seed)
    if name in ("panels-rte", "panels-fde"):
        solvers = ("RTE",) if name == "panels-rte" else ("FDE", "NORMAL")
        order = list(PANELS)
        rng.shuffle(order)
        return [_panel_command(p, solvers, outdir) for p in order]
    if name == "late-times":
        times = list(LATE_TIMES)
        rng.shuffle(times)
        out = os.path.join(outdir, "late-times.csv")
        solvers = ("RTE", "FDE", "NORMAL")
        argv = ("compare", "--scenario", LATE_SCENARIO,
                "--times", ",".join(f"{t:g}" for t in times),
                "--x-count", str(LATE_COUNT), "--solvers", ",".join(solvers),
                "--out", out)
        series = tuple((LATE_SCENARIO, t, LATE_COUNT) for t in LATE_TIMES)
        return [Command(argv=argv, out=out, compare=True, series=series,
                        solvers=solvers)]
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")


def all_series() -> list[tuple[str, float, int]]:
    """Every (scenario, t, x_count) that some workload emits."""
    return ([(p, PANEL_TIME[p[:4]], PANEL_COUNT) for p in PANELS]
            + [(LATE_SCENARIO, t, LATE_COUNT) for t in LATE_TIMES])
