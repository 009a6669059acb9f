"""Scenario driver: profiles, CSV/plot emission, and the validation suite.

A Scenario bundles everything needed to reproduce one panel of the
reference figures: transport parameters, output times (no two equal),
the spatial grid, and which solvers to run. The six built-in scenarios
cover the trapping-strength and trapping-scale variations at t = 10 and
t = 100 minutes.

Trapping changes the clock, not the kernel, so a contour solver is one
entry of the kernel x memory table `PAIRINGS`: a memory maps a stack of
transform points s to (S, p) (`waiting`: the exact one and its power-law
tail), and a trap-free `Kernel` maps that (S, p) to the decay rate and
amplitude of every (node, mode). RTE is the discrete-ordinates kernel
`DO` (`transport.modes`) under the exact memory, FDE the diffusion
kernel `DIFFUSION` (`fde.modes`) under the power law, and DEM the
diffusion kernel under the exact memory, for the checks only (no CLI
name). Each kernel states its own step, its front and its up-front
check once: DO runs at step pi / M, stops at the ballistic front
|x| = speed * t and reads 0 past it (no particle gets there, so the
contour sum is ringing), and certifies its points before any solve
(`transport.certifiable`); diffusion runs at half that step, with no
front. `solver_modes` composes an entry, and `_contour_values` runs it:
one `ilt.contour` rule over all times at the kernel's step, one
`solver_modes` call over its distinct nodes (the contours of one shift
fold onto the shared s = sigma: fig1a's eight late times hold 445
distinct points in 544 nodes), then per time one `transport.mode_sum`
of its nodes' modes, weighted by the contour. `run_scenario` runs the
solvers one after the other, each over all times; NORMAL is the heat
kernel, one array call per time. `check_times` refuses up front a time
at which an entry's contour overflows or its kernel cannot certify the
farthest node.
`validate --level full` checks FDE against the time-domain oracle
`fde.subordinated_density` at alpha = 0.3, 1/2 and 0.7.

Everything here is deliberately sequential and deterministic: the same
scenario produces a bit-identical CSV on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import fde, transport, waiting
from .errors import NumericFailureError
from .ilt import M, SHIFT, contour, invert, invert_reference
from .specfun import QuadratureSet, gauss_legendre
from .transport import TransportParams, _node_stack
from .waiting import WaitingTimeModel

__all__ = [
    "SpatialGrid",
    "Scenario",
    "SpatialProfile",
    "builtin_scenarios",
    "check_times",
    "run_scenario",
    "emit_csv",
    "emit_plot_script",
    "validate",
]

# the CSV's solver columns in emission order: solver, column, plot title
_COLUMNS = (("RTE", "u_rte", "transport"),
            ("FDE", "u_de", "fractional diffusion"),
            ("NORMAL", "u_normal", "normal diffusion"))
SOLVER_ORDER = tuple(solver for solver, _, _ in _COLUMNS)
CSV_HEADER = ",".join(["x_cm", *(col for _, col, _ in _COLUMNS),
                       "t_min", "scenario"])
DIFF_HEADER = ",diff_rte_de,reldiff_rte_de"
# a run holds 0.55 to 0.9 kB per (x, t) row (fig2a, all solvers: 82 MB
# peak at 2 points, 259 MB at 2e5 points, 368 MB at 2e5 points and two
# times), so a run past 1e6 rows, about 1 GB, is refused, and a grid
# past 1e6 points before it forms them
MAX_ROWS = 10**6


@dataclass(frozen=True)
class SpatialGrid:
    x_min: float
    x_max: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"grid bounds must be finite, got "
                             f"[{self.x_min}, {self.x_max}]")
        if not 2 <= self.count <= MAX_ROWS:
            raise ValueError(f"grid needs 2 to {MAX_ROWS} points, "
                             f"got {self.count}")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(f"grid span x_max - x_min must be finite, got "
                             f"[{self.x_min}, {self.x_max}]")
        # the contour sums need the points increasing and evenly spaced,
        # which a step below the endpoints' resolution (x_max = 5e-324
        # over 61 points) does not give
        transport._uniform_grid(self.points())

    def points(self) -> tuple[float, ...]:
        step = (self.x_max - self.x_min) / (self.count - 1)
        return tuple(self.x_min + i * step for i in range(self.count))


@dataclass(frozen=True)
class Scenario:
    """One reproducible computation: parameters, times, grid, solvers;
    `quadrature`, RTE's ordinate rule, is built on first use, once. The
    defaults: the figures' medium untrapped, t = 10, x 0-15 at 151 points."""

    label: str
    transport: TransportParams = TransportParams(
        sigma_a=1e-9, sigma_s=1.0, sigma_trap=0.0,
        waiting=WaitingTimeModel(alpha=0.5, gamma=0.1))
    times: tuple[float, ...] = (10.0,)
    grid: SpatialGrid = SpatialGrid(0.0, 15.0, 151)
    solvers: frozenset[str] = frozenset(SOLVER_ORDER)
    n_ordinates: int = 30

    def __post_init__(self):
        # the label is a CSV cell and a quoted gnuplot string
        if any(c in self.label for c in ",'\"\n\r"):
            raise ValueError(f"scenario label {self.label!r} must not contain "
                             f"a comma, a quote or a line break")
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "solvers", frozenset(self.solvers))
        if not self.times or not all(0.0 < t < math.inf for t in self.times):
            raise ValueError("times must be a nonempty list of positive, "
                             "finite reals")
        # profiles are keyed by their time's CSV cell: two in one merge
        if len({_time_cell(t) for t in self.times}) != len(self.times):
            raise ValueError(f"times must not repeat to 9 significant "
                             f"digits, got {', '.join(map(repr, self.times))}")
        bad = self.solvers - set(SOLVER_ORDER)
        if bad or not self.solvers:
            raise ValueError(f"solvers must be a nonempty subset of {SOLVER_ORDER}")
        # RTE's memory grows as N^2 per time: 40 MB at N = 240
        if not 1 <= self.n_ordinates <= 240:
            raise ValueError(f"need 1 to 240 ordinates, got {self.n_ordinates}")
        if (rows := self.grid.count * len(self.times)) > MAX_ROWS:
            raise ValueError(f"need at most {MAX_ROWS} (x, t) rows, "
                             f"got {rows}")
        # every solver run builds the FDE constants (NORMAL uses them too):
        # one that is out of range, a diffusivity speed^2 / (3 sigma_s)
        # that underflows to 0 or overflows to inf, is refused here rather
        # than mid-run
        fde.from_transport(self.transport)

    @cached_property
    def quadrature(self) -> QuadratureSet:
        return gauss_legendre(self.n_ordinates)


@dataclass(frozen=True)
class SpatialProfile:
    """Density values of one solver at one time on one grid."""

    scenario: str
    solver: str
    t: float
    points: tuple[tuple[float, float], ...]

    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points)


def _figure_scenario(label: str, sigma_trap: float, gamma: float,
                     t: float) -> Scenario:
    tp = Scenario.transport
    return Scenario(label, replace(tp, sigma_trap=sigma_trap,
                                   waiting=replace(tp.waiting, gamma=gamma)),
                    times=(t,))


def builtin_scenarios() -> dict[str, Scenario]:
    """The six reference panels: (a) strong trapping, (b) weak trapping,
    (c) long trapping timescale; each at t = 10 and t = 100 min."""
    out = {}
    for tag, t in (("fig1", 10.0), ("fig2", 100.0)):
        out[f"{tag}a"] = _figure_scenario(f"{tag}a", 0.1, 0.1, t)
        out[f"{tag}b"] = _figure_scenario(f"{tag}b", 0.01, 0.1, t)
        out[f"{tag}c"] = _figure_scenario(f"{tag}c", 0.1, 1.0, t)
    return out


@dataclass(frozen=True)
class Kernel:
    """A trap-free kernel: `modes(sc, S, p)` gives the (rate, coef) of its
    modes under a memory's (S, p) stack; it runs on the contour at step
    pi / (refine m); ballistic, it reads 0 past the front |x| = speed t;
    and `certifiable(sc, p)`, if given, tells before any solve which
    points p it can certify."""

    modes: Callable
    refine: float = 1.0
    ballistic: bool = False
    certifiable: Callable | None = None


# discrete ordinates: nothing reaches past the ballistic front, where the
# contour sum is ringing
DO = Kernel(lambda sc, *sp: transport.modes(sc.transport, sc.quadrature, *sp),
            ballistic=True, certifiable=lambda sc, p: transport.certifiable(
                sc.transport, sc.quadrature, p))
# diffusion, at half of DO's step: at DO's the rule leaves ~2e-10
# absolute at t = 10, too much for the tail
DIFFUSION = Kernel(lambda sc, *sp: fde.modes(fde.from_transport(sc.transport),
                                             *sp), refine=2.0)


def _exact(sc: Scenario, s):
    """The waiting law's exact memory (S, p) at every point of s."""
    return sc.transport.waiting.memory(sc.transport.sigma_trap, s)


def _power(sc: Scenario, s):
    """Its power-law tail's (S, p), with FDE's coefficient eta."""
    p = fde.from_transport(sc.transport)
    return waiting.power_memory(p.trap_strength, p.alpha, s)


# the kernel x memory table, solver -> (kernel, memory). DEM, the
# diffusion kernel under the exact memory, is for the checks: no CLI name
PAIRINGS = {"RTE": (DO, _exact), "FDE": (DIFFUSION, _power),
            "DEM": (DIFFUSION, _exact)}


def solver_modes(sc: Scenario, solver: str, s):
    """The (rate, coef) of a table solver's modes at every point of s:
    its memory's (S, p), then its kernel's modes of them. ValueError
    unless s is a one-dimensional stack."""
    kernel, memory = PAIRINGS[solver]
    return kernel.modes(sc, *memory(sc, _node_stack(s)))


def _contour_values(sc: Scenario, solver: str, times, xs, m: float = M):
    """A table solver's densities of sc at every x, per time in the order
    of times; past a ballistic kernel's front |x| > speed * t, 0 and not
    summed.

    `solver_modes` is called once, over the distinct `ilt.contour` nodes
    of all times at the kernel's step pi / (refine m), in the
    (Re s, Im s) order of `np.unique`: along each contour, the contours
    grouped by shift, with a point that several times share (s = sigma,
    where the contours of one shift fold) given once. A failure naming a
    point by its index there is reported at its s and at the first time
    that holds it (else at t nan). Each time is one `transport.mode_sum`
    of its nodes' rows, coef times the weights."""
    kernel, _ = PAIRINGS[solver]
    s_nodes, weights, prefactors = contour(times, kernel.refine * m)
    points, back = np.unique(s_nodes, return_inverse=True)
    back = back.reshape(s_nodes.shape)  # numpy 1.x returns it flat
    try:
        rate, coef = solver_modes(sc, solver, points)
    except NumericFailureError as exc:
        node = exc.context.get("node")
        where = {"t": math.nan} if node is None else {
            "s": complex(points[node]),
            "t": times[(back == node).any(axis=1).argmax()]}
        raise NumericFailureError(exc.args[0], **exc.context,
                                  solver=solver, **where) from exc
    speed = sc.transport.speed if kernel.ballistic else math.inf
    return [prefactor * transport.mode_sum(
                xs, rate[k], coef[k] * weights[:, None], speed * t).real
            for t, prefactor, k in zip(times, prefactors.tolist(), back)]


def check_times(sc: Scenario) -> None:
    """Raise ValueError if sc runs a table solver at a time whose contour,
    at that solver's step, overflows (t < 6e-307 at RTE's, 1.2e-306 at
    FDE's), or whose farthest node its kernel cannot certify (RTE's:
    t < 0.0235 at N = 30)."""
    for solver, (kernel, memory) in PAIRINGS.items():
        if solver not in sc.solvers:
            continue
        far = contour(sc.times, kernel.refine * M)[0][:, -1]
        if kernel.certifiable and not (
                ok := kernel.certifiable(sc, memory(sc, far)[1])).all():
            raise ValueError(
                f"{solver} cannot resolve t = {sc.times[np.argmin(ok)]:g} at "
                f"{sc.n_ordinates} ordinates: its eigenvalues lie too close "
                "to the quadrature rays (use a later time or fewer ordinates)")


def run_scenario(sc: Scenario, m: float = M) -> list[SpatialProfile]:
    """All requested profiles, ordered by time then RTE, FDE, NORMAL.

    Each solver runs over all times before the next starts, so RTE's
    modes are freed before FDE forms its own. RTE and FDE run on the
    contour at their kernels' steps, pi / m and half of it; only the
    step-halving check moves m off `ilt.M`.
    """
    xs = sc.grid.points()
    values = {solver: _contour_values(sc, solver, sc.times, xs, m)
              for solver in PAIRINGS if solver in sc.solvers}
    if "NORMAL" in sc.solvers:
        p = fde.from_transport(sc.transport)
        values["NORMAL"] = [fde.normal_diffusion(p, np.array(xs), t)
                            for t in sc.times]
    profiles = []
    for i, t in enumerate(sc.times):
        for solver, per_time in values.items():  # in SOLVER_ORDER
            u = per_time[i]
            finite = np.isfinite(u)
            if not finite.all():
                raise NumericFailureError("non-finite density", solver=solver,
                                          t=t, x=xs[np.argmin(finite)])
            profiles.append(SpatialProfile(
                scenario=sc.label, solver=solver, t=t,
                points=tuple(zip(xs, u.tolist()))))
    return profiles


def _profile_groups(profiles: list[SpatialProfile]):
    """The shared x grid and, in emission order, (scenario, t) -> {solver:
    profile}; ValueError if there are no profiles or their grids differ."""
    if not profiles:
        raise ValueError("no profiles to emit")
    groups: dict[tuple[str, float], dict[str, SpatialProfile]] = {}
    xs = profiles[0].xs()
    for p in profiles:
        if p.xs() != xs:
            raise ValueError("profiles do not share an x grid")
        groups.setdefault((p.scenario, p.t), {})[p.solver] = p
    return xs, groups


def _time_cell(t: float) -> str:
    """A time as its CSV cell reads, and as the plot script selects it."""
    return f"{t:.9g}"


def emit_csv(profiles: list[SpatialProfile], path: str,
             differences: bool = False) -> None:
    """Write profiles as CSV: 9 significant digits, LF endings, one row
    per grid point with empty cells for solvers that were not run.

    differences=True appends diff_rte_de = u_rte - u_de and
    reldiff_rte_de = |diff| / |u_de| (inf where u_de = 0); every row
    then needs both an RTE and an FDE value.
    """
    xs, groups = _profile_groups(profiles)
    lines = [CSV_HEADER + (DIFF_HEADER if differences else "")]
    for (scenario, t), group in groups.items():
        u = {solver: [v for _, v in p.points] for solver, p in group.items()}
        extra = []
        if differences:
            if not {"RTE", "FDE"} <= u.keys():
                raise ValueError("difference columns need RTE and FDE "
                                 f"profiles at t={t:g}")
            diff = [a - b for a, b in zip(u["RTE"], u["FDE"])]
            extra = [diff, [abs(d) / abs(b) if b != 0.0 else math.inf
                            for d, b in zip(diff, u["FDE"])]]
        cells = [[""] * len(xs) if col is None else [f"{v:.9g}" for v in col]
                 for col in (xs, *map(u.get, SOLVER_ORDER))]
        cells += [[_time_cell(t)] * len(xs), [scenario] * len(xs)]
        cells += [[f"{v:.9g}" for v in col] for col in extra]
        lines += map(",".join, zip(*cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plot_script(profiles: list[SpatialProfile], path: str,
                     csv_path: str, logy: bool = False) -> None:
    """Write a gnuplot script with one panel: the one scenario of
    `profiles`, one curve per (time, solver). Raises ValueError, before
    any file is written, if `profiles` holds several scenarios."""
    _profile_groups(profiles)  # same emptiness/grid validation as the CSV
    scenarios = {p.scenario for p in profiles}
    if len(scenarios) > 1:
        raise ValueError(f"a plot script shows one scenario, got "
                         f"{', '.join(sorted(scenarios))}")
    (scenario,) = scenarios
    times = list(dict.fromkeys(p.t for p in profiles))
    solvers = {p.solver for p in profiles}

    lines = ["# generated plot script; expects the CSV alongside",
             "set datafile separator ','", "set xlabel 'x [cm]'",
             "set ylabel 'density [1/cm]'"]
    if logy:
        lines.append("set logscale y")
    lines.append(f"set title '{scenario}'")
    t_col = 2 + len(_COLUMNS)  # 1-based CSV columns, x first
    curves = []
    for t in times:
        for col, (solver, _, label) in enumerate(_COLUMNS, start=2):
            if solver not in solvers:
                continue
            sel = (f"(strcol({t_col + 1}) eq '{scenario}' && "
                   f"column({t_col}) == {_time_cell(t)} ? column(1) : NaN)")
            curves.append(f"'{csv_path}' using {sel}:(column({col})) "
                          f"with lines title '{label} t={t:g}'")
    lines.append("plot \\\n  " + ", \\\n  ".join(curves))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _check(name: str, measured: float, tolerance: float) -> dict:
    status = "pass" if measured <= tolerance else "fail"
    return {"check": name, "status": status, "measured": measured,
            "tolerance": tolerance}


def _step_halving(m: float) -> float:
    """Largest |du| of fig2a's RTE and FDE profiles (t = 100, past the
    short-time ray effects) between steps pi / m and pi / (2 m)."""
    fig2a = replace(builtin_scenarios()["fig2a"],
                    solvers=frozenset(("RTE", "FDE")))
    return max(abs(a - b) for coarse, fine in zip(run_scenario(fig2a, m),
                                                  run_scenario(fig2a, 2 * m))
               for (_, a), (_, b) in zip(coarse.points, fine.points))


def validate(level: str = "fast") -> list[dict]:
    """Self-check suite; returns one report entry per check.

    fast runs in milliseconds on closed-form material; full adds the
    mass oracles, cross-solver agreement, and a step-halving study of
    the inversion, and takes about 1 s (1.0 to 1.4 s measured from the
    command line on a shared 2-core machine, 0.24 s of it in the checks,
    the rest imports).
    """
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level}")
    report: list[dict] = []
    scenario_a = builtin_scenarios()["fig1a"]
    tp = scenario_a.transport

    # closed-form N=1 eigenvalue of the kernel: nu = mu1/sqrt(st(st-ss))
    q1 = gauss_legendre(1)
    worst = 0.0
    for st_val, ss in ((2.0, 1.0), (1.5, 0.25), (3.0, 2.5)):
        params = replace(tp, sigma_a=st_val - ss - 0.5, sigma_s=ss)
        nus, _ = transport.spectra(params, q1, [0.5])
        exact = q1.nodes[0] / math.sqrt(st_val * (st_val - ss))
        worst = max(worst, abs(nus[0, 0] - exact) / exact)
    report.append(_check("transport.eigenvalue_n1", worst, 1e-12))

    # known Laplace pairs through the inverter; the ramp has a wider
    # budget than the bounded originals, so errors are reported as
    # fractions of each pair's own budget
    pairs = [(lambda s: 1.0 / s, lambda t: 1.0, 5.0, 1e-6),
             (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t), 1.0, 1e-6),
             (lambda s: 1.0 / (s * s), lambda t: t, 3.0, 1e-5)]
    worst = 0.0
    for transform_f, original, t, budget in pairs:
        got = invert(transform_f, t)
        rel = abs(got - original(t)) / abs(original(t))
        worst = max(worst, rel / budget)
    report.append(_check("ilt.known_pairs", worst, 1.0))

    # transform-space mass at k=0 collapses to 2/s when absorption is off
    p_a = replace(fde.from_transport(tp), sigma_a=0.0)
    s0 = complex(0.7, 0.3)
    report.append(_check("fde.transform_mass",
                         abs(fde.fourier_laplace(p_a, 0.0, s0) - 2.0 / s0),
                         1e-13))

    if level == "fast":
        return report

    # transport moment oracle on a short contour sample: the modes' mass
    # and second moment against 2 S / A and 4 S c^2 / (3 sigma_t A^2),
    # A = sigma_a + p, from the survival transform
    s_sample = [complex(SHIFT, im) for im in (-300.0, -3.0, 0.0, 0.5, 40.0)]
    rate, coef = solver_modes(scenario_a, "RTE", s_sample)
    worst = 0.0
    for s, r, c in zip(s_sample, rate, coef):
        lphi = tp.waiting.laplace_survival(s)
        source = 1.0 + tp.sigma_trap * lphi
        absorb = s + tp.sigma_a + tp.sigma_trap * s * lphi
        second = 4.0 * source * tp.speed**2 / (
            3.0 * (tp.sigma_s + absorb) * absorb**2)
        for got, want in ((sum(2.0 * c / r), 2.0 * source / absorb),
                          (sum(4.0 * c / r**3), second)):
            worst = max(worst, abs(got - want) / abs(want))
    report.append(_check("transport.mass_oracle", worst, 1e-8))

    # time-domain solver vs the transform-space oracle
    p_fig = fde.from_transport(tp)
    worst = 0.0
    for (x, t) in ((1.0, 10.0), (5.0, 100.0)):
        direct = fde.subordinated_density(p_fig, x, t)
        oracle = invert(lambda s: fde.laplace_density(p_fig, x, s), t)
        worst = max(worst, abs(direct - oracle) / abs(oracle))
    report.append(_check("fde.oracle_equivalence", worst, 1e-8))

    # production FDE profile (closed-form transform on the contour) vs
    # the time-domain quadrature, which shares no algebra with it, at
    # fig1a's alpha = 1/2 and with it swapped for 0.3 and 0.7
    worst = 0.0
    for alpha in (0.5, 0.3, 0.7):
        sc_alpha = replace(scenario_a, transport=replace(
            tp, waiting=replace(tp.waiting, alpha=alpha)))
        p_alpha = fde.from_transport(sc_alpha.transport)
        for (x, t) in ((0.0, 10.0), (1.0, 10.0), (5.0, 100.0)):
            direct = fde.subordinated_density(p_alpha, x, t)
            ((closed,),) = _contour_values(sc_alpha, "FDE", (t,), [x])
            worst = max(worst, abs(closed - direct) / abs(direct))
    report.append(_check("fde.closed_form_vs_time_domain", worst, 1e-8))

    # inversion convergence: halving the contour step must not move a
    # real profile
    report.append(_check("ilt.step_halving", _step_halving(M), 1e-8))

    # the production RTE profile against Talbot's inversion of the
    # transform at one point (off the ballistic front, where it is smooth)
    x, t = 2.0, 10.0
    ((de_val,),) = _contour_values(scenario_a, "RTE", (t,), [x])
    tb_val = invert_reference(lambda s: transport.mode_sum(
        [x], *solver_modes(scenario_a, "RTE", [s]))[0], t)
    report.append(_check("ilt.cross_inverter_transport",
                         abs(de_val - tb_val) / abs(de_val), 1e-4))
    return report
