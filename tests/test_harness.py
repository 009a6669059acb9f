"""Tests for the comparison harness: scenarios, CSV/plot emission, self-checks."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from trapdiff import fde, harness, ilt, transport, waiting
from trapdiff.errors import NumericFailureError
from trapdiff.harness import (
    CSV_HEADER,
    Scenario,
    SpatialGrid,
    builtin_scenarios,
    check_times,
    emit_csv,
    emit_plot_script,
    run_scenario,
    validate,
)
from trapdiff.ilt import M, contour, invert_reference
from trapdiff.specfun import gauss_legendre
from trapdiff.transport import TransportParams
from trapdiff.waiting import WaitingTimeModel


def small_scenario(label="small", sigma_trap=0.1, solvers=("RTE", "FDE", "NORMAL"),
                   times=(10.0,), grid=SpatialGrid(0.0, 4.0, 3)):
    """The figures' medium at sigma_trap (fig1a's at 0.1) on a small grid."""
    return Scenario(
        label=label,
        transport=dataclasses.replace(Scenario.transport,
                                      sigma_trap=sigma_trap),
        times=times,
        grid=grid,
        solvers=frozenset(solvers),
    )


# ------------------------------------------------------------------ scenarios

def test_grid_points_are_inclusive_and_even():
    g = SpatialGrid(0.0, 10.0, 6)
    assert g.points() == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(0.0, 10.0, 1)
    with pytest.raises(ValueError):
        SpatialGrid(5.0, 5.0, 3)


def test_grid_too_fine_to_separate_its_points_is_refused():
    """A span below the resolution of its endpoints gives no evenly
    spaced points (at x_max = 5e-324 the step underflows and all 61 sit
    on x = 0): refused when the grid is built, not mid-run by the
    contour sum."""
    for x_min, x_max in ((0.0, 5e-324), (1e6, 1e6 + 1e-9)):
        with pytest.raises(ValueError, match="evenly spaced"):
            SpatialGrid(x_min, x_max, 61)
    assert len(set(SpatialGrid(0.0, 1e-320, 61).points())) == 61


@pytest.mark.parametrize("ulps, accepted", [(2, False), (3, False),
                                            (4, True), (5, True)])
def test_grid_step_needs_four_ulps_of_its_larger_endpoint(ulps, accepted):
    """The spacing rule reads (x_min, x_max, count) alone: a step under 4
    ulps of the larger endpoint is refused, though 1, 1 + 2 ulps, 1 + 4
    ulps are exact and evenly spaced, and from 4 ulps on it is kept."""
    ulp = math.ulp(1.0)
    x_max = 1.0 + 2 * ulps * ulp
    assert math.ulp(x_max) == ulp
    if accepted:
        assert SpatialGrid(1.0, x_max, 3).points() == (1.0, 1.0 + ulps * ulp,
                                                       x_max)
    else:
        with pytest.raises(ValueError, match="evenly spaced"):
            SpatialGrid(1.0, x_max, 3)


def test_every_accepted_grid_passes_the_contour_sums_check():
    """Each point of an accepted grid lies within 1.5 ulps of its ideal
    value, so `transport.mode_sum`'s check (increasing, evenly spaced
    within 1e-12 of the larger end) holds on the points of every grid
    that `SpatialGrid` accepts; the draws put the step from a fraction
    of an ulp of the endpoints to a whole span of them, on both sides of
    x = 0 and among the subnormals."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(x_min=st.floats(-1e300, 1e300),
                      ulps=st.floats(0.25, 1e6),
                      count=st.integers(2, 1000))
    def check(x_min, ulps, count):
        x_max = x_min + ulps * (count - 1) * math.ulp(x_min)
        try:
            grid = SpatialGrid(x_min, x_max, count)
        except ValueError:
            return
        transport._uniform_grid(grid.points())

    check()


def test_a_billion_points_are_refused_before_any_is_built(monkeypatch):
    """At 0.55 to 0.9 kB per (x, t) row a run of 1e9 points would need
    hundreds of GB; past 1e6 points the grid is refused before
    `points()` forms a single one."""
    def no_points(grid):
        raise AssertionError("the points were built")

    monkeypatch.setattr(SpatialGrid, "points", no_points)
    with pytest.raises(ValueError, match="2 to 1000000 points, got 10{9}$"):
        SpatialGrid(0.0, 15.0, 10**9)


def test_a_refused_two_time_scenario_forms_no_point(monkeypatch):
    """A grid of 1e6 points is checked without forming one, so a run of
    it at two times is refused at 2e6 rows before any point exists."""
    def no_points(grid):
        raise AssertionError("the points were built")

    monkeypatch.setattr(SpatialGrid, "points", no_points)
    grid = SpatialGrid(0.0, 15.0, 10**6)
    with pytest.raises(ValueError, match=r"at most 1000000 \(x, t\) rows, "
                                         r"got 2000000$"):
        small_scenario(solvers=("NORMAL",), times=(1.0, 2.0), grid=grid)


def test_a_scenario_holds_at_most_a_million_rows():
    """1e6 (x, t) rows are a scenario, one more time is refused."""
    grid = SpatialGrid(0.0, 15.0, 250_000)
    assert small_scenario(times=(1.0, 2.0, 3.0, 4.0), grid=grid)
    with pytest.raises(ValueError, match=r"at most 1000000 \(x, t\) rows"):
        small_scenario(times=(1.0, 2.0, 3.0, 4.0, 5.0), grid=grid)


def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(times=())
    with pytest.raises(ValueError):
        small_scenario(times=(0.0,))
    with pytest.raises(ValueError):
        small_scenario(solvers=("RTE", "MONTECARLO"))
    with pytest.raises(ValueError):
        small_scenario(solvers=())
    with pytest.raises(ValueError):
        dataclasses.replace(small_scenario(), n_ordinates=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        small_scenario(times=(10.0, bad))
    with pytest.raises(ValueError, match="finite"):
        SpatialGrid(0.0, bad, 3)
    with pytest.raises(ValueError, match="finite"):
        SpatialGrid(bad, 1.0, 3)
    for field in ("sigma_a", "sigma_s", "sigma_trap", "speed"):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(Scenario.transport, **{field: bad})


@pytest.mark.parametrize("label", ["a,b", "a'b", 'a"b', "a\nb", "a\rb"],
                         ids=["comma", "quote", "double-quote", "lf", "cr"])
def test_scenario_rejects_labels_that_break_the_output(label):
    """The label is written as a CSV cell and inside quoted gnuplot
    strings, so a separator, a quote or a line break is refused."""
    with pytest.raises(ValueError, match="label"):
        small_scenario(label=label)


def test_scenario_coerces_times_to_tuple():
    sc = small_scenario(times=[5.0, 10.0])
    assert sc.times == (5.0, 10.0)


@pytest.mark.parametrize("times", [(10.0, 10.0), (10.0, 20.0, 1e1),
                                   (10.0, 10.0000000001)],
                         ids=["adjacent", "spelled-apart", "same-csv-cell"])
def test_scenario_rejects_repeated_times(times):
    """Profiles are keyed by time, so two at one time would be merged
    into one CSV block: a repeated time is refused, and so are two times
    that the CSV's 9 significant digits write as one cell, which the
    plot script could not tell apart."""
    with pytest.raises(ValueError, match="repeat"):
        small_scenario(times=times)


def test_builtin_scenarios_cover_both_times():
    scs = builtin_scenarios()
    assert sorted(scs) == ["fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c"]
    assert scs["fig1a"].transport.sigma_trap == 0.1
    assert scs["fig1b"].transport.sigma_trap == 0.01
    assert scs["fig1c"].transport.waiting.gamma == 1.0
    assert scs["fig1a"].times == (10.0,)
    assert scs["fig2a"].times == (100.0,)
    for sc in scs.values():
        assert sc.grid == SpatialGrid(0.0, 15.0, 151)
        assert sc.solvers == frozenset(("RTE", "FDE", "NORMAL"))
        assert sc.n_ordinates == 30


def test_default_scenario_is_the_figures_medium_without_trapping():
    sc = Scenario(label="default")
    assert sc.transport == TransportParams(
        sigma_a=1e-9, sigma_s=1.0, sigma_trap=0.0, speed=1.0,
        waiting=WaitingTimeModel(alpha=0.5, gamma=0.1))
    assert sc.times == (10.0,)
    assert sc.grid == SpatialGrid(0.0, 15.0, 151)
    assert sc.solvers == frozenset(("RTE", "FDE", "NORMAL"))
    assert sc.n_ordinates == 30


@pytest.mark.parametrize("name, sigma_trap, gamma, t", [
    ("fig1a", 0.1, 0.1, 10.0), ("fig1b", 0.01, 0.1, 10.0),
    ("fig1c", 0.1, 1.0, 10.0), ("fig2a", 0.1, 0.1, 100.0),
    ("fig2b", 0.01, 0.1, 100.0), ("fig2c", 0.1, 1.0, 100.0)])
def test_builtin_is_the_default_with_three_values_replaced(name, sigma_trap,
                                                           gamma, t):
    default = Scenario(label=name)
    tp = default.transport
    law = dataclasses.replace(tp.waiting, gamma=gamma)
    assert builtin_scenarios()[name] == dataclasses.replace(
        default, times=(t,),
        transport=dataclasses.replace(tp, sigma_trap=sigma_trap, waiting=law))


def test_scenario_takes_at_most_240_ordinates():
    """RTE's memory grows as N^2 per time (40 MB at N = 240 on fig2a), so
    a larger N is refused rather than run out of memory."""
    assert dataclasses.replace(small_scenario(),
                               n_ordinates=240).n_ordinates == 240
    with pytest.raises(ValueError, match="240 ordinates, got 241"):
        dataclasses.replace(small_scenario(), n_ordinates=241)


# ---------------------------------------------------------------- run_scenario

def test_run_scenario_order_and_contents():
    sc = small_scenario(times=(5.0, 10.0))
    profiles = run_scenario(sc)
    assert [(p.t, p.solver) for p in profiles] == [
        (5.0, "RTE"), (5.0, "FDE"), (5.0, "NORMAL"),
        (10.0, "RTE"), (10.0, "FDE"), (10.0, "NORMAL"),
    ]
    for p in profiles:
        assert p.scenario == "small"
        assert p.xs() == sc.grid.points()
        assert all(math.isfinite(v) for _, v in p.points)


def test_run_scenario_normal_only_matches_closed_form():
    sc = small_scenario(solvers=("NORMAL",), grid=SpatialGrid(0.0, 6.0, 4))
    (profile,) = run_scenario(sc)
    p = fde.from_transport(sc.transport)
    for x, v in profile.points:
        assert v == fde.normal_diffusion(p, x, 10.0)


def test_reference_profile_values():
    """Frozen three-solver profile at t = 10 for the strong-trapping panel."""
    sc = dataclasses.replace(builtin_scenarios()["fig1a"],
                             grid=SpatialGrid(0.0, 10.0, 6))
    rows = {p.solver: [v for _, v in p.points] for p in run_scenario(sc)}
    frozen = {
        "RTE": [0.438651846, 0.22945521, 0.0774858728,
                0.012448689, 0.000711176075, 2.31961319e-06],
        "FDE": [0.335665633, 0.228184968, 0.0865147251,
                0.0181218167, 0.0020898724, 0.000132497068],
        "NORMAL": [0.309019359, 0.228927171, 0.0930748422,
                   0.0207678044, 0.00254315115, 0.000170913777],
    }
    for solver, wants in frozen.items():
        for got, want in zip(rows[solver], wants):
            assert got == pytest.approx(want, rel=1e-8), solver


def test_rte_reports_only_numeric_failures(monkeypatch):
    """A numeric failure of the spectrum solve is reported as one of the
    RTE solver at its time; a programming error propagates unchanged."""
    sc = small_scenario(solvers=("RTE",))

    def numeric(*args):
        raise NumericFailureError("synthetic blow-up", node=3)

    monkeypatch.setattr(transport, "spectra", numeric)
    with pytest.raises(NumericFailureError) as info:
        run_scenario(sc)
    context = info.value.context
    assert context["solver"] == "RTE" and context["t"] == 10.0
    assert isinstance(info.value.__cause__, NumericFailureError)

    def typo(*args):
        raise TypeError("synthetic typo")

    monkeypatch.setattr(transport, "spectra", typo)
    with pytest.raises(TypeError, match="synthetic typo"):
        run_scenario(sc)


def test_non_finite_density_names_solver_time_and_x(monkeypatch):
    """A non-finite value in a profile is reported with its solver, time
    and the first x where it occurs."""
    def blows_up(p, x, t):
        return np.where(x >= 2.0, math.nan, 1.0)

    monkeypatch.setattr(fde, "normal_diffusion", blows_up)
    with pytest.raises(NumericFailureError, match="non-finite density") as info:
        run_scenario(small_scenario(solvers=("FDE", "NORMAL")))
    assert info.value.context == {"solver": "NORMAL", "t": 10.0, "x": 2.0}


def test_run_scenario_builds_the_quadrature_once(monkeypatch):
    """One Gauss-Legendre rule serves every output time of a scenario,
    and none is built when RTE is not run."""
    built = []
    real = harness.gauss_legendre

    def counting(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(harness, "gauss_legendre", counting)
    run_scenario(small_scenario(solvers=("RTE",), times=(10.0, 20.0, 30.0)))
    assert built == [30]
    run_scenario(small_scenario(solvers=("FDE", "NORMAL"), times=(10.0, 20.0)))
    assert built == [30]


def test_scenario_quadrature_is_built_on_first_use(monkeypatch):
    """`Scenario.quadrature` is built when first read and then kept; a
    copy made by `dataclasses.replace` builds its own, at its own order."""
    built = []
    real = harness.gauss_legendre

    def counting(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(harness, "gauss_legendre", counting)
    sc = small_scenario()
    assert built == []
    assert sc.quadrature is sc.quadrature
    assert sc.quadrature.order == 30 and built == [30]
    wide = dataclasses.replace(sc, n_ordinates=8)
    assert wide.quadrature.order == 8 and built == [30, 8]
    check_times(sc)
    assert built == [30, 8]


LATE_TIMES = (10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0, 200.0)


def late_times_scenario(times=LATE_TIMES, count=16):
    """fig1a's RTE profiles at the eight times of the late-time compare."""
    return dataclasses.replace(builtin_scenarios()["fig1a"], times=times,
                               grid=SpatialGrid(0.0, 15.0, count),
                               solvers=frozenset({"RTE"}))


# fig1a with RTE and FDE at four times, timed around run_scenario alone
_CPU_PROBE = """
import dataclasses, time
from trapdiff.harness import builtin_scenarios, run_scenario
sc = dataclasses.replace(builtin_scenarios()["fig1a"], solvers=("RTE", "FDE"),
                         times=(10.0, 30.0, 100.0, 200.0))
wall, cpu = time.perf_counter(), time.process_time()
run_scenario(sc)
print(time.perf_counter() - wall, time.process_time() - cpu)
"""


def test_run_scenario_keeps_to_one_core():
    """The profiles are computed on one thread: the process's CPU time
    stays within 1.25 times the wall time, plus 5 ms, around
    run_scenario. Measured in a fresh process, because the `eigvals`
    calls of other tests leave BLAS worker threads spinning; a complex
    `matmul` in the transform contraction would wake them and fail this."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CPU_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    wall, cpu = map(float, out.stdout.split())
    assert cpu <= 1.25 * wall + 0.005, (cpu, wall)


def test_run_scenario_solves_one_spectra_stack(monkeypatch):
    """RTE makes one `transport.spectra` call per scenario, over the
    distinct contour nodes of all its times: 445 of the 544 nodes of
    the late-time stack, whose eight contours fold 99 onto the shared
    s = sigma. FDE and NORMAL make none."""
    calls = []
    real = transport.spectra

    def counting(params, quadrature, s_nodes):
        calls.append(len(s_nodes))
        return real(params, quadrature, s_nodes)

    monkeypatch.setattr(transport, "spectra", counting)
    sc = late_times_scenario()
    run_scenario(sc)
    s_nodes = contour(sc.times)[0]
    assert s_nodes.size == 544 and calls == [len(np.unique(s_nodes))] == [445]
    run_scenario(small_scenario(solvers=("RTE", "FDE"), times=(5.0, 10.0)))
    assert len(calls) == 2
    run_scenario(small_scenario(solvers=("FDE", "NORMAL"), times=(5.0, 10.0)))
    assert len(calls) == 2


def test_run_scenario_makes_one_fde_modes_call(monkeypatch):
    """FDE, too, maps the distinct contour nodes of all times through its
    kernel in one call, `fde.modes` under the power law's (S, p): 887 of
    the 8 times 134 nodes of the rule at the diffusion kernel's step on
    late-times."""
    calls = []
    real = fde.modes

    def counting(p, source, clock):
        calls.append(len(clock))
        return real(p, source, clock)

    monkeypatch.setattr(fde, "modes", counting)
    run_scenario(dataclasses.replace(late_times_scenario(),
                                     solvers=frozenset({"RTE", "FDE"})))
    kernel, _ = harness.PAIRINGS["FDE"]
    s_nodes = contour(LATE_TIMES, kernel.refine * M)[0]
    assert s_nodes.size == 8 * 134 and calls == [887]


def test_each_memory_is_evaluated_once_per_distinct_point(monkeypatch):
    """The contours fold onto one shared s = sigma, and each entry of the
    kernel x memory table that runs sees that point once, in its memory
    and in its kernel: on late-times RTE (the exact memory,
    `WaitingTimeModel.memory`, one exponential integral per point, under
    `transport.modes`) takes the 445 distinct points of its 544 nodes,
    and FDE (the power law, `waiting.power_memory`, under `fde.modes`)
    the 887 of its 1,072."""
    sizes = {name: [] for name in ("exact", "power", "do", "diffusion")}

    def counting(name, real):
        def counted(*args):
            sizes[name].append(len(args[-1]))
            return real(*args)
        return counted

    monkeypatch.setattr(WaitingTimeModel, "memory",
                        counting("exact", WaitingTimeModel.memory))
    monkeypatch.setattr(waiting, "power_memory",
                        counting("power", waiting.power_memory))
    monkeypatch.setattr(transport, "modes", counting("do", transport.modes))
    monkeypatch.setattr(fde, "modes", counting("diffusion", fde.modes))
    run_scenario(dataclasses.replace(late_times_scenario(),
                                     solvers=frozenset({"RTE", "FDE"})))
    assert sizes == {"exact": [445], "power": [887], "do": [445],
                     "diffusion": [887]}


def test_each_step_builds_its_rule_once_for_all_times(monkeypatch):
    """The rule's phases, weights and trim depend on the step alone: the
    late-time compare, `check_times` then `run_scenario`, builds the
    untrimmed rule once per step and pass, 4 times in all (once per
    time, 32, when `contour` took one time)."""
    steps = []
    real = ilt._untrimmed

    def counting(m):
        steps.append(m)
        return real(m)

    monkeypatch.setattr(ilt, "_untrimmed", counting)
    sc = dataclasses.replace(late_times_scenario(),
                             solvers=frozenset({"RTE", "FDE", "NORMAL"}))
    check_times(sc)
    run_scenario(sc)
    kernels = (harness.PAIRINGS["RTE"][0], harness.PAIRINGS["FDE"][0])
    assert steps == 2 * [kernel.refine * M for kernel in kernels]


def test_rte_stack_matches_one_time_at_a_time():
    """The eight late-time RTE profiles, solved as one stack, against one
    run_scenario per time. Stacked, a node's secular roots start from a
    neighbour of another time, so they may come out in another order and
    differ in the last bits (the root sets agree to 5e-15 relative). The
    contour sum multiplies such differences by its prefactor 2 e^{sigma t} / t,
    which is 30 at t = 200, so each time is held to 1e-13 absolute times
    max(1, prefactor): measured <= 1.4e-14 up to t = 100 (prefactor <= 1.1),
    1.6e-13 at t = 150 (5.4) and 2.3e-13 at t = 200. The order of the
    times does not change a bit."""
    sc = late_times_scenario()
    stacked = run_scenario(sc)
    assert [p.t for p in stacked] == list(LATE_TIMES)
    for profile in stacked:
        (alone,) = run_scenario(dataclasses.replace(sc, times=(profile.t,)))
        assert alone.xs() == profile.xs()
        prefactor = contour(profile.t)[2]
        got = np.array([u for _, u in profile.points])
        want = np.array([u for _, u in alone.points])
        assert np.all(np.abs(got - want) <= 1e-13 * max(1.0, prefactor)), \
            profile.t
    reordered = run_scenario(dataclasses.replace(sc, times=LATE_TIMES[::-1]))
    assert sorted(reordered, key=lambda p: p.t) == stacked


def test_rte_failure_names_the_time_of_its_node(monkeypatch):
    """A spectrum failure in the stack is reported at the s and the time
    of the point it names by its index among the stack's distinct
    points: node 20 of the t = 10 contour, which no fold moves."""
    sc = small_scenario(solvers=("RTE",), times=(5.0, 10.0, 20.0))
    s = contour(10.0)[0][20]
    (bad,) = np.flatnonzero(np.unique(contour(sc.times)[0]) == s)
    assert s.imag > 0.0

    def failing(*args):
        raise NumericFailureError("synthetic blow-up", node=bad)

    monkeypatch.setattr(transport, "spectra", failing)
    with pytest.raises(NumericFailureError) as info:
        run_scenario(sc)
    context = info.value.context
    assert context["solver"] == "RTE" and context["t"] == 10.0
    assert context["s"] == s


def test_trapped_stack_failure_names_the_time_and_s_of_its_node(monkeypatch):
    """fig1a at t = 5, 10, 20 is trapped, so the kernel sees p = s S(s),
    not s: roots of the real kernel moved off their point's secular
    equation, at any one of the 170 distinct points of the 204 nodes,
    fail the certificate's residual and are reported at solver RTE, that
    point's s and the first time that holds it. The three contours fold
    11, 12 and 12 nodes onto s = sigma = 0.04, which is named at t = 5."""
    sc = late_times_scenario((5.0, 10.0, 20.0), 3)
    tp = sc.transport
    real = transport._secular_roots
    first_time = {}
    for t in sc.times:
        for s in contour(t)[0].tolist():
            first_time.setdefault(s, t)
    assert len(first_time) == 170 and first_time[0.04] == 5.0
    for s, t in first_time.items():
        sigma_t = tp.sigma_a + tp.sigma_s + tp.waiting.memory(
            tp.sigma_trap, [s])[1][0]

        def failing(loss, rho, *rest, target=tp.sigma_s / sigma_t):
            z = real(loss, rho, *rest)
            z[rho == target] *= 1.01
            return z

        monkeypatch.setattr(transport, "_secular_roots", failing)
        with pytest.raises(NumericFailureError, match="dispersion") as info:
            run_scenario(sc)
        context = info.value.context
        assert (context["solver"], context["t"], context["s"]) == ("RTE", t, s)


def unfolded_contour(times, m=M):
    """`ilt.contour` over an array of times with its fold undone: every
    kept node at its own phase M phi / t."""
    s_nodes, weights, prefactor = contour(times, m)
    phase, placed = ilt._untrimmed(m)
    lo = np.argmax(np.abs(placed) >= 2.0 ** -53 * np.abs(placed).max())
    s_nodes.imag[...] = phase[lo:lo + weights.size] / np.reshape(times,
                                                                 (-1, 1))
    return s_nodes, weights, prefactor


@pytest.mark.parametrize("name", ["late-times"] + sorted(builtin_scenarios()))
def test_folded_contour_moves_no_profile(monkeypatch, name):
    """Folding the contour's saturated left tail onto s = sigma moves
    each RTE and FDE profile of the six panels and of fig1a's late-time
    stack by at most 5e-13 of its peak against the rule without the
    fold (1.4e-13 measured, at t = 200)."""
    sc = (late_times_scenario() if name == "late-times"
          else builtin_scenarios()[name])
    sc = dataclasses.replace(sc, solvers=frozenset({"RTE", "FDE"}))
    folded = run_scenario(sc)
    monkeypatch.setattr(harness, "contour", unfolded_contour)
    for got, want in zip(folded, run_scenario(sc)):
        assert (got.solver, got.t) == (want.solver, want.t)
        got, want = (np.array([u for _, u in pr.points])
                     for pr in (got, want))
        assert np.abs(got - want).max() <= 5e-13 * np.abs(want).max()


def test_rte_stack_memory_peak():
    """Eight times peak at no more traced memory on the 151-point grid
    than on the 16-point one (1.51 MB on both, measured): the peak is
    the spectra solve of the 544 nodes, and each time's coefficients are
    summed over x with no (x, node) array. The bound, a quarter of the
    1.31 MB one (x, node) array over all 544 nodes at 151 x would take,
    fails such an array, and also one (x, node) array per time with a
    block of (x, node, mode) scratch (0.51 MB more at 151 x than at 16)."""
    def peak(count):
        tracemalloc.start()
        try:
            run_scenario(late_times_scenario(LATE_TIMES, count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(151) <= peak(16) + 0.25 * 151 * 544 * 16


def test_solvers_run_one_after_another_memory_peak():
    """With FDE and NORMAL beside RTE, fig1a at the eight late times on
    the 151-point grid peaks at <= 1.02x the traced peak of RTE alone
    (1.000x measured): each solver runs over all times before the next
    starts, so RTE's (rate, coef) of all 544 nodes is freed before FDE
    forms its own. Interleaving the solvers time by time would keep both
    alive (1.15x RTE alone)."""
    def peak(solvers):
        sc = dataclasses.replace(late_times_scenario(LATE_TIMES, 151),
                                 solvers=frozenset(solvers))
        tracemalloc.start()
        try:
            run_scenario(sc)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(("RTE", "FDE", "NORMAL")) <= 1.02 * peak(("RTE",))


def _with_speed(sc, speed, grid, times):
    tp = dataclasses.replace(sc.transport, speed=speed)
    return dataclasses.replace(sc, transport=tp, grid=grid, times=times)


def _values(profiles, solver):
    return np.array([[u for _, u in p.points] for p in profiles
                     if p.solver == solver])


def test_rte_profile_scales_with_speed():
    """At speed c the transport density is u_1(x/c, t)/c, and it stays
    below 1e-5 past the ballistic front x = c t."""
    sc = builtin_scenarios()["fig1a"]
    slow = run_scenario(_with_speed(sc, 1.0, SpatialGrid(0.0, 15.0, 31),
                                    (10.0,)))
    fast = run_scenario(_with_speed(sc, 2.0, SpatialGrid(0.0, 30.0, 31),
                                    (10.0,)))
    u1, u2 = _values(slow, "RTE")[0], _values(fast, "RTE")[0]
    assert np.all(np.abs(u2 - u1 / 2.0) <= 1e-12 + 1e-12 * np.abs(u1))
    xs = np.array(fast[0].xs())
    beyond = xs > 1.05 * 2.0 * 10.0
    assert beyond.any() and np.all(np.abs(u2[beyond]) < 1e-5)


def front_rule(sc, t):
    """RTE's contour sum at t over the whole grid, then 0 where
    |x| > speed t: the rule the front cut must reproduce. Like
    `run_scenario`, it solves the contour's distinct points and indexes
    their modes back to the nodes."""
    xs = sc.grid.points()
    s_nodes, weights, prefactor = contour(t)
    points, back = np.unique(s_nodes, return_inverse=True)
    rate, coef = harness.solver_modes(sc, "RTE", points)
    raw = prefactor * transport.mode_sum(
        xs, rate[back], coef[back] * weights[:, None]).real
    return raw, np.where(np.abs(xs) > sc.transport.speed * t, 0.0, raw)


def test_rte_values_past_the_ballistic_front_are_zero():
    """At t = 1 the contour sum rings to ~1 % of the peak past the front
    x = speed t = 1, where no particle can be: those points read exactly
    0, and the points up to and at the front keep the sum bit for bit."""
    sc = small_scenario(solvers=("RTE",), times=(1.0,),
                        grid=SpatialGrid(0.0, 4.0, 9))
    (profile,) = run_scenario(sc)
    xs = sc.grid.points()
    raw, want = front_rule(sc, 1.0)
    assert profile.xs() == xs and 1.0 in xs
    assert [u for _, u in profile.points] == want.tolist()
    assert max(abs(r) for x, r in zip(xs, raw) if x > 1.0) > 1e-3


@pytest.mark.parametrize("speed, grid, t", [
    (1.0, SpatialGrid(-15.0, 15.0, 61), 10.0),
    (2.0, SpatialGrid(0.0, 30.0, 31), 5.0),
    (1.0, SpatialGrid(0.0, 10.0, 21), 10.0),
    (1.0, SpatialGrid(-3.0, 4.5, 16), 2.0),
], ids=["both-runs-cut", "speed-two", "last-point-on-front", "offset-grid"])
def test_front_cut_matches_the_full_grid_rule(speed, grid, t):
    """`run_scenario` sums RTE only up to the front |x| <= speed t: the
    profile equals the full-grid sum, then 0 past the front, bit for bit,
    on a grid cut on both sides of x = 0, at speed 2, on a grid whose
    last point sits on the front, and on a grid off 0's step."""
    sc = small_scenario(solvers=("RTE",), times=(t,), grid=grid)
    sc = dataclasses.replace(sc, transport=dataclasses.replace(
        sc.transport, speed=speed))
    (profile,) = run_scenario(sc)
    _, want = front_rule(sc, t)
    assert np.array_equal([u for _, u in profile.points], want)
    assert (np.abs(grid.points()) <= speed * t).any()


def test_grid_past_the_front_forms_no_sum(monkeypatch):
    """A grid wholly past the front reads 0 everywhere, and its
    `mode_sum` calls form nothing of the stack's size: they peak below
    one (node, mode) array of the t = 1 contour."""
    sc = small_scenario(solvers=("RTE",), times=(1.0,),
                        grid=SpatialGrid(1.5, 4.0, 6))
    peaks = []
    real = transport.mode_sum

    def traced(*args):
        tracemalloc.start()
        try:
            return real(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(transport, "mode_sum", traced)
    (profile,) = run_scenario(sc)
    assert [u for _, u in profile.points] == [0.0] * 6
    nodes = len(contour(1.0)[0])
    assert len(peaks) == 1 and peaks[0] < nodes * sc.n_ordinates * 16


def test_rte_fde_gap_does_not_depend_on_speed():
    """FDE takes the speed through D0 = c^2 / (3 sigma_s) and RTE through
    its length scale c nu, so at t = 200 on fig1a the relative RTE/FDE gap
    at matching points x = c x_1 is the same at c = 2 as at c = 1."""
    sc = dataclasses.replace(builtin_scenarios()["fig1a"],
                             solvers=frozenset({"RTE", "FDE"}))
    gaps = []
    for c in (1.0, 2.0):
        profiles = run_scenario(_with_speed(
            sc, c, SpatialGrid(0.0, 15.0 * c, 16), (200.0,)))
        u_r, u_d = _values(profiles, "RTE")[0], _values(profiles, "FDE")[0]
        gaps.append(np.abs(u_r - u_d) / np.abs(u_d))
    assert gaps[0].max() > 1e-4  # the solvers differ at t = 200
    assert np.allclose(gaps[1], gaps[0], rtol=1e-6, atol=0.0)


def test_late_time_profiles_match_their_oracles():
    """At t = 1000 the contour sum's factor e^{sigma t} would be e^40 at
    the early-time shift 0.04 and swamp the profiles in roundoff: RTE and
    FDE stay within 1e-8 of Talbot inversion and of the time-domain
    quadrature."""
    sc = dataclasses.replace(builtin_scenarios()["fig1a"], times=(1000.0,),
                             grid=SpatialGrid(0.0, 2.0, 3),
                             solvers=frozenset({"RTE", "FDE"}))
    profiles = run_scenario(sc)
    u_r, u_d = _values(profiles, "RTE")[0], _values(profiles, "FDE")[0]
    assert np.isfinite(u_r).all() and np.isfinite(u_d).all()
    q = gauss_legendre(sc.n_ordinates)
    want_r = invert_reference(
        lambda s: transport.laplace_density(sc.transport, q, s, 2.0), 1000.0)
    want_d = fde.subordinated_density(fde.from_transport(sc.transport), 1.0,
                                      1000.0)
    assert abs(u_r[2] - want_r) <= 1e-8 * abs(want_r)
    assert abs(u_d[1] - want_d) <= 1e-8 * abs(want_d)


# ------------------------------------------------------------------- emission

def test_emit_csv_structure(tmp_path):
    sc = small_scenario()
    profiles = run_scenario(sc)
    out = tmp_path / "profile.csv"
    emit_csv(profiles, str(out))
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "x_cm,u_rte,u_de,u_normal,t_min,scenario"
    assert len(lines) == 1 + 3  # one merged row per grid point
    assert "\r" not in text
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[4] == "10"
    assert first[5] == "small"
    # nine significant digits round-trip against the in-memory values
    by_solver = {p.solver: dict(p.points) for p in profiles}
    for line in lines[1:]:
        cols = line.split(",")
        x = float(cols[0])
        assert float(cols[1]) == pytest.approx(by_solver["RTE"][x], rel=1e-8)
        assert float(cols[2]) == pytest.approx(by_solver["FDE"][x], rel=1e-8)
        assert float(cols[3]) == pytest.approx(by_solver["NORMAL"][x], rel=1e-8)


def test_emit_csv_blank_cells_for_missing_solvers(tmp_path):
    sc = small_scenario(solvers=("RTE", "NORMAL"))
    out = tmp_path / "partial.csv"
    emit_csv(run_scenario(sc), str(out))
    for line in out.read_text().splitlines()[1:]:
        cols = line.split(",")
        assert cols[2] == ""  # no FDE column values
        assert cols[1] != "" and cols[3] != ""


def test_emit_csv_is_deterministic(tmp_path):
    sc = small_scenario()
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_scenario(sc), str(first))
    emit_csv(run_scenario(sc), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_emit_csv_difference_columns(tmp_path):
    profiles = run_scenario(small_scenario())
    out = tmp_path / "cmp.csv"
    emit_csv(profiles, str(out), differences=True)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER + ",diff_rte_de,reldiff_rte_de"
    plain = tmp_path / "plain.csv"
    emit_csv(profiles, str(plain))
    by_solver = {p.solver: [u for _, u in p.points] for p in profiles}
    for i, (line, base) in enumerate(zip(lines[1:],
                                         plain.read_text().splitlines()[1:])):
        assert line.startswith(base + ",")
        diff, rel = (float(v) for v in line.split(",")[6:])
        u_r, u_d = by_solver["RTE"][i], by_solver["FDE"][i]
        assert diff == pytest.approx(u_r - u_d, rel=1e-8)
        assert rel == pytest.approx(abs(u_r - u_d) / abs(u_d), rel=1e-8)


def test_emit_csv_difference_columns_need_both_solvers(tmp_path):
    profiles = run_scenario(small_scenario(solvers=("RTE", "NORMAL")))
    out = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        emit_csv(profiles, str(out), differences=True)
    assert not out.exists()


def test_emit_csv_rejects_empty_and_leaves_no_file(tmp_path):
    out = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        emit_csv([], str(out))
    assert not out.exists()


def test_emit_csv_rejects_mixed_grids(tmp_path):
    a = run_scenario(small_scenario(solvers=("NORMAL",)))
    b = run_scenario(small_scenario(solvers=("NORMAL",),
                                    grid=SpatialGrid(0.0, 4.0, 5)))
    with pytest.raises(ValueError):
        emit_csv(a + b, str(tmp_path / "mixed.csv"))


def test_plot_script_single_panel(tmp_path):
    profiles = run_scenario(small_scenario(solvers=("NORMAL",)))
    script = tmp_path / "plot.gp"
    emit_plot_script(profiles, str(script), "profile.csv", logy=True)
    text = script.read_text()
    assert "multiplot" not in text
    assert "set logscale y" in text
    assert "profile.csv" in text
    assert "diffusion" in text  # series label present


def test_plot_script_refuses_two_scenarios(tmp_path):
    """A plot script shows one scenario: profiles of two are refused
    before any file is written."""
    profiles = []
    for label in ("p1", "p2"):
        profiles += run_scenario(small_scenario(label=label, solvers=("NORMAL",)))
    script = tmp_path / "duo.gp"
    with pytest.raises(ValueError, match="one scenario"):
        emit_plot_script(profiles, str(script), "duo.csv")
    assert not script.exists()


# ----------------------------------------------------------------- self-check

FAST_CHECKS = {
    "transport.eigenvalue_n1",
    "ilt.known_pairs",
    "fde.transform_mass",
}


def test_validate_fast_passes():
    report = validate("fast")
    assert {entry["check"] for entry in report} == FAST_CHECKS
    for entry in report:
        assert set(entry) == {"check", "status", "measured", "tolerance"}
        assert entry["status"] == "pass", entry
        assert entry["measured"] <= entry["tolerance"]
    json.dumps(report)  # report must be serializable as-is


def test_validate_full_passes():
    report = validate("full")
    names = {entry["check"] for entry in report}
    assert FAST_CHECKS < names
    assert {"transport.mass_oracle", "fde.oracle_equivalence",
            "fde.closed_form_vs_time_domain",
            "ilt.step_halving", "ilt.cross_inverter_transport"} <= names
    assert all(entry["status"] == "pass" for entry in report)


def test_validate_flags_degraded_step():
    """Doubling the contour step must be caught by the step-halving check:
    its measurement, fig2a at t = 100, moves by 3.8e-6 between steps
    pi / 20 and pi / 40, past its 1e-8 tolerance, against 2.1e-12 between
    the rule's pi / 40 and pi / 80."""
    entry = {e["check"]: e for e in validate("full")}["ilt.step_halving"]
    assert entry["measured"] < 1e-11
    degraded = harness._step_halving(M / 2)
    assert 3e-6 < degraded < 5e-6
    assert degraded > entry["tolerance"]


@pytest.mark.parametrize("m", [2 * M, 5 * M])
def test_refined_rule_keeps_the_profile(m):
    """fig2a at t = 100 with the step refined to pi / 80 or pi / 200: RTE
    and FDE match the rule's profiles within 1e-9 absolute (<= 2.1e-12
    measured). While a fixed term count cut the rule short, these moved
    by 9.0e-4 to 8.8, and pi / 200 wrote u_rte = -8.67 through the CLI."""
    sc = builtin_scenarios()["fig2a"]
    xs = sc.grid.points()
    for solver in ("RTE", "FDE"):
        (want,) = harness._contour_values(sc, solver, sc.times, xs)
        (got,) = harness._contour_values(sc, solver, sc.times, xs, m)
        diff = np.abs(want - got).max()
        assert diff <= 1e-9, (solver, diff)


def test_validate_rejects_unknown_level():
    with pytest.raises(ValueError):
        validate("medium")


# --------------------------------------------------------- physical regression

def test_trap_free_transport_matches_normal_diffusion():
    """Without trapping the transport profile relaxes onto the diffusion one."""
    sc = small_scenario(sigma_trap=0.0, solvers=("RTE", "NORMAL"),
                        times=(100.0,), grid=SpatialGrid(2.0, 10.0, 5))
    rte, normal = run_scenario(sc)
    assert rte.solver == "RTE" and normal.solver == "NORMAL"
    for (_, a), (_, b) in zip(rte.points, normal.points):
        assert abs(a - b) < 2e-3


def _in_units(sc, lam):
    """sc with rates multiplied by lam and gamma, t and x divided by it:
    the same medium in a time unit lam times as long (speed 1 ties the
    length unit to it), whose densities are lam times sc's."""
    tp, grid = sc.transport, sc.grid
    return dataclasses.replace(
        sc, times=tuple(t / lam for t in sc.times),
        grid=SpatialGrid(grid.x_min / lam, grid.x_max / lam, grid.count),
        transport=dataclasses.replace(
            tp, sigma_a=lam * tp.sigma_a, sigma_s=lam * tp.sigma_s,
            sigma_trap=lam * tp.sigma_trap,
            waiting=dataclasses.replace(tp.waiting,
                                        gamma=tp.waiting.gamma / lam)))


# ROADMAP item 14: the contour shift sigma = min(0.04, 8 / t) is in 1 / min,
# so sigma t, and with it the rule's error, changes with the time unit;
# these rows pass once sigma t is one constant
_UNIT_DEPENDENT = {("RTE", 1e3), ("RTE", 1e5), ("FDE", 1e5)}
_UNIT_ROWS = [pytest.param(
    name, solver, lam, marks=pytest.mark.xfail(
        strict=True, reason="the contour shift is in 1 / min, so sigma t "
        "changes with the unit (ROADMAP item 14): RTE moves by 1.8e-7 to "
        "2.6e-5, FDE at 1e5 by 4.5e-9 to 1.5e-8") if (solver, lam) in _UNIT_DEPENDENT else ())
    for name in ("fig2a", "fig2b", "fig2c")
    for solver in ("RTE", "FDE", "NORMAL") for lam in (1e-3, 1e3, 1e5)]


@pytest.mark.parametrize("name, solver, lam", _UNIT_ROWS)
def test_profiles_do_not_depend_on_the_time_unit(name, solver, lam):
    """Rates times lam, gamma, t and x over lam: u_lam / lam is u, to
    1e-9 of max |u|, on the t = 100 panels (at t = 10 the ray effect of
    item 6 dominates). Measured: NORMAL <= 2.9e-16, FDE <= 4.8e-12 at
    1e-3 and 1e3, RTE <= 1.6e-10 at 1e-3; the other rows miss by the
    unit-bound shift, and with sigma = 4 / t read <= 8.5e-12."""
    sc = dataclasses.replace(builtin_scenarios()[name],
                             solvers=frozenset((solver,)))
    (want,), (got,) = run_scenario(sc), run_scenario(_in_units(sc, lam))
    u = np.array([v for _, v in want.points])
    u_lam = np.array([v for _, v in got.points])
    assert np.abs(u_lam / lam - u).max() <= 1e-9 * np.abs(u).max()
