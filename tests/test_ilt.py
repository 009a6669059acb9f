"""Tests for the numerical Laplace inversion pair.

`contour` is the production double-exponential Bromwich rule, and `invert`
applies it to a scalar transform; `invert_reference` is a fixed-Talbot
rule kept deliberately dissimilar (different contour, different
discretization). Their agreement on the actual physics
transforms is the strongest check in this module: any systematic error
would have to conspire identically in both.

Known pairs use closed-form originals; tolerances follow the calibration
of the rule at its fixed shift, steepness and step.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from trapdiff import fde
from trapdiff.errors import NumericFailureError
from trapdiff.harness import builtin_scenarios, run_scenario, solver_modes
from trapdiff.ilt import (
    _MAX_ARG,
    _STEEPNESS,
    M,
    SHIFT,
    _de_map,
    _half_count,
    _untrimmed,
    contour,
    invert,
    invert_reference,
)
from trapdiff.specfun import gauss_legendre
from trapdiff.transport import (
    TransportParams,
    laplace_density,
    mode_sum,
)
from trapdiff.waiting import WaitingTimeModel

K = _STEEPNESS
REACH = math.asinh(_MAX_ARG / K)  # outermost |y| of the rule
Q30 = gauss_legendre(30)

# trapping / weak-trapping / slow-trap parameter sets used by the figures
FIGURE_PARAMS = {
    "a": (0.1, 0.1),
    "b": (0.01, 0.1),
    "c": (0.1, 1.0),
}


def transport_params(key):
    sigma_trap, gamma = FIGURE_PARAMS[key]
    w = WaitingTimeModel(alpha=0.5, gamma=gamma)
    return TransportParams(sigma_a=1e-9, sigma_s=1.0, sigma_trap=sigma_trap,
                           waiting=w)


# ------------------------------------------------------------------ node map

def _phi(y, k=K):
    """phi of the node map at one abscissa."""
    return float(_de_map(np.array([y]), k)[0][0])


def test_de_map_linear_for_large_argument():
    assert _phi(REACH) / REACH == pytest.approx(1.0, abs=1e-12)


def test_de_map_near_zero():
    assert abs(_phi(1e-6) - 1.0 / K) < 1e-5


def test_de_map_vanishes_double_exponentially():
    assert 0.0 <= _phi(-3.0) < 1e-20


def test_de_map_derivative_saturates():
    dphi = _de_map(np.array([REACH, -3.0]), K)[1]
    assert dphi[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(dphi[1]) < 1e-18


def test_de_map_derivative_matches_finite_difference():
    h = 1e-6
    y = np.array([-1.0, -0.5, 0.5, 1.0, 2.0])
    dphi = _de_map(y, K)[1]
    for v, got in zip(y.tolist(), dphi.tolist()):
        fd = (_phi(v + h) - _phi(v - h)) / (2.0 * h)
        assert got == pytest.approx(fd, rel=1e-6), v


def _scalar_phi(y, k):
    """phi of the node map, one y at a time in scalar math."""
    return y / -math.expm1(-k * math.sinh(y))


def _scalar_dphi(y, k):
    """phi' of the node map, one y at a time in scalar math, with the
    exponentials computed directly rather than from one expm1."""
    arg = k * math.sinh(y)
    denom = -math.expm1(-arg)
    return (1.0 - y * k * math.cosh(y) * (math.exp(-arg) / denom)) / denom


def _reached(y, k):
    """The abscissae of y at which `contour` evaluates the map."""
    return y[np.abs(k * np.sinh(y)) <= _MAX_ARG]


@pytest.mark.parametrize("steepness", (0.5, 2.0, 6.0, 20.0))
@pytest.mark.parametrize("freq_scale", (10.0, 40.0, 80.0))
def test_de_map_arrays_match_scalar_formulas(steepness, freq_scale):
    """phi and phi' of the array map on the half-offset abscissae out to
    |K sinh y| = `_MAX_ARG`, deep into both saturated tails, agree with
    the scalar formulas to 1e-12 relative (measured <= 1.2e-13)."""
    y = _reached((np.arange(-400, 401) + 0.5) * (math.pi / freq_scale),
                 steepness)
    assert np.abs(steepness * np.sinh(y[[0, -1]])).min() > 60.0
    phi, dphi = _de_map(y, steepness)
    want_phi = np.array([_scalar_phi(v, steepness) for v in y.tolist()])
    want_dphi = np.array([_scalar_dphi(v, steepness) for v in y.tolist()])
    np.testing.assert_allclose(phi, want_phi, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(dphi, want_dphi, rtol=1e-12, atol=0.0)


def test_de_map_increasing_from_the_smallest_steepness():
    """phi' >= 0 on a fine grid of both tails, out to |K sinh y| =
    `_MAX_ARG`, from the smallest steepness at which the map increases,
    0.4566, up to the rule's K = 6; just below it (K* = 0.456593) phi'
    turns negative near y = 1.2, and at K = 0.3 on y in [0.50, 2.34], so
    the nodes would fold."""
    y = np.concatenate([-np.geomspace(10.0, 1e-6, 20001),
                        np.geomspace(1e-6, 10.0, 20001)])
    for k in (0.4566, K):
        assert (_de_map(_reached(y, k), k)[1] >= 0.0).all(), k
    for k in (0.4565, 0.3):
        assert (_de_map(_reached(y, k), k)[1] < 0.0).any(), k


# ------------------------------------------------------------- known originals

# (transform, original, time, relative budget of the rule)
KNOWN_PAIRS = (
    (lambda s: 1.0 / s, lambda t: 1.0, 5.0, 1e-6),
    (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t), 1.0, 1e-6),
    (lambda s: 1.0 / (s * s), lambda t: t, 3.0, 1e-5),
)


def test_invert_known_pairs():
    for transform, original, t, budget in KNOWN_PAIRS:
        got = invert(transform, t)
        want = original(t)
        assert abs(got - want) / abs(want) < budget, (t, want)


def test_invert_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        invert(lambda s: 1.0 / s, 0.0)
    with pytest.raises(ValueError):
        invert(lambda s: 1.0 / s, -2.0)


def test_invert_flags_nonfinite_transform():
    with pytest.raises(NumericFailureError) as exc:
        invert(lambda s: complex(math.nan, 0.0), 1.0)
    assert set(exc.value.context) == {"t", "j", "s"}


def test_invert_evaluates_each_distinct_node_once():
    """The rule at t = 10 folds 12 of its 68 nodes onto s = sigma:
    `invert` calls the transform 57 times, once at each distinct node,
    and its sum is bit for bit the one over every node's own value."""
    seen = []

    def transform(s):
        seen.append(s)
        return 1.0 / (s + 1.0)

    got = invert(transform, 10.0)
    s_nodes, weights, prefactor = contour(10.0)
    assert len(seen) == len(set(seen)) == 57
    assert set(seen) == set(s_nodes.tolist())
    per_node = [(1.0 / (s + 1.0)).real for s in s_nodes.tolist()]
    assert got == prefactor * float(np.dot(per_node, weights))


# values of the former in-order node sum
SEQUENTIAL_SUM_VALUES = (0.9999999672927781, 0.36787944125567096,
                         2.9999867883381968)


def test_invert_matches_sequential_sum_on_known_pairs():
    """The dot product over `contour` reproduces the in-order sum it
    replaced, up to rounding of the summation order."""
    for (transform, _original, t, _budget), frozen in zip(
            KNOWN_PAIRS, SEQUENTIAL_SUM_VALUES):
        assert invert(transform, t) == pytest.approx(frozen, rel=1e-14, abs=0)


def kept_run(phase, s_nodes):
    """(lo, hi): the run phase[lo:hi] of the untrimmed rule that the rule
    at t = 1 keeps, found from its last node, which no fold moves."""
    (last,) = np.flatnonzero(phase == s_nodes.imag[-1])
    return last + 1 - s_nodes.size, last + 1


def assert_folded(s_nodes, phase, weights, t):
    """One row of the rule at time t against its kept phases and weights:
    a leading run sits exactly on s = sigma, the longest whose
    (M phi)^2 |w| sums to at most 2^-53 max|w| (sigma t)^2, and every
    node after it keeps its exact phase M phi / t. Returns the run's
    length."""
    sigma = s_nodes.real[0]
    assert (s_nodes.real == sigma).all()
    folds = int((s_nodes.imag == 0.0).sum())
    assert (s_nodes.imag[:folds] == 0.0).all()
    assert s_nodes.imag[folds:].tolist() == (phase[folds:] / t).tolist()
    reach = np.cumsum(phase**2 * np.abs(weights))
    limit = 2.0 ** -53 * np.abs(weights).max() * (sigma * t) ** 2
    assert folds == 0 or reach[folds - 1] <= limit
    assert reach[folds] > limit
    return folds


def test_contour_layout():
    """At M = 40 the rule places j = -47..46, out to |K sinh y| =
    `_MAX_ARG`, and keeps j = -34..33. The weights it drops are below
    1e-17 on the left, where |w| <= phi', and below 4e-18 on the right,
    where |w| <= M r phi' with the map's residual r = y / (e^{K sinh y}
    - 1), since there cos(M phi) = +-sin(M r): all under 2^-53 max|w| =
    9.0e-17. At t = 10 the first 12 kept nodes, phases M phi <= 2.8e-6,
    are folded onto s = sigma; the other 56 keep their phases, and the
    map is increasing over them."""
    t = 10.0
    s_nodes, weights, prefactor = contour(t)
    assert s_nodes.shape == weights.shape == (68,)
    assert (s_nodes.real == SHIFT).all()
    h = math.pi / M
    assert _half_count(M) == 46
    j = np.arange(-47, 47)
    y = j * h + 0.5 * h
    kept = (j >= -34) & (j <= 33)
    want = np.array([M * _phi(v) for v in y[kept]])
    assert assert_folded(s_nodes, want, weights, t) == 12
    assert want[11] <= 2.8e-6
    assert (np.diff(s_nodes.imag[11:]) > 0.0).all()
    assert prefactor == 2.0 * math.exp(SHIFT * t) / t
    floor = 2.0 ** -53 * np.abs(weights).max()
    assert np.abs(weights[[0, -1]]).min() >= floor
    dphi = _de_map(y, K)[1]
    right = j > 33
    r = y[right] / np.expm1(K * np.sinh(y[right]))
    assert np.abs(dphi[j < -34]).max() < 1e-17 < floor
    assert (M * r * np.abs(dphi[right])).max() < 4e-18


def test_contour_skips_saturated_nodes():
    """The trim, not the reach, sets the rule: at RTE's step and at
    FDE's halved one every node left out lies where the map has
    saturated, K sinh|y| >= 42 (44.9 and 42.3 measured), and the rule
    places the 26 and 54 of them out to K sinh|y| = 115.6 and 117.9, so
    its ends are far under the trim."""
    for m, placed, kept in ((M, 94, 68), (2 * M, 188, 134)):
        phase, weights = _untrimmed(m)
        s_nodes, _, _ = contour(1.0, m)
        assert (phase.size, s_nodes.size) == (placed, kept)
        lo, hi = kept_run(phase, s_nodes)
        h = math.pi / m
        j = np.arange(-placed // 2, placed // 2)
        arg = np.abs(K * np.sinh(j * h + 0.5 * h))
        assert np.concatenate([arg[:lo], arg[hi:]]).min() >= 42.0
        assert arg[[0, -1]].min() > 115.0


def _exact_rule(step_m):
    """phi(y_j) and the weight cos(M phi) phi' of every node the rule at
    M = step_m places, j = -n-1..n (n = `_half_count`), at 40 digits at
    the exact abscissae y_j = (j + 1/2) pi / M."""
    mpmath = pytest.importorskip("mpmath")
    phis, weights = [], []
    with mpmath.workdps(40):
        m, k = mpmath.mpf(step_m), mpmath.mpf(K)
        n = _half_count(step_m)
        for j in range(-n - 1, n + 1):
            y = (j + mpmath.mpf(1) / 2) * mpmath.pi / m
            tail = mpmath.exp(-k * mpmath.sinh(y))
            phi = y / (1 - tail)
            dphi = (1 - y * k * mpmath.cosh(y) * tail / (1 - tail)) / (1 - tail)
            phis.append(float(phi))
            weights.append(float(mpmath.cos(m * phi) * dphi))
    return np.array(phis), np.array(weights)


@pytest.mark.parametrize("m", (M, 2 * M))
def test_contour_weights_match_the_exact_rule(m):
    """The kept weights agree with the rule evaluated at 40 digits to
    2e-15 at RTE's step and at FDE's halved one (1.2e-15 and 9.4e-16
    measured; the rounded phase M phi left 2.8e-14 and 4.6e-14), and the
    phases of the nodes after the fold to 1e-12. Every node left out has
    an exact weight at or below 2^-53 max|w|."""
    phi, exact = _exact_rule(m)
    s_nodes, weights, _ = contour(1.0, m)
    hi = int(np.searchsorted(phi, s_nodes.imag[-1] / m * (1 - 1e-12))) + 1
    lo = hi - len(s_nodes)
    unfolded = s_nodes.imag > 0.0
    np.testing.assert_allclose(s_nodes.imag[unfolded] / m,
                               phi[lo:hi][unfolded],
                               rtol=1e-12, atol=0.0)
    assert np.abs(weights - exact[lo:hi]).max() <= 2e-15
    dropped = np.concatenate([exact[:lo], exact[hi:]])
    assert (np.abs(dropped) <= 2.0 ** -53 * np.abs(exact).max()).all()


def test_rte_profile_matches_the_exact_weight_sum():
    """fig1a's RTE profile at t = 200 against the same transform values
    summed with the 40-digit weights of all 94 nodes, folded into the
    mode coefficients: within 2e-12 absolute (5.6e-13 measured). The
    prefactor 2 e^8 / 200 = 30 magnifies weight errors; the rounded phase
    M phi put the profile 3.2e-11 off."""
    sc = dataclasses.replace(builtin_scenarios()["fig1a"], times=(200.0,),
                             solvers=frozenset({"RTE"}))
    phi, exact = _exact_rule(M)
    (profile,) = run_scenario(sc)
    s_nodes, _, prefactor = contour(200.0)
    s_all = s_nodes.real[0] + 1j * (M * phi / 200.0)
    xs = sc.grid.points()
    rate, coef = solver_modes(sc, "RTE", s_all)
    want = prefactor * mode_sum(xs, rate, coef * exact[:, None]).real
    got = np.array([u for _, u in profile.points])
    assert np.abs(got - want).max() <= 2e-12


def test_contour_trims_only_the_tails():
    """At every step in use, pi / 40 (RTE), pi / 80 (FDE) and pi / 160
    (FDE in the step-halving check), the trim and not the reach sets the
    rule: the weights at both ends of the placed rule are below 2^-53
    max|w|, the kept nodes are one contiguous run of it, with its exact
    weights, and the node map is finite, without a warning, at every
    abscissa the rule places. At t = 1 the fold moves the first 11, 19
    and 37 kept nodes onto s = sigma and leaves every other phase."""
    for m in (M, 2 * M, 4 * M):
        n = _half_count(m)
        h = math.pi / m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, dphi = _de_map(np.arange(-n - 1, n + 1) * h + 0.5 * h, K)
            phase, weights = _untrimmed(m)
        assert np.isfinite(phi).all() and np.isfinite(dphi).all()
        floor = 2.0 ** -53 * np.abs(weights).max()
        assert np.abs(weights[[0, -1]]).max() < floor, m
        s_nodes, kept, _ = contour(1.0, m)
        lo, hi = kept_run(phase, s_nodes)
        assert assert_folded(s_nodes, phase[lo:hi], kept, 1.0) == {
            M: 11, 2 * M: 19, 4 * M: 37}[m]
        assert kept.tolist() == weights[lo:hi].tolist()
        outside = np.concatenate([weights[:lo], weights[hi:]])
        assert (np.abs(outside) < floor).all(), m


def test_contour_batched_reduction_equals_invert():
    """A vectorised transform reduced with the contour weights is `invert`."""
    t = 2.0
    s_nodes, weights, prefactor = contour(t)
    batched = prefactor * float((1.0 / (s_nodes + 1.0)).real @ weights)
    scalar = invert(lambda s: 1.0 / (s + 1.0), t)
    assert batched == pytest.approx(scalar, rel=1e-14, abs=0)


@pytest.mark.parametrize("t", (1e3, 1e4, 1e6))
def test_invert_caps_the_shift_at_late_times(t):
    """Past sigma t = 8 the rule lowers sigma to 8/t, so the factor
    e^{sigma t} stays e^8: the step and a slow exponential come back to
    1e-9 and 1e-10 at t = 1e3, 1e4 and 1e6. At the uncapped shift they
    read 3499.76 and 3307.34 at t = 1e3, -4e158 at t = 1e4, and e^{40000}
    overflows at t = 1e6."""
    assert abs(invert(lambda s: 1.0 / s, t) - 1.0) < 1e-9
    assert abs(invert(lambda s: 1.0 / (s + 1e-3), t)
               - math.exp(-t / 1e3)) < 1e-10
    s_nodes, _, prefactor = contour(t)
    assert (s_nodes.real == 8.0 / t).all()
    assert prefactor == 2.0 * math.exp(8.0) / t


def test_contour_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        contour(0.0)


@pytest.mark.parametrize("m, edge", [(M, 5.854e-307), (2 * M, 1.1621e-306)])
def test_contour_refuses_times_whose_nodes_overflow(m, edge):
    """The farthest node sits at |phase| / t; below the edge time that
    overflows, and the rule is refused before it divides (the suite turns
    a RuntimeWarning into a failure). Just above, every node and the
    prefactor are finite."""
    with pytest.raises(ValueError, match="too short"):
        contour(0.999 * edge, m)
    s_nodes, weights, prefactor = contour(1.001 * edge, m)
    assert np.isfinite(s_nodes).all() and math.isfinite(prefactor)
    assert np.abs(s_nodes.imag).max() > 0.5 * np.finfo(float).max


@pytest.mark.parametrize("m", (M, 2 * M))
def test_contour_over_times_is_each_time_alone(m):
    """Row i of the rule over an array of times is the rule at the i-th
    time alone, bit for bit, across the lowering of the shift at t = 200
    and out to the shortest time each step takes; the weights are
    shared."""
    edge = {M: 5.854e-307, 2 * M: 1.1621e-306}[m]
    times = np.array([10.0, 200.0, 1.001 * edge, 1e-3, 150.0, 1e6, 201.0])
    s_nodes, weights, prefactor = contour(times, m)
    assert s_nodes.shape == (times.size, weights.size)
    assert prefactor.shape == times.shape
    for t, row, pre in zip(times.tolist(), s_nodes, prefactor.tolist()):
        alone, alone_weights, alone_pre = contour(t, m)
        assert row.tolist() == alone.tolist(), t
        assert alone_weights.tolist() == weights.tolist()
        assert pre == alone_pre, t


def test_contour_over_times_refuses_a_short_one_before_any_node():
    """One time too short among others is refused, named, before a node
    is divided out (the suite turns that overflow warning into a
    failure), and so is one that is not positive."""
    with pytest.raises(ValueError, match="time 1e-308 is too short"):
        contour(np.array([10.0, 1e-308, 100.0]))
    with pytest.raises(ValueError, match="positive"):
        contour(np.array([10.0, 0.0]))


def _invert_at_shift(transform, t, shift):
    """`invert` on the rule moved to Re s = shift, as its lowering to 8/t
    at late times moves it."""
    s_nodes, weights, prefactor = contour(t)
    values = [transform(s).real for s in (s_nodes + (shift - SHIFT)).tolist()]
    return prefactor * math.exp((shift - SHIFT) * t) * float(
        np.dot(values, weights))


def test_contour_shift_robustness_bounded_pairs():
    """The answer must not depend on the abscissa for calm transforms."""
    for transform, original, t, _budget in KNOWN_PAIRS[:2]:
        want = original(t)
        for shift in (0.02, 0.04, 0.08):
            got = _invert_at_shift(transform, t, shift)
            assert abs(got - want) / abs(want) < 1e-5, (t, shift)


@pytest.mark.xfail(strict=True,
                   reason="ramp spectrum decays like 1/w^2; at the rule's "
                          "step pi / 40 the shift sweep hits 4.1e-5, past "
                          "the 1e-5 budget the calmer pairs meet")
def test_contour_shift_robustness_ramp():
    transform, original, t, _budget = KNOWN_PAIRS[2]
    want = original(t)
    for shift in (0.02, 0.04, 0.08):
        got = _invert_at_shift(transform, t, shift)
        assert abs(got - want) / abs(want) < 1e-5, shift


# --------------------------------------------------------- reference inverter

def test_reference_known_pair():
    got = invert_reference(lambda s: 1.0 / (s + 1.0), 1.0)
    assert abs(got - math.exp(-1.0)) / math.exp(-1.0) < 1e-8


def test_reference_stable_density():
    # L^-1[e^{-sqrt s}] at t=1 is the one-sided 1/2-stable density
    got = invert_reference(lambda s: cmath.exp(-cmath.sqrt(s)), 1.0)
    assert abs(got - 0.21969564473386122) < 1e-6


def test_reference_rejects_bad_arguments():
    with pytest.raises(ValueError):
        invert_reference(lambda s: 1.0 / s, -1.0)


def test_inverters_agree_on_memory_diffusion_transform():
    p = fde.from_transport(transport_params("a"))
    transform = lambda s: fde.laplace_density(p, 1.0, s)
    a = invert(transform, 10.0)
    b = invert_reference(transform, 10.0)
    assert abs(a - b) / abs(b) < 1e-4


# ------------------------------------------------- cross-inverter, full grid

def cross_agreement(key, kind, x, t):
    tp = transport_params(key)
    if kind == "transport":
        transform = lambda s: laplace_density(tp, Q30, s, x)
    else:
        p = fde.from_transport(tp)
        transform = lambda s: fde.laplace_density(p, x, s)
    a = invert(transform, t)
    b = invert_reference(transform, t)
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("key", sorted(FIGURE_PARAMS))
@pytest.mark.parametrize("kind", ("transport", "memory-diffusion"))
def test_cross_inverter_grid(key, kind):
    """Both inverters agree on every figure transform, off the wavefront.

    The transport solution carries a ballistic discontinuity at x = t
    (unit speed); the grid point (x, t) = (10, 10) sits exactly on it and
    no smooth contour rule converges there, so it is held out and pinned
    by its own expected-failure test below.
    """
    for t in (10.0, 100.0):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            if kind == "transport" and x == t:
                continue
            rel = cross_agreement(key, kind, x, t)
            assert rel < 1e-4, (key, kind, x, t, rel)


@pytest.mark.xfail(strict=True,
                   reason="point sits on the ballistic front x = t where the "
                          "time-domain solution is discontinuous; both rules "
                          "oscillate and disagree at the 1e-1 level")
def test_cross_inverter_on_front():
    assert cross_agreement("a", "transport", 10.0, 10.0) < 1e-4
