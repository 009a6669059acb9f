"""Tests for the numerical Laplace inversion pair.

`contour` is the production double-exponential Bromwich rule, and `invert`
applies it to a scalar transform; `invert_reference` is a fixed-Talbot
rule kept deliberately dissimilar (different contour, different
discretization). Their agreement on the actual physics
transforms is the strongest check in this module: any systematic error
would have to conspire identically in both.

Known pairs use closed-form originals; tolerances follow the calibration
of the rule at its pinned default configuration.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from trapdiff import fde
from trapdiff.errors import NumericFailureError
from trapdiff.harness import builtin_scenarios, run_scenario
from trapdiff.ilt import (
    _MAX_ARG,
    _MIN_STEEPNESS,
    InversionConfig,
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
    modes,
)
from trapdiff.waiting import WaitingTimeModel

K = 6.0  # default steepness
REACH = math.asinh(_MAX_ARG / K)  # outermost |y| of the default rule
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
    `_MAX_ARG`, at the smallest accepted steepness; just below it (K* =
    0.456593) phi' turns negative near y = 1.2, and at K = 0.3 on y in
    [0.50, 2.34], so the nodes fold."""
    y = np.concatenate([-np.geomspace(10.0, 1e-6, 20001),
                        np.geomspace(1e-6, 10.0, 20001)])
    assert (_de_map(_reached(y, _MIN_STEEPNESS), _MIN_STEEPNESS)[1]
            >= 0.0).all()
    for k in (0.4565, 0.3):
        assert (_de_map(_reached(y, k), k)[1] < 0.0).any(), k


# ------------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(contour_shift=0.0)
    with pytest.raises(ValueError):
        InversionConfig(freq_scale=-1.0)
    with pytest.raises(ValueError):
        InversionConfig(steepness=0.0)
    # below 0.4566 the node map folds
    for k in (0.4565, 0.3, 1e-300):
        with pytest.raises(ValueError, match="steepness"):
            InversionConfig(steepness=k)
    assert InversionConfig(steepness=_MIN_STEEPNESS).steepness == 0.4566


def test_config_defaults():
    """Three knobs; the node count follows from them."""
    cfg = InversionConfig()
    assert dataclasses.astuple(cfg) == (0.04, 40.0, 6.0)
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "contour_shift", "freq_scale", "steepness"]


# ------------------------------------------------------------- known originals

# (transform, original, time, relative budget at the default configuration)
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


# values of the former in-order node sum at the default configuration
SEQUENTIAL_SUM_VALUES = (0.9999999672927781, 0.36787944125567096,
                         2.9999867883381968)


def test_invert_matches_sequential_sum_on_known_pairs():
    """The dot product over `contour` reproduces the in-order sum it
    replaced, up to rounding of the summation order."""
    for (transform, _original, t, _budget), frozen in zip(
            KNOWN_PAIRS, SEQUENTIAL_SUM_VALUES):
        assert invert(transform, t) == pytest.approx(frozen, rel=1e-14, abs=0)


def test_contour_layout():
    """At the defaults the rule places j = -47..46, out to |K sinh y| =
    `_MAX_ARG`, and keeps j = -34..33. The weights it drops are below
    1e-17 on the left, where |w| <= phi', and below 4e-18 on the right,
    where |w| <= M r phi' with the map's residual r = y / (e^{K sinh y}
    - 1), since there cos(M phi) = +-sin(M r): all under 2^-53 max|w| =
    9.0e-17."""
    cfg = InversionConfig()
    t = 10.0
    s_nodes, weights, prefactor = contour(t, cfg)
    assert s_nodes.shape == weights.shape == (68,)
    assert (s_nodes.real == cfg.contour_shift).all()
    assert (np.diff(s_nodes.imag) > 0.0).all()  # the map is increasing
    h = math.pi / cfg.freq_scale
    assert _half_count(cfg) == 46
    j = np.arange(-47, 47)
    y = j * h + 0.5 * h
    kept = (j >= -34) & (j <= 33)
    want = [cfg.freq_scale * _phi(v, cfg.steepness) / t for v in y[kept]]
    assert s_nodes.imag.tolist() == want
    assert prefactor == 2.0 * math.exp(cfg.contour_shift * t) / t
    floor = 2.0 ** -53 * np.abs(weights).max()
    assert np.abs(weights[[0, -1]]).min() >= floor
    dphi = _de_map(y, cfg.steepness)[1]
    right = j > 33
    r = y[right] / np.expm1(cfg.steepness * np.sinh(y[right]))
    assert np.abs(dphi[j < -34]).max() < 1e-17 < floor
    assert (cfg.freq_scale * r * np.abs(dphi[right])).max() < 4e-18


def test_contour_skips_saturated_nodes():
    """The trim, not the reach, sets the rule: at the defaults and at
    FDE's halved step every node left out lies where the map has
    saturated, K sinh|y| >= 42 (44.9 and 42.3 measured), and the rule
    places the 26 and 54 of them out to K sinh|y| = 115.6 and 117.9, so
    its ends are far under the trim."""
    for cfg, placed, kept in ((InversionConfig(), 94, 68),
                              (InversionConfig(freq_scale=80.0), 188, 134)):
        phase, weights = _untrimmed(cfg)
        s_nodes, _, _ = contour(1.0, cfg)
        assert (phase.size, s_nodes.size) == (placed, kept)
        (lo,) = np.flatnonzero(phase == s_nodes.imag[0])
        hi = lo + kept
        h = math.pi / cfg.freq_scale
        j = np.arange(-placed // 2, placed // 2)
        arg = np.abs(cfg.steepness * np.sinh(j * h + 0.5 * h))
        assert np.concatenate([arg[:lo], arg[hi:]]).min() >= 42.0
        assert arg[[0, -1]].min() > 115.0


def _exact_rule(cfg):
    """phi(y_j) and the weight cos(M phi) phi' of every node the rule
    places, j = -n-1..n (n = `_half_count`), at 40 digits at the exact
    abscissae y_j = (j + 1/2) pi / M."""
    mpmath = pytest.importorskip("mpmath")
    phis, weights = [], []
    with mpmath.workdps(40):
        m, k = mpmath.mpf(cfg.freq_scale), mpmath.mpf(cfg.steepness)
        n = _half_count(cfg)
        for j in range(-n - 1, n + 1):
            y = (j + mpmath.mpf(1) / 2) * mpmath.pi / m
            tail = mpmath.exp(-k * mpmath.sinh(y))
            phi = y / (1 - tail)
            dphi = (1 - y * k * mpmath.cosh(y) * tail / (1 - tail)) / (1 - tail)
            phis.append(float(phi))
            weights.append(float(mpmath.cos(m * phi) * dphi))
    return np.array(phis), np.array(weights)


@pytest.mark.parametrize("cfg, bound", (
    (InversionConfig(), 2e-15),
    (InversionConfig(freq_scale=80.0), 2e-15),
    (InversionConfig(steepness=1.0), 4e-15),
))
def test_contour_weights_match_the_exact_rule(cfg, bound):
    """The kept weights agree with the rule evaluated at 40 digits to
    2e-15 at the defaults and at FDE's halved step (1.2e-15 and 9.4e-16
    measured; the rounded phase M phi left 2.8e-14 and 4.6e-14). At
    steepness 1 the phase reaches M / K = 40 mid-contour, where half an
    ulp of it is 3.6e-15, so that rule is held to 4e-15 (3.2e-15
    measured). Every node left out has an exact weight at or below
    2^-53 max|w|."""
    phi, exact = _exact_rule(cfg)
    s_nodes, weights, _ = contour(1.0, cfg)
    lo = int(np.searchsorted(phi, s_nodes.imag[0] / cfg.freq_scale * (1 - 1e-12)))
    hi = lo + len(s_nodes)
    np.testing.assert_allclose(s_nodes.imag / cfg.freq_scale, phi[lo:hi],
                               rtol=1e-12, atol=0.0)
    assert np.abs(weights - exact[lo:hi]).max() <= bound
    dropped = np.concatenate([exact[:lo], exact[hi:]])
    assert (np.abs(dropped) <= 2.0 ** -53 * np.abs(exact).max()).all()


def test_rte_profile_matches_the_exact_weight_sum():
    """fig1a's RTE profile at t = 200 against the same transform values
    summed with the 40-digit weights of all 94 nodes: within 2e-12
    absolute (5.3e-13 measured). The prefactor 2 e^8 / 200 = 30 magnifies
    weight errors; the rounded phase M phi put the profile 3.2e-11 off."""
    sc = dataclasses.replace(builtin_scenarios()["fig1a"], times=(200.0,),
                             solvers=frozenset({"RTE"}))
    cfg = sc.inversion
    phi, exact = _exact_rule(cfg)
    (profile,) = run_scenario(sc)
    s_nodes, _, prefactor = contour(200.0, cfg)
    s_all = s_nodes.real[0] + 1j * (cfg.freq_scale * phi / 200.0)
    xs = sc.grid.points()
    q = gauss_legendre(sc.n_ordinates)
    want = prefactor * (mode_sum(xs, *modes(sc.transport, q, s_all)).real
                        @ exact)
    got = np.array([u for _, u in profile.points])
    assert np.abs(got - want).max() <= 2e-12


def test_contour_trims_only_the_tails():
    """Over freq_scale in [5, 200] and steepness in [0.4566, 50], the trim
    and not the reach sets the rule: the weights at both ends of the
    placed rule are below 2^-53 max|w|, the kept nodes are one contiguous
    run of it, and the node map is finite, without a warning, at every
    abscissa the rule places."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(freq_scale=st.floats(5.0, 200.0),
                      steepness=st.floats(_MIN_STEEPNESS, 50.0))
    def check(freq_scale, steepness):
        cfg = InversionConfig(freq_scale=freq_scale, steepness=steepness)
        n = _half_count(cfg)
        h = math.pi / freq_scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, dphi = _de_map(np.arange(-n - 1, n + 1) * h + 0.5 * h,
                                steepness)
            phase, weights = _untrimmed(cfg)
        assert np.isfinite(phi).all() and np.isfinite(dphi).all()
        floor = 2.0 ** -53 * np.abs(weights).max()
        assert np.abs(weights[[0, -1]]).max() < floor
        s_nodes, kept, _ = contour(1.0, cfg)
        (lo,) = np.flatnonzero(phase == s_nodes.imag[0])
        hi = lo + len(s_nodes)
        assert s_nodes.imag.tolist() == phase[lo:hi].tolist()
        assert kept.tolist() == weights[lo:hi].tolist()
        outside = np.concatenate([weights[:lo], weights[hi:]])
        assert (np.abs(outside) < floor).all()

    check()


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


def test_contour_refuses_a_reach_past_overflow():
    """No reach can overflow the node map any more: the abscissae stop at
    |K sinh y| = `_MAX_ARG`. What the reach guard used to refuse,
    freq_scale 0.001, is refused up front as a step too coarse to place
    a node, as is a steepness at which the map saturates within half a
    step; a step so fine that the rule would place more than 20,000
    nodes per time is refused too, rather than left to exhaust memory
    inside a solver."""
    for knobs in ({"freq_scale": 0.001}, {"steepness": 1e300}):
        with pytest.raises(ValueError, match="no contour nodes.*coarse"):
            InversionConfig(**knobs)
    for freq_scale in (1e5, 1e308):
        with pytest.raises(ValueError, match="more than 20000.*fine"):
            InversionConfig(freq_scale=freq_scale)


def test_largest_accepted_reach_still_computes():
    """At the smallest steepness, whose map reaches furthest, freq_scale
    5000 places 19,940 nodes and 5100 is refused. The widest accepted
    rule computes finite nodes and weights without a warning, and still
    inverts 1/(s + 1) and 1/s to 1e-10 and 1e-8 (4.5e-15 and 3.2e-14
    measured)."""
    with pytest.raises(ValueError, match="freq_scale 5100"):
        InversionConfig(freq_scale=5100.0, steepness=_MIN_STEEPNESS)
    cfg = InversionConfig(freq_scale=5000.0, steepness=_MIN_STEEPNESS)
    assert _half_count(cfg) == 9969
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s_nodes, weights, prefactor = contour(10.0, cfg)
        assert np.isfinite(s_nodes).all() and np.isfinite(weights).all()
        assert abs(invert(lambda s: 1.0 / (s + 1.0), 2.0, cfg)
                   - math.exp(-2.0)) < 1e-10
        assert abs(invert(lambda s: 1.0 / s, 10.0, cfg) - 1.0) < 1e-8


def test_contour_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        contour(0.0)


def test_contour_shift_robustness_bounded_pairs():
    """The answer must not depend on the abscissa for calm transforms."""
    for transform, original, t, _budget in KNOWN_PAIRS[:2]:
        want = original(t)
        for shift in (0.02, 0.04, 0.08):
            got = invert(transform, t, InversionConfig(contour_shift=shift))
            assert abs(got - want) / abs(want) < 1e-5, (t, shift)


@pytest.mark.xfail(strict=True,
                   reason="ramp spectrum decays like 1/w^2; at the pinned "
                          "frequency scale the shift sweep hits 4.1e-5, past "
                          "the 1e-5 budget the calmer pairs meet")
def test_contour_shift_robustness_ramp():
    transform, original, t, _budget = KNOWN_PAIRS[2]
    want = original(t)
    for shift in (0.02, 0.04, 0.08):
        got = invert(transform, t, InversionConfig(contour_shift=shift))
        assert abs(got - want) / abs(want) < 1e-5, shift


# --------------------------------------------------------- reference inverter

def test_reference_known_pair_high_order():
    got = invert_reference(lambda s: 1.0 / (s + 1.0), 1.0, order=32)
    assert abs(got - math.exp(-1.0)) / math.exp(-1.0) < 1e-8


def test_reference_stable_density():
    # L^-1[e^{-sqrt s}] at t=1 is the one-sided 1/2-stable density
    got = invert_reference(lambda s: cmath.exp(-cmath.sqrt(s)), 1.0)
    assert abs(got - 0.21969564473386122) < 1e-6


def test_reference_rejects_bad_arguments():
    with pytest.raises(ValueError):
        invert_reference(lambda s: 1.0 / s, -1.0)
    with pytest.raises(ValueError):
        invert_reference(lambda s: 1.0 / s, 1.0, order=1)


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
