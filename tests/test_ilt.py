"""Tests for the numerical Laplace inversion pair.

`invert` is the production double-exponential Bromwich rule; `invert_reference`
is a fixed-Talbot rule kept deliberately dissimilar (different contour,
different discretization). Their agreement on the actual physics
transforms is the strongest check in this module: any systematic error
would have to conspire identically in both.

Known pairs use closed-form originals; tolerances follow the calibration
of the rule at its pinned default configuration.
"""

import cmath
import math

import numpy as np
import pytest

from trapdiff import fde
from trapdiff.errors import NumericFailureError
from trapdiff.ilt import (
    InversionConfig,
    _de_map,
    contour,
    de_map,
    invert,
    invert_reference,
)
from trapdiff.specfun import gauss_legendre
from trapdiff.transport import TransportParams, laplace_density
from trapdiff.waiting import WaitingTimeModel

K = 6.0  # default steepness
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

def test_de_map_limit_at_zero():
    assert de_map(0.0, K) == 1.0 / K


def test_de_map_linear_for_large_argument():
    assert de_map(10.0, K) / 10.0 == pytest.approx(1.0, abs=1e-12)


def test_de_map_near_zero():
    assert abs(de_map(1e-6, K) - 1.0 / K) < 1e-5


def test_de_map_vanishes_double_exponentially():
    assert 0.0 <= de_map(-3.0, K) < 1e-20


def test_de_map_derivative_saturates():
    dphi = _de_map(np.array([10.0, -3.0]), K)[1]
    assert dphi[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(dphi[1]) < 1e-18


def test_de_map_derivative_matches_finite_difference():
    h = 1e-6
    y = np.array([-1.0, -0.5, 0.5, 1.0, 2.0])
    dphi = _de_map(y, K)[1]
    for v, got in zip(y.tolist(), dphi.tolist()):
        fd = (de_map(v + h, K) - de_map(v - h, K)) / (2.0 * h)
        assert got == pytest.approx(fd, rel=1e-6), v


def _scalar_phi(y, k):
    """phi of the node map, one y at a time in scalar math."""
    arg = k * math.sinh(y)
    if arg < -690.0:
        return -y * math.exp(arg)
    return y / -math.expm1(-arg)


def _scalar_dphi(y, k):
    """phi' of the node map, one y at a time in scalar math, with the
    exponentials computed directly rather than from one expm1."""
    arg = k * math.sinh(y)
    if arg < -690.0:
        return (abs(y) * k * math.cosh(y) - 1.0) * math.exp(arg)
    denom = -math.expm1(-arg)
    ratio = math.exp(-arg) / denom if arg < 690.0 else 0.0
    return (1.0 - y * k * math.cosh(y) * ratio) / denom


@pytest.mark.parametrize("steepness", (0.5, 2.0, 6.0, 20.0))
@pytest.mark.parametrize("freq_scale", (10.0, 40.0, 80.0))
def test_de_map_arrays_match_scalar_formulas(steepness, freq_scale):
    """phi and phi' of the array map on 801 half-offset abscissae, deep
    into both saturated tails, agree with the scalar formulas to 1e-12
    relative (measured <= 1.2e-13), and vanish at the same nodes, so
    `contour` drops the same ones."""
    y = (np.arange(-400, 401) + 0.5) * (math.pi / freq_scale)
    phi, dphi = _de_map(y, steepness)
    want_phi = np.array([_scalar_phi(v, steepness) for v in y.tolist()])
    want_dphi = np.array([_scalar_dphi(v, steepness) for v in y.tolist()])
    assert ((dphi == 0.0) == (want_dphi == 0.0)).all()
    assert (want_dphi == 0.0).any() and (want_dphi != 0.0).sum() > 400
    np.testing.assert_allclose(phi, want_phi, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(dphi, want_dphi, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(contour_shift=0.0)
    with pytest.raises(ValueError):
        InversionConfig(freq_scale=-1.0)
    with pytest.raises(ValueError):
        InversionConfig(truncation=0)
    with pytest.raises(ValueError):
        InversionConfig(steepness=0.0)


def test_config_defaults():
    cfg = InversionConfig()
    assert (cfg.contour_shift, cfg.freq_scale, cfg.truncation, cfg.steepness) == (
        0.04, 40.0, 40, 6.0)


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
    cfg = InversionConfig()
    t = 10.0
    s_nodes, weights, prefactor = contour(t, cfg)
    n = 2 * cfg.truncation + 1
    assert s_nodes.shape == weights.shape == (n,)
    assert (s_nodes.real == cfg.contour_shift).all()
    assert (np.diff(s_nodes.imag) > 0.0).all()  # the map is increasing
    h = math.pi / cfg.freq_scale
    y = np.arange(-cfg.truncation, cfg.truncation + 1) * h + 0.5 * h
    want = [cfg.freq_scale * de_map(v, cfg.steepness) / t for v in y]
    assert s_nodes.imag.tolist() == want
    assert prefactor == 2.0 * math.exp(cfg.contour_shift * t) / t


def test_contour_skips_saturated_nodes():
    """Far down the map phi' underflows to zero; those nodes are dropped."""
    cfg = InversionConfig(truncation=240)
    s_nodes, weights, _ = contour(10.0, cfg)
    assert 81 < len(s_nodes) < 2 * cfg.truncation + 1
    assert len(weights) == len(s_nodes)
    h = math.pi / cfg.freq_scale
    dphi = _de_map(np.arange(-240, 241) * h + 0.5 * h, cfg.steepness)[1]
    assert np.count_nonzero(dphi) == len(s_nodes)


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
    """Abscissae past |y| = 710 overflow sinh: an error, not nan weights."""
    with pytest.raises(FloatingPointError, match="overflow"):
        contour(10.0, InversionConfig(freq_scale=10.0, truncation=2300))


def test_contour_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        contour(0.0)


def test_truncation_doubling_is_converged():
    """Doubling the one-sided term count must not move the result."""
    wide = InversionConfig(truncation=80)
    for transform, _original, t, _budget in KNOWN_PAIRS:
        base = invert(transform, t)
        again = invert(transform, t, wide)
        assert abs(again - base) <= 1e-8 * max(1.0, abs(base)), t


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
