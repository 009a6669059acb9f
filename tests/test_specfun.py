"""Tests for the special-function layer.

Every expected number here is either a closed form evaluated with the
standard library, an independent quadrature of the defining integral,
a high-precision value from mpmath (skipped when it is not installed),
or a property (exactness degree, recurrence, symmetry) that the
implementation does not use internally.
"""

import cmath
import math
import random

import pytest
from scipy import integrate

from trapdiff import specfun
from trapdiff.specfun import gauss_legendre, gen_exp_integral_scaled


# ---------------------------------------------------------------- quadrature

def test_gauss_legendre_one_point_rule():
    q = gauss_legendre(1)
    assert q.nodes == (0.5,)
    assert q.weights == (1.0,)


def test_gauss_legendre_two_point_rule():
    q = gauss_legendre(2)
    assert q.nodes[0] == pytest.approx(0.2113248654, abs=1e-10)
    assert q.nodes[1] == pytest.approx(0.7886751346, abs=1e-10)
    assert q.weights[0] == pytest.approx(0.5, abs=1e-14)
    assert q.weights[1] == pytest.approx(0.5, abs=1e-14)


def test_gauss_legendre_moment_exactness():
    """An n-point rule integrates monomials up to degree 2n-1 exactly."""
    for n in (1, 2, 3, 5, 8, 30):
        q = gauss_legendre(n)
        for k in range(2 * n):
            moment = sum(w * x**k for x, w in zip(q.nodes, q.weights))
            assert moment == pytest.approx(1.0 / (k + 1), rel=1e-13), (n, k)


def test_gauss_legendre_second_moment_30():
    q = gauss_legendre(30)
    assert sum(w * x * x for x, w in zip(q.nodes, q.weights)) == pytest.approx(
        1.0 / 3.0, abs=1e-12)


def test_gauss_legendre_node_layout():
    q = gauss_legendre(30)
    assert all(0.0 < x < 1.0 for x in q.nodes)
    assert all(a < b for a, b in zip(q.nodes, q.nodes[1:]))
    # rule on (0,1) inherits the reflection symmetry of Legendre roots
    for i in range(30):
        assert q.nodes[i] + q.nodes[29 - i] == pytest.approx(1.0, abs=1e-14)
        assert q.weights[i] == pytest.approx(q.weights[29 - i], abs=1e-14)


def test_gauss_legendre_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_legendre(0)


# -------------------------------------------------- exponential integral E_nu

def test_exp_integral_at_unity():
    # e * E_1(1), E_1(1) from adaptive quadrature of int_1^inf e^-t / t dt
    oracle, err = integrate.quad(lambda t: math.exp(-t) / t, 1.0, 40.0,
                                 limit=200, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    val = gen_exp_integral_scaled(1.0, 1.0)
    assert val.imag == 0.0
    assert val.real == pytest.approx(math.e * oracle, rel=1e-12)
    assert val.real == pytest.approx(0.5963473623231929, rel=1e-12)


def test_exp_integral_recurrence():
    """nu * [e^z E_{nu+1}(z)] = 1 - z * [e^z E_nu(z)] across the right half-plane."""
    rng = random.Random(918273)
    for _ in range(60):
        z = 10 ** rng.uniform(-2, 2.5) * cmath.exp(1j * rng.uniform(-1.4, 1.4))
        nu = rng.uniform(0.2, 3.0)
        lhs = nu * gen_exp_integral_scaled(nu + 1.0, z)
        rhs = 1.0 - z * gen_exp_integral_scaled(nu, z)
        assert abs(lhs - rhs) / abs(rhs) < 1e-12, (nu, z)


def test_exp_integral_asymptotic_tail():
    # e^z E_nu(z) ~ 1/z for large z; the first correction is -nu/z^2
    for z in (1e4, 1e6):
        val = gen_exp_integral_scaled(1.5, z)
        assert abs(z * val - 1.0) < 2.0 * 1.5 / z


def test_exp_integral_ray_quadrature_oracle():
    """Match the defining integral along the horizontal ray from z."""
    nu, z = 1.5, 0.04 + 10j
    pref = cmath.exp((nu - 1.0) * cmath.log(z))

    def integrand(u, part):
        v = pref * math.exp(-u) * (z + u) ** (-nu)
        return v.real if part == "re" else v.imag

    vr, er = integrate.quad(integrand, 0.0, 60.0, args=("re",), limit=400)
    vi, ei = integrate.quad(integrand, 0.0, 60.0, args=("im",), limit=400)
    assert er + ei < 1e-10
    oracle = complex(vr, vi)
    assert abs(gen_exp_integral_scaled(nu, z) - oracle) / abs(oracle) < 1e-10


def test_exp_integral_domain_errors():
    for nu, z in ((1.5, -1.0), (1.5, 0.0), (0.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            gen_exp_integral_scaled(nu, z)


def test_exp_integral_refuses_orders_above_four(monkeypatch):
    """The routing is measured up to order 4, the recurrence test's
    nu + 1. Above it ValueError comes before any term is summed: at
    order 11.507 and z = -60.612 - 9.49e-4i the continued fraction
    stalled and raised NumericFailureError after 100000 terms."""
    z = complex(-60.61179966067107, -0.0009491082780130784)
    assert math.isfinite(abs(gen_exp_integral_scaled(4.0, z)))

    def no_sum(*args):
        raise AssertionError("a term was summed")

    monkeypatch.setattr(specfun, "_exp_integral_cf", no_sum)
    monkeypatch.setattr(specfun, "_exp_integral_series", no_sum)
    with pytest.raises(ValueError, match="order"):
        gen_exp_integral_scaled(11.507137288057418, z)


# exp(z) E_nu(z) switches between power series and continued fraction
# on the curve |z| + Re z = 3, sampled right of the ray Re z = -|Im z|/2
# (|z| from 1.5 to 5.4), and beside the cut at |z| = 60, checked on its
# own below. The circles |z| = 1 and 40 and the ray, out to |z| = 45,
# are sampled too: the ray bounds the band where the series loses most
_SEAM_ANGLE = math.pi - math.atan(2.0)


def _series_cancellation(z):
    """exp(|z| + Re z) where the power series is used left of the ray at
    1 <= |z| < 40 (|z| + Re z <= 3), the growth of its cancellation; 1
    elsewhere, the series' points right of the ray included."""
    if (1.0 <= abs(z) < 40.0 and z.real < -0.5 * abs(z.imag)
            and abs(z) + z.real <= 3.0):
        return math.exp(abs(z) + z.real)
    return 1.0


def test_exp_integral_matches_mpmath_across_routing_seams():
    """Relative error below 1e-12 (times the documented cancellation
    growth of the series left of the ray) on both sides of every seam,
    for orders near and at integers as well as in between."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    mpmath = pytest.importorskip("mpmath")

    near_integer = st.builds(
        lambda n, sign, e: n + sign * 10.0**e,
        st.integers(1, 3), st.sampled_from([-1.0, 1.0]), st.floats(-15.0, -1.0))
    orders = st.one_of(st.floats(0.2, 3.0), near_integer,
                       st.integers(1, 3).map(float))
    jitter = st.floats(-0.02, 0.02)
    on_circle = st.builds(
        lambda r, d, th: r * (1.0 + d) * cmath.exp(1j * th),
        st.sampled_from([1.0, 40.0]), jitter,
        st.floats(-math.pi + 0.01, math.pi - 0.01))
    on_ray = st.builds(
        lambda r, d, sign: r * cmath.exp(1j * sign * _SEAM_ANGLE * (1.0 + d)),
        st.floats(0.5, 45.0), jitter, st.sampled_from([-1.0, 1.0]))
    # |z| + Re z = 3 (1 + d) at |z| = 3 (1 + d) / (1 + cos th)
    on_curve = st.builds(
        lambda th, d: 3.0 * (1.0 + d) / (1.0 + math.cos(th))
        * cmath.exp(1j * th),
        st.floats(-_SEAM_ANGLE, _SEAM_ANGLE), jitter)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(nu=orders, z=st.one_of(on_circle, on_ray, on_curve))
    def check(nu, z):
        with mpmath.workdps(40):
            zz = mpmath.mpc(z)
            want = complex(mpmath.exp(zz) * mpmath.expint(mpmath.mpf(nu), zz))
        got = gen_exp_integral_scaled(nu, z)
        rel = abs(got - want) / abs(want)
        assert rel <= 1e-12 * _series_cancellation(z), (nu, z, rel)

    check()


def test_exp_integral_continued_fraction_stops_a_few_ulps_from_one():
    """At nu = 1/2 and these two arguments (fig1a's nodes at gamma = 1e300)
    the fraction's factor delta rounds to 1 + 2^-52 for good; a stop at
    delta == 1 ran 100000 terms and raised NumericFailureError. Both
    agree with the asymptotic 1/z (1 - nu/z) to 1e-15 relative, alone
    and in one stack."""
    z = [4.0e298 + 4.4e290j, 4.0e298 + 2.8e293j]
    stacked = gen_exp_integral_scaled(0.5, z)
    for zj, got in zip(z, stacked):
        want = (1.0 - 0.5 / zj) / zj
        assert abs(got - want) <= 1e-15 * abs(want), zj
        assert gen_exp_integral_scaled(0.5, zj) == got


def test_exp_integral_matches_mpmath_in_the_cancellation_band():
    """Left of the ray Re z = -|Im z|/2 at 1 <= |z| < 40 the power series
    loses exp(|z| + Re z) (3.9e-8 relative at nu = 0.25,
    z = -17.4 - 34.7i); the continued fraction takes over where that
    loss passes e^3. 200 random band points per order, among them that
    one, agree with mpmath to 1e-13 relative (measured 1.5e-14)."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    band = [-17.4 - 34.7j]
    while len(band) < 200:
        z = cmath.rect(rng.uniform(1.0, 40.0), rng.uniform(-math.pi, math.pi))
        if z.real < -0.5 * abs(z.imag) and z.imag != 0.0:
            band.append(z)
    for nu in (0.25, 1.05, 1.3, 1.5, 1.7, 1.95):
        for z in band:
            with mpmath.workdps(40):
                zz = mpmath.mpc(z)
                want = complex(mpmath.exp(zz) * mpmath.expint(nu, zz))
            got = gen_exp_integral_scaled(nu, z)
            assert abs(got - want) <= 1e-13 * abs(want), (nu, z)


def test_exp_integral_matches_mpmath_beside_the_cut_past_40():
    """Within ~1 of the negative real axis at 40 <= |z| < ~55 roundoff
    stalls the continued fraction's convergence test (alone it raises
    NumericFailureError at nu = 2, |z| = 40, arg z = 0.999 pi), so the
    series keeps that sliver up to |z| = 60. That point and 300 with
    30 <= -Re z <= 120 and 1e-14 <= |Im z| <= 20, across the seam at
    |z| = 60, agree with mpmath to 1e-13 relative (measured 1.7e-15)."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(13)
    points = [(2.0, cmath.rect(40.0, 0.999 * math.pi))]
    while len(points) < 301:
        nu = rng.uniform(0.01, 3.0)
        im = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, 1.3)
        points.append((nu, complex(-rng.uniform(30.0, 120.0), im)))
    for nu, z in points:
        with mpmath.workdps(40):
            zz = mpmath.mpc(z)
            want = complex(mpmath.exp(zz) * mpmath.expint(mpmath.mpf(nu), zz))
        got = gen_exp_integral_scaled(nu, z)
        assert abs(got - want) <= 1e-13 * abs(want), (nu, z)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_integral_continuous_in_the_order_at_integers(n):
    """Orders a hair off an integer, on either side of the series'
    integer-order pairing, stay within 1e-10 of the integer-order value."""
    for z in (0.5, 0.3 + 0.8j, -0.39 + 0.69j, -2.9 - 1.1j):
        at = gen_exp_integral_scaled(float(n), z)
        for delta in (1e-13, 1.25e-12, 1e-11):
            for nu in (n - delta, n + delta):
                got = gen_exp_integral_scaled(nu, z)
                assert abs(got - at) <= 1e-10 * abs(at), (nu, z)
