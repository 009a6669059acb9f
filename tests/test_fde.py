"""Tests for the fractional diffusion solvers.

Two independent oracles of the same density exist: the heat kernel
averaged over the inverse stable clock in the time domain
(`subordinated_density`) and numerical inversion of the Fourier-Laplace
picture (`laplace_density` fed to the Laplace inverters). The tests play
them against each other and against the closed-form normal-diffusion
limit. The production transform, the
`transport.mode_sum` of `modes`, is checked against the numerical
Fourier route for every tail exponent.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from trapdiff import fde, harness, ilt
from trapdiff.errors import NumericFailureError
from trapdiff.fde import (
    FdeParams,
    fourier_laplace,
    from_transport,
    laplace_density,
    normal_diffusion,
    subordinated_density,
)
from trapdiff.harness import (Scenario, SpatialGrid, builtin_scenarios,
                              run_scenario, solver_modes)
from trapdiff.transport import TransportParams, mode_sum
from trapdiff.waiting import WaitingTimeModel, power_memory

ETA = math.sqrt(0.1) * 0.1  # gamma^alpha * sigma_trap for the main scenario
D0 = 1.0 / 3.0

MAIN = FdeParams(trap_strength=ETA, diffusivity=D0, sigma_a=1e-9, alpha=0.5)
NO_ABSORB = FdeParams(trap_strength=ETA, diffusivity=D0, sigma_a=0.0, alpha=0.5)
FREE = FdeParams(trap_strength=0.0, diffusivity=D0, sigma_a=0.0, alpha=0.5)


# fig1a's medium: it gives MAIN's constants, with sigma_a = 0 NO_ABSORB's,
# and with sigma_trap = 0 too FREE's
FIG1A = builtin_scenarios()["fig1a"].transport


def with_alpha(tp, alpha):
    """tp with its waiting law's tail exponent swapped for alpha."""
    return replace(tp, waiting=replace(tp.waiting, alpha=alpha))


def fde_modes(tp, s):
    """FDE's (rate, coef) at s, from the harness' kernel x memory table:
    the power-law memory under the diffusion kernel."""
    return solver_modes(Scenario("fde", tp), "FDE", s)


# ---------------------------------------------------------------- parameters

def test_params_validation():
    with pytest.raises(ValueError):
        FdeParams(trap_strength=-0.1, diffusivity=D0, sigma_a=0.0, alpha=0.5)
    with pytest.raises(ValueError):
        FdeParams(trap_strength=0.1, diffusivity=0.0, sigma_a=0.0, alpha=0.5)
    with pytest.raises(ValueError):
        FdeParams(trap_strength=0.1, diffusivity=D0, sigma_a=-1.0, alpha=0.5)
    with pytest.raises(ValueError):
        FdeParams(trap_strength=0.1, diffusivity=D0, sigma_a=0.0, alpha=1.0)
    # what from_transport forms from finite inputs once gamma^alpha
    # sigma_trap or speed^2 / (3 sigma_s) overflows
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="trap_strength .* finite"):
            FdeParams(trap_strength=value, diffusivity=D0, sigma_a=0.0,
                      alpha=0.5)
        with pytest.raises(ValueError, match="diffusivity .* finite"):
            FdeParams(trap_strength=0.1, diffusivity=value, sigma_a=0.0,
                      alpha=0.5)


def test_from_transport_main_scenario():
    p = from_transport(FIG1A)
    assert p.trap_strength == ETA  # 0.1^0.5 * 0.1, exactly as floats
    assert p.trap_strength == pytest.approx(0.0316228, abs=1e-7)
    assert p.diffusivity == D0
    assert p.alpha == 0.5
    assert p.sigma_a == 1e-9


def test_from_transport_refuses_an_overflowing_diffusivity():
    """fig1a's medium at speed = 1e200, whose square overflows to inf,
    is refused by the diffusivity check: a ValueError, not an
    OverflowError."""
    tp = replace(builtin_scenarios()["fig1a"].transport, speed=1e200)
    with pytest.raises(ValueError, match=r"diffusivity .* got inf"):
        from_transport(tp)


@pytest.mark.xfail(
    strict=True,
    reason="from_transport sets eta = gamma^alpha sigma_trap, without the "
           "Gamma(1 - alpha) of the small-s limit s LPhi(s) -> "
           "Gamma(1 - alpha) (gamma s)^alpha: the ratio reads 1.2981, "
           "1.7724 and 2.9849 at alpha = 0.3, 1/2 and 0.7")
@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.7))
def test_power_memory_is_the_small_s_limit_of_the_exact_memory(alpha):
    """At s = 1e-8 the power-law memory with from_transport's eta carries
    the trapping term of the exact memory, (S_exact - 1) / (S_power - 1),
    to within 1e-2 of 1 (2.2e-3 with eta times Gamma(1 - alpha))."""
    tp = with_alpha(FIG1A, alpha)
    p = from_transport(tp)
    s = np.array([1e-8 + 0j])
    exact, _ = tp.waiting.memory(tp.sigma_trap, s)
    power, _ = power_memory(p.trap_strength, p.alpha, s)
    assert abs((exact[0] - 1.0) / (power[0] - 1.0) - 1.0) <= 1e-2


def test_from_transport_trap_free():
    """Without trapping eta is 0 and alpha is still the law's, although
    the memory term it enters is switched off."""
    tp = replace(FIG1A, sigma_trap=0.0,
                 waiting=WaitingTimeModel(alpha=0.3, gamma=0.7))
    p = from_transport(tp)
    assert p.trap_strength == 0.0
    assert p.alpha == 0.3


def test_from_transport_speed_scaling():
    w = WaitingTimeModel(alpha=0.5, gamma=0.1)
    tp = TransportParams(sigma_a=0.0, sigma_s=2.0, sigma_trap=0.1, waiting=w,
                         speed=3.0)
    assert from_transport(tp).diffusivity == pytest.approx(9.0 / 6.0, rel=1e-15)


# ---------------------------------------------------------- transform picture

def test_fourier_laplace_zero_mode_is_total_mass():
    # at k = 0 with no absorption the transform must integrate to 2/s
    for s in (0.5 + 0.0j, 0.3 + 0.9j, 0.04 - 40.0j):
        got = fourier_laplace(NO_ABSORB, 0.0, s)
        assert abs(got - 2.0 / s) <= 1e-13 * abs(2.0 / s), s


def test_fourier_laplace_no_memory_is_heat_kernel():
    s, k = 0.3 + 0.9j, 2.0
    assert fourier_laplace(FREE, k, s) == 2.0 / (s + D0 * k * k)


def test_fourier_laplace_independent_reevaluation():
    s, k = 1.0 + 0.0j, 1.0
    sa = cmath.exp(0.5 * cmath.log(s))
    rebuilt = 2.0 * (1.0 + ETA * sa / s) / (s + ETA * sa + D0 * k * k + 1e-9)
    got = fourier_laplace(MAIN, k, s)
    assert abs(got - rebuilt) <= 1e-14 * abs(rebuilt)


def test_fourier_laplace_rejects_zero_s():
    with pytest.raises(ValueError):
        fourier_laplace(MAIN, 1.0, 0.0)


# ------------------------------------------------- the subordinated density

def fig1a_fde(alpha, times, grid):
    """fig1a with alpha swapped, FDE only, and its FDE constants."""
    base = builtin_scenarios()["fig1a"]
    tp = with_alpha(base.transport, alpha)
    sc = replace(base, transport=tp, times=times, grid=grid,
                 solvers=frozenset({"FDE"}))
    return sc, from_transport(tp)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_subordinated_density_matches_production(alpha):
    """At t = 10 ... 1e4 and x = 0.5, 2, 3.5, 5 the time-domain oracle
    and production FDE (the closed-form transform on the contour) agree
    within 1e-10 relative (7.5e-13 at most measured)."""
    sc, p = fig1a_fde(alpha, (10.0, 100.0, 1e3, 1e4), SpatialGrid(0.5, 5.0, 4))
    for profile in run_scenario(sc):
        for x, got in profile.points:
            want = subordinated_density(p, x, profile.t)
            assert abs(got - want) <= 1e-10 * want, (x, profile.t)


def test_subordinated_density_covers_alpha_from_a_quarter():
    """At alpha = 1/4 the rule still meets production within 1e-10;
    below it the clock turns too sharply for the rule: ValueError."""
    sc, p = fig1a_fde(0.25, (10.0,), SpatialGrid(0.0, 2.0, 3))
    (profile,) = run_scenario(sc)
    for x, got in profile.points:
        assert abs(subordinated_density(p, x, 10.0) - got) <= 1e-10 * got
    with pytest.raises(ValueError, match="alpha >= 0.25"):
        subordinated_density(replace(p, alpha=0.2499), 1.0, 10.0)


def test_subordinated_density_needs_no_scipy(monkeypatch):
    """The oracle runs on numpy alone: with QUADPACK gone it still
    computes at alpha = 0.3."""
    def no_quad(*args, **kwargs):
        raise AssertionError("scipy quad called")

    monkeypatch.setattr(fde, "quad", no_quad)
    p = replace(MAIN, alpha=0.3)
    got = subordinated_density(p, 2.0, 100.0)
    assert got > 0.0 and math.isfinite(got)


def test_subordinated_density_unconverged_clock_raises(monkeypatch):
    """Clock roots still moving when the Newton cap is reached are an
    error naming alpha and t, never a returned density."""
    monkeypatch.setattr(fde, "_NEWTON_STEPS", 1)
    with pytest.raises(NumericFailureError,
                       match="^clock roots did not converge") as exc:
        subordinated_density(MAIN, 1.0, 10.0)
    assert exc.value.context == {"alpha": 0.5, "t": 10.0}


# the alpha = 1/2 density of fig1a's medium through the oracle

def test_subordinated_density_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        subordinated_density(MAIN, 1.0, 0.0)


def test_subordinated_density_weak_memory_approaches_normal():
    p = FdeParams(trap_strength=1e-6, diffusivity=D0, sigma_a=0.0, alpha=0.5)
    got = subordinated_density(p, 0.0, 10.0)
    assert got == pytest.approx(0.3090194, abs=1e-3)


def test_subordinated_density_zero_memory_is_normal_exactly():
    assert subordinated_density(FREE, 1.3, 7.0) == normal_diffusion(FREE, 1.3, 7.0)


def test_subordinated_density_matches_inversion_oracle():
    got = subordinated_density(MAIN, 1.0, 10.0)
    oracle = ilt.invert(lambda s: laplace_density(MAIN, 1.0, s), 10.0)
    assert abs(got - oracle) / oracle < 1e-3
    # frozen oracle value, for drift detection
    assert got == pytest.approx(0.2973881369853064, rel=1e-6)


def test_subordinated_density_even_in_x():
    for x in (0.7, 2.5):
        assert subordinated_density(MAIN, x, 10.0) == subordinated_density(MAIN, -x, 10.0)


def test_subordinated_density_positive_and_decaying():
    vals = [subordinated_density(MAIN, float(x), 10.0) for x in range(9)]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


# t = 10 and 100 are test_acceptance's fractional mass conservation check
@pytest.mark.parametrize("t", [1.0])
def test_subordinated_density_conserves_mass(t):
    hi = 40.0 if t <= 10.0 else 60.0  # keep the truncated Gaussian tail < 1e-12
    val, err = integrate.quad(lambda x: subordinated_density(NO_ABSORB, x, t),
                              0.0, hi, limit=200, points=[0.1, 1.0, 5.0])
    assert err < 1e-7
    assert 2.0 * val == pytest.approx(2.0, abs=1e-5)


def test_subordinated_density_memory_ladder_is_monotone():
    """Error against normal diffusion shrinks as the memory term fades."""
    sups = []
    for eta in (1e-2, 1e-4, 1e-6):
        p = FdeParams(trap_strength=eta, diffusivity=D0, sigma_a=0.0, alpha=0.5)
        sups.append(max(abs(subordinated_density(p, float(x), 10.0)
                            - normal_diffusion(FREE, float(x), 10.0))
                        for x in range(11)))
    assert sups[0] > sups[1] > sups[2]
    assert sups[1] < 1e-3


# ------------------------------------------------------------- normal limit

def test_normal_diffusion_closed_form():
    got = normal_diffusion(FREE, 0.0, 10.0)
    assert got == 1.0 / math.sqrt(math.pi * D0 * 10.0)
    assert got == pytest.approx(0.3090194, abs=1e-7)
    x, t = 1.5, 4.0
    want = math.exp(-x * x / (4.0 * D0 * t)) / math.sqrt(math.pi * D0 * t)
    assert normal_diffusion(FREE, x, t) == pytest.approx(want, rel=1e-15)


def test_normal_diffusion_mass_and_attenuation():
    t = 10.0
    val, err = integrate.quad(lambda x: normal_diffusion(FREE, x, t), 0.0, 60.0)
    assert 2.0 * val == pytest.approx(2.0, abs=1e-10)
    absorbing = FdeParams(trap_strength=0.0, diffusivity=D0, sigma_a=0.05, alpha=0.5)
    ratio = normal_diffusion(absorbing, 1.0, t) / normal_diffusion(FREE, 1.0, t)
    assert ratio == pytest.approx(math.exp(-0.05 * t), rel=1e-13)


def test_normal_diffusion_rejects_nonpositive_time():
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"^time must be positive, "
                                             f"got {t}$"):
            normal_diffusion(FREE, 1.0, t)


# --------------------------------------------------------- transform inversion

def test_laplace_density_even_in_x():
    s = 0.04 + 3.0j
    assert laplace_density(MAIN, 2.0, s) == laplace_density(MAIN, -2.0, s)


def test_laplace_density_quadrature_failure_carries_context(monkeypatch):
    """A tolerance no QUADPACK rule can meet, even stepped up 100x, ends
    in a NumericFailureError that carries the estimate and its bound."""
    monkeypatch.setattr(fde, "_FOURIER_TOL", 1e-300)
    with pytest.raises(NumericFailureError) as exc:
        laplace_density(MAIN, 1.0, 0.04 + 1.0j)
    assert exc.value.context["estimate"] is not None
    assert exc.value.context["bound"] is not None


# ------------------------------------------------------ closed-form transform

def direct_closed_form(p, xs, s):
    """The (x, s) transform from one complex exp per entry: the reference
    for the running products along x."""
    x = np.abs(np.asarray(xs, dtype=float))[:, None]
    s = np.asarray(s, dtype=complex)[None, :]
    sa = s**p.alpha
    root = np.sqrt((s + p.trap_strength * sa + p.sigma_a) / p.diffusivity)
    amplitude = (1.0 + p.trap_strength * sa / s) / (p.diffusivity * root)
    return amplitude * np.exp(-x * root)


def node_columns(xs, rate, coef):
    """The (x, node) transform, one `mode_sum` over each node's mode."""
    return np.stack([mode_sum(xs, rate[j:j + 1], coef[j:j + 1])
                     for j in range(rate.shape[0])], axis=1)


def test_closed_form_transform_matches_direct_exponentials():
    """The running products of exp(-h sqrt(B/D0)) against one exp per
    entry, on each panel's FDE contour at t = 1, 10, 100 and 1000, over
    every built-in grid, grids from SpatialGrid.points() of other spans
    and counts, and single points of either sign: every node's column,
    one `mode_sum` per node, agrees to 1e-13 of its largest entry
    (measured <= 3.1e-15)."""
    grids = {sc.grid.points() for sc in builtin_scenarios().values()}
    grids |= {SpatialGrid(-1e3, 1e3, 2001).points(),
              SpatialGrid(1e6, 1e6 + 1.0, 11).points(),
              SpatialGrid(0.1, 0.7, 7).points(), (-1.7,), (0.0,), (2.0,)}
    for sc in builtin_scenarios().values():
        p = from_transport(sc.transport)
        for t in (1.0, 10.0, 100.0, 1000.0):
            s_nodes = ilt.contour(t, harness.DIFFUSION.refine * ilt.M)[0]
            for xs in grids:
                got = node_columns(xs, *solver_modes(sc, "FDE", s_nodes))
                want = direct_closed_form(p, xs, s_nodes)
                column = np.abs(want).max(axis=0)
                assert np.all(np.abs(got - want) <= 1e-13 * column), (t, xs)


CLOSED_S = (2.0, 0.04 - 40.0j, 0.04 + 0.3j, 0.5 + 3.0j, 0.04 + 400.0j)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_closed_form_transform_matches_fourier_route(alpha):
    """On and off the inversion contour, for every tail exponent. The
    absolute term covers values such as 3.5e-18 at x = 5, s = 0.04 - 40i,
    below the Fourier oracle's ~1e-14 floor."""
    tp = with_alpha(FIG1A, alpha)
    p = from_transport(tp)
    table = node_columns(np.arange(6.0), *fde_modes(tp, CLOSED_S))
    assert table.shape == (6, len(CLOSED_S))
    for x in (0, 1, 5):
        for j, s in enumerate(CLOSED_S):
            want = laplace_density(p, x, s)
            assert abs(table[x, j] - want) <= 1e-13 + 1e-9 * abs(want), (x, s)


@pytest.mark.parametrize("t, bound", [(10.0, 2e-14), (100.0, 2e-14),
                                      (1000.0, 3e-12), (1e4, 1e-12)])
def test_production_profile_matches_mpmath_talbot(t, bound):
    """fig1a's production FDE profile at x = 0, 1 and 5 against mpmath's
    Talbot inversion of the closed-form transform at 30 digits, a third
    inverter that shares no code with the other two: within 2e-14
    relative for t <= 100 (6.8e-15 measured), 3e-12 at t = 1000 and
    1e-12 at t = 1e4 (9.0e-13 and 1.9e-13 measured, where the shift is
    lowered to 8/t). De Hoog's method agrees with Talbot's to 30 digits
    at every point."""
    mpmath = pytest.importorskip("mpmath")
    sc = replace(builtin_scenarios()["fig1a"], times=(t,),
                 grid=SpatialGrid(0.0, 5.0, 6), solvers=frozenset({"FDE"}))
    (profile,) = run_scenario(sc)
    p = from_transport(sc.transport)
    with mpmath.workdps(30):
        eta, d0, sigma_a, alpha = map(mpmath.mpf, (
            p.trap_strength, p.diffusivity, p.sigma_a, p.alpha))
        for x, got in profile.points:
            if x not in (0.0, 1.0, 5.0):
                continue

            def transform(s, x=x):
                b = s + eta * s**alpha + sigma_a
                return ((1 + eta * s**(alpha - 1)) / mpmath.sqrt(d0 * b)
                        * mpmath.exp(-x * mpmath.sqrt(b / d0)))

            want = float(mpmath.invertlaplace(transform, t, method="talbot"))
            assert abs(got - want) <= bound * abs(want), (x, got, want)


def test_closed_form_transform_even_in_x():
    s = (0.04 + 3.0j, 1.5 - 0.2j)
    left = mode_sum((-2.0, -1.5, -1.0, -0.5), *fde_modes(FIG1A, s))
    right = mode_sum((0.5, 1.0, 1.5, 2.0), *fde_modes(FIG1A, s))
    assert (left == right[::-1]).all()


@pytest.mark.parametrize("s", [0.7 + 0.3j, 0.04 - 40.0j, 2.0])
def test_closed_form_transform_mass_identity(s):
    """Without absorption the transform integrates to exactly 2/s."""
    def part(x, which):
        modes = fde_modes(replace(FIG1A, sigma_a=0.0), (s,))
        return getattr(complex(mode_sum((x,), *modes)[0]), which)

    re, _ = integrate.quad(part, 0.0, math.inf, args=("real",),
                           epsabs=1e-14, epsrel=1e-12, limit=200)
    im, _ = integrate.quad(part, 0.0, math.inf, args=("imag",),
                           epsabs=1e-14, epsrel=1e-12, limit=200)
    assert abs(2.0 * complex(re, im) - 2.0 / s) <= 1e-10 * abs(2.0 / s)


def test_closed_form_transform_no_memory_is_heat_kernel_transform():
    """eta = 0: the Laplace transform of the heat kernel of mass 2."""
    s = 0.3 + 1.1j
    free = replace(FIG1A, sigma_trap=0.0, sigma_a=0.0)
    got = mode_sum((1.5,), *fde_modes(free, (s,)))[0]
    root = cmath.sqrt(s / D0)
    assert abs(got - cmath.exp(-1.5 * root) / (D0 * root)) <= 1e-15


def test_modes_reject_zero_s():
    """At s = 0 the memory term eta s^{a-1} diverges: ValueError, as
    `fourier_laplace` raises, instead of a nan transform."""
    with pytest.raises(ValueError, match="s != 0"):
        fde_modes(FIG1A, [0.5 + 1.0j, 0j])
    with pytest.raises(ValueError, match="s != 0"):
        fourier_laplace(MAIN, 1.0, 0j)
