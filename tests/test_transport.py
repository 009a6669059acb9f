"""Tests for the discrete-ordinates transport solver in the Laplace domain.

The production solver takes one spectrum per transform point from the
roots of the secular equation of the N x N half-range reduction. The
oracles used here are deliberately outside that code path: the
dispersion relation and orthogonality sums are recomputed from raw
quadrature data, the eigenvalue pairing is checked on a freshly
assembled 2N x 2N matrix, which also serves as a dense-eigensolver
oracle for random scenarios, the (x, node) density transform is rebuilt
from that full eigenproblem and, entry by entry, from direct
exponentials, the mass identity comes from integrating the governing
equation over space and angle, and the modes' mass and second moment
from its small-k expansion.
"""

import cmath
import dataclasses
import math
import random
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from trapdiff import harness, transport
from trapdiff.errors import NumericFailureError
from trapdiff.fde import from_transport
from trapdiff.harness import SpatialGrid, builtin_scenarios
from trapdiff.ilt import _STEEPNESS, M, SHIFT, contour, invert_reference
from trapdiff.specfun import gauss_legendre
from trapdiff.transport import (
    TransportParams,
    laplace_density,
    mode_sum,
    spectra,
)
from trapdiff.waiting import WaitingTimeModel


# the waiting-time law of the trap-free sets, where sigma_trap = 0 switches
# it off
LAW = WaitingTimeModel(alpha=0.5, gamma=0.1)


def scenario_params(sigma_trap=0.1, gamma=0.1):
    return TransportParams(sigma_a=1e-9, sigma_s=1.0, sigma_trap=sigma_trap,
                           waiting=WaitingTimeModel(alpha=0.5, gamma=gamma))


# the three parameter sets exercised throughout: trapping, weak trapping,
# and a larger time scale
SCENARIOS = (
    scenario_params(0.1, 0.1),
    scenario_params(0.01, 0.1),
    scenario_params(0.1, 1.0),
)

Q30 = gauss_legendre(30)


def table_modes(solver, tp, s, n=30):
    """solver's (rate, coef) at the stack s for tp at n ordinates, from
    the harness' kernel x memory table."""
    return harness.solver_modes(
        harness.Scenario("t", tp, n_ordinates=n), solver, s)


# fig1a at the eight times of the late-times compare, solved as one stack
LATE_STACK = ("fig1a", (10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0, 200.0))


def trapped_spectra(p, q, s_nodes):
    """sigma_t, the source factor S, nu and norm at each of s_nodes: the
    kernel `spectra` at the exact memory's p = s S of the trapped law."""
    source, clock = p.waiting.memory(p.sigma_trap, s_nodes)
    nus, norms = spectra(p, q, clock)
    return p.sigma_a + p.sigma_s + clock, source, nus, norms


def phi_matrix(p, st, nus, mu):
    """Vectorized eigenfunction table phi(nu_n, mu_i), shape (N, len(mu))."""
    nus = nus[:, None]
    return (p.sigma_s * nus / 2.0) / (st * nus - np.asarray(mu)[None, :])


# ---------------------------------------------------------------- parameters

def test_params_validation():
    w = WaitingTimeModel(alpha=0.5, gamma=0.1)
    with pytest.raises(ValueError):
        TransportParams(sigma_a=-1.0, sigma_s=1.0, sigma_trap=0.0, waiting=w)
    with pytest.raises(ValueError):
        TransportParams(sigma_a=0.0, sigma_s=0.0, sigma_trap=0.0, waiting=w)
    with pytest.raises(ValueError):
        TransportParams(sigma_a=0.0, sigma_s=1.0, sigma_trap=-0.1, waiting=w)
    with pytest.raises(ValueError):
        TransportParams(sigma_a=0.0, sigma_s=1.0, sigma_trap=0.0, waiting=w,
                        speed=0.0)


# ------------------------------------------------------------------- sigma_t

def test_sigma_t_trap_free():
    """Without trapping the exact memory is S = 1 and p = s exactly, so
    the kernel's sigma_t is sigma_a + sigma_s + s."""
    s = 0.3 + 0.9j
    source, clock = LAW.memory(0.0, [s])
    assert source[0] == 1.0 and clock[0] == s


def test_sigma_t_small_s_limit():
    # p = s + sigma_trap s (LPhi)(s), and s (LPhi)(s) ~
    # Gamma(1-alpha)(gamma s)^alpha vanishes with s
    p = SCENARIOS[0]
    _, clock = p.waiting.memory(p.sigma_trap, [1e-10 + 0j])
    assert abs(clock[0]) < 1e-5


def test_sigma_t_composition_against_quadrature():
    """Rebuild the exact memory's S and p from a quadrature of the
    survival transform."""
    p = SCENARIOS[0]
    s = 0.04 + 1.0j

    def integrand(u, part):
        tau = math.exp(u)
        survival = (1.0 + tau / p.waiting.gamma) ** -p.waiting.alpha  # Pareto
        damped = survival * math.exp(-s.real * tau) * tau
        if part == "re":
            return damped * math.cos(s.imag * tau)
        return -damped * math.sin(s.imag * tau)

    hi = math.log(60.0 / s.real)
    vr = integrate.quad(integrand, -34.0, hi, args=("re",), limit=800,
                        epsabs=1e-13, epsrel=1e-13)[0]
    vi = integrate.quad(integrand, -34.0, hi, args=("im",), limit=800,
                        epsabs=1e-13, epsrel=1e-13)[0]
    rebuilt = p.sigma_trap * complex(vr, vi) + 1.0
    source, clock = p.waiting.memory(p.sigma_trap, [s])
    assert abs(source[0] - rebuilt) / abs(rebuilt) < 1e-12
    assert abs(clock[0] - rebuilt * s) / abs(rebuilt * s) < 1e-12


# ---------------------------------------------------------------- eigenvalues

def test_single_ordinate_closed_form():
    """With one ordinate the dispersion relation is a quadratic in nu."""
    p = TransportParams(sigma_a=0.5, sigma_s=1.0, sigma_trap=0.0, waiting=LAW)
    q1 = gauss_legendre(1)
    nus, _ = spectra(p, q1, [0.5])  # sigma_t = 2, sigma_s = 1
    nu = nus[0, 0]
    assert nu == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-13)
    assert nu == pytest.approx(0.3535534, abs=1e-7)


def test_single_ordinate_closed_form_random_rates():
    rng = random.Random(55055)
    q1 = gauss_legendre(1)
    for _ in range(5):
        ss = rng.uniform(0.1, 2.0)
        st_total = ss + rng.uniform(0.6, 3.0)
        p = TransportParams(sigma_a=st_total - ss - 0.5, sigma_s=ss,
                            sigma_trap=0.0, waiting=LAW)
        nus, _ = spectra(p, q1, [0.5])
        closed = 0.5 / math.sqrt(st_total * (st_total - ss))
        assert abs(nus[0, 0] - closed) / closed < 1e-12


def test_spectrum_shape_and_half_plane():
    for p in SCENARIOS:
        _, _, nus, norms = trapped_spectra(p, Q30, [0.04 + 3.0j])
        assert len(nus[0]) == 30
        assert len(norms[0]) == 30
        assert all(nu.real > 0.0 for nu in nus[0])


def test_dispersion_residual():
    mu = np.asarray(Q30.nodes)
    w = np.asarray(Q30.weights)
    for p in SCENARIOS:
        for s in (0.04 + 3.0j, 0.04 - 41.0j, 0.04 + 750.0j):
            sts, _, nus, _ = trapped_spectra(p, Q30, [s])
            st = sts[0]
            for nu in nus[0]:
                lam = 1.0 - (p.sigma_s * nu / 2.0) * np.sum(
                    w * (1.0 / (st * nu - mu) + 1.0 / (st * nu + mu)))
                assert abs(lam) < 1e-9, (p.sigma_trap, s, nu)


def test_eigenvalue_pairing_against_raw_matrix():
    """The dedicated eigenproblem must agree with a fresh 2N x 2N assembly."""
    n = 12
    q = gauss_legendre(n)
    p = SCENARIOS[0]
    s = 0.04 + 17.0j
    sts, _, nus, _ = trapped_spectra(p, q, [s])
    mu = np.asarray(q.nodes)
    w = np.asarray(q.weights)
    st = sts[0]
    half = st * np.eye(n) - 0.5 * p.sigma_s * np.tile(w, (n, 1))
    coupling = -0.5 * p.sigma_s * np.tile(w, (n, 1))
    big = np.block([[half, coupling], [coupling, half]])
    streaming = np.diag(np.concatenate([mu, -mu]))
    raw = 1.0 / np.linalg.eigvals(np.linalg.solve(streaming, big))
    # negation invariance of the full spectrum
    for lam in raw:
        assert np.min(np.abs(raw + lam)) / abs(lam) < 1e-10
    # membership of the selected decaying half
    for nu in nus[0]:
        assert np.min(np.abs(raw - nu)) / abs(nu) < 1e-10


def test_scattering_free_limit():
    """nu_n approaches mu_n / sigma_t as scattering is switched off."""
    q8 = gauss_legendre(8)
    devs = []
    for ss in (1e-2, 1e-4):
        p = TransportParams(sigma_a=1.0, sigma_s=ss, sigma_trap=0.0, waiting=LAW)
        spectrum, _ = spectra(p, q8, [0.5])
        st = p.sigma_a + p.sigma_s + 0.5
        nus = sorted(spectrum[0], key=lambda v: v.real)
        devs.append(max(abs(nu * st / mu - 1.0)
                        for nu, mu in zip(nus, sorted(q8.nodes))))
    assert devs[0] < 1e-2 and devs[1] < 1e-4
    assert devs[0] / devs[1] > 10.0  # deviation shrinks linearly with sigma_s


def test_residual_guard_fires_when_unresolvable():
    # eigenvalues crowd the quadrature rays too tightly to polish
    p = TransportParams(sigma_a=1.0, sigma_s=1e-6, sigma_trap=0.0, waiting=LAW)
    with pytest.raises(NumericFailureError):
        spectra(p, gauss_legendre(8), [0.5])


# -------------------------------------------------------------- eigenfunction

def test_orthogonality_weighted_by_mu():
    for p in SCENARIOS:
        sts, _, nus, norms = trapped_spectra(p, Q30, [0.04 - 12.0j])
        mu = np.asarray(Q30.nodes)
        w = np.asarray(Q30.weights)
        plus = phi_matrix(p, sts[0], nus[0], mu)
        minus = phi_matrix(p, sts[0], nus[0], -mu)
        gram = (plus * w * mu) @ plus.T - (minus * w * mu) @ minus.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-9
        assert np.max(np.abs(np.diag(gram) - norms[0])) < 1e-9


# ------------------------------------------------------------ density transform

def test_density_even_in_x():
    p = SCENARIOS[0]
    s = 0.04 + 2.0j
    assert laplace_density(p, Q30, s, 1.7) == laplace_density(p, Q30, s, -1.7)


def test_density_trap_free_reduction():
    """With no trapping the transform is the bare sum over decaying modes."""
    p = TransportParams(sigma_a=0.5, sigma_s=1.0, sigma_trap=0.0, waiting=LAW)
    s = 0.2 + 0.3j
    nus, norms = spectra(p, Q30, [s])
    manual = sum(cmath.exp(-2.0 / nu) / nv for nu, nv in zip(nus[0], norms[0]))
    assert abs(laplace_density(p, Q30, s, 2.0) - manual) < 1e-14 * abs(manual)


def test_density_mass_identity():
    """Termwise x-integral equals the mass from the governing equation.

    Integrating the transport equation over all x and directions kills
    the advection term, leaving
    M(s) = 2 (1 + sigma_trap LPhi) / (s + sigma_a + sigma_trap s LPhi).
    """
    for p in SCENARIOS:
        for s in (0.04 + 0.5j, 0.04 - 7.0j, 0.04 + 120.0j, 0.04 - 450.0j, 0.04 + 999.0j):
            _, _, nus, norms = trapped_spectra(p, Q30, [s])
            lphi = p.waiting.laplace_survival(s)
            lhs = 2.0 * (p.sigma_trap * lphi + 1.0) * sum(
                nu / nv for nu, nv in zip(nus[0], norms[0]))
            rhs = 2.0 * (1.0 + p.sigma_trap * lphi) / (
                s + p.sigma_a + p.sigma_trap * s * lphi)
            assert abs(lhs - rhs) / abs(rhs) < 1e-8, (p.sigma_trap, s)


def test_density_mass_identity_at_speed_two():
    """At speed c the transform is u_1(x/c)/c: its x-integral, taken here
    by adaptive quadrature of the production transform, is still the
    mass M(s) of the governing equation."""
    w = WaitingTimeModel(alpha=0.5, gamma=0.1)
    p = TransportParams(sigma_a=1e-9, sigma_s=1.0, sigma_trap=0.1,
                        waiting=w, speed=2.0)
    q8 = gauss_legendre(8)
    for s in (0.04 + 0.5j, 0.3 + 2.0j):
        def part(x, name):
            return getattr(mode_sum([x], *table_modes("RTE", p, [s], 8))[0],
                           name)

        re = integrate.quad(part, 0.0, np.inf, args=("real",), limit=400,
                            epsabs=1e-13, epsrel=1e-12)[0]
        im = integrate.quad(part, 0.0, np.inf, args=("imag",), limit=400,
                            epsabs=1e-13, epsrel=1e-12)[0]
        lphi = w.laplace_survival(s)
        mass = 2.0 * (1.0 + p.sigma_trap * lphi) / (
            s + p.sigma_a + p.sigma_trap * s * lphi)
        assert abs(2.0 * complex(re, im) - mass) / abs(mass) < 1e-10, s


@pytest.mark.parametrize("solver", sorted(harness.PAIRINGS))
def test_mode_moments_match_the_closed_forms(solver):
    """At every node, at its kernel's step, of the six panels' stacks and
    of fig1a's late-time stack, each entry of the kernel x memory table
    gives modes whose mass sum_k 2 coef / rate matches 2 S / A, A =
    sigma_a + p with (S, p) the entry's memory, and whose second moment
    sum_k 4 coef / rate^3 matches its kernel's closed form.

    DO: 4 S c^2 / (3 sigma_t A^2), the small-k expansion of the
    transport transform, which half-range DO keeps, as sum_i w_i mu_i^2 =
    1/3 for N >= 2. The second moment weighs the diffusive mode by
    (c nu)^3, and neither shares algebra with the secular sums. Relative
    bounds 3e-14 and 5e-14 (measured 1.0e-14 and 2.3e-14, on fig1c;
    9.7e-14 and 1.1e-13 with the normalizations taken from the
    dispersion relation in ray variables). Diffusion: 4 S D0 / A^2, the
    heat kernel's, to 1e-14 (measured <= 1.2e-15)."""
    kernel, memory = harness.PAIRINGS[solver]
    stacks = [(builtin_scenarios()[LATE_STACK[0]], LATE_STACK[1])] + [
        (sc, sc.times) for sc in builtin_scenarios().values()]
    mass_err = second_err = 0.0
    for sc, times in stacks:
        tp = sc.transport
        s_nodes = np.concatenate([contour(t, kernel.refine * M)[0]
                                  for t in times])
        rate, coef = harness.solver_modes(sc, solver, s_nodes)
        source, clock = memory(sc, s_nodes)
        absorb = tp.sigma_a + clock
        mass = 2.0 * source / absorb
        if kernel is harness.DO:
            second = 4.0 * source * tp.speed**2 / (
                3.0 * (tp.sigma_s + absorb) * absorb**2)
        else:
            second = 4.0 * source * from_transport(tp).diffusivity / absorb**2
        mass_err = max(mass_err, np.max(
            np.abs((2.0 * coef / rate).sum(axis=1) - mass) / np.abs(mass)))
        second_err = max(second_err, np.max(
            np.abs((4.0 * coef / rate**3).sum(axis=1) - second)
            / np.abs(second)))
    bounds = (3e-14, 5e-14) if kernel is harness.DO else (1e-14, 1e-14)
    assert mass_err <= bounds[0] and second_err <= bounds[1], (
        mass_err, second_err)


def _source_point_value(sc, n):
    """sc's RTE value at x = 0 with n ordinates, on the grid {0, 0.1}."""
    sc = dataclasses.replace(sc, grid=SpatialGrid(0.0, 0.1, 2),
                             solvers=frozenset({"RTE"}), n_ordinates=n)
    (profile,) = harness.run_scenario(sc)
    return profile.points[0][1]


@pytest.mark.parametrize("name", ["fig1a", "fig1c", "fig2a"])
def test_trapped_source_point_grows_with_the_ordinates(name):
    """A particle trapped on its first flight stays where it was caught;
    those sites lie like E1(sigma_t |x|), log-infinite at x = 0, and the
    waiting law still holds (1 + t / gamma)^-alpha of them at t. DO
    replaces E1 by sum_i (w_i / mu_i) exp(-sigma_t |x| / mu_i), so each
    doubling of N moves u(0, t) by sigma_trap (1 + t / gamma)^-alpha
    times the change of sum_i w_i / mu_i, from the quadrature and the
    waiting law alone. The mismatch is at most 1e-3 relative for
    30 -> 60 and 60 -> 120 ordinates (measured 4.7e-4 to 5.3e-4, then
    1.2e-4 to 1.4e-4), and falls by 3x or more from the first doubling
    to the second (3.95x measured), at t = 10 on fig1a and fig1c and at
    t = 100 on fig2a."""
    sc = builtin_scenarios()[name]
    tp, (t,) = sc.transport, sc.times
    held = tp.sigma_trap * (1.0 + t / tp.waiting.gamma) ** -tp.waiting.alpha
    u = {n: _source_point_value(sc, n) for n in (30, 60, 120)}
    inv_mu = {n: sum(w / mu for w, mu in zip(q.weights, q.nodes))
              for n, q in ((n, gauss_legendre(n)) for n in u)}
    mismatch = []
    for coarse, fine in ((30, 60), (60, 120)):
        law = held * (inv_mu[fine] - inv_mu[coarse])
        mismatch.append(abs(u[fine] - u[coarse] - law) / law)
    assert max(mismatch) <= 1e-3 and mismatch[0] >= 3.0 * mismatch[1], (
        mismatch)


def test_density_monotone_tail():
    p = SCENARIOS[0]
    vals = [abs(laplace_density(p, Q30, 0.1 + 0.2j, x))
            for x in (5.0, 7.0, 9.0, 12.0, 15.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def node_columns(xs, rate, coef):
    """The (x, node) transform, one `mode_sum` over each node's modes."""
    return np.stack([mode_sum(xs, rate[j:j + 1], coef[j:j + 1])
                     for j in range(rate.shape[0])], axis=1)


def test_density_transform_against_full_eigenproblem():
    """The transform of each node of fig1a's contour, rebuilt from the
    decaying half of a fresh 2N x 2N eigenproblem, the eigenfunction
    normalization integrals and the trapping source factor."""
    sc = builtin_scenarios()["fig1a"]
    p = sc.transport
    n = sc.n_ordinates
    q = gauss_legendre(n)
    mu = np.asarray(q.nodes)
    w = np.asarray(q.weights)
    s_all, _, _ = contour(10.0)
    s_nodes = s_all[np.linspace(0, len(s_all) - 1, 10).round().astype(int)]
    xs = np.array([0.0, 2.0, 7.0])
    rate, coef = harness.solver_modes(sc, "RTE", s_nodes)
    got = node_columns(np.arange(8.0), rate, coef)[xs.astype(int)]
    assert got.shape == (3, 10)
    c = 0.5 * p.sigma_s
    for j, s in enumerate(s_nodes.tolist()):
        lphi = p.waiting.laplace_survival(s)
        st = p.sigma_a + p.sigma_s + s + p.sigma_trap * lphi * s
        half = st * np.eye(n) - c * np.tile(w, (n, 1))
        coupling = -c * np.tile(w, (n, 1))
        big = np.block([[half, coupling], [coupling, half]])
        streaming = np.diag(np.concatenate([mu, -mu]))
        raw = 1.0 / np.linalg.eigvals(np.linalg.solve(streaming, big))
        nus = raw[raw.real > 0.0]
        assert len(nus) == n
        plus = c * nus[:, None] / (st * nus[:, None] - mu)
        minus = c * nus[:, None] / (st * nus[:, None] + mu)
        norms = (plus**2 - minus**2) @ (w * mu)
        want = (1.0 + p.sigma_trap * lphi) * np.array(
            [np.sum(np.exp(-x / nus) / norms) for x in xs])
        assert np.all(np.abs(got[:, j] - want) <= 1e-10 * np.abs(want)), s


def direct_density_transform(p, q, s_nodes, xs):
    """The (x, node) transform from one complex exp per (x, node, mode)
    entry: the reference for the running products along x."""
    _, source, nus, norms = trapped_spectra(p, q, s_nodes)
    ax = np.abs(np.asarray(xs, dtype=float))
    out = np.empty((ax.shape[0], nus.shape[0]), dtype=complex)
    for j in range(nus.shape[0]):
        modes = np.exp(-ax[:, None] / (p.speed * nus[j])) / norms[j]
        out[:, j] = source[j] / p.speed * modes.sum(axis=1)
    return out


@pytest.mark.parametrize("name", ["fig1a", "fig2c"])
def test_density_transform_matches_direct_exponentials(name):
    """The running products of exp(-h / (c nu)) against one exp per entry,
    on grids through, beside and off x = 0: every node's column, one
    `mode_sum` per node, agrees to 1e-13 of its largest entry (measured
    <= 2.0e-14), and the inverted profiles, one `mode_sum` over the
    coefficients times the contour weights, to 1e-12 absolute (measured
    <= 2.7e-13)."""
    sc = builtin_scenarios()[name]
    q = gauss_legendre(sc.n_ordinates)
    grids = [SpatialGrid(0.0, 15.0, 151), SpatialGrid(-3.0, 3.0, 7),
             SpatialGrid(-2.95, 15.0, 360), SpatialGrid(0.05, 40.0, 400)]
    for t in (1.0, 10.0, 100.0, 1000.0):
        s_nodes, weights, prefactor = contour(t)
        for grid in grids:
            xs = grid.points()
            rate, coef = harness.solver_modes(sc, "RTE", s_nodes)
            got = node_columns(xs, rate, coef)
            want = direct_density_transform(sc.transport, q, s_nodes, xs)
            column = np.abs(want).max(axis=0)
            assert np.all(np.abs(got - want) <= 1e-13 * column), (t, grid)
            u_got = prefactor * mode_sum(xs, rate, coef * weights[:, None]).real
            u_want = prefactor * (want.real @ weights)
            assert np.allclose(u_got, u_want, rtol=0.0, atol=1e-12), (t, grid)


# x grids that are not increasing and evenly spaced
OTHER_GRIDS = pytest.mark.parametrize("xs", [
    [0.0, 2.0, 7.0],
    [2.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 1.0, 2.0, 3.1],
    [0.0, math.nan],
    [[0.0, 1.0]],
    [],
], ids=["uneven", "decreasing", "repeated", "off-step", "nan", "2d", "empty"])


@OTHER_GRIDS
def test_density_transform_rejects_other_grids(xs):
    """The running products need an increasing, evenly spaced grid;
    `mode_sum` refuses any other."""
    rate, coef = table_modes("RTE", SCENARIOS[0], [0.1 + 0.2j])
    with pytest.raises(ValueError, match="grid"):
        mode_sum(xs, rate, coef)


@OTHER_GRIDS
def test_fde_transform_rejects_other_grids(xs):
    """The FDE transform runs through the same `mode_sum` and the same
    grid check."""
    rate, coef = table_modes("FDE", SCENARIOS[0], [0.1 + 0.2j])
    with pytest.raises(ValueError, match="grid"):
        mode_sum(xs, rate, coef)


@pytest.mark.parametrize("solver", ("RTE", "FDE"))
@pytest.mark.parametrize("s_nodes", [0.5 + 1.0j, [[0.5 + 1.0j]]],
                         ids=["scalar", "2d"])
def test_modes_reject_other_than_one_stack(solver, s_nodes, monkeypatch):
    """Both solvers take one one-dimensional stack of transform points
    and refuse a scalar or a 2-D stack, naming its shape, before any
    spectrum is solved; an empty stack gives empty modes."""
    def never(*args):
        raise AssertionError("a spectrum was solved")

    monkeypatch.setattr(transport, "_block_spectra", never)
    shape = np.shape(s_nodes)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        table_modes(solver, SCENARIOS[0], s_nodes)
    rate, coef = table_modes(solver, SCENARIOS[0], [])
    assert rate.shape == coef.shape == (0, Q30.order if solver == "RTE" else 1)


def test_density_transform_accepts_every_profile_grid():
    """Each built-in grid, grids from SpatialGrid.points() of other
    spans and counts, and a single point of either sign, each matching
    the direct exps to 1e-13 of its largest entry."""
    p = SCENARIOS[0]
    s = [0.1 + 0.2j]
    grids = [sc.grid.points() for sc in builtin_scenarios().values()]
    grids += [SpatialGrid(-1e3, 1e3, 2001).points(),
              SpatialGrid(1e6, 1e6 + 1.0, 11).points(),
              SpatialGrid(0.1, 0.7, 7).points(), [-1.7], [0.0], [2.0]]
    for xs in grids:
        got = mode_sum(xs, *table_modes("RTE", p, s))
        want = direct_density_transform(p, Q30, s, xs)[:, 0]
        assert got.shape == (len(xs),)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max()), xs


def test_density_transform_memory_peak():
    """Carrying the amplitudes from block to block keeps the traced peak
    of fig1a's t = 10 contour at the spectra's: 0.887 MB on its
    151-point grid, where one (x, node, mode) array alone would take
    4.9 MB, and 0.886 MB on the 16-point grid of the late-times
    comparison. The bounds are those set for the 81-node rule."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes, _, _ = contour(10.0)
    assert len(s_nodes) == 68
    for count, bound in ((151, 2.47e6), (16, 0.968e6)):
        xs = SpatialGrid(sc.grid.x_min, sc.grid.x_max, count).points()
        tracemalloc.start()
        try:
            mode_sum(xs, *harness.solver_modes(sc, "RTE", s_nodes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, count


@pytest.mark.parametrize("solver, times", [
    ("RTE", (10.0,)), ("RTE", (10.0, 20.0)),
    ("RTE", (10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0, 200.0)),
    ("FDE", (10.0,))], ids=["rte-one", "rte-two", "rte-eight", "fde"])
def test_mode_sum_front_keeps_each_value(solver, times):
    """Cut at a front f, the sums at |x| <= f equal the uncut ones bit for
    bit and are exactly 0 past it, for f at and between the points of a
    grid through x = 0, on stacks of 2,040, 4,080, 16,320 and 134
    (node, mode) pairs, whose tables have 4, 2, 1 and 61 rows."""
    sc = builtin_scenarios()["fig1a"]
    kernel, _ = harness.PAIRINGS[solver]
    stack = np.concatenate([contour(t, kernel.refine * M)[0] for t in times])
    rate, coef = harness.solver_modes(sc, solver, stack)
    xs = np.array(SpatialGrid(-3.0, 15.0, 91).points())
    full = mode_sum(xs, rate, coef)
    for front in np.concatenate([np.abs(xs), np.abs(xs) + 0.05]):
        cut = mode_sum(xs, rate, coef, front)
        kept = np.abs(xs) <= front
        assert np.array_equal(cut[kept], full[kept]), front
        assert not cut[~kept].any(), front


def test_mode_sum_memory_peak_on_a_stack():
    """One `mode_sum` over the 544 nodes of fig1a's eight late-time
    contours on the 151-point grid peaks below the 1.31 MB one (x, node)
    array would take (0.53 MB traced, measured: one table row and the
    amplitudes of the 16,320 (node, mode) pairs)."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes = np.concatenate([
        contour(t)[0]
        for t in (10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0, 200.0)])
    rate, coef = harness.solver_modes(sc, "RTE", s_nodes)
    xs = sc.grid.points()
    tracemalloc.start()
    try:
        mode_sum(xs, rate, coef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s_nodes) == 544 and len(xs) == 151
    assert peak < 151 * 544 * 16


# ------------------------------------------- secular roots vs full eigenproblem

def dispersion_residual(p, q, st, nus):
    """|1 - (sigma_s nu / 2) sum_i w_i (1/(st nu - mu_i) + 1/(st nu + mu_i))|."""
    mu = np.asarray(q.nodes)
    w = np.asarray(q.weights)
    c = 0.5 * p.sigma_s
    nu = np.asarray(nus)[:, None]
    return np.abs(1.0 - (c * nu / (st * nu - mu) + c * nu / (st * nu + mu)) @ w)


def full_eigenproblem_spectrum(p, q, s):
    """Decaying half of a fresh 2N x 2N eigenproblem at s. Raises
    NumericFailureError where that half is not N finite eigenvalues clear
    of the quadrature rays mu_i / sigma_t (the production solver's
    collision rule) that satisfy the dispersion relation to 1e-9."""
    n = q.order
    mu = np.asarray(q.nodes)
    w = np.asarray(q.weights)
    st = p.sigma_a + p.sigma_s + p.waiting.memory(p.sigma_trap, [s])[1][0]
    c = 0.5 * p.sigma_s
    half = st * np.eye(n) - c * np.tile(w, (n, 1))
    coupling = -c * np.tile(w, (n, 1))
    big = np.block([[half, coupling], [coupling, half]])
    streaming = np.diag(np.concatenate([mu, -mu]))
    raw = 1.0 / np.linalg.eigvals(np.linalg.solve(streaming, big))
    nus = raw[raw.real > 0.0]
    if not np.isfinite(raw).all() or len(nus) != n:
        raise NumericFailureError("no clean decaying half", s=s)
    gap = np.abs(nus[:, None] - mu / st).min(axis=1)
    if (gap < 1e-12 * np.abs(nus)).any():
        raise NumericFailureError("eigenvalue on a quadrature ray", s=s)
    if not (dispersion_residual(p, q, st, nus) <= 1e-9).all():
        raise NumericFailureError("oracle fails the dispersion relation", s=s)
    return nus


def talbot_nodes(t):
    """The transform points `invert_reference` probes at time t."""
    probed = []
    invert_reference(lambda s: probed.append(s) or 0j, t)
    return np.array(probed)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 60, 120])
def test_spectra_against_full_eigenproblem_property(n):
    """All N secular roots of each node, random rates and exponents, on
    the DE contour and on the fixed-Talbot contour (Re s < 0), agree with
    the full eigenproblem to 1e-10 relative, or both sides fail. Four
    sampled nodes are solved as a stack of their own, where each starts
    from its pole shifts, and again within their whole contour solved as
    one stack, where they start from the predictors of later blocks.

    At N = 120 and |s| of order 100 the dense solve cannot resolve the
    eigenvalues that sit within a relative 1e-6 of the quadrature rays,
    and only the oracle fails; there the secular roots must still satisfy
    the dispersion relation to 1e-9, recomputed here."""
    hypothesis = pytest.importorskip("hypothesis")
    st_ = pytest.importorskip("hypothesis.strategies")

    def log_uniform(lo, hi):
        return st_.floats(lo, hi).map(lambda e: 10.0**e)

    @hypothesis.settings(max_examples=12, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        sigma_a=log_uniform(-9.0, 0.0),
        sigma_s=log_uniform(-1.0, 1.0),
        sigma_trap=log_uniform(-3.0, 0.0),
        gamma=log_uniform(-2.0, 1.0),
        alpha=st_.floats(0.05, 0.95),
        t=log_uniform(0.0, 2.5),
        talbot=st_.booleans(),
        pick=st_.randoms(use_true_random=False),
    )
    def check(sigma_a, sigma_s, sigma_trap, gamma, alpha, t, talbot, pick):
        waiting = WaitingTimeModel(alpha=alpha, gamma=gamma)
        p = TransportParams(sigma_a=sigma_a, sigma_s=sigma_s,
                            sigma_trap=sigma_trap, waiting=waiting)
        q = gauss_legendre(n)
        if talbot:
            s_all = talbot_nodes(t)
        else:
            s_all, _, _ = contour(t)
        picked = sorted(pick.sample(range(len(s_all)), 4))
        wants = [oracle_spectrum(p, q, complex(s_all[j])) for j in picked]
        for s_nodes, oracle in ((s_all[picked], dict(enumerate(wants))),
                                (s_all, dict(zip(picked, wants)))):
            try:
                st, _, nus, _ = trapped_spectra(p, q, s_nodes)
            except NumericFailureError as exc:
                j = exc.context["node"]
                assert (oracle[j] if j in oracle else
                        oracle_spectrum(p, q, complex(s_nodes[j]))) is None
                continue
            assert_spectra_match_oracle(p, q, st, nus, oracle)

    check()


def oracle_spectrum(p, q, s):
    """`full_eigenproblem_spectrum` at s, or None where it fails."""
    try:
        return full_eigenproblem_spectrum(p, q, s)
    except NumericFailureError:
        return None


def assert_spectra_match_oracle(p, q, st, nus, oracle):
    """The spectra nus of a stack agree with the full eigenproblem's,
    oracle[j] at row j, to 1e-10 relative, or satisfy the dispersion
    relation to 1e-9 where the oracle failed (None)."""
    for j, want in oracle.items():
        if want is None:
            assert dispersion_residual(p, q, st[j], nus[j]).max() <= 1e-9
            continue
        nearest = np.argmin(np.abs(want[None, :] - nus[j][:, None]), axis=1)
        assert sorted(nearest) == list(range(q.order)), j
        rel = np.abs(nus[j] - want[nearest]) / np.abs(want[nearest])
        assert rel.max() <= 1e-10, (j, rel.max())


@pytest.mark.parametrize("rates, times, node", [
    ((0.0, 4.751326657306396, 0.0, 0.3905324423677891, 0.1271721536163608),
     (5.103057,), 30),
    ((1.322103557751741e-06, 30.967449947701773, 14.029754264146263,
      0.3766474195938216, 0.0028490614434090534),
     (0.521646, 1.333797, 1.458157, 4.856755, 131.455877), 262),
], ids=["one-time", "five-times"])
def test_fuzzed_stacks_compute_at_120_ordinates(rates, times, node):
    """Two stacks of a random fuzz at N = 120, each the `contour` nodes
    of its times at M = 40 through the exact memory, compute, and the
    named node matches the full eigenproblem (or the dispersion relation
    where that fails). They are where a signed curvature
    |f''/(2 f') - sum_i 1/(d_i - z)| in the freeze rule, in place of the
    sum of the two moduli, freezes a root too early: the dispersion check
    fails at that node (residual 1.1e-9 and 1.9e-9)."""
    sigma_a, sigma_s, sigma_trap, alpha, gamma = rates
    p = TransportParams(sigma_a=sigma_a, sigma_s=sigma_s,
                        sigma_trap=sigma_trap,
                        waiting=WaitingTimeModel(alpha=alpha, gamma=gamma))
    q = gauss_legendre(120)
    s_nodes = contour(np.array(times))[0].ravel()
    st, _, nus, _ = trapped_spectra(p, q, s_nodes)
    assert_spectra_match_oracle(
        p, q, st, nus, {node: oracle_spectrum(p, q, complex(s_nodes[node]))})


def matched_rel(got, want):
    """Largest relative distance from each root of want to its nearest in
    got, after checking that the nearest roots pair the sets one to one."""
    nearest = np.argmin(np.abs(got[:, None, :] - want[:, :, None]), axis=2)
    assert (np.sort(nearest, axis=1) == np.arange(want.shape[1])).all()
    paired = np.take_along_axis(got, nearest, axis=1)
    return (np.abs(paired - want) / np.abs(want)).max()


def test_spectra_invariant_to_node_order():
    """fig1a's t = 10 and t = 100 contour nodes, shuffled together, give
    every node the root set it gets unshuffled, to 1e-13 relative: the
    solve order is the caller's, and a shuffle only costs the warm starts
    their neighbours, not the roots their digits."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes = np.concatenate([contour(t)[0]
                              for t in (10.0, 100.0)])
    perm = np.random.default_rng(2024).permutation(len(s_nodes))
    st, source, nus, norms = trapped_spectra(sc.transport, Q30, s_nodes)
    st_p, source_p, nus_p, norms_p = trapped_spectra(sc.transport, Q30,
                                                     s_nodes[perm])
    assert np.array_equal(st_p, st[perm])
    assert np.array_equal(source_p, source[perm])
    assert matched_rel(nus_p, nus[perm]) <= 1e-13


def test_secular_roots_resolve_near_unit_albedo():
    """At t = 1e6 the profile contour sits at Re s = 8e-6, where
    rho = sigma_s / sigma_t is within 2e-4 of 1: with 1 - rho formed by
    cancellation the smallest root's rounding noise exceeded 1e-12 |z|,
    past both freeze tests; from loss = (sigma_a + p) / sigma_t it is
    3.6e-15 |z|, and the step and curvature tests freeze it short of the
    cap. Every node, among them s = 8e-6 + 1.1e-10i where a relative
    noise floor stalled, matches the full eigenproblem to 1e-10 relative
    (measured 6.3e-12)."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes = contour(1e6)[0]
    stalled = np.argmin(np.abs(s_nodes - (8e-6 + 1.1e-10j)))
    assert abs(s_nodes[stalled] - (8e-6 + 1.1e-10j)) < 1e-11
    _, _, nus, _ = trapped_spectra(sc.transport, Q30, s_nodes)
    want = np.array([full_eigenproblem_spectrum(sc.transport, Q30, s)
                     for s in s_nodes.tolist()])
    assert matched_rel(nus, want) <= 1e-10


def count_root_updates(monkeypatch):
    """A list that collects the roots updated by each Aberth sweep."""
    updates = []
    real = transport._aberth_steps

    def counting(*args):
        step, frozen = real(*args)
        updates.append(len(step))
        return step, frozen

    monkeypatch.setattr(transport, "_aberth_steps", counting)
    return updates


def test_warm_starts_bound_the_root_updates(monkeypatch):
    """Each point after the first two blocks starts from the Hermite
    cubic in rho through its two solved predecessors' roots and
    derivatives, and each root is frozen once the Newton model certifies
    its next step: the 445 distinct points of the 544 nodes of fig1a's
    eight late-time contours (the fold puts 99 of them on the shared
    s = sigma), in the (Re s, Im s) order of `np.unique`, as
    `run_scenario` passes them, take <= 17,300 root updates (roots x
    sweeps; 16,681 measured, 19,613 for the 544 unfolded nodes, 31,656
    from the secant through the predecessors' roots with a confirming
    sweep per root, 41,746 from the predecessor's roots alone and 65,264
    when every root started from its pole shift) in <= 69 sweeps (67
    measured, 78 unfolded, 109 with the secant). Every root is swept at
    least once; many predicted roots freeze on that first sweep."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes = np.concatenate([
        contour(t)[0]
        for t in (10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0, 200.0)])
    updates = count_root_updates(monkeypatch)
    trapped_spectra(sc.transport, Q30, np.unique(s_nodes))
    assert (len(s_nodes), len(np.unique(s_nodes))) == (544, 445)
    assert 445 * 30 <= sum(updates) <= 17_300
    assert len(updates) <= 69


def test_secant_starts_bound_the_panel_root_updates(monkeypatch):
    """The six built-in panels, one stack of distinct points per
    scenario as `run_scenario` solves them, 339 points of 408 nodes,
    take <= 20,000 root updates (19,271 measured, 21,177 for the
    unfolded nodes, 32,119 from the secant with a confirming sweep per
    root, 36,065 from the predecessor's roots alone) in <= 118 sweeps
    (114 measured, 127 unfolded, 149 with the secant); it falls less than
    on the late-time stack because 87 of their 339 points are in the
    stacks' block 0, which starts cold from the pole shifts."""
    updates = count_root_updates(monkeypatch)
    count = 0
    for sc in builtin_scenarios().values():
        s_nodes = np.unique(contour(sc.times)[0])
        trapped_spectra(sc.transport, gauss_legendre(sc.n_ordinates), s_nodes)
        count += len(s_nodes) * sc.n_ordinates
    assert count == 339 * 30
    assert count <= sum(updates) <= 20_000
    assert len(updates) <= 118


def test_stacks_across_shifts_solve_each_contour_in_turn(monkeypatch):
    """fig1a at t = 1e2, 1e3 and 1e4, whose contours sit at Re s = 0.04,
    8e-3 and 8e-4, through `run_scenario`: its distinct points come in
    (Re s, Im s) order, each contour's chain on its own line, and take
    <= 7,050 root updates in <= 30 sweeps (6,773 in 29 measured; 7,593
    in 32 when `spectra` re-sorted them by (Im p, Re p), which
    interleaved the three contours)."""
    sc = dataclasses.replace(builtin_scenarios()["fig1a"],
                             solvers=frozenset({"RTE"}),
                             times=(1e2, 1e3, 1e4),
                             grid=SpatialGrid(0.0, 15.0, 4))
    updates = count_root_updates(monkeypatch)
    harness.run_scenario(sc)
    assert sum(updates) <= 7_050
    assert len(updates) <= 30


def count_gap_sums(monkeypatch):
    """A list that collects the roots whose gap sum each sweep forms."""
    rows = []
    real = transport._gap_sums

    def counting(z, jn, kn):
        rows.append(len(jn))
        return real(z, jn, kn)

    monkeypatch.setattr(transport, "_gap_sums", counting)
    return rows


def test_settled_roots_form_no_gap_sum(monkeypatch):
    """A root whose Newton step is already within the freeze tolerance
    takes it without the O(N) Aberth gap sum: <= 10,750 of the root
    updates of fig1a's eight late-time contours form one (10,358 of
    16,681 measured), and <= 15,650 of the six panels' stacks (15,091 of
    19,271), each stack's distinct points solved as `run_scenario` passes
    them."""
    sc = builtin_scenarios()["fig1a"]
    rows = count_gap_sums(monkeypatch)
    trapped_spectra(sc.transport, Q30, np.unique(contour(LATE_STACK[1])[0]))
    assert 0 < sum(rows) <= 10_750
    rows.clear()
    for sc in builtin_scenarios().values():
        trapped_spectra(sc.transport, gauss_legendre(sc.n_ordinates),
                        np.unique(contour(sc.times)[0]))
    assert 0 < sum(rows) <= 15_650


def full_sweep(loss, rho, d, w, z, jn, kn):
    """The Aberth sweep with every root's gap sum formed: each root's
    step, and the curvature gamma of the freeze rule."""
    zk, rk = z[jn, kn], rho[jn]
    inv_pole, square, f, slope = transport._secular_sums(loss[jn], rk, d, w,
                                                         zk)
    df = -rk * slope
    pole_sum = inv_pole.sum(axis=1)
    step = f / (df - f * pole_sum)
    curve = np.einsum("...i,i->...", square * inv_pole,
                      (w * d).astype(complex))
    gamma = np.abs(curve / slope) + np.abs(pole_sum)
    step /= 1.0 - step * transport._gap_sums(z, jn, kn)
    return step, gamma


def full_aberth_steps(*args):
    """`full_sweep` under the sweep's return contract: each step, and
    whether its root is frozen after it by the step or curvature test."""
    step, gamma = full_sweep(*args)
    z, jn, kn = args[-3:]
    size, new = np.abs(step), np.abs(z[jn, kn] - step)
    tol = transport._STEP_TOL * new
    return step, (size <= tol) | ((gamma * size**2 <= tol) & (size <= new))


def test_settled_root_skip_moves_no_eigenvalue(monkeypatch):
    """Skipping the gap sum of settled roots moves each eigenvalue of
    fig1a's late-time stack by less than an ulp of its modulus against
    the sweep that forms every gap sum (2.2e-28 relative measured, in a
    handful of eigenvalues; the rest agree bit for bit)."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes = np.concatenate([
        contour(t)[0]
        for t in (10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0, 200.0)])
    _, _, got, _ = trapped_spectra(sc.transport, Q30, s_nodes)
    monkeypatch.setattr(transport, "_aberth_steps", full_aberth_steps)
    _, _, want, _ = trapped_spectra(sc.transport, Q30, s_nodes)
    assert np.all(np.abs(got - want) <= 2.0**-52 * np.abs(want))


@pytest.mark.parametrize(
    "name, times",
    [LATE_STACK] + [(name, None) for name in builtin_scenarios()],
    ids=["late-times"] + list(builtin_scenarios()))
def test_frozen_roots_stay_within_the_step_tolerance(monkeypatch, name, times):
    """One more full Aberth sweep from the returned roots of fig1a's
    late-time stack and of each panel's stack, with every gap sum formed,
    moves no root by more than `_STEP_TOL` |z|: a root frozen after a step
    delta by its certified next step gamma |delta|^2 has not stopped
    short (3.99e-15 |z| measured on fig1c's albedo-0.94 nodes, 1.2e-16
    when each root was swept once more)."""
    sc = builtin_scenarios()[name]
    solved = []
    real = transport._secular_roots

    def keeping(*args):
        z = real(*args)
        solved.append((args, z.copy()))
        return z

    monkeypatch.setattr(transport, "_secular_roots", keeping)
    trapped_spectra(sc.transport, gauss_legendre(sc.n_ordinates),
                    np.concatenate([contour(t)[0]
                                    for t in times or sc.times]))
    for args, z in solved:
        # the solve's node data, then its nodes and start guesses
        *problem, _, _ = args
        jn, kn = np.divmod(np.arange(z.size), z.shape[1])
        step, _ = full_sweep(*problem, z, jn, kn)
        rel = np.abs(step) / np.abs(z[jn, kn])
        assert (rel <= transport._STEP_TOL).all(), rel.max()


def rte_stacks(name):
    """(params, quadrature, distinct points) of fig1a's late-time stack or
    of each panel's stack, as `run_scenario` solves them."""
    if name == "late-times":
        return [(builtin_scenarios()["fig1a"].transport, Q30,
                 np.unique(contour(LATE_STACK[1])[0]))]
    return [(sc.transport, gauss_legendre(sc.n_ordinates),
             np.unique(contour(sc.times)[0]))
            for sc in builtin_scenarios().values()]


def count_scale_rows(monkeypatch):
    """A list that collects the roots whose rounding scale each
    certificate forms: the rows of the `_row_sums` calls that
    `_block_spectra` makes itself (`_secular_sums` makes the others)."""
    rows = []
    real = transport._row_sums

    def counting(a, weights):
        if sys._getframe(1).f_code.co_name == "_block_spectra":
            rows.append(len(a))
        return real(a, weights)

    monkeypatch.setattr(transport, "_row_sums", counting)
    return rows


@pytest.mark.parametrize("name", ["late-times", "panels"])
def test_rounding_scale_formed_only_where_a_test_reads_it(monkeypatch, name):
    """The certificate forms f's rounding scale only for the roots whose
    residual exceeds the floor 1e-9 min(1, |loss|): for none of the
    13,350 roots of fig1a's late-time stack or the 10,170 of the six
    panels' stacks."""
    rows = count_scale_rows(monkeypatch)
    for stack in rte_stacks(name):
        trapped_spectra(*stack)
    assert sum(rows) == 0


def full_certificate(loss, rho, d, w, z):
    """The certificate with every root's rounding scale formed: whether
    each root fails it, its residual |f| and its scale."""
    inv_pole, _, f, _ = transport._secular_sums(
        loss[:, None], rho[:, None], d, w, z)
    scale = np.abs(loss)[:, None] + np.abs(rho[:, None] * z) * np.einsum(
        "...i,i->...", np.abs(inv_pole), w)
    res = np.abs(f)
    return ~(res <= transport._RESIDUAL_TOL * np.minimum(1.0, scale)), res, \
        scale


def test_lazy_rounding_scale_decides_as_the_full_scale_property():
    """Random nodes: N in {1, 2, 3, 8, 30, 120}; rho in the unit disc,
    real rho among them (real roots, Im z = 0) and |rho| down to 1e-6
    (roots within rounding of their poles); loss = 1 - rho, or
    loss = -rho (1 + c) with 1e-12 <= |c| <= 1e-6, which puts a root far
    past the poles. Swept from the pole shifts to the roots, which are
    then perturbed by 0 to 1e-2 relative (each root by its own amount,
    over eight decades), the certificate refuses a root exactly where the
    certificate with every root's rounding scale formed does, with the
    same node, eigenvalue, residual and scale."""
    hypothesis = pytest.importorskip("hypothesis")
    st_ = pytest.importorskip("hypothesis.strategies")

    # (|rho| from 1e-6 to within 1e-15 of 1; real and positive, real and
    # negative, or complex)
    rhos = st_.tuples(st_.one_of(st_.floats(-6.0, -1e-3).map(
                                     lambda e: 10.0**e),
                                 st_.floats(-15.0, -3.0).map(
                                     lambda e: 1.0 - 10.0**e)),
                      st_.one_of(st_.sampled_from([1.0, -1.0]),
                                 st_.floats(-math.pi, math.pi)
                                 .map(lambda a: cmath.exp(1j * a))))

    def compare(loss, rho, n, rel, along_real, seed):
        """The sweeps from the pole shifts to the roots, then the
        certificate at the perturbed roots against the full scale."""
        q = gauss_legendre(n)
        d = 1.0 / np.asarray(q.nodes) ** 2
        w = np.asarray(q.weights)
        z = d - rho[:, None] * (w * d)
        jn, kn = np.divmod(np.arange(z.size), n)
        for _ in range(transport._MAX_ITER):
            step, frozen = transport._aberth_steps(loss, rho, d, w, z, jn, kn)
            zk = z[jn, kn] - step
            if not np.isfinite(zk).all():
                return
            z[jn, kn] = zk
            if frozen.all():
                break
            jn, kn = jn[~frozen], kn[~frozen]
        rng = np.random.default_rng(seed)
        turn = (rng.choice([-1.0, 1.0], z.shape) if along_real
                else np.exp(2j * math.pi * rng.random(z.shape)))
        z *= 1.0 + rel * 10.0 ** (-8.0 * rng.random(z.shape)) * turn
        bad, res, scale = full_certificate(loss, rho, d, w, z)
        st = np.ones_like(rho)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "_secular_roots", lambda *args: args[-1])
            try:
                transport._block_spectra(loss, rho, st, d, w,
                                         np.arange(len(rho)), z.copy())
            except NumericFailureError as exc:
                refused = exc
            else:
                refused = None
        if not bad.any():
            assert refused is None or "normalization" in str(refused)
            return
        j, k = np.argwhere(bad)[0]
        nu = 1.0 / (st[:, None] * np.sqrt(z))
        nu *= np.copysign(1.0, nu.real)
        assert refused.context == {"node": j, "nu": nu[j, k]}
        assert str(refused).startswith(
            f"dispersion residual {res[j, k]:.3e} of scale "
            f"{scale[j, k]:.3e} at eigenvalue" if np.isfinite(res[j, k])
            else "eigenvalue")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        n=st_.sampled_from([1, 2, 3, 8, 30, 120]),
        rho_draws=st_.lists(rhos, min_size=1, max_size=3),
        far=st_.one_of(st_.none(), st_.tuples(
            st_.floats(-12.0, -6.0), st_.floats(-math.pi, math.pi)).map(
            lambda t: cmath.rect(10.0**t[0], t[1]))),
        rel=st_.one_of(st_.just(0.0),
                       st_.floats(-16.0, -2.0).map(lambda e: 10.0**e)),
        along_real=st_.booleans(),
        seed=st_.integers(0, 2**32 - 1),
    )
    def check(n, rho_draws, far, rel, along_real, seed):
        rho = np.array([size * turn for size, turn in rho_draws],
                       dtype=complex)
        if far is None:
            compare(1.0 - rho, rho, n, rel, along_real, seed)
            return
        # a node with loss + rho != 1 is not physical, and its sweeps can
        # divide by zero on the way to a non-finite root: no warning is
        # checked there
        with np.errstate(all="ignore"):
            compare(-rho * (1.0 + far), rho, n, rel, along_real, seed)

    check()


def test_certificate_forms_the_scale_past_the_loss_floor(monkeypatch):
    """The untrapped medium at sigma_a = 0 and p = 1e-6 has loss ~ 1e-6,
    so the certificate's floor 1e-9 min(1, |loss|) is ~1e-15, while the
    rounding scale of its largest root is of order one. That root, planted
    where |f| sits between the two thresholds, is accepted: the
    certificate forms its scale rather than refusing it at the floor, and
    forms it for the roots past the floor alone (19 of 30)."""
    tp = TransportParams(sigma_a=0.0, sigma_s=1.0, sigma_trap=0.0,
                         waiting=LAW)
    real = transport._secular_roots
    planted = []

    def between(loss, rho, d, w, nodes, z):
        z = real(loss, rho, d, w, nodes, z)
        k = np.argmax(np.abs(z[0]))
        _, _, _, slope = transport._secular_sums(loss[0], rho[0], d, w,
                                                 z[0, k])
        _, _, scale = full_certificate(loss, rho, d, w, z)
        floor = transport._RESIDUAL_TOL * min(1.0, abs(loss[0]))
        ceiling = transport._RESIDUAL_TOL * min(1.0, scale[0, k])
        z[0, k] += math.sqrt(floor * ceiling) / (-rho[0] * slope)
        _, res, _ = full_certificate(loss, rho, d, w, z)
        planted.append((floor, res[0, k], ceiling, (res > floor).sum()))
        return z

    monkeypatch.setattr(transport, "_secular_roots", between)
    rows = count_scale_rows(monkeypatch)
    spectra(tp, Q30, [1e-6])
    (floor, res, ceiling, past), = planted
    assert floor < res <= ceiling
    assert rows == [past]


def solve_order_spacing(p, s_nodes):
    """The gaps |rho_1 - rho_0| between neighbours in the given solve
    order, and the spacing ratios |rho - rho_1| / |rho_1 - rho_0| of each
    node over the gap before it, where that gap is not 0."""
    _, clock = p.waiting.memory(p.sigma_trap, s_nodes)
    gaps = np.abs(np.diff(p.sigma_s / (p.sigma_a + p.sigma_s + clock)))
    before = gaps[:-1] > 0.0
    return gaps, gaps[1:][before] / gaps[:-1][before]


def test_secant_starts_cost_no_accuracy():
    """fig1a's t = 10 contour with every node repeated (rho_1 = rho_0
    exactly, where the Hermite cubic falls back to the Taylor step), the
    interleaved left tails of t = 10 and t = 100, and the contours of
    t = 50 and t = 70 with the node j = 38 of t = 70, which the trimmed
    rule leaves out: on the saturated map it sits at (j + 1/2) pi / t,
    within 1e-11 of the t = 50 node j = 27. Sorted by (Re s, Im s), the
    repeats sit side by side and the partner beside its twin (a spacing
    ratio past 1e9, 4.95e9 measured, which magnifies the rounding of the
    predecessors' roots). Solved as one stack in that order without a
    warning, every node's roots match the node solved alone to 1e-13
    relative (4.8e-16 measured)."""
    sc = builtin_scenarios()["fig1a"]
    nodes = {t: contour(t)[0] for t in (10.0, 50.0, 70.0, 100.0)}
    h = math.pi / M
    partner = SHIFT + 1j * M * (38 * h + 0.5 * h) / 70.0

    def left_tail(t):
        """The nodes at y < 0, below phi(0) = 1 / steepness."""
        s = nodes[t]
        return s[s.imag * t < M / _STEEPNESS]

    s_nodes = np.sort(np.concatenate([np.repeat(nodes[10.0], 2),
                                      left_tail(10.0), left_tail(100.0),
                                      nodes[50.0], nodes[70.0], [partner]]))
    gaps, ratios = solve_order_spacing(sc.transport, s_nodes)
    assert (gaps == 0.0).any() and ratios.max() > 1e9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, nus, _ = trapped_spectra(sc.transport, Q30, s_nodes)
    alone = np.array([trapped_spectra(sc.transport, Q30, [s])[2][0]
                      for s in s_nodes.tolist()])
    assert matched_rel(nus, alone) <= 1e-13


def test_secant_starts_across_contour_shifts():
    """The t = 10 and t = 1e4 contours of fig1a (Re s = 0.04 and 8e-4)
    as one stack, whose secants cross from one shift to the other, match
    the full eigenproblem to 1e-10 relative (7.5e-13 measured)."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes = np.concatenate([contour(t)[0]
                              for t in (10.0, 1e4)])
    assert set(s_nodes.real.tolist()) == {0.04, 8e-4}
    _, _, nus, _ = trapped_spectra(sc.transport, Q30, s_nodes)
    want = np.array([full_eigenproblem_spectrum(sc.transport, Q30, s)
                     for s in s_nodes.tolist()])
    assert matched_rel(nus, want) <= 1e-10


def test_secular_iteration_cap_raises(monkeypatch):
    """A root that has not converged when the iteration cap is reached
    is an error, never a silently returned eigenvalue."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes, _, _ = contour(10.0)
    monkeypatch.setattr(transport, "_MAX_ITER", 1)
    with pytest.raises(NumericFailureError, match="not converged"):
        trapped_spectra(sc.transport, Q30, s_nodes)


def test_ray_collision_raises(monkeypatch):
    """Secular roots on the poles d_i = 1/mu_i^2 put every eigenvalue on
    its quadrature ray mu_i / sigma_t: a degenerate spectrum, not a value."""
    sc = builtin_scenarios()["fig1a"]
    s_nodes, _, _ = contour(10.0)

    real = transport._secular_roots
    poles = 1.0 / np.asarray(Q30.nodes) ** 2

    def on_the_poles(*args):
        z = real(*args)
        z[:] = poles
        return z

    monkeypatch.setattr(transport, "_secular_roots", on_the_poles)
    with pytest.raises(NumericFailureError, match="quadrature ray"):
        trapped_spectra(sc.transport, Q30, s_nodes)


def test_certificate_is_relative_to_the_scale_of_f(monkeypatch):
    """The untrapped medium at sigma_s = 1e100 has its diffusive root at
    z ~ 3 loss / rho ~ 1e-101. Planted 1e52 times too large, it leaves
    |f| under the absolute 1e-9 the certificate once took, and the run
    wrote u(0) / sqrt(sigma_s) = 3.1e-27 instead of 0.3526; against
    f's own scale |loss| + |rho z| sum_i |w_i / (d_i - z)| it fails."""
    base = harness.Scenario(label="strong")
    tp = dataclasses.replace(base.transport, sigma_s=1e100)
    reach = 3.0 * math.sqrt(from_transport(tp).diffusivity * base.times[0])
    sc = dataclasses.replace(base, transport=tp,
                             grid=SpatialGrid(0.0, reach, 61),
                             solvers=frozenset({"RTE"}))
    real = transport._secular_roots
    planted = []

    def too_large(loss, rho, d, w, nodes, z):
        z = real(loss, rho, d, w, nodes, z)
        diffusive = np.argmin(np.abs(z), axis=1)
        z[np.arange(len(z)), diffusive] *= 1e52
        f = transport._secular_sums(loss[:, None], rho[:, None], d, w, z)[2]
        planted.append(np.abs(f).max())
        return z

    monkeypatch.setattr(transport, "_secular_roots", too_large)
    with pytest.raises(NumericFailureError, match="dispersion residual"):
        harness.run_scenario(sc)
    assert 0.0 < max(planted) <= transport._RESIDUAL_TOL
