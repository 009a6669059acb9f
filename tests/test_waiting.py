"""Tests for the Pareto-type waiting-time law.

The Laplace-transform checks lean on one identity worth spelling out:
integrating by parts turns the transform of the survival function into
L[Phi](s) = int_0^inf Phi(tau) e^{-s tau} dtau, which a quadrature can
evaluate from the survival function Phi(tau) = (1 + tau/gamma)^(-alpha)
alone. That gives an oracle that never touches the exponential-integral
code path. The small-s behaviour follows Karamata:
s L[Phi](s) = Gamma(1-alpha) (gamma s)^alpha + O(gamma s), and the
Gamma(1-alpha) factor (about 1.772 at alpha = 1/2) is asserted
explicitly below. At late-time contour nodes the closed form is also
held to mpmath's exponential integral.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from trapdiff import specfun
from trapdiff.harness import builtin_scenarios
from trapdiff.ilt import contour
from trapdiff.waiting import WaitingTimeModel

ALPHA, GAMMA = 0.5, 0.1

PARETO = WaitingTimeModel(alpha=ALPHA, gamma=GAMMA)


def laplace_survival_oracle(s):
    """Quadrature of the Pareto survival transform in log time; complex s."""
    s = complex(s)
    hi = math.log(60.0 / s.real)

    def integrand(u, part):
        tau = math.exp(u)
        survival = (1.0 + tau / GAMMA) ** -ALPHA
        damped = survival * math.exp(-s.real * tau) * tau
        if part == "re":
            return damped * math.cos(s.imag * tau)
        return -damped * math.sin(s.imag * tau)

    vr, er = integrate.quad(integrand, -34.0, hi, args=("re",), limit=800)
    vi, ei = integrate.quad(integrand, -34.0, hi, args=("im",), limit=800)
    value = complex(vr, vi)
    assert er + ei < 1e-8 * (abs(value) + 1.0)  # scale-aware: |LPhi| grows as s -> 0
    return value


# ---------------------------------------------------------------- validation

def test_model_rejects_bad_parameters():
    for alpha, gamma in ((0.0, 0.1), (1.0, 0.1), (-0.2, 0.1), (0.5, 0.0), (0.5, -1.0)):
        with pytest.raises(ValueError):
            WaitingTimeModel(alpha=alpha, gamma=gamma)


@pytest.mark.parametrize("gamma", [math.inf, math.nan, -math.inf])
def test_model_rejects_non_finite_scale(gamma):
    """+inf passes `gamma > 0`, yet no transform is finite with it."""
    with pytest.raises(ValueError, match="finite"):
        WaitingTimeModel(alpha=0.5, gamma=gamma)


# ------------------------------------------------------ transform: survival

def test_laplace_survival_matches_quadrature():
    oracle = laplace_survival_oracle(1.0)
    got = PARETO.laplace_survival(1.0)
    assert abs(got - oracle) / abs(oracle) < 1e-8


def test_laplace_survival_matches_quadrature_off_axis():
    """At complex s, through the density transform L[pdf] = 1 - s L[Phi]."""
    s = 1.0 + 2.0j
    oracle = 1.0 - s * laplace_survival_oracle(s)
    got = 1.0 - s * PARETO.laplace_survival(s)
    assert abs(got - oracle) / abs(oracle) < 1e-8


@pytest.mark.parametrize("alpha", [0.5, 0.97])
def test_laplace_survival_matches_mpmath_at_late_times(alpha):
    """gamma e^z E_alpha(z), z = gamma s, on every 4th node of the capped
    profile contours at t = 1e4 and 1e6, where |gamma s| falls to 1e-7:
    within 1e-13 of mpmath (measured <= 8e-16). The form (1 - L[pdf])/s
    lost up to 1.6e-13 at alpha = 1/2 and 2.2e-11 at alpha = 0.97 there."""
    mpmath = pytest.importorskip("mpmath")
    model = WaitingTimeModel(alpha=alpha, gamma=GAMMA)
    with mpmath.workdps(30):
        for t in (1e4, 1e6):
            s_nodes = contour(t)[0]
            for s in s_nodes[::4].tolist():
                z = GAMMA * mpmath.mpc(s)
                want = complex(GAMMA * mpmath.exp(z) * mpmath.expint(alpha, z))
                got = model.laplace_survival(s)
                assert abs(got - want) <= 1e-13 * abs(want), (t, s)


def test_laplace_survival_decays_at_large_s():
    assert abs(PARETO.laplace_survival(1e6)) < 2e-6


def test_laplace_survival_karamata_constant():
    # s L[Phi] / (gamma s)^alpha approaches Gamma(1-alpha) ~ 1.772 as s -> 0
    s = 1e-6
    ratio = s * PARETO.laplace_survival(s) / (GAMMA * s) ** ALPHA
    target = math.gamma(1.0 - ALPHA)
    assert abs(ratio - target) < 0.05 * target


def test_karamata_constant_by_quadrature():
    """The same constant from the quadrature of the survival function
    alone, independent of the closed-form transform."""
    s = 1e-6
    target = math.gamma(1.0 - ALPHA)
    lphi = laplace_survival_oracle(s)
    ratio = (s * lphi / (GAMMA * s) ** ALPHA).real
    assert abs(ratio - target) < 0.05 * target


def test_laplace_survival_rejects_zero():
    with pytest.raises(ValueError):
        PARETO.laplace_survival(0.0)


def test_laplace_survival_rejects_branch_cut():
    with pytest.raises(ValueError):
        PARETO.laplace_survival(-1.0)  # gamma*s on the cut
    with pytest.raises(ValueError):
        PARETO.laplace_survival(0.0)


# --------------------------------------------------------- memory of a stack

LATE_TIMES = (10.0, 20.0, 30.0, 50.0, 70.0, 100.0, 150.0, 200.0)


def test_memory_of_a_stack_is_each_node_alone():
    """fig1a's exact memory over the 544 nodes of its eight late-time
    contours equals each node's memory computed alone, bit for bit: the
    exponential integral's elements do not couple and each stops by its
    own convergence test. The same holds on fig1c's contour at t = 10,
    whose law (gamma = 1) sends 25 of its 68 nodes to the continued
    fraction."""
    panels = builtin_scenarios()
    for name, times in (("fig1a", LATE_TIMES), ("fig1c", (10.0,))):
        tp = panels[name].transport
        stack = contour(np.array(times))[0].ravel()
        source, clock = tp.waiting.memory(tp.sigma_trap, stack)
        for j, s in enumerate(stack.tolist()):
            alone_source, alone_clock = tp.waiting.memory(tp.sigma_trap, [s])
            assert alone_source[0] == source[j] and alone_clock[0] == clock[j]
        assert stack.size == {"fig1a": 544, "fig1c": 68}[name]


def test_memory_makes_one_pass_per_route(monkeypatch):
    """One `memory` call over a stack that needs both routes hands each
    route one array, which together hold every node once."""
    passes = {}
    for name in ("_exp_integral_series", "_exp_integral_cf"):
        real = getattr(specfun, name)

        def counting(nu, z, name=name, real=real):
            passes.setdefault(name, []).append(z.size)
            return real(nu, z)

        monkeypatch.setattr(specfun, name, counting)
    tp = builtin_scenarios()["fig1c"].transport
    stack = contour(np.array([10.0, 100.0]))[0].ravel()
    tp.waiting.memory(tp.sigma_trap, stack)
    assert sorted(passes) == ["_exp_integral_cf", "_exp_integral_series"]
    assert all(len(sizes) == 1 for sizes in passes.values())
    assert sum(sizes[0] for sizes in passes.values()) == stack.size


def test_laplace_survival_of_a_stack():
    """An array of s gives an array of the scalar values, shaped like s."""
    s = contour(np.array([10.0, 100.0]))[0]
    got = PARETO.laplace_survival(s)
    assert got.shape == s.shape
    assert got.tolist() == [[PARETO.laplace_survival(v) for v in row]
                            for row in s.tolist()]
