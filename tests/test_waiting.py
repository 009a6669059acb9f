"""Tests for the Pareto-type waiting-time law.

The Laplace-transform checks lean on one identity worth spelling out:
integrating by parts turns the transform of the survival function into
L[Phi](s) = int_0^inf Phi(tau) e^{-s tau} dtau, which a quadrature can
evaluate from the survival function Phi(tau) = (1 + tau/gamma)^(-alpha)
alone. That gives an oracle that never touches the exponential-integral
code path. The small-s behaviour follows Karamata:
1 - L[w](s) = Gamma(1-alpha) (gamma s)^alpha + O(gamma s), and the
Gamma(1-alpha) factor (about 1.772 at alpha = 1/2) is asserted
explicitly below.
"""

import math

import pytest
from scipy import integrate

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


# ----------------------------------------------------------- transform: pdf

def test_laplace_pdf_exact_near_zero():
    # total probability 1, approached at the Karamata rate
    lw = PARETO.laplace_pdf(1e-8)
    gap = abs(lw - 1.0)
    assert gap < 1e-4
    karamata = math.gamma(1.0 - ALPHA) * (GAMMA * 1e-8) ** ALPHA
    assert gap == pytest.approx(karamata, rel=1e-3)


def test_laplace_pdf_exact_matches_quadrature():
    s = 1.0 + 2.0j
    lphi = laplace_survival_oracle(s)
    oracle = 1.0 - s * lphi  # transform of the density via the survival identity
    assert abs(PARETO.laplace_pdf(s) - oracle) / abs(oracle) < 1e-8


def test_laplace_pdf_exact_vs_asymptotic_converge():
    """The gap to the tail form 1 - (gamma s)^alpha, over (gamma s)^alpha,
    tends to Gamma(1-alpha) - 1, not zero."""
    limit = math.gamma(1.0 - ALPHA) - 1.0
    devs = []
    for s in (1e-2, 1e-4, 1e-6):
        gap = abs(PARETO.laplace_pdf(s) - (1.0 - (GAMMA * s) ** ALPHA))
        devs.append(abs(gap / (GAMMA * s) ** ALPHA - limit))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-2 * limit


def test_laplace_pdf_rejects_branch_cut():
    with pytest.raises(ValueError):
        PARETO.laplace_pdf(-1.0)  # gamma*s on the cut
    with pytest.raises(ValueError):
        PARETO.laplace_pdf(0.0)


# ------------------------------------------------------ transform: survival

def test_laplace_survival_matches_quadrature():
    oracle = laplace_survival_oracle(1.0)
    got = PARETO.laplace_survival(1.0)
    assert abs(got - oracle) / abs(oracle) < 1e-8


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
