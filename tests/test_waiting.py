"""Tests for the heavy-tailed waiting-time families.

The Laplace-transform checks lean on one identity worth spelling out:
integrating by parts turns the transform of the survival function into
L[Phi](s) = int_0^inf Phi(tau) e^{-s tau} dtau, which a quadrature can
evaluate from the closed-form survival alone. That gives an oracle that
never touches the exponential-integral code path. The small-s behaviour
follows Karamata: 1 - L[w](s) = Gamma(1-alpha) (gamma s)^alpha + O(gamma s),
and the Gamma(1-alpha) factor (about 1.772 at alpha = 1/2) is asserted
explicitly below.
"""

import math

import pytest
from scipy import integrate

from trapdiff.errors import TransformUnavailableError
from trapdiff.waiting import Family, WaitingTimeModel

ALPHA, GAMMA = 0.5, 0.1

PARETO = WaitingTimeModel(family=Family.PARETO, alpha=ALPHA, gamma=GAMMA)
ALL_FAMILIES = tuple(
    WaitingTimeModel(family=f, alpha=ALPHA, gamma=GAMMA) for f in Family)


def laplace_survival_oracle(model, s):
    """Quadrature of the survival transform in log time; complex s."""
    s = complex(s)
    hi = math.log(60.0 / s.real)

    def integrand(u, part):
        tau = math.exp(u)
        damped = model.survival(tau) * math.exp(-s.real * tau) * tau
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
            WaitingTimeModel(family=Family.PARETO, alpha=alpha, gamma=gamma)


def test_pdf_cdf_reject_negative_time():
    with pytest.raises(ValueError):
        PARETO.pdf(-1.0)
    with pytest.raises(ValueError):
        PARETO.cdf(-0.5)


# ----------------------------------------------------------------------- pdf

def test_pareto_pdf_at_origin():
    assert PARETO.pdf(0.0) == ALPHA / GAMMA == 5.0


def test_frechet_pdf_vanishes_at_origin():
    m = WaitingTimeModel(family=Family.FRECHET, alpha=ALPHA, gamma=GAMMA)
    assert m.pdf(0.0) == 0.0


def test_log_logistic_pdf_diverges_integrably():
    m = WaitingTimeModel(family=Family.LOG_LOGISTIC, alpha=ALPHA, gamma=GAMMA)
    assert m.pdf(0.0) == math.inf
    assert m.pdf(1e-10) > 1e4  # tau^(alpha-1) growth


def test_pareto_pdf_tail_exponent():
    tau = 100.0
    ratio = PARETO.pdf(tau) / (ALPHA * GAMMA**ALPHA * tau ** -(1.0 + ALPHA))
    assert abs(ratio - 1.0) < 1e-2


def test_pdf_tail_exponent_all_families():
    tau = 1e4
    for m in ALL_FAMILIES:
        ratio = m.pdf(tau) / (ALPHA * GAMMA**ALPHA * tau ** -(1.0 + ALPHA))
        assert abs(ratio - 1.0) < 1e-2, m.family


def test_pdf_normalizes_all_families():
    """Quadrature over [1e-30, 1e4] plus the exact cdf head and survival tail."""
    lo, hi = 1e-30, 1e4
    for m in ALL_FAMILIES:
        bulk, err = integrate.quad(
            lambda u: m.pdf(math.exp(u)) * math.exp(u),
            math.log(lo), math.log(hi), limit=600)
        assert err < 5e-9, m.family
        total = m.cdf(lo) + bulk + m.survival(hi)
        assert total == pytest.approx(1.0, abs=1e-8), m.family


# ----------------------------------------------------------------- cdf model

def test_cdf_at_zero():
    for m in ALL_FAMILIES:
        assert m.cdf(0.0) == 0.0


def test_pareto_cdf_at_gamma():
    assert PARETO.cdf(GAMMA) == pytest.approx(1.0 - 2.0**-0.5, rel=1e-14)
    assert PARETO.cdf(GAMMA) == pytest.approx(0.2928932, abs=1e-7)


def test_log_logistic_cdf_at_gamma_is_half():
    m = WaitingTimeModel(family=Family.LOG_LOGISTIC, alpha=ALPHA, gamma=GAMMA)
    assert m.cdf(GAMMA) == 0.5


def test_frechet_cdf_at_gamma():
    m = WaitingTimeModel(family=Family.FRECHET, alpha=ALPHA, gamma=GAMMA)
    assert m.cdf(GAMMA) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_cdf_nondecreasing():
    taus = [0.0, 0.01, 0.1, 0.5, 1.0, 5.0, 50.0, 1e3]
    for m in ALL_FAMILIES:
        vals = [m.cdf(t) for t in taus]
        assert all(a <= b for a, b in zip(vals, vals[1:])), m.family
        assert vals[-1] < 1.0


def test_cdf_derivative_matches_pdf():
    for m in ALL_FAMILIES:
        for tau in (0.05, 1.0, 50.0):
            h = 1e-6 * max(1.0, tau)
            fd = (m.cdf(tau + h) - m.cdf(tau - h)) / (2.0 * h)
            assert fd == pytest.approx(m.pdf(tau), rel=1e-6), (m.family, tau)


# ------------------------------------------------------------------ survival

def test_survival_is_exact_complement():
    for m in ALL_FAMILIES:
        for tau in (0.0, 0.03, 0.1, 1.0, 20.0, 500.0):
            assert m.survival(tau) + m.cdf(tau) == 1.0  # complement by construction


def test_survival_at_zero():
    for m in ALL_FAMILIES:
        assert m.survival(0.0) == 1.0


def test_pareto_survival_at_gamma():
    assert PARETO.survival(GAMMA) == pytest.approx(2.0**-0.5, rel=1e-14)


def test_survival_tail_power_all_families():
    tau = 1e6
    for m in ALL_FAMILIES:
        ratio = m.survival(tau) / (GAMMA**ALPHA * tau**-ALPHA)
        assert abs(ratio - 1.0) < 1e-3, m.family


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
    lphi = laplace_survival_oracle(PARETO, s)
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


def test_laplace_pdf_exact_only_for_pareto():
    for fam in (Family.LOG_LOGISTIC, Family.FRECHET):
        m = WaitingTimeModel(family=fam, alpha=ALPHA, gamma=GAMMA)
        with pytest.raises(TransformUnavailableError):
            m.laplace_pdf(1.0)


def test_laplace_pdf_rejects_branch_cut():
    with pytest.raises(ValueError):
        PARETO.laplace_pdf(-1.0)  # gamma*s on the cut
    with pytest.raises(ValueError):
        PARETO.laplace_pdf(0.0)


# ------------------------------------------------------ transform: survival

def test_laplace_survival_matches_quadrature():
    oracle = laplace_survival_oracle(PARETO, 1.0)
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


def test_karamata_constant_all_families_by_quadrature():
    s = 1e-6
    target = math.gamma(1.0 - ALPHA)
    for m in ALL_FAMILIES:
        lphi = laplace_survival_oracle(m, s)
        ratio = (s * lphi / (GAMMA * s) ** ALPHA).real
        assert abs(ratio - target) < 0.05 * target, m.family


def test_laplace_survival_rejects_zero():
    with pytest.raises(ValueError):
        PARETO.laplace_survival(0.0)
