"""Time-fractional diffusion limit of the trapped-transport problem.

In the diffusive regime the trapped-transport dynamics reduce to a
diffusion equation with a Caputo time derivative of order alpha; the
trapping enters through a single memory coefficient eta and ordinary
scattering through the diffusivity D0 = speed^2/(3 sigma_s). The source
normalization follows the transport convention (an isotropic unit pulse
carries angular mass 2), so all densities here integrate to 2 over the
whole line when absorption is off.

Production profiles come from `modes`, the Laplace transform in closed
form in x, which holds for any alpha: per transform point it is the
single decaying mode exp(-|x| sqrt(B/D0)), given as the same (rate,
coef) pair per (node, mode) as the transport modes, so the profile
driver sums both through `transport.mode_sum` on the inversion contour
of `ilt.contour`. The other routes are oracles that share none of its
algebra: `density_half` evaluates the alpha = 1/2 subordination formula
in the time domain by adaptive quadrature, and `laplace_density` inverts
the spatial Fourier representation numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NumericFailureError
from .transport import TransportParams, _node_stack

__all__ = [
    "FdeParams",
    "from_transport",
    "fourier_laplace",
    "density_half",
    "normal_diffusion",
    "laplace_density",
    "modes",
]

_INNER_LIMIT = 400  # subdivision cap for the peaked inner integrals
_HALF_TOL = 1e-8  # QUADPACK tolerance of density_half (inner ones 10x finer)
_FOURIER_TOL = 1e-11  # absolute QUADPACK tolerance of laplace_density


@dataclass(frozen=True)
class FdeParams:
    """Constants of the fractional diffusion equation.

    trap_strength is the memory coefficient gamma^alpha * sigma_trap
    (units min^alpha); diffusivity is cm^2/min; alpha in (0,1) is the
    waiting-time tail exponent. trap_strength = 0 switches the memory
    term off and the model degenerates to normal diffusion.
    """

    trap_strength: float
    diffusivity: float
    sigma_a: float
    alpha: float

    def __post_init__(self):
        if self.trap_strength < 0.0:
            raise ValueError(f"trap_strength must be >= 0, got {self.trap_strength}")
        if self.diffusivity <= 0.0:
            raise ValueError(f"diffusivity must be positive, got {self.diffusivity}")
        if self.sigma_a < 0.0:
            raise ValueError(f"sigma_a must be >= 0, got {self.sigma_a}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")


def from_transport(params: TransportParams) -> FdeParams:
    """Diffusion constants induced by a transport parameter set.

    Isotropic scattering gives D0 = speed^2/(3 sigma_s); alpha is the
    waiting-time law's and the memory coefficient is
    gamma^alpha * sigma_trap, 0 without trapping, where the memory term
    it multiplies vanishes and FDE is the heat kernel.
    """
    alpha = params.waiting.alpha
    eta = params.waiting.gamma**alpha * params.sigma_trap
    d0 = params.speed**2 / (3.0 * params.sigma_s)
    return FdeParams(trap_strength=eta, diffusivity=d0,
                     sigma_a=params.sigma_a, alpha=alpha)


def fourier_laplace(p: FdeParams, k: float, s: complex) -> complex:
    """Fourier-Laplace picture of the density, 2(1+eta s^{a-1})/(s+eta s^a+D0 k^2+sigma_a)."""
    s = complex(s)
    if s == 0:
        raise ValueError("transform requires s != 0")
    sa = s**p.alpha  # principal branch
    num = 2.0 * (1.0 + p.trap_strength * sa / s)
    den = s + p.trap_strength * sa + p.diffusivity * k * k + p.sigma_a
    return num / den


def modes(p: FdeParams, s) -> tuple[np.ndarray, np.ndarray]:
    """The one decaying mode of the Laplace-domain density at every s.

    Integrating the Fourier-Laplace picture over k gives
    (1 + eta s^{a-1}) / sqrt(D0 B) * exp(-|x| sqrt(B/D0)) with
    B = s + eta s^a + sigma_a, on principal branches (Re s > 0 keeps
    Re sqrt(B) > 0). Returns the (node, 1) arrays rate = sqrt(B/D0) and
    coef = (1 + eta s^{a-1}) / (D0 rate), the one-mode case of
    `transport.mode_sum`; this is the production FDE transform,
    `laplace_density` its oracle. Raises ValueError at s = 0 and unless
    s is a one-dimensional stack.
    """
    s = _node_stack(s)
    if (s == 0).any():
        raise ValueError("transform requires s != 0")
    sa = s**p.alpha
    rate = np.sqrt((s + p.trap_strength * sa + p.sigma_a) / p.diffusivity)
    coef = (1.0 + p.trap_strength * sa / s) / (p.diffusivity * rate)
    return rate[:, None], coef[:, None]


def _quad_checked(func, a, b, tol_abs, tol_rel, **kwargs):
    """Adaptive quadrature that turns a QUADPACK warning into an error."""
    out = quad(func, a, b, epsabs=tol_abs, epsrel=tol_rel,
               full_output=True, **kwargs)
    if len(out) > 3:
        raise NumericFailureError(out[3], estimate=out[0], bound=out[1])
    return out[0]


def _bell(tau: float, scale: float, x: float, p: FdeParams) -> float:
    """Common integrand of both terms of the alpha = 1/2 solution.

    scale is the elapsed-time factor multiplying (1 - tau^2): t itself
    in the single-integral term, t*t1 inside the nested term. The 1/tau^2
    blowup at tau -> 0 is always beaten by the first Gaussian factor.
    """
    sq = 1.0 - tau * tau
    if sq <= 0.0 or tau * tau == 0.0 or scale <= 0.0:
        return 0.0
    eta = p.trap_strength
    arg = (eta * eta * scale * sq * sq / (4.0 * tau * tau)
           + p.sigma_a * scale * sq)
    if x != 0.0:
        gauss = 4.0 * p.diffusivity * scale * sq
        if gauss == 0.0:
            return 0.0
        arg += x * x / gauss
    if arg > 745.0:
        return 0.0
    return math.sqrt(sq) / (tau * tau) * math.exp(-arg)


def _peak_ladder(tau_star: float) -> list[float] | None:
    """Breakpoint hints bracketing the integrand ridge at tau_star.

    For small trap_strength the integrand lives on a few decades around
    tau_star = eta sqrt(scale)/2, far below quadrature
    resolution on (0,1); a geometric ladder of hints steers the
    subdivision there. None when the ridge needs no help.
    """
    pts = []
    tau = tau_star / 8.0
    while 0.0 < tau < 0.9:
        pts.append(tau)
        tau *= 4.0
    return pts or None


def density_half(p: FdeParams, x: float, t: float) -> float:
    """Density for tail exponent 1/2 by the substituted two-term quadrature.

    The first term integrates the subordination kernel at final time
    directly; the second carries the memory of earlier arrivals through
    a nested integral. Both use the square-root substitution that
    flattens the kernel endpoint, leaving a sharp interior ridge that is
    located analytically and passed to the quadrature as breakpoints.
    """
    if p.alpha != 0.5:
        raise ValueError(f"density_half needs alpha = 1/2, got {p.alpha}")
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    if p.trap_strength == 0.0:
        # the representation collapses, but the limit is the heat kernel
        return normal_diffusion(p, x, t)
    eta = p.trap_strength
    d0 = p.diffusivity

    term1 = _quad_checked(
        _bell, 0.0, 1.0, _HALF_TOL, _HALF_TOL,
        args=(t, x, p),
        points=_peak_ladder(0.5 * eta * math.sqrt(t)),
        limit=_INNER_LIMIT,
    )
    term1 *= eta / (math.pi * math.sqrt(d0))

    inner_tol = _HALF_TOL / 10.0

    def inner(t1: float) -> float:
        scale = t * t1
        return _quad_checked(
            _bell, 0.0, 1.0, inner_tol, inner_tol,
            args=(scale, x, p),
            points=_peak_ladder(0.5 * eta * math.sqrt(scale)),
            limit=_INNER_LIMIT,
        )

    def outer_g(t1: float) -> float:
        if t1 <= 0.0:
            # sqrt(t1)*inner(t1) has a finite limit at 0: the inner
            # Gaussian ridge carries mass sqrt(pi)/(eta sqrt(t t1)) as
            # t1 -> 0 when x = 0, and is crushed by the spatial factor
            # otherwise; QAWS samples the endpoint, so supply the limit
            return 0.0 if x != 0.0 else math.sqrt(math.pi) / (eta * math.sqrt(t))
        return math.sqrt(t1) * inner(t1)

    # outer integrand ~ t1^{-1/2} near 0 and (1-t1)^{-1/2} near 1; both
    # powers go to the QAWS weight, the remainder is smooth
    outer = _quad_checked(
        outer_g, 0.0, 1.0, _HALF_TOL, _HALF_TOL,
        weight="alg", wvar=(-0.5, -0.5),
    )
    term2 = outer * eta * eta * math.sqrt(t) / (math.pi * math.sqrt(math.pi * d0))
    return term1 + term2


def normal_diffusion(p: FdeParams, x: float | np.ndarray, t: float):
    """Trap-free limit: heat kernel of mass 2 with absorption decay."""
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    # at tiny t the exponent overflows to inf, and exp(-inf) = 0 is exact
    with np.errstate(over="ignore"):
        arg = np.square(x) / (4.0 * p.diffusivity * t) + p.sigma_a * t
    return np.exp(-arg) / math.sqrt(math.pi * p.diffusivity * t)


def laplace_density(p: FdeParams, x: float, s: complex) -> complex:
    """Laplace-domain density by numerical Fourier inversion in k.

    Integrates the Fourier-Laplace picture against cos(kx) over the
    half-line (even symmetry). Deliberately avoids the closed form of
    the k integral: this path exercises none of the algebra behind the
    time-domain solvers, which is what makes it useful as an oracle.

    The oscillatory rule occasionally hits its roundoff floor just
    above its absolute tolerance `_FOURIER_TOL` = 1e-11, which is then
    stepped up to at most 100x before the failure is allowed through.
    """
    s = complex(s)
    x = abs(x)

    def slice_part(part: str) -> float:
        def f(k: float) -> float:
            return getattr(fourier_laplace(p, k, s), part)

        last = None
        for boost in (1.0, 10.0, 100.0):
            tol = boost * _FOURIER_TOL
            try:
                if x == 0.0:
                    return _quad_checked(f, 0.0, math.inf, tol, tol)
                return _quad_checked(f, 0.0, math.inf, tol, 0.0,
                                     weight="cos", wvar=x)
            except NumericFailureError as exc:
                last = exc
        raise last

    return complex(slice_part("real"), slice_part("imag")) / math.pi
