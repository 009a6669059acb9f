"""Time-fractional diffusion limit of the trapped-transport problem.

In the diffusive regime the trapped-transport dynamics reduce to a
diffusion equation with a Caputo time derivative of order alpha; the
trapping enters through a single memory coefficient eta and ordinary
scattering through the diffusivity D0 = speed^2/(3 sigma_s). The source
normalization follows the transport convention (an isotropic unit pulse
carries angular mass 2), so all densities here integrate to 2 over the
whole line when absorption is off.

Production profiles come from `modes`, the diffusion kernel: the
Laplace transform in closed form in x, which holds for any alpha, one
mode exp(-|x| sqrt((p + sigma_a)/D0)) of amplitude S / (D0 rate) under a
memory's (S, p), given as the same (rate, coef) pair per (node, mode)
as the transport modes, so the profile driver sums both into x vectors
by `transport.mode_sum` on the contour of `ilt.contour`. The harness'
kernel x memory table (`harness.PAIRINGS`) pairs it with the power-law
memory of `waiting.power_memory` for FDE, and with the exact memory for
DEM, the diffusion approximation the checks measure transport against.
The other routes are oracles of FDE that share none of its algebra:
`subordinated_density` averages the heat kernel over the inverse
stable clock in the time domain, by a tanh-sinh rule on Kanter's
representation of the stable law, for alpha >= 1/4 and on numpy alone;
`laplace_density` inverts the spatial Fourier representation
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NumericFailureError
from .transport import TransportParams

__all__ = [
    "FdeParams",
    "from_transport",
    "fourier_laplace",
    "subordinated_density",
    "normal_diffusion",
    "laplace_density",
    "modes",
]

# subordinated_density's tanh-sinh rule, 2 * 100 + 1 nodes per axis out
# to |u| = 4, and the smallest tail exponent it resolves to 1e-10
_TS_STEP = 0.04
_TS_HALF = 100
_MIN_ALPHA = 0.25
_NEWTON_STEPS = 50  # cap on its Newton steps for the clock (about 5 used)
_FOURIER_TOL = 1e-11  # absolute QUADPACK tolerance of laplace_density


@dataclass(frozen=True)
class FdeParams:
    """Constants of the fractional diffusion equation.

    trap_strength is the memory coefficient gamma^alpha * sigma_trap
    (units min^alpha); diffusivity is cm^2/min; alpha in (0,1) is the
    waiting-time tail exponent. trap_strength = 0 switches the memory
    term off and the model degenerates to normal diffusion. Both
    trap_strength and diffusivity must be finite: built from finite
    transport inputs, either can overflow.
    """

    trap_strength: float
    diffusivity: float
    sigma_a: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.trap_strength < math.inf:
            raise ValueError(f"trap_strength gamma^alpha * sigma_trap must be "
                             f"finite and >= 0, got {self.trap_strength}")
        if not 0.0 < self.diffusivity < math.inf:
            raise ValueError(f"diffusivity speed^2 / (3 sigma_s) must be "
                             f"finite and positive, got {self.diffusivity}")
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
    d0 = params.speed * params.speed / (3.0 * params.sigma_s)
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


def modes(p: FdeParams, source, clock) -> tuple[np.ndarray, np.ndarray]:
    """The diffusion kernel's one decaying mode under a memory's (S, p)
    stack (source, clock).

    Integrating the Fourier-Laplace picture over k gives, with
    B = p + sigma_a on principal branches (Re s > 0 keeps Re sqrt(B) > 0),
    the (node, 1) arrays rate = sqrt(B/D0) and coef = S / (D0 rate) of
    `transport.mode_sum`; under the power law, `laplace_density` is its
    oracle.
    """
    rate = np.sqrt((clock + p.sigma_a) / p.diffusivity)
    return rate[:, None], (source / (p.diffusivity * rate))[:, None]


def _quad_checked(func, a, b, tol_abs, tol_rel, **kwargs):
    """Adaptive quadrature that turns a QUADPACK warning into an error."""
    out = quad(func, a, b, epsabs=tol_abs, epsrel=tol_rel,
               full_output=True, **kwargs)
    if len(out) > 3:
        raise NumericFailureError(out[3], estimate=out[0], bound=out[1])
    return out[0]


def _tanh_sinh() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh rule on (0, 1): each node q, its complement 1 - q (both
    to full relative precision out to the ends) and its weight."""
    u = _TS_STEP * np.arange(-_TS_HALF, _TS_HALF + 1)
    e = np.pi * np.sinh(u)
    q, rest = 1.0 / (1.0 + np.exp(-e)), 1.0 / (1.0 + np.exp(e))
    return q, rest, _TS_STEP * np.pi * np.cosh(u) * q * rest


def subordinated_density(p: FdeParams, x: float, t: float) -> float:
    """Density as the heat kernel read at the inverse stable clock, for
    alpha >= 1/4.

    The transform S(s) G(x, s S(s)) makes u(x, t) = E G(x, E_t), with G
    the heat kernel of `normal_diffusion` and E_t the inverse of the
    subordinator D(tau) = tau + (eta tau)^{1/alpha} Z, Z one-sided
    stable with E e^{-sZ} = e^{-s^alpha} (Meerschaert & Scheffler, J.
    Appl. Probab. 41, 623 (2004)). P(E_t <= tau) = P(D(tau) >= t), so
    E_t has the law of the root tau of tau + Z (eta tau)^{1/alpha} = t.
    Kanter's Z = (A(phi)/w)^{(1-alpha)/alpha}, with A(phi) =
    (sin(alpha phi)/sin phi)^{1/(1-alpha)} sin((1-alpha) phi)/sin(alpha phi),
    phi ~ U(0, pi) and w = -log(1 - q) ~ Exp(1) (Ann. Probab. 3, 697
    (1975)), turns the mean into
    (1/pi) int_0^pi dphi int_0^1 dq G(x, tau), one tanh-sinh rule per
    axis. The root solves log(tau + z (eta tau)^{1/alpha}) =
    log t by Newton in log tau: the left side is convex and the start
    lies above the root, so the iterates descend onto it. Below
    alpha = 1/4 the root bends from tau growing like w to tau = t within
    about alpha in log w, too sharply for the rule (1.2e-9 at alpha =
    0.15, against 2.2e-12 at 1/4), so ValueError.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    a = p.alpha
    if a < _MIN_ALPHA:
        raise ValueError(f"the subordinated density needs alpha >= "
                         f"{_MIN_ALPHA}, got {a}")
    if p.trap_strength == 0.0:
        # no memory: the clock is t itself
        return float(normal_diffusion(p, x, t))
    frac, rest, weight = _tanh_sinh()
    phi = np.pi * frac
    sin_phi = np.sin(np.pi * np.minimum(frac, rest))  # exact next to pi too
    log_a = (np.log(np.sin(a * phi) / sin_phi) / (1.0 - a)
             + np.log(np.sin((1.0 - a) * phi) / np.sin(a * phi)))
    log_w = np.log(np.log1p(frac / rest))  # w = -log(1 - q)
    # lc = log(z eta^{1/alpha}) at each (phi, q) node
    lc = ((1.0 - a) * (log_a[:, None] - log_w)
          + math.log(p.trap_strength)) / a
    lt = math.log(t)
    # y = log tau, started where either term alone reaches t
    y = np.minimum(lt, a * (lt - lc))
    for _ in range(_NEWTON_STEPS):
        # the slope is 1 + (1/alpha - 1) * (the z term's share of the sum)
        share = 0.5 - 0.5 * np.tanh(0.5 * (y - lc - y / a))
        step = ((np.logaddexp(y, lc + y / a) - lt)
                / (1.0 + (1.0 / a - 1.0) * share))
        y -= step
        if np.abs(step).max() < 1e-12:
            break
    else:
        raise NumericFailureError("clock roots did not converge",
                                  alpha=a, t=t)
    log_g = (-x * x / (4.0 * p.diffusivity) * np.exp(-y)
             - p.sigma_a * np.exp(y)
             - 0.5 * (math.log(math.pi * p.diffusivity) + y))
    return float(weight @ np.exp(log_g) @ weight)


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
