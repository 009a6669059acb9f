"""Special functions and quadrature primitives.

Everything here is double precision on numpy alone, on purpose: these
routines sit underneath the transport and fractional-diffusion solvers and
are exercised at complex arguments far from the textbook sweet spots, so
the evaluation regions and failure modes need to be explicit.

Contents: Gauss-Legendre rules on (0, 1) and the generalized exponential
integral in overflow-safe scaled form, over whole arrays of arguments,
by power series or continued fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError

__all__ = [
    "QuadratureSet",
    "gauss_legendre",
    "gen_exp_integral_scaled",
]

_CF_MAXITER = 100000  # continued-fraction term cap; its region needs <= ~300
# the fraction stops where its factor delta is within four ulps of 1:
# rounding can hold delta at 1 + 2^-52 for good (nu = 1/2, z = 4e298)
_CF_TOL = 2.0 ** -50


@dataclass(frozen=True)
class QuadratureSet:
    """A Gauss-Legendre rule on the open interval (0, 1).

    Nodes are strictly increasing in (0, 1); weights are positive and sum
    to 1. Stored as tuples so the set is immutable and hashable.
    """

    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and its derivative P_n'(x) by the three-term recurrence."""
    p0, p1 = 1.0, x
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre(n: int) -> QuadratureSet:
    """Gauss-Legendre nodes and weights on (0, 1) by Newton iteration.

    The roots of the Legendre polynomial P_n are symmetric about 0, so
    only the (n + 1) // 2 with x >= 0 are located, from Chebyshev-type
    initial guesses, and polished to 1e-15; each pairs with its mirror
    -x, which has the same weight. The affine map from (-1, 1) halves
    the weights.
    """
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    pairs = []
    for k in range((n + 1) // 2):
        x = math.cos(math.pi * (k + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-15:
                break
        else:
            raise NumericFailureError("Legendre root search stalled", order=n, index=k)
        # one clean derivative eval at the converged root for the weight
        _, dp = _legendre(n, x)
        # weight on (-1,1) is 2/((1-x^2) dp^2); halve it for (0,1)
        weight = 1.0 / ((1.0 - x * x) * dp * dp)
        pairs += [(0.5 * (1.0 - x), weight), (0.5 * (1.0 + x), weight)]
    if n % 2:  # the middle root, x = 0, has no mirror
        del pairs[-1]
    pairs.sort()
    return QuadratureSet(
        order=n,
        nodes=tuple(p[0] for p in pairs),
        weights=tuple(p[1] for p in pairs),
    )


def _exp_integral_cf(nu: float, z: np.ndarray) -> np.ndarray:
    """Modified Lentz continued fraction for exp(z) E_nu(z) at every z.

    The classical fraction b0 = z + nu, a_i = -i(nu - 1 + i), b_i += 2
    evaluates e^z E_nu(z) directly, so nothing overflows for large |z|.
    Each element stops once its factor delta is within `_CF_TOL` of 1
    and leaves the work arrays. Convergence slows toward the negative
    real axis, so at |z| < 60 the fraction is used only where
    |z| + Re z > 3.
    """
    b = z + nu
    c = np.full_like(z, 1e300)  # 1 / tiny
    d = 1.0 / b
    h = d
    out = np.empty_like(z)
    live = np.arange(z.size)
    for i in range(1, _CF_MAXITER + 1):
        a = -i * (nu - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_TOL
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            if not keep.any():
                return out
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
    raise NumericFailureError(
        "exponential-integral continued fraction stalled",
        nu=nu, z=complex(z[live[0]]))


# Euler's constant and zeta(2), ..., zeta(13): the Taylor series
# log Gamma(1 - e) = EULER e + sum_k zeta(k) e^k / k, to roundoff for
# |e| < _NEAR_INT
_EULER = 0.5772156649015329
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
         1.03692775514337, 1.0173430619844492, 1.008349277381923,
         1.0040773561979444, 1.0020083928260821, 1.000994575127818,
         1.0004941886041194, 1.000246086553308, 1.0001227133475785)
# order distance from an integer below which the series pairs its poles
_NEAR_INT = 0.05


def _pole_pair(m: int, eps: float, log_z: np.ndarray) -> np.ndarray:
    """(1 - g) / eps with g = Gamma(1 - eps) z^eps / prod_j (1 + eps/j),
    j = 1..m, computed without cancellation for small eps; its eps -> 0
    limit is psi(m + 1) - log z."""
    if eps == 0.0:
        return sum(1.0 / j for j in range(1, m + 1)) - _EULER - log_z
    power = eps
    lgam = _EULER * eps
    for k, zeta in enumerate(_ZETA, start=2):
        power *= eps
        lgam += zeta * power / k
    ell = lgam - sum(math.log1p(eps / j) for j in range(1, m + 1)) + eps * log_z
    # complex expm1(ell), accurate for small |ell|
    a, b = ell.real, ell.imag
    half = np.sin(0.5 * b)
    expm1 = (np.expm1(a) * np.cos(b) - 2.0 * half * half
             + 1j * (np.exp(a) * np.sin(b)))
    return -expm1 / eps


def _exp_integral_series(nu: float, z: np.ndarray) -> np.ndarray:
    """Power series route for exp(z) E_nu(z) at every z.

    E_nu(z) = Gamma(1-nu) z^(nu-1) - sum_k (-z)^k / (k! (1 - nu + k)).
    Near an integer order n >= 1 both Gamma(1-nu) and the k = n-1 term
    have a pole; there the two are summed in closed form as
    (-z)^(n-1)/(n-1)! * `_pole_pair`, which is also the classical
    log series at integer order. Converges everywhere off the cut, with
    cancellation growing like exp(|z|+Re z), so callers keep it away from
    the far right half plane. Each element stops summing once its term
    falls below 1e-18 of its sum and leaves the work arrays.
    """
    n = round(nu)
    eps = nu - n
    m = n - 1 if n >= 1 and abs(eps) < _NEAR_INT else -1
    log_z = np.log(z)
    total = np.empty_like(z)
    live = np.arange(z.size)
    zk, term, part = z, np.ones_like(z), np.zeros_like(z)
    head = None
    for k in range(500):
        if k:
            term = term * (-zk / k)
        if k == m:  # every element is still summing
            head = term * _pole_pair(m, eps, log_z)
        else:
            part = part + term / (1.0 - nu + k)
        if k > m:
            done = np.abs(term) < 1e-18 * np.maximum(np.abs(part), 1e-30)
            if done.any():
                total[live[done]] = part[done]
                keep = ~done
                live, zk, term, part = live[keep], zk[keep], term[keep], part[keep]
                if not live.size:
                    break
    total[live] = part
    if head is None:
        head = math.gamma(1.0 - nu) * np.exp((nu - 1.0) * log_z)
    return np.exp(z) * (head - total)


def gen_exp_integral_scaled(nu: float, z):
    """Scaled generalized exponential integral exp(z) * E_nu(z) at every
    point of z: an array shaped like z, or a complex for a scalar z.

    E_nu(z) = z^(nu-1) * integral_z^inf exp(-t) t^(-nu) dt on the
    principal branch, cut along the negative real axis. The scaling by
    exp(z) keeps the value representable for large |z| anywhere off the
    cut.

    Each point takes one of two routes, and each route runs once over
    its points: the power series where |z| + Re z <= 3 at |z| < 60, and
    the modified Lentz continued fraction everywhere else, large |z|
    included. The series loses exp(|z| + Re z) to cancellation, at most
    e^3 (and up to ~1 / |nu - n| more at orders just outside its pole
    pairing: 6e-14 relative measured at orders 0.85 to 0.95), so it
    keeps the disc |z| < 1 and the strip beside the cut, where the
    fraction crawls; within ~1 of the cut roundoff stalls the fraction
    out to |z| ~ 55, hence the series there up to |z| = 60.
    Measured for orders up to 4 (the waiting law passes alpha < 1), and
    refused above: from order 7 the fraction also stalls beside the cut
    at |z| of 60 to 80. ValueError for a point on the cut, at 0 or not
    finite.
    """
    if not 0.0 < nu <= 4.0:
        raise ValueError(f"order must lie in (0, 4], got {nu}")
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    bad = (~np.isfinite(flat) | (flat == 0.0)
           | ((flat.imag == 0.0) & (flat.real < 0.0)))
    if bad.any():
        raise ValueError(f"argument {complex(flat[bad.argmax()])} is on the "
                         "branch cut or not finite")
    r = np.abs(flat)
    series = (r + flat.real <= 3.0) & (r < 60.0)
    out = np.empty_like(flat)
    for route, mask in ((_exp_integral_series, series),
                        (_exp_integral_cf, ~series)):
        if mask.any():
            out[mask] = route(nu, flat[mask])
    return out.reshape(z.shape) if z.ndim else complex(out[0])
