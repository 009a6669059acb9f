"""Scalar special functions and quadrature primitives.

Everything here is double precision and dependency-free on purpose: these
routines sit underneath the transport and fractional-diffusion solvers and
are exercised at complex arguments far from the textbook sweet spots, so
the evaluation regions and failure modes need to be explicit.

Contents: Gauss-Legendre rules on (0, 1) and the generalized exponential
integral in overflow-safe scaled form, by power series or continued fraction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NumericFailureError

__all__ = [
    "QuadratureSet",
    "gauss_legendre",
    "gen_exp_integral_scaled",
]

_CF_MAXITER = 100000  # continued-fraction term cap; its region needs <= ~300


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

    Roots of the Legendre polynomial P_n are located from Chebyshev-type
    initial guesses and polished to 1e-15; the affine map from (-1, 1)
    halves the weights.
    """
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    pairs = []
    for k in range(n):
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
        pairs.append((0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * dp * dp)))
    pairs.sort()
    return QuadratureSet(
        order=n,
        nodes=tuple(p[0] for p in pairs),
        weights=tuple(p[1] for p in pairs),
    )


def _exp_integral_cf(nu: float, z: complex) -> complex:
    """Modified Lentz continued fraction for exp(z) E_nu(z).

    The classical fraction b0 = z + nu, a_i = -i(nu - 1 + i), b_i += 2
    evaluates e^z E_nu(z) directly, so nothing overflows for large |z|.
    Reliable for Re z >= 0 away from the origin; convergence slows
    toward the negative real axis, so left of the ray Re z = -|Im z|/2
    at |z| < 60 it is used only where |z| + Re z > 3.
    """
    tiny = 1e-300
    b = z + nu
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAXITER + 1):
        a = -i * (nu - 1.0 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise NumericFailureError(
        "exponential-integral continued fraction stalled", nu=nu, z=z
    )


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


def _pole_pair(m: int, eps: float, log_z: complex) -> complex:
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
    half = math.sin(0.5 * b)
    expm1 = complex(math.expm1(a) * math.cos(b) - 2.0 * half * half,
                    math.exp(a) * math.sin(b))
    return -expm1 / eps


def _exp_integral_series(nu: float, z: complex) -> complex:
    """Power series route for exp(z) E_nu(z).

    E_nu(z) = Gamma(1-nu) z^(nu-1) - sum_k (-z)^k / (k! (1 - nu + k)).
    Near an integer order n >= 1 both Gamma(1-nu) and the k = n-1 term
    have a pole; there the two are summed in closed form as
    (-z)^(n-1)/(n-1)! * `_pole_pair`, which is also the classical
    log series at integer order. Converges everywhere off the cut, with
    cancellation growing like exp(|z|+Re z), so callers keep it away from
    the far right half plane.
    """
    n = round(nu)
    eps = nu - n
    m = n - 1 if n >= 1 and abs(eps) < _NEAR_INT else -1
    log_z = cmath.log(z)
    total = complex(0.0)
    term = complex(1.0)
    head = None
    for k in range(500):
        if k:
            term *= -z / k
        if k == m:
            head = term * _pole_pair(m, eps, log_z)
        else:
            total += term / (1.0 - nu + k)
        if k > m and abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
    if head is None:
        head = math.gamma(1.0 - nu) * cmath.exp((nu - 1.0) * log_z)
    return cmath.exp(z) * (head - total)


def gen_exp_integral_scaled(nu: float, z: complex) -> complex:
    """Scaled generalized exponential integral exp(z) * E_nu(z).

    E_nu(z) = z^(nu-1) * integral_z^inf exp(-t) t^(-nu) dt on the
    principal branch, cut along the negative real axis. The scaling by
    exp(z) keeps the value representable for large |z| anywhere off the
    cut.

    Evaluation is routed by region over two routes: the power series
    near the origin and, at |z| < 60, close to the negative real axis
    (where the continued fraction crawls or stalls), and the modified
    Lentz continued fraction everywhere else, large |z| included.
    Measured for orders up to 3.
    """
    if nu <= 0.0:
        raise ValueError(f"order must be positive, got {nu}")
    z = complex(z)
    if z == 0.0 or (z.imag == 0.0 and z.real < 0.0):
        raise ValueError(f"argument {z} is on the branch cut")
    r = abs(z)
    if r < 1.0:
        return _exp_integral_series(nu, z)
    # the fraction is solid away from the cut; nearer it the series loses
    # exp(|z| + Re z) to cancellation and is kept where that stays below
    # e^3. Within ~1 of the cut roundoff stalls the fraction out to
    # |z| ~ 55, so the series keeps that sliver up to |z| = 60
    if r >= 60.0 or z.real >= -0.5 * abs(z.imag) or r + z.real > 3.0:
        return _exp_integral_cf(nu, z)
    return _exp_integral_series(nu, z)
