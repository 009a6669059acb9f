"""Numerical inversion of Laplace transforms.

Two independent inverters are provided on purpose. `contour` gives the
nodes and weights of a double-exponential quadrature of the Bromwich
cosine integral along a vertical contour, which only ever evaluates the
transform at Re s = sigma and therefore tolerates transforms that are
expensive or fragile deep in the left half-plane. It is the one home of
the rule and the only inverter on the production path, where
`harness.run_scenario` evaluates whole stacks of nodes at once and
reduces them with its weights. The rule is fixed: shift 0.04, lowered
to 8/t at late times, node-map steepness 6 and step pi / M, with M = 40;
only the step is an argument, since FDE and the step-halving check
halve it. `invert` applies the rule to a scalar transform, one node at
a time, for the self-checks and the tests.
`invert_reference` is a fixed-Talbot rule on a deformed contour; it
converges faster per evaluation but probes the transform at complex s
with negative real part. Agreement between the two is a strong
end-to-end check precisely because they share nothing.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .errors import NumericFailureError

__all__ = [
    "M",
    "SHIFT",
    "contour",
    "invert",
    "invert_reference",
]

# abscissa sigma of the contour at early times; a transform analytic for
# Re s > 0 (every profile transform is) takes any positive sigma
SHIFT = 0.04
# largest sigma * t of a contour: the sum carries the factor e^{sigma t},
# which magnifies the roundoff of the transform values, so at late times
# sigma is lowered to this over t
_MAX_SHIFT_TIME = 8.0
# steepness K of the node map, well above K* = 0.456593, below which the
# map stops increasing and the nodes fold
_STEEPNESS = 6.0
# M of the step pi / M: about ten significant digits for transforms with
# mild decay, 68 nodes per time
M = 40.0
# reach of the rule: its abscissae stop at |K sinh y| = this. The trim
# falls at K sinh|y| = 38 to 43; the outermost abscissa, a step pi / M
# short of the reach, is past 100 for M >= 20; e^120 is finite.
_MAX_ARG = 120.0
_TALBOT_ORDER = 28  # points n of the fixed-Talbot rule of `invert_reference`
_HUGE = np.finfo(float).max


def _half_count(m: float) -> int:
    """n such that the abscissae y = +-(k + 1/2) h, k = 0..n, h = pi / m,
    are every half-offset one with K sinh|y| <= `_MAX_ARG`."""
    h = math.pi / m
    return math.floor(math.asinh(_MAX_ARG / _STEEPNESS) / h - 0.5)


def _de_map(y: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """phi and phi' of the node map phi(y) = y / (1 - exp(-K sinh y)) (0
    as y -> -inf, y as y -> +inf) at every y != 0 with |K sinh y| <=
    `_MAX_ARG`, from one expm1 e = e^{-arg} - 1, arg = K sinh y: phi =
    -y / e and phi' = (1 + y K cosh(y) (1 + e) / e) / -e."""
    em = np.expm1(-k * np.sinh(y))
    return y / -em, (1.0 + y * (k * np.cosh(y)) * ((1.0 + em) / em)) / -em


def _untrimmed(m: float) -> tuple[np.ndarray, np.ndarray]:
    """The phase m phi(y_j) and weight of every node j = -n-1..n of the
    `contour` rule at step pi / m (n = `_half_count`), before its tails
    are trimmed."""
    h = math.pi / m
    n = _half_count(m)
    # j h + h/2, not (j + 1/2) h, whose rounding flips last CSV digits
    j = np.arange(-n - 1, n + 1)
    y = j * h + 0.5 * h
    phi, dphi = _de_map(y, _STEEPNESS)
    phi *= m
    wave = np.cos(phi)
    right = j >= 0
    y = y[right]
    r = y / np.expm1(_STEEPNESS * np.sinh(y))
    wave[right] = np.where(j[right] % 2, 1.0, -1.0) * np.sin(m * r)
    return phi, wave * dphi


def contour(t: float, m: float = M) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes and weights of the double-exponential Bromwich rule at time t.

    Discretizes u(t) = (2 e^{sigma t} / pi) int_0^inf Re F(sigma + i w)
    cos(w t) dw with the double-exponential map w = (M/t) phi(y) at the
    half-offset abscissae y_j = (j + 1/2) pi / M, out to the map's
    saturation |K sinh y| = `_MAX_ARG`; the layout places the saturated
    tail of the map on the zeros of the cosine, so truncation error falls
    off double exponentially (Ooura & Mori, J. Comput. Appl. Math. 112,
    1999). The steepness is K = 6 and the shift sigma = min(`SHIFT`,
    `_MAX_SHIFT_TIME` / t); m is the step's M, `M` by default.

    The weight is cos(M phi) phi'. Right of y = 0, where M y_j =
    (j + 1/2) pi, it is formed as (-1)^(j+1) sin(M r) phi' from the map's
    residual r = phi - y = y / (e^a - 1), a = K sinh y, so the tail
    weights vanish as the exact ones do instead of carrying the rounding
    of the phase M phi (+-1e-14 at M = 40). Both end runs of weights
    below 2^-53 max|w| are then left out: each lies under the rounding
    of the largest term. That trim, not the reach, sets the rule: the
    kept j are contiguous, and M = 40 keeps j = -34..33 of -47..46.
    Returns (s_nodes, weights, prefactor) with
    u(t) = prefactor * sum_j weights[j] Re F(s_nodes[j]); ValueError if t <= 0
    or if a node or the prefactor would overflow (t < 5.9e-307 at M = 40).
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    sigma = min(SHIFT, _MAX_SHIFT_TIME / t)
    phase, weights = _untrimmed(m)
    big = np.abs(weights) >= 2.0 ** -53 * np.abs(weights).max()
    lo, hi = big.argmax(), big.size - big[::-1].argmax()
    if max(np.abs(phase[lo:hi]).max(), 2.0 * math.exp(sigma * t)) / _HUGE > t:
        raise ValueError(f"time {t:g} is too short: the contour overflows")
    return (sigma + 1j * (phase[lo:hi] / t), weights[lo:hi],
            2.0 * math.exp(sigma * t) / t)


def invert(transform: Callable[[complex], complex], t: float) -> float:
    """Invert a Laplace transform at time t > 0 on the `contour` rule."""
    s_nodes, weights, prefactor = contour(t)
    values = []
    for j, s_j in enumerate(s_nodes.tolist()):
        value = transform(s_j)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise NumericFailureError(
                "transform returned a non-finite value",
                t=t, j=j, s=s_j,
            )
        values.append(value.real)
    return prefactor * float(np.dot(values, weights))


def invert_reference(transform: Callable[[complex], complex],
                     t: float) -> float:
    """Fixed-Talbot inversion, for cross-checking `invert`.

    Evaluates the transform on the deformed contour s = (r theta)(cot
    theta + i) with r = 2 n / (5 t) at n = `_TALBOT_ORDER` = 28 points;
    n evaluations yield roughly 0.6 n significant digits until double
    precision saturates around n = 26 to 30. The transform must be
    analytic on the contour, which dips into Re s < 0.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    # theta = 0 endpoint: s t = 2 n / 5, weight 1/2
    delta0 = 0.4 * _TALBOT_ORDER
    acc = 0.5 * math.exp(delta0) * transform(complex(delta0 / t)).real
    for kk in range(1, _TALBOT_ORDER):
        theta = kk * math.pi / _TALBOT_ORDER
        cot = math.cos(theta) / math.sin(theta)
        delta = (2.0 * kk * math.pi / 5.0) * complex(cot, 1.0)
        gamma = (1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot) * cmath.exp(delta)
        acc += (gamma * transform(delta / t)).real
    return 0.4 / t * acc
