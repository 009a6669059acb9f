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
halve it. The rule's saturated left tail is folded onto s = sigma, at
a rounding-level cost bounded in `contour`, so a stack of contours
holds fewer distinct points than nodes. `invert` applies the rule to
a scalar transform, once per distinct node, for the self-checks and
the tests.
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
# relative size 2^-53 of a weight, or of a weight's share of the sum,
# under the rounding of the largest term: the trim and the fold
_ROUNDING = 2.0 ** -53
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


def contour(t, m: float = M):
    """Nodes and weights of the double-exponential Bromwich rule at time
    t, or at each of an array of times.

    Discretizes u(t) = (2 e^{sigma t} / pi) int_0^inf Re F(sigma +
    i omega) cos(omega t) d omega with the double-exponential map
    omega = (M/t) phi(y) at the half-offset abscissae y_j = (j + 1/2)
    pi / M, out to the map's saturation |K sinh y| = `_MAX_ARG`; the
    layout places the saturated tail of the map on the zeros of the
    cosine, so truncation error falls off double exponentially (Ooura &
    Mori, J. Comput. Appl. Math. 112, 1999). The steepness is K = 6 and
    the shift sigma = min(`SHIFT`, `_MAX_SHIFT_TIME` / t); m is the
    step's M, `M` by default.

    The weight is cos(M phi) phi'. Right of y = 0, where M y_j =
    (j + 1/2) pi, it is formed as (-1)^(j+1) sin(M r) phi' from the map's
    residual r = phi - y = y / (e^a - 1), a = K sinh y, so the tail
    weights vanish as the exact ones do instead of carrying the rounding
    of the phase M phi (+-1e-14 at M = 40). Both end runs of weights
    below 2^-53 max|w| are then left out: each lies under the rounding
    of the largest term. That trim, not the reach, sets the rule: the
    kept j are contiguous, and M = 40 keeps j = -34..33 of -47..46.

    The map saturates on the left too, where the kept nodes crowd onto
    s = sigma: the leading run of them is folded onto s = sigma exactly,
    keeping its weights, as far as sum_{i<=j} (M phi_i)^2 |w_i| <= 2^-53
    max|w| (sigma t)^2, the trim's threshold. For the transform F of a
    function u >= 0 (a profile's, at each x), 1 - cos a <= a^2 / 2 and
    tau^2 e^{-sigma tau / 2} <= (4 / (e sigma))^2 give, at
    s = sigma + i omega,

        0 <= F(sigma) - Re F(s)
           = int_0^inf (1 - cos omega tau) e^{-sigma tau} u(tau) dtau
          <= (omega^2 / 2) F''(sigma)
          <= (8 / e^2) (omega / sigma)^2 F(sigma / 2).

    With omega_i = M phi_i / t the fold's condition is
    sum (omega_i / sigma)^2 |w_i| <= 2^-53 max|w|, so it moves
    sum_j w_j Re F(s_j) by at most (8 / e^2) 2^-53 max|w| F(sigma / 2):
    a rounding unit of the sum's largest term, as |F(s)| <= F(sigma).
    At M = 40 it folds 8 of the 68 nodes at t = 1e-3, 11 at t = 1, 12
    from t = 8.2 and 13 from t = 57 on, none below t = 2.9e-15, and at
    t >= 1e-3 each folded node moves by omega <= 1.1e-4 sigma (2.2e-4
    at FDE's steps); `harness.run_scenario` and `invert` evaluate
    each distinct point once, so they are spared their work. The phases,
    weights, trim and the fold's cumulative sum depend on m alone, so
    the rule is built once for all times, and each time's fold is one
    search of that sum; only sigma, the node scale 1/t, the fold and the
    prefactor follow t.

    Returns (s_nodes, weights, prefactor) with
    u(t) = prefactor * sum_j weights[j] Re F(s_nodes[j]); for an array
    of times s_nodes has one row and prefactor one entry per time, and
    the weights are shared. Row i is bit for bit the rule at the i-th
    time alone. ValueError if a time is not positive or if a node or
    the prefactor would overflow (t < 5.9e-307 at M = 40), before any
    node is formed.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    bad = ~(times > 0.0)
    if bad.any():
        raise ValueError(f"time must be positive, got {times[bad][0]}")
    # min(SHIFT, _MAX_SHIFT_TIME / t), without overflow at tiny t
    sigma = _MAX_SHIFT_TIME / np.maximum(times, _MAX_SHIFT_TIME / SHIFT)
    # math.exp per time: numpy's vector exp differs from it in the last
    # bit for about 5 % of arguments
    growth = np.array([2.0 * math.exp(v) for v in (sigma * times).tolist()])
    phase, weights = _untrimmed(m)
    floor = _ROUNDING * np.abs(weights).max()
    big = np.abs(weights) >= floor
    lo, hi = big.argmax(), big.size - big[::-1].argmax()
    phase, weights = phase[lo:hi], weights[lo:hi]
    short = np.maximum(np.abs(phase).max(), growth) / _HUGE > times
    if short.any():
        raise ValueError(f"time {times[short.argmax()]:g} is too short: "
                         "the contour overflows")
    # the fold: the leading run whose (M phi)^2 |w| sums to at most
    # floor (sigma t)^2, found per time in one cumulative sum of the step
    folds = np.searchsorted(np.cumsum(phase**2 * np.abs(weights)),
                            floor * (sigma * times) ** 2, side="right")
    omega = phase / times[:, None]
    omega[np.arange(phase.size) < folds[:, None]] = 0.0
    s_nodes = sigma[:, None] + 1j * omega
    prefactor = growth / times
    if np.ndim(t):
        return s_nodes, weights, prefactor
    return s_nodes[0], weights, float(prefactor[0])


def invert(transform: Callable[[complex], complex], t: float) -> float:
    """Invert a Laplace transform at time t > 0 on the `contour` rule,
    calling it once per distinct node (the folded ones share s = sigma);
    a non-finite value is reported at the first node j that holds it."""
    s_nodes, weights, prefactor = contour(t)
    points, first, back = np.unique(s_nodes, return_index=True,
                                    return_inverse=True)
    values = []
    for j, s_j in zip(first.tolist(), points.tolist()):
        value = transform(s_j)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise NumericFailureError("transform returned a non-finite "
                                      "value", t=t, j=j, s=s_j)
        values.append(value.real)
    return prefactor * float(np.dot(np.array(values)[back], weights))


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
