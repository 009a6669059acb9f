"""Numerical inversion of Laplace transforms.

Two independent inverters are provided on purpose. `contour` gives the
nodes and weights of a double-exponential quadrature of the Bromwich
cosine integral along a vertical contour, which only ever evaluates the
transform at Re s = sigma and therefore tolerates transforms that are
expensive or fragile deep in the left half-plane. It is the one home of
the rule and the only inverter on the production path, where
`harness.run_scenario` evaluates whole stacks of nodes at once and
reduces them with its weights. The rule is the node map (one array expression); the
weights cos(M phi) phi', formed right of the map's centre as
+-sin(M r) phi' from the map's residual r = phi - y, so that the
saturated tail vanishes as the exact weights do; a trim of both end runs
of weights below 2^-53 max|w|, under the rounding of the largest term;
and the shift, lowered to 8/t at late times. `invert` applies the same
rule to a scalar transform, one node at a time, for the self-checks and
the tests.
`invert_reference` is a fixed-Talbot rule on a deformed contour; it
converges faster per evaluation but probes the transform at complex s
with negative real part. Agreement between the two is a strong
end-to-end check precisely because they share nothing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericFailureError

__all__ = [
    "InversionConfig",
    "contour",
    "invert",
    "invert_reference",
]

# exp underflow/overflow switchover for the map's tail branches
_EXP_BIG = 690.0
# largest sigma * t of a contour: the sum carries the factor e^{sigma t},
# which magnifies the roundoff of the transform values, so at late times
# sigma is lowered to this over t. A transform analytic for Re s > 0
# (every profile transform is) takes any positive sigma.
_MAX_SHIFT_TIME = 8.0
# smallest steepness K at which the node map is increasing: below K* =
# 0.456593 phi' < 0 around y = 1.2 (on [0.50, 2.34] at K = 0.3)
_MIN_STEEPNESS = 0.4566


@dataclass(frozen=True)
class InversionConfig:
    """Tuning knobs of the double-exponential Bromwich rule.

    contour_shift is the abscissa sigma (must exceed the rightmost
    singularity of the transform; `contour` caps it at 8/t), freq_scale
    sets how far up the imaginary axis the rule reaches, truncation is
    an upper bound on the one-sided term count (`contour` trims both
    tails to the nodes whose weight reaches 2^-53 of the largest, so the
    defaults keep 68 of the 81 nodes), and steepness controls how hard
    the map saturates. Defaults give roughly ten significant digits for
    transforms with mild decay. A steepness below 0.4566, where the map
    stops increasing, and a reach (truncation + 1/2) pi / freq_scale at
    which the node map overflows are ValueErrors.
    """

    contour_shift: float = 0.04
    freq_scale: float = 40.0
    truncation: int = 40
    steepness: float = 6.0

    def __post_init__(self):
        reals = (self.contour_shift, self.freq_scale, self.steepness)
        if not all(math.isfinite(v) for v in reals):
            raise ValueError(f"contour_shift, freq_scale and steepness must "
                             f"be finite, got {', '.join(map(repr, reals))}")
        if self.contour_shift <= 0.0:
            raise ValueError(
                f"contour_shift must be positive, got {self.contour_shift}")
        if self.freq_scale <= 0.0 or self.truncation < 1:
            raise ValueError("freq_scale must be > 0 and truncation >= 1")
        if self.steepness < _MIN_STEEPNESS:
            raise ValueError(f"steepness must be >= {_MIN_STEEPNESS}, where "
                             f"the node map folds, got {self.steepness}")
        # the largest product the node map forms is y K cosh y at the
        # outermost abscissa, rounded as `contour` rounds it
        h = math.pi / self.freq_scale
        reach = self.truncation * h + 0.5 * h
        try:
            peak = reach * (self.steepness * math.cosh(reach))
        except OverflowError:
            peak = math.inf
        if math.isinf(peak):
            raise ValueError(
                f"truncation {self.truncation} at freq_scale {self.freq_scale} "
                f"reaches y = {reach:.6g}, where the node map of steepness "
                f"{self.steepness} overflows; lower truncation or raise "
                f"freq_scale")


def _de_map(y: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """phi and phi' of the node map phi(y) = y / (1 - exp(-K sinh y)) (0
    as y -> -inf, y as y -> +inf) at every y != 0, from one expm1 e =
    e^{-arg} - 1, arg = K sinh y: phi = -y / e and phi' =
    (1 + y K cosh(y) (1 + e) / e) / -e. Below arg = -690, where e would
    overflow, phi = -y e^{arg} and phi' = (|y| K cosh(y) - 1) e^{arg},
    which underflows to 0 far down the map. Each exponential is clipped
    to its branch's side of -690, so `np.where` can evaluate both."""
    arg = k * np.sinh(y)
    kc = k * np.cosh(y)
    em = np.expm1(-np.maximum(arg, -_EXP_BIG))
    tail = np.exp(np.minimum(arg, -_EXP_BIG))
    deep = arg < -_EXP_BIG
    phi = np.where(deep, -y * tail, y / -em)
    dphi = np.where(deep, (np.abs(y) * kc - 1.0) * tail,
                    (1.0 + y * kc * ((1.0 + em) / em)) / -em)
    return phi, dphi


def _untrimmed(config: InversionConfig) -> tuple[np.ndarray, np.ndarray]:
    """The phase M phi(y_j) and weight of every node |j| <= truncation of
    the `contour` rule, before its tails are trimmed."""
    m = config.freq_scale
    h = math.pi / m
    # j h + h/2, not (j + 1/2) h, whose rounding flips last CSV digits
    j = np.arange(-config.truncation, config.truncation + 1)
    y = j * h + 0.5 * h
    phi, dphi = _de_map(y, config.steepness)
    phi *= m
    wave = np.cos(phi)
    right = j >= 0
    y = y[right]
    # past a = 690 r is below 3e-300 y; the clip only keeps expm1 finite
    r = y / np.expm1(np.minimum(config.steepness * np.sinh(y), _EXP_BIG))
    wave[right] = np.where(j[right] % 2, 1.0, -1.0) * np.sin(m * r)
    return phi, wave * dphi


def contour(t: float, config: InversionConfig = InversionConfig()
            ) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes and weights of the double-exponential Bromwich rule at time t.

    Discretizes u(t) = (2 e^{sigma t} / pi) int_0^inf Re F(sigma + i w)
    cos(w t) dw with the double-exponential map w = (M/t) phi(y) at the
    half-offset abscissae y_j = (j + 1/2) pi / M, |j| <= truncation; the
    layout places the saturated tail of the map on the zeros of the
    cosine, so truncation error falls off double exponentially. The
    shift is sigma = min(contour_shift, `_MAX_SHIFT_TIME` / t).

    The weight is cos(M phi) phi'. Right of y = 0, where M y_j =
    (j + 1/2) pi, it is formed as (-1)^(j+1) sin(M r) phi' from the map's
    residual r = phi - y = y / (e^a - 1), a = K sinh y, so the tail
    weights vanish as the exact ones do instead of carrying the rounding
    of the phase M phi (+-1e-14 at the defaults). Both end runs of weights
    below 2^-53 max|w| are then left out: each lies under the rounding
    of the largest term.
    Only the tails are trimmed, so the kept j stay contiguous, and
    truncation is an upper bound on the one-sided term count (the
    defaults keep j = -34..33). Returns (s_nodes, weights, prefactor) with
    u(t) = prefactor * sum_j weights[j] Re F(s_nodes[j]).
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    sigma = min(config.contour_shift, _MAX_SHIFT_TIME / t)
    phase, weights = _untrimmed(config)
    big = np.abs(weights) >= 2.0 ** -53 * np.abs(weights).max()
    lo, hi = big.argmax(), big.size - big[::-1].argmax()
    return (sigma + 1j * (phase[lo:hi] / t), weights[lo:hi],
            2.0 * math.exp(sigma * t) / t)


def invert(transform: Callable[[complex], complex], t: float,
           config: InversionConfig = InversionConfig()) -> float:
    """Invert a Laplace transform at time t > 0 on the `contour` rule."""
    s_nodes, weights, prefactor = contour(t, config)
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


def invert_reference(transform: Callable[[complex], complex], t: float,
                     order: int = 28) -> float:
    """Fixed-Talbot inversion, for cross-checking `invert`.

    Evaluates the transform on the deformed contour s = (r theta)(cot
    theta + i) with r = 2 order / (5 t); `order` transform evaluations
    yield roughly 0.6 * order significant digits until double precision
    saturates around order 26 to 30. The transform must be analytic on
    the contour, which dips into Re s < 0.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")

    # theta = 0 endpoint: s t = 2 order / 5, weight 1/2
    delta0 = 0.4 * order
    acc = 0.5 * math.exp(delta0) * transform(complex(delta0 / t)).real
    for kk in range(1, order):
        theta = kk * math.pi / order
        cot = math.cos(theta) / math.sin(theta)
        delta = (2.0 * kk * math.pi / 5.0) * complex(cot, 1.0)
        gamma = (1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot) * cmath.exp(delta)
        acc += (gamma * transform(delta / t)).real
    return 0.4 / t * acc
