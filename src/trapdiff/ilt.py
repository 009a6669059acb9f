"""Numerical inversion of Laplace transforms.

Two independent inverters are provided on purpose. `contour` gives the
nodes and weights of a double-exponential quadrature of the Bromwich
cosine integral along a vertical contour, which only ever evaluates the
transform at Re s = sigma and therefore tolerates transforms that are
expensive or fragile deep in the left half-plane. It is the one home of
the rule (the node map, one array expression, and the shift, lowered to
8/t at late times) and the only inverter on the production path, where
the profile driver evaluates whole stacks of nodes at once and reduces
them with its weights. `invert` applies the same rule to a scalar
transform, one node at a time, for the self-checks and the tests.
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
    "de_map",
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


@dataclass(frozen=True)
class InversionConfig:
    """Tuning knobs of the double-exponential Bromwich rule.

    contour_shift is the abscissa sigma (must exceed the rightmost
    singularity of the transform; `contour` caps it at 8/t), freq_scale
    sets how far up the imaginary axis the rule reaches, truncation is
    the one-sided term count, and steepness controls how hard the map
    saturates. Defaults give roughly ten significant digits for
    transforms with mild decay.
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
        if self.steepness <= 0.0:
            raise ValueError(f"steepness must be positive, got {self.steepness}")


def _de_map(y: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """phi and phi' of the node map `de_map` at every y != 0, from one
    expm1 e = e^{-arg} - 1, arg = K sinh y: phi = -y / e and phi' =
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


def de_map(y: float, steepness: float) -> float:
    """Double-exponential node map phi(y) = y / (1 - exp(-K sinh y)).

    Tends to 0 double-exponentially as y -> -inf and to y as y -> +inf.
    The removable singularity at y = 0 is filled with its limit 1/K.
    """
    if y == 0.0:
        return 1.0 / steepness
    return float(_de_map(np.float64(y), steepness)[0])


def contour(t: float, config: InversionConfig = InversionConfig()
            ) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes and weights of the double-exponential Bromwich rule at time t.

    Discretizes u(t) = (2 e^{sigma t} / pi) int_0^inf Re F(sigma + i w)
    cos(w t) dw with the double-exponential map w = (M/t) phi(y) at the
    half-offset abscissae y = (j + 1/2) pi / M, |j| <= truncation; the
    layout places the saturated tail of the map on the zeros of the
    cosine, so truncation error falls off double exponentially. The
    shift is sigma = min(contour_shift, `_MAX_SHIFT_TIME` / t). Nodes
    where the map has saturated below the underflow floor (phi' == 0)
    carry no weight and are left out. Returns (s_nodes, weights,
    prefactor) with u(t) = prefactor * sum_j weights[j] Re F(s_nodes[j]).
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    sigma = min(config.contour_shift, _MAX_SHIFT_TIME / t)
    m = config.freq_scale
    h = math.pi / m
    # j h + h/2, not (j + 1/2) h, whose rounding flips last CSV digits
    j = np.arange(-config.truncation, config.truncation + 1)
    with np.errstate(over="raise"):  # sinh of a reach |y| > 710
        phi, dphi = _de_map(j * h + 0.5 * h, config.steepness)
    keep = dphi != 0.0
    phi = m * phi[keep]
    return (sigma + 1j * (phi / t), np.cos(phi) * dphi[keep],
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
