"""Numerical inversion of Laplace transforms.

Two independent inverters are provided on purpose. `contour` gives the
nodes and weights of a double-exponential quadrature of the Bromwich
cosine integral along a vertical contour, which only ever evaluates the
transform at Re s = sigma and therefore tolerates transforms that are
expensive or fragile deep in the left half-plane; it is the single home
of the node formula and the only inverter on the production path, where
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
    "de_map_derivative",
    "invert",
    "invert_reference",
]

# exp underflow/overflow switchover for the map's tail branches
_EXP_BIG = 690.0


@dataclass(frozen=True)
class InversionConfig:
    """Tuning knobs of the double-exponential Bromwich rule.

    contour_shift is the abscissa sigma (must exceed the rightmost
    singularity of the transform), freq_scale sets how far up the
    imaginary axis the rule reaches, truncation is the one-sided term
    count, and steepness controls how hard the map saturates. Defaults
    give roughly ten significant digits for transforms with mild decay.
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


def de_map(y: float, steepness: float) -> float:
    """Double-exponential node map phi(y) = y / (1 - exp(-K sinh y)).

    Tends to 0 double-exponentially as y -> -inf and to y as y -> +inf.
    The removable singularity at y = 0 is filled with its limit 1/K.
    """
    if y == 0.0:
        return 1.0 / steepness
    arg = steepness * math.sinh(y)
    if arg < -_EXP_BIG:
        # denominator would overflow; use 1 - e^{-arg} ~ -e^{-arg}
        return -y * math.exp(arg)
    return y / -math.expm1(-arg)


def de_map_derivative(y: float, steepness: float) -> float:
    """Derivative of `de_map` with respect to y."""
    if y == 0.0:
        return 0.5
    k = steepness
    arg = k * math.sinh(y)
    if arg < -_EXP_BIG:
        return (abs(y) * k * math.cosh(y) - 1.0) * math.exp(arg)
    denom = -math.expm1(-arg)  # 1 - e^{-K sinh y}
    ratio = math.exp(-arg) / denom if arg < _EXP_BIG else 0.0
    # phi' = 1/denom - y K cosh(y) e^{-arg} / denom^2
    return (1.0 - y * k * math.cosh(y) * ratio) / denom


def contour(t: float, config: InversionConfig = InversionConfig()
            ) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes and weights of the double-exponential Bromwich rule at time t.

    Discretizes u(t) = (2 e^{sigma t} / pi) int_0^inf Re F(sigma + i w)
    cos(w t) dw with the double-exponential map w = (M/t) phi(y); the
    half-offset node layout places the saturated tail of the map on the
    zeros of the cosine, so truncation error falls off double
    exponentially. Nodes where the map has saturated below the underflow
    floor (phi' == 0) carry no weight and are left out. Returns
    (s_nodes, weights, prefactor) such that
    u(t) = prefactor * sum_j weights[j] * Re F(s_nodes[j]).
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    sigma = config.contour_shift
    m = config.freq_scale
    k = config.steepness
    h = math.pi / m
    nodes, weights = [], []
    for j in range(-config.truncation, config.truncation + 1):
        y = j * h + 0.5 * h
        dphi = de_map_derivative(y, k)
        if dphi == 0.0:
            continue
        phi = de_map(y, k)
        nodes.append(complex(sigma, m * phi / t))
        weights.append(math.cos(m * phi) * dphi)
    return (np.array(nodes), np.array(weights),
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
