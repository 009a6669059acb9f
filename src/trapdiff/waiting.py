"""The heavy-tailed waiting-time law of the trapping kernel.

The Pareto-type law with tail exponent alpha in (0, 1) and finite
scale gamma > 0 has survival (1 + tau/gamma)^(-alpha), which decays like
(gamma/tau)^alpha: that tail is what produces the fractional time
derivative in the long-time limit, and alpha and gamma are all of the
law that any solver sees. Its Laplace transform has a closed form built
from the generalized exponential integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import gen_exp_integral_scaled

__all__ = ["WaitingTimeModel"]


@dataclass(frozen=True)
class WaitingTimeModel:
    """Pareto-type waiting time with tail exponent alpha and scale gamma."""

    alpha: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive and finite, "
                             f"got {self.gamma}")

    def laplace_pdf(self, s: complex) -> complex:
        """Laplace transform of the waiting-time density.

        Evaluates alpha * e^(gamma*s) * E_(1+alpha)(gamma*s) in closed
        form. Principal branches: the value is the analytic continuation
        off the cut along the negative real axis, guaranteed for Re s > 0.
        """
        s = complex(s)
        z = self.gamma * s
        if z == 0.0 or (z.imag == 0.0 and z.real < 0.0):
            raise ValueError(f"gamma*s = {z} lies on the branch cut")
        return self.alpha * gen_exp_integral_scaled(1.0 + self.alpha, z)

    def laplace_survival(self, s: complex) -> complex:
        """Laplace transform of the survival function, (1 - L[pdf])/s."""
        s = complex(s)
        if s == 0.0:
            raise ValueError("transform of the survival function diverges at s = 0")
        return (1.0 - self.laplace_pdf(s)) / s
