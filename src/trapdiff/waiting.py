"""Heavy-tailed waiting-time models for the trapping kernel.

Three two-parameter families share the tail exponent alpha in (0, 1) and
scale gamma > 0; all have survival functions decaying like
(gamma/tau)^alpha, which is what produces the fractional time derivative
in the long-time limit. Only the Pareto-type family has a closed-form
Laplace transform, built from the generalized exponential integral.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import TransformUnavailableError
from .specfun import gen_exp_integral_scaled

__all__ = ["Family", "WaitingTimeModel"]


class Family(enum.Enum):
    """Waiting-time distribution family, heaviest-bulk first."""

    PARETO = "pareto"
    LOG_LOGISTIC = "log-logistic"
    FRECHET = "frechet"


@dataclass(frozen=True)
class WaitingTimeModel:
    """Waiting-time distribution with tail exponent alpha and scale gamma."""

    family: Family
    alpha: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def has_exact_transform(self) -> bool:
        """Whether `laplace_pdf` has a closed form for this family."""
        return self.family is Family.PARETO

    def pdf(self, tau: float) -> float:
        """Probability density of the waiting time at tau >= 0."""
        if tau < 0.0:
            raise ValueError(f"waiting time must be >= 0, got {tau}")
        a, g = self.alpha, self.gamma
        if self.family is Family.PARETO:
            return (a / g) * (1.0 + tau / g) ** -(1.0 + a)
        if self.family is Family.LOG_LOGISTIC:
            if tau == 0.0:
                return math.inf  # integrable tau^(alpha-1) divergence
            # rearranged to avoid overflow of (gamma/tau)^alpha at small tau
            ta, ga = tau**a, g**a
            return a * ga * tau ** (a - 1.0) / (ta + ga) ** 2
        if tau == 0.0:
            return 0.0  # essential singularity: limit is zero
        arg = (g / tau) ** a
        if arg > 745.0:
            return 0.0
        return a * g**a * tau ** -(1.0 + a) * math.exp(-arg)

    def cdf(self, tau: float) -> float:
        """Cumulative distribution of the waiting time at tau >= 0."""
        if tau < 0.0:
            raise ValueError(f"waiting time must be >= 0, got {tau}")
        a, g = self.alpha, self.gamma
        if self.family is Family.PARETO:
            return -math.expm1(-a * math.log1p(tau / g))
        if self.family is Family.LOG_LOGISTIC:
            if tau == 0.0:
                return 0.0
            ta, ga = tau**a, g**a
            return ta / (ta + ga)
        if tau == 0.0:
            return 0.0
        arg = (g / tau) ** a
        return 0.0 if arg > 745.0 else math.exp(-arg)

    def survival(self, tau: float) -> float:
        """Probability that the waiting time exceeds tau; exact complement."""
        return 1.0 - self.cdf(tau)

    def laplace_pdf(self, s: complex) -> complex:
        """Laplace transform of the waiting-time density.

        Evaluates alpha * e^(gamma*s) * E_(1+alpha)(gamma*s), the
        Pareto-type transform in closed form; other families raise
        TransformUnavailableError. Principal branches: the value is the
        analytic continuation off the cut along the negative real axis,
        guaranteed for Re s > 0.
        """
        s = complex(s)
        if not self.has_exact_transform:
            raise TransformUnavailableError(
                f"no closed-form Laplace transform for {self.family.value}"
            )
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
