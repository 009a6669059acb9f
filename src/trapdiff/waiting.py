"""The heavy-tailed waiting-time law of trapping and its memory functions.

The Pareto-type law with tail exponent alpha in (0, 1) and finite
scale gamma > 0 has survival (1 + tau/gamma)^(-alpha), which decays like
(gamma/tau)^alpha: that tail is what produces the fractional time
derivative in the long-time limit, and alpha and gamma are all of the
law that any solver sees. Its Laplace transform has a closed form built
from the generalized exponential integral. Trapping changes the clock,
not the kernel (Barkai, Metzler & Klafter, Phys. Rev. E 61, 132 (2000)):
at a stack s, `WaitingTimeModel.memory` (exact) and `power_memory` give
the source factor S(s) and the p = s S(s) a trap-free kernel sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gen_exp_integral_scaled

__all__ = ["WaitingTimeModel", "power_memory"]


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

    def laplace_survival(self, s):
        """Laplace transform of the survival function at every point of s
        (an array shaped like s, or a complex for a scalar s).

        Substituting tau = gamma (u - 1) gives gamma e^z E_alpha(z) with
        z = gamma s, evaluated directly rather than as (1 - L[pdf])/s,
        which loses digits to cancellation where |gamma s| is small.
        Principal branches: the value is the analytic continuation off
        the cut along the negative real axis, guaranteed for Re s > 0;
        ValueError for gamma s on the cut or at 0.
        """
        z = self.gamma * np.asarray(s, dtype=complex)
        return self.gamma * gen_exp_integral_scaled(self.alpha, z)

    def memory(self, sigma_trap: float, s) -> tuple[np.ndarray, np.ndarray]:
        """S = 1 + sigma_trap LPhi(s) and p = S s at every point of s, from
        one exponential-integral call over the whole stack (none when
        sigma_trap is zero)."""
        s = np.asarray(s, dtype=complex)
        source = np.ones_like(s)
        if sigma_trap > 0.0:
            # LPhi as `laplace_survival` forms it; not through that method,
            # whose span in perfbench's tracer is keyed by a scalar s
            lphi = self.gamma * gen_exp_integral_scaled(self.alpha,
                                                        self.gamma * s)
            source = 1.0 + sigma_trap * lphi
        return source, source * s


def power_memory(eta: float, alpha: float, s: np.ndarray):
    """S = 1 + eta s^alpha / s and p = s + eta s^alpha at every point of
    s, on principal branches; ValueError at s = 0, where S diverges."""
    if np.any(s == 0):
        raise ValueError("transform requires s != 0")
    sa = s**alpha
    return 1.0 + eta * sa / s, s + eta * sa
