"""Exception types shared across the package."""


class NumericFailureError(RuntimeError):
    """A numerical routine produced a non-finite or unusable result.

    The ``context`` dict carries the offending point (contour node,
    iteration index, spatial position) for diagnosis.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class DegenerateSpectrumError(NumericFailureError):
    """A discrete-ordinates eigenvalue collided with a quadrature ray."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not certify the requested tolerance."""

    def __init__(self, message: str, estimate=None, bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound


class ProfileError(RuntimeError):
    """A solver failed while filling a spatial profile.

    Carries the solver name and the (x, t) point at which it failed.
    """

    def __init__(self, message: str, solver: str, x: float, t: float):
        super().__init__(message)
        self.solver = solver
        self.x = x
        self.t = t
