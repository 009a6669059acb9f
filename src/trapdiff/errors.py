"""Exception types shared across the package."""


class NumericFailureError(RuntimeError):
    """A numerical routine produced a non-finite or unusable result.

    The ``context`` dict carries the offending point (contour node,
    eigenvalue, solver, time, spatial position) for diagnosis; the
    message ends with it.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def __str__(self) -> str:
        message = super().__str__()
        where = ", ".join(f"{k}={v}" for k, v in self.context.items())
        return f"{message} ({where})" if where else message


class DegenerateSpectrumError(NumericFailureError):
    """A discrete-ordinates eigenvalue collided with a quadrature ray."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not certify the requested tolerance."""

    def __init__(self, message: str, estimate=None, bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound
