"""The package's one exception type for numerical failures."""


class NumericFailureError(RuntimeError):
    """A numerical routine produced an unusable or uncertified result.

    The ``context`` dict carries the offending point (contour node,
    eigenvalue, solver, time, spatial position, or a quadrature's
    estimate and error bound) for diagnosis; the message ends with it.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def __str__(self) -> str:
        message = super().__str__()
        where = ", ".join(f"{k}={v}" for k, v in self.context.items())
        return f"{message} ({where})" if where else message

