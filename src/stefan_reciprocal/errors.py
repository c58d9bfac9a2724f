"""Exception hierarchy shared across the package."""


class StefanError(Exception):
    """Base class for all library errors."""


class InvalidParameters(StefanError, ValueError):
    """Physical parameters or configuration violate a documented invariant."""


class NoSignChange(StefanError):
    """G - F does not change sign on the root bracket; no admissible root."""


class DomainError(StefanError):
    """Evaluation requested outside the phase region 0 <= y <= S(t), t > 0."""


class QuadratureFailure(StefanError):
    """Adaptive quadrature missed its tolerance; ``interval`` indexes the worst integral."""

    def __init__(self, message: str, interval: int = 0):
        super().__init__(message)
        self.interval = interval


class OutOfRange(StefanError):
    """Requested coordinate lies outside the invertible interval."""


class NotMonotone(StefanError):
    """x*(., t) is not certified monotone on [0, S(t)]; the message says why."""


class StabilityViolation(StefanError):
    """Time step exceeds the advection stability bound of the marching scheme."""


class NonmonotoneFront(StefanError):
    """The numerical front position failed to increase over a step."""
