class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class SizeLimitError(RuntimeError):
    """Raised when a search or a build would exceed its documented size cap."""
