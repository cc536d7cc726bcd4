"""The exception types a caller catches; a broken precondition raises ValueError."""


class WeilPolyError(Exception):
    """Base class for all package-specific errors."""


class NotPrimePower(WeilPolyError):
    """The integer is not of the form p^n with p prime."""


class ShapeMismatch(WeilPolyError):
    """Polynomial fails the paired-coefficient symmetry for the given (g, q).

    Carries ``index``, the first coefficient index where the pairing fails
    (or -1 for degree/monicity failures).
    """

    def __init__(self, message, index=-1):
        super().__init__(message)
        self.index = index


class InvalidTuple(WeilPolyError):
    """Parameter tuple violates one or more construction preconditions.

    Carries ``failures``, the failed PreconditionCheck records.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)
