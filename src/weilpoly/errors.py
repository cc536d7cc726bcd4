"""The exception types a caller catches; a broken precondition raises ValueError."""


class WeilPolyError(Exception):
    """Base class for all package-specific errors."""


class NotPrimePower(WeilPolyError):
    """The integer is not of the form p^n with p prime."""


class ShapeMismatch(WeilPolyError):
    """Polynomial is not monic of an even degree 2g >= 2 with the
    paired-coefficient symmetry for the given q.

    Carries ``index``: -1 for the degree, 2g for monicity, else the first
    coefficient index where the pairing fails.
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
