"""Exception types shared across the package."""


class WeilPolyError(Exception):
    """Base class for all package-specific errors."""


# -- number theory --------------------------------------------------------

class NotPrimePower(WeilPolyError):
    """The integer is not of the form p^n with p prime."""


class NotCoprime(WeilPolyError):
    """gcd(r, n) > 1 where coprimality was required."""


class NotInvertible(WeilPolyError):
    """No inverse exists modulo the given modulus."""


# -- integer polynomials ---------------------------------------------------

class ZeroPolynomial(WeilPolyError):
    """Operation undefined for the zero polynomial."""


class ShapeMismatch(WeilPolyError):
    """Polynomial fails the paired-coefficient symmetry for the given (g, q).

    Carries ``index``, the first coefficient index where the pairing fails
    (or -1 for degree/monicity failures).
    """

    def __init__(self, message, index=-1):
        super().__init__(message)
        self.index = index


# -- polynomials over prime fields -----------------------------------------

class ModulusMismatch(WeilPolyError):
    """Operands live over different prime fields."""


class NotSquarefree(WeilPolyError):
    """A squarefree polynomial was required."""


# -- root analysis ----------------------------------------------------------

class NotSymmetric(WeilPolyError):
    """Input polynomial lacks the required (g, q) symmetry."""


class EndpointRoot(WeilPolyError):
    """The polynomial vanishes at an interval endpoint of a Sturm count."""


class WrongDimension(WeilPolyError):
    """Operation requires a specific dimension g."""


class NoConvergence(WeilPolyError):
    """Numeric root iteration failed to certify within the iteration cap.

    Carries ``partial``, the best root approximations found.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


# -- engine ------------------------------------------------------------------

class InvalidTuple(WeilPolyError):
    """Parameter tuple violates one or more construction preconditions.

    Carries ``failures``, the list of failed precondition names.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)
