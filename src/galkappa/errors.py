"""Exception types shared across the package."""


class GalkappaError(Exception):
    """Base class for all package-specific errors."""


class RegistryMismatch(GalkappaError):
    """Two expressions built over different symbol registries were combined."""


class NotInvertible(GalkappaError):
    """Division by a symbol that was not registered as invertible."""


class ShapeError(GalkappaError):
    """Matrix operands have incompatible shapes."""


class DegreeOverflow(GalkappaError):
    """A normal-form computation exceeded the configured degree guards."""


class NotCentral(GalkappaError):
    """An element claimed to be central fails to commute with a generator."""


class BadSpin(GalkappaError):
    """Spin label outside the supported set."""


class BadRank(GalkappaError):
    """Multispinor rank must be an integer in 1..4."""


class BadMass(GalkappaError):
    """The mass generator is not m times the identity."""


class BadParameter(GalkappaError):
    """A user-supplied parameter is outside its documented domain."""


class CovarianceFailure(GalkappaError):
    """No constant transformation matrix satisfies the covariance equation."""


class RedundancyClaimFailure(GalkappaError):
    """The reduced multispinor operator does not match the claimed form."""


class AlgebraFileError(GalkappaError):
    """Syntax or consistency error in a structure-constant file.

    Carries the 1-based line number when the problem is tied to a line.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
