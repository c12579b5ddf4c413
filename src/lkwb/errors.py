"""Exception types shared by all lkwb modules."""


class LKWBError(Exception):
    """Base class for all workbench errors."""


class DivisionByZero(LKWBError, ZeroDivisionError):
    pass


class FieldMismatch(LKWBError):
    """Operands belong to different ground fields."""


class ExponentOverflow(LKWBError):
    """A Laurent exponent exceeded the bound 2^16 in absolute value."""


class DenominatorInL(LKWBError):
    """A Q(l,r) denominator involves l: values are Laurent polynomials in l over Q(r)."""


class PoleAtSpecialization(LKWBError):
    """Evaluation point is a pole of the rational function."""


class ZeroDivisorEncountered(LKWBError):
    """Inversion hit a zero divisor in a quotient ring (reducible modulus)."""


class NonSquare(LKWBError):
    pass


class AmbientMismatch(LKWBError):
    pass


class DimensionMismatch(LKWBError):
    pass


class SubmatrixNotFound(LKWBError):
    """No invertible submatrix of the requested size exists (rank < s)."""


class ParameterZero(LKWBError):
    pass


class SemisimplicityViolation(LKWBError):
    """r^(2k) = 1 for some k <= n: the Hecke-algebra semisimplicity guard fails."""


class RelationGateNotPassed(LKWBError):
    """A representation failed its defining-relation checks."""


class InfeasibleMode(LKWBError):
    """The requested computation mode is outside its configured size range."""


class DepthTooLarge(LKWBError):
    pass


class EmptyIntersection(LKWBError):
    """Signals a construction fault: an intersection expected nonzero was zero."""


class ZeroSeed(LKWBError):
    pass


class InvalidConfig(LKWBError):
    pass


class IoFailure(LKWBError):
    pass
