"""Exception types shared across the package."""


class WittCalcError(Exception):
    """Base class for all library errors."""


class ZeroElement(WittCalcError):
    pass


class BadBackend(WittCalcError):
    pass


class BackendMismatch(WittCalcError):
    pass


class BadPlace(WittCalcError):
    pass


class OrderingLengthMismatch(WittCalcError):
    pass


class FactorLimitExceeded(WittCalcError):
    pass


class OrderingLimitExceeded(WittCalcError):
    pass


class DegreeOutOfRange(WittCalcError):
    pass


class DegenerateMatrix(WittCalcError):
    pass


class UnsupportedBackend(WittCalcError):
    pass


class ZeroFactor(WittCalcError):
    pass


class SizeMismatch(WittCalcError):
    pass


class NotInDn(WittCalcError):
    pass


class WrongTarget(WittCalcError):
    pass


class InconsistentAction(WittCalcError):
    pass


class NotInIdealPower(WittCalcError):
    pass


class NotInSpan(WittCalcError):
    pass


class ResidualNonConstant(WittCalcError):
    pass


class InvalidInput(WittCalcError):
    pass
