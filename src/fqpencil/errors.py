"""Exception types shared across the library."""


class FqPencilError(Exception):
    """Base class for all library errors."""


class NotPrime(FqPencilError):
    pass


class DegreeOutOfRange(FqPencilError):
    pass


class IncompatibleTower(FqPencilError):
    pass


class ZeroOrConstant(FqPencilError):
    pass


class InseparableInput(FqPencilError):
    pass


class CharacteristicDividesDegree(FqPencilError):
    pass


class BasePointOnCurve(FqPencilError):
    pass


class CharacteristicObstruction(FqPencilError):
    pass


class HypothesisViolation(FqPencilError):
    pass


class DegreeTooSmall(FqPencilError):
    pass


class NotFoundWithinBudget(FqPencilError):
    pass


class GenericPointNotFound(NotFoundWithinBudget):
    pass


class ConstraintViolation(FqPencilError):
    pass


class ParseError(FqPencilError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariable(ParseError):
    pass
