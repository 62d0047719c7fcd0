"""Exception hierarchy shared by all milnorforge modules."""


class MilnorForgeError(Exception):
    """Base class for all errors raised by this package."""


class SelfCheckFailed(MilnorForgeError):
    """An internal consistency check failed; it runs under python -O too."""


# --- arithmetic substrate ---

class NotPrime(MilnorForgeError):
    pass


class FieldTooLarge(MilnorForgeError):
    pass


class ZeroPolynomial(MilnorForgeError):
    pass


class NewtonConditionFails(MilnorForgeError):
    pass


class NotAUnit(MilnorForgeError):
    pass


class ZeroElement(MilnorForgeError):
    pass


class PrecisionTooLowToReduce(MilnorForgeError):
    pass


# --- symbol algebra ---

class ZeroEntry(MilnorForgeError):
    pass


class ContextMismatch(MilnorForgeError):
    pass


class PatternMismatch(MilnorForgeError):
    pass


class DegreeTooLarge(MilnorForgeError):
    pass


# --- local K-theory ---

class NonUnitEntry(MilnorForgeError):
    pass


class BadModulus(MilnorForgeError):
    pass


class PiEntryPresent(MilnorForgeError):
    pass


class BadPrime(MilnorForgeError):
    pass


class ZeroInput(MilnorForgeError):
    pass


class PrecisionTooLow(MilnorForgeError):
    pass


class SweepTooLarge(MilnorForgeError):
    """The quadratic-form oracle's sweep would exceed its size bound."""


# --- function fields / norms ---

class NotMonic(MilnorForgeError):
    pass


class NotIrreducible(MilnorForgeError):
    pass


class EliminationFailed(MilnorForgeError):
    pass


# --- rational ring ---

class ResidueReducible(MilnorForgeError):
    pass


# --- input at the trust boundaries ---

class MixedCharRejected(MilnorForgeError):
    pass


class BadInput(MilnorForgeError):
    """Input that cannot be parsed or is out of contract, such as a class
    whose degree an operation does not accept."""
