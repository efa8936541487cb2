"""Exception types shared across the lab."""


class SdofLabError(Exception):
    """Base class for all library errors."""


# -- schedules / channel model ------------------------------------------------

class ScheduleError(SdofLabError):
    pass


class SumNotOne(ScheduleError):
    pass


class NegativeFraction(ScheduleError):
    pass


class SymmetryViolated(ScheduleError):
    pass


class MixedArity(ScheduleError):
    pass


class RankDeficiencyPersistent(SdofLabError):
    pass


# -- precoding ----------------------------------------------------------------

class OverConstrained(SdofLabError):
    pass


# -- scheme library / execution -----------------------------------------------

class UnknownScheme(SdofLabError):
    pass


class BadParams(SdofLabError):
    pass


class CsitViolation(SdofLabError):
    pass


class RealizationTooShort(SdofLabError):
    pass


class IncompleteTrace(SdofLabError):
    pass


class UnknownSymbolId(SdofLabError):
    pass


class NonPositiveSubDof(SdofLabError):
    pass


# -- analysis -----------------------------------------------------------------

class EmptySystem(SdofLabError):
    pass


class GridTooSmall(SdofLabError):
    pass


class DimensionTooLarge(SdofLabError):
    pass


# -- regions ------------------------------------------------------------------

class UnknownTheorem(SdofLabError):
    pass


class ArityMismatch(SdofLabError):
    pass


class Unbounded(SdofLabError):
    pass


class BadWeights(SdofLabError):
    pass


class UnknownVariable(SdofLabError):
    pass


class InnerNotContained(SdofLabError):
    pass
