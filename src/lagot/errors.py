"""Exception hierarchy shared by all lagot modules."""


class LagotError(Exception):
    """Base class for every error raised by this package."""


# measures
class EmptyMeasure(LagotError):
    pass


class WeightSumMismatch(LagotError):
    pass


class DimensionMismatch(LagotError):
    pass


# costs
class UnknownCost(LagotError):
    pass


class BadParam(LagotError):
    pass


class AssumptionRefused(LagotError):
    pass


# solver
class Infeasible(LagotError):
    pass


# paths
class BadHorizon(LagotError):
    pass


class DegenerateSet(LagotError):
    pass


class DimensionTooSmall(LagotError):
    pass


class CoincidentPoints(LagotError):
    pass


# ensembles
class MissingBound(LagotError):
    pass


class BoundViolated(LagotError):
    pass


class InfeasibleBound(LagotError):
    pass


class NoFeasiblePath(LagotError):
    pass


# harness
class ConfigInvalid(LagotError):
    pass


class UnknownKind(LagotError):
    pass
