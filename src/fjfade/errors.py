"""Exception types raised across the package."""


class FjfadeError(Exception):
    """Base class for all package errors."""


class InvalidParameter(FjfadeError):
    """A parameter is outside its documented domain."""


class DimensionMismatch(FjfadeError):
    """Vector or matrix shapes are inconsistent."""


class DisconnectedNetwork(FjfadeError):
    """An operation requires a connected network."""


class ConvergenceFailure(FjfadeError):
    """The auto tstar search's certificate did not fire within `deviation.MAX_STEPS` steps."""


class NonUniformUnsupported(FjfadeError):
    """The operation is defined only for uniform (scalar) schedules."""


class NonVanishingSchedule(FjfadeError):
    """The operation requires lambda_t -> 0."""


class ConsensusInitialCondition(FjfadeError):
    """x0 is (numerically) a multiple of the all-ones vector, so ratios are undefined."""


class AsymmetricWeights(FjfadeError):
    """The operation requires a symmetric weight matrix."""


class NoStrictDrop(FjfadeError):
    """The consensus value is not strictly below the target's initial opinion."""


class ConfigError(FjfadeError):
    """An experiment config failed to parse or validate."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        loc = []
        if field is not None:
            loc.append(f"field {field!r}")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.line = line
        self.field = field
