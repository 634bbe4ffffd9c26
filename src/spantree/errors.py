"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes: malformed inputs and configs
are reported separately from numeric/domain failures.
"""


class SpanTreeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SpanTreeError):
    """Operands live in feature spaces of different dimension."""


class DegenerateStatistic(SpanTreeError):
    """A statistic is undefined for the given input (no edges, zero mean, ...)."""


class FitError(SpanTreeError):
    """The likelihood fit cannot be evaluated for the given model."""


class EventFileError(SpanTreeError):
    """An event file cannot be parsed."""


class ConfigError(SpanTreeError):
    """A run configuration is malformed or inconsistent."""


class CalibrationWorkerError(SpanTreeError, RuntimeError):
    """A calibration worker process died before it sent its results."""
