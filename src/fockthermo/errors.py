"""Exception hierarchy shared by all modules."""


class FockThermoError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(FockThermoError):
    """Fock-space dimension is too small or inconsistent between operands."""


class DomainError(FockThermoError):
    """A parameter lies outside its physical domain (e.g. T <= 0)."""


class TruncationError(FockThermoError):
    """Fock-space cutoff is insufficient; rerun with a larger dimension."""


class PositivityError(FockThermoError):
    """Populations went negative by more than roundoff can explain."""


class SingularSupportError(FockThermoError):
    """Fisher sum diverges: a zero-probability outcome carries a finite derivative."""


class InsufficientDataError(FockThermoError):
    """Not enough usable points for a fit."""


class SweepError(FockThermoError):
    """Parameter sweep failed as a whole (more than half of the points errored)."""


class ConfigError(FockThermoError):
    """Command-line or config-file input could not be parsed or validated."""
