"""Exception types shared across the package.

Everything raised on purpose derives from GevreyError so the CLI can
separate "the experiment failed to run" (exit 1) from "the experiment ran
and a verdict failed" (exit 2, no exception involved).
"""


class GevreyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(GevreyError):
    """Invalid grid/evolution/damping parameters or config file contents;
    key is the dotted config key rejected, where the config names one."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConfigParseError(ConfigurationError):
    """Config text could not be parsed; message carries line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class SymmetryError(GevreyError):
    """A half spectrum whose k = 0 or k = N/2 entry is not real, so it
    describes no real field."""


class OverflowGuardError(GevreyError):
    """A weighted norm or functional left double-precision range, as it
    does wherever a kept coefficient's weight cosh(sigma xi) overflows; the
    message names the state and sigma."""


class DivergenceError(GevreyError):
    """Blow-up abort: non-finite samples or amplitude beyond the 1e6 cap,
    or the damping-norm series asked for outside its domain sigma * R < 1."""


class UnderresolvedError(GevreyError):
    """Too few usable Fourier modes above the noise floor for a radius fit."""


class FitError(GevreyError):
    """A least-squares fit was requested with too few points."""
