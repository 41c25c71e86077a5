"""Exception types shared across the package.

Everything raised on purpose derives from GevreyError so the CLI can
separate "the experiment failed to run" (exit 1) from "the experiment ran
and a verdict failed" (exit 2, no exception involved).  A failed step of
the integrator is a StepError, which carries its time t from the moment
it is built.  Every error survives pickling with its message and its
attributes (t, key, line, column), as a worker process must send it.
"""


def _restore(cls, args, attributes):
    # built without __init__, whose arguments args need not hold
    err = cls.__new__(cls, *args)
    err.__dict__.update(attributes)
    return err


class GevreyError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Exception's own reduce calls cls(*args), but args holds only the
        # message, not t or line and column
        return _restore, (type(self), self.args, self.__dict__)


class ConfigurationError(GevreyError):
    """Invalid grid/evolution/damping parameters or config file contents; key names the value
    rejected: a type's parameter (N), which config._from_section makes its dotted key (grid.N)."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConfigParseError(ConfigurationError):
    """A TOML syntax error of config text, or a rejected key that the text sets, at its line and column."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


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


class StepError(GevreyError):
    """A step of dynamics.integrate failed at time t, given to the
    constructor: t counts from the start of that call, or, once the
    scenario driver re-raises the error, from the start of the run.  key
    names the parameter to lower to avoid the failure (dt, or evolution.dt
    once re-raised), or is None.  Each of the two kinds also derives from
    the type that says what failed, which an except clause may name instead."""

    def __init__(self, message, t, key=None):
        super().__init__(message)
        self.t = t
        self.key = key


class BlowUpError(StepError, DivergenceError):
    """A state that is not finite, or whose amplitude passed the 1e6 cap, at time t."""


class DtGuardError(StepError, ConfigurationError):
    """dt exceeds the advective guard 0.5 dx / (max|u|^2 + sup a + 1) at time t; keyed dt."""


class UnderresolvedError(GevreyError):
    """Too few usable Fourier modes above the noise floor for a radius fit."""


class FitError(GevreyError):
    """A least-squares fit was requested with too few points."""
