# Exception hierarchy shared by all modules.


class OscPurityError(Exception):
    """Base class for all errors raised by this package."""


class DerivativeUndefined(OscPurityError):
    """Requested a derivative of a discontinuous (top-hat) coupling profile."""


class CriticalPoint(OscPurityError):
    """The coupling sits exactly at the critical value; the requested
    closed form is singular there and callers must branch."""


class StepFailure(OscPurityError):
    """The adaptive integrator could not meet its error tolerances."""


class QuadratureNoConvergence(OscPurityError):
    """Adaptive quadrature exhausted its subdivision depth."""


class SupercriticalExcursion(OscPurityError):
    """The coupling exceeds the critical value somewhere on a grid that
    requires a subcritical profile throughout."""


class PrecisionFloor(OscPurityError):
    """A purity deficit fell below double-precision resolution; the point
    is flagged rather than fabricated."""


class NoThreshold(OscPurityError):
    """A threshold scan criterion was never met on the supplied grid."""


class ConfigError(OscPurityError):
    """Malformed scenario configuration (unknown, duplicate or missing keys)."""


class InvalidCaseWarning(UserWarning):
    """Parameters lie far outside the asymptotic domain of a requested
    expansion case; the formula is still evaluated."""

