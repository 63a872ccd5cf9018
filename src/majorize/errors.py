"""Exception hierarchy. Every failure mode raises a subclass of MajorizeError."""


class MajorizeError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(MajorizeError):
    """Input vector has no entries."""


class NegativeEntryError(MajorizeError):
    """An entry is negative beyond the clamping tolerance."""


class NotNormalizedError(MajorizeError):
    """Vector sum is too far from one under the reject policy."""


class ZeroSumError(MajorizeError):
    """Vector sum is not positive, so it cannot be renormalized."""


class ZeroDimensionError(MajorizeError):
    """Requested dimension is smaller than one."""


class DimensionMismatchError(MajorizeError):
    """Operands have different lengths."""


class InvalidDeltaError(MajorizeError):
    """Smoothing radius outside [0, 2]."""


class NotMajorizedError(MajorizeError):
    """A transfer plan was requested for a pair that is not ordered."""


class NegativeAlphaError(MajorizeError):
    """Entropy order must be nonnegative."""


class AlphaOutOfRangeError(MajorizeError):
    """Power-sum exponent must exceed one."""


class UnknownFunctionError(MajorizeError):
    """Function spec string does not name a registered functional."""


class FileFormatError(MajorizeError):
    """Input file could not be parsed as the expected format."""
