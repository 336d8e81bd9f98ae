"""Exception taxonomy shared across the package.

Input problems (bad arguments, malformed files, unknown presets) raise
InputError, a ValueError; violated numerical contracts raise
NumericsError subclasses.  The CLI maps InputError to exit code 2, and
NumericsError and numpy's LinAlgError (a factorization numpy could not
finish) to 1; any other exception is a fault of the program and propagates.
"""


class SchromagError(Exception):
    pass


class InputError(SchromagError, ValueError):
    """Malformed user input: files, preset names, out-of-range options."""


class NumericsError(SchromagError):
    """A numerical contract did not hold (residual, spectrum, encoding)."""


class SingularMatrixError(NumericsError):
    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ConvergenceError(NumericsError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SpectrumBoundsError(NumericsError):
    """Declared spectrum bounds do not bracket the actual spectrum."""


class EncodingError(NumericsError):
    def __init__(self, message, measured=None, claimed=None):
        super().__init__(message)
        self.measured = measured
        self.claimed = claimed
