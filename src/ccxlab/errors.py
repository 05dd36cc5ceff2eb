"""Exception taxonomy.

Every error carries a machine-parseable ``category`` and the CLI exit code
for that category: 2 usage, 3 schema/file, 4 numerical.
"""


class CcxlabError(Exception):
    category = "numerical"
    exit_code = 4


class UsageError(CcxlabError):
    category = "usage"
    exit_code = 2


class SchemaError(CcxlabError):
    """A file failed schema validation; message names the offending path."""

    category = "schema"
    exit_code = 3


class ParseError(SchemaError):
    def __init__(self, line_number, reason):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class CoherenceViolation(SchemaError):
    """T1/T2 outside 0 < T2 <= 2*T1, in a calibration record or a relaxation channel."""


class IoError(SchemaError):
    """A report file could not be written or read, or a calibration file could not be read."""


# -- numerical / linear-algebra domain errors (exit code 4) ------------------

class NotHermitianError(CcxlabError):
    pass


class NotPSDError(CcxlabError):
    pass


class NotUnitaryError(CcxlabError):
    pass


class DimensionMismatchError(CcxlabError):
    pass


class ErrTooLargeError(CcxlabError):
    pass


class ProjectionNotConvergedError(CcxlabError):
    """An iterative projection hit its step cap; the message names the residual."""


# -- API misuse (exit code 2 when reached from the CLI) ----------------------

class UnknownGateError(UsageError):
    pass


class TooManyQubitsError(UsageError):
    pass


class NonNativeGateError(UsageError):
    pass


class NonPathQubitsError(UsageError):
    pass


class InvalidLabelError(UsageError):
    pass


class InvalidPauliStringError(UsageError):
    pass


class KOutOfRangeError(UsageError):
    pass


class MissingCalibrationError(UsageError):
    pass
