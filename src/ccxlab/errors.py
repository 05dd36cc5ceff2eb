"""Exception taxonomy: an error's ``category`` and CLI exit code say which kind
of failure it is, and its message names what failed.

Every check in the package raises a ``CcxlabError``, so the CLI reports each
one with its category and exit code, and never as a traceback. A built-in
exception that escapes, such as numpy's own ``ValueError``, is a bug.

- ``UsageError`` (exit 2): an argument the API or CLI does not take, such as an
  unknown or non-native gate, too many qubits, repeated or negative qubit
  roles, qubits off a path, a bad probe label, Pauli setting or k, a shot count
  out of range, or a qubit without calibration. It is also a ``ValueError``,
  as ``json.JSONDecodeError`` is, so a caller that catches ``ValueError`` for a
  bad argument still catches it.
- ``SchemaError`` (exit 3): a file that fails validation (T1/T2 outside
  0 < T2 <= 2*T1 too) or cannot be read or written. ``ParseError`` is the one
  for a circuit text line, and carries its number and reason.
- ``CcxlabError`` itself (exit 4): a numerical domain error, such as a matrix
  that is not Hermitian, PSD or unitary, mismatched shapes, a gate error too
  large to model, or a projection that hit its step cap.
"""


class CcxlabError(Exception):
    category = "numerical"
    exit_code = 4


class UsageError(CcxlabError, ValueError):
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
