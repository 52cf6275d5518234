"""Exception hierarchy shared across the library.

Each branch carries the CLI exit code it maps to:
2 for malformed input or misuse, 1 for a failed mathematical hypothesis,
3 for exhausted resource limits.
"""


class UsageError(Exception):
    exit_code = 2


class ParseError(UsageError):
    """Syntax error in a session file, with position and expected-token info."""

    def __init__(self, message, line=None, column=None, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        loc = ""
        if line is not None:
            loc = f" at line {line}"
            if column is not None:
                loc += f", column {column}"
        hint = ""
        if self.expected:
            hint = " (expected " + " or ".join(self.expected) + ")"
        super().__init__(message + loc + hint)


class HypothesisError(Exception):
    """A mathematical hypothesis required by the operation does not hold."""

    exit_code = 1


class DimensionError(HypothesisError):
    """The quotient does not have the dimension the operation requires."""


class GeometryError(HypothesisError):
    """A geometric precondition fails; the message names a witness."""


class SelfCheckError(HypothesisError):
    """An invariant that should hold mathematically was violated.

    Raised instead of silently reporting wrong numbers; indicates either a bug
    or input outside every supported hypothesis.
    """


class ResourceError(Exception):
    exit_code = 3


class ExponentOverflowError(ResourceError, OverflowError):
    """A product of monomials has an exponent at or above the 16-bit limit.

    Also an OverflowError, so code that catches that keeps working."""


class DegreeCeilingError(ResourceError):
    """An intermediate basis computation exceeded the configured degree ceiling."""


class BudgetError(ResourceError):
    """An enumeration exceeded its point budget.

    ``partial`` holds whatever summary was assembled before the budget ran out,
    always marked as a lower bound by the caller.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
