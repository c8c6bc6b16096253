"""Exception hierarchy shared by every module.

The three branches map onto the CLI exit codes: bad input (1), a configured
cap or size limit hit (2), and an internal construction invariant that failed
its self-check (3).
"""


class TreeNullityError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TreeNullityError):
    """Invalid user-supplied data (sequence text, edge lists, labels)."""


class ParseError(InputError):
    """Sequence text that does not tokenize into ASCII integers."""


class InvalidDegree(InputError):
    """A degree entry that is no int, or one smaller than 1."""


class NotTreeSum(InputError):
    """Degree entries that do not sum to 2n - 2."""


class TooSmall(InputError):
    """Fewer than two degree entries."""


class NotConnected(InputError):
    """Edge set that does not span a single component."""


class WrongEdgeCount(InputError):
    """Edge set whose size differs from n - 1."""


class LoopOrDuplicate(InputError):
    """A self-loop or a repeated edge."""


class LabelOutOfRange(InputError):
    """A vertex label outside 1..n."""


class LimitError(TreeNullityError):
    """A configured cap or size limit was exceeded."""


class SizeLimitExceeded(LimitError):
    """Tree too large for the GF(2) rank elimination (exact on forests, where
    the rank is 2 * nu over every field)."""


class EnumerationCapExceeded(LimitError):
    """More labeled trees than the enumeration cap allows."""


class ConstructionInvariantViolated(TreeNullityError):
    """A constructor's internal self-check failed; indicates a bug, never
    silently ignored."""
