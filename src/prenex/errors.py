"""Exception taxonomy shared across the package."""

__all__ = [
    "PrefixError",
    "PrefixSyntaxError",
    "DuplicateVariableError",
    "EmptyPrefixError",
    "VariableSetMismatchError",
    "LengthMismatchError",
    "InstanceTooLargeError",
]


class PrefixError(Exception):
    """Base class for all errors raised by this package."""


class PrefixSyntaxError(PrefixError):
    """A prefix text does not match the grammar."""


class DuplicateVariableError(PrefixError):
    """A variable name is quantified more than once in a single prefix."""


class EmptyPrefixError(PrefixError):
    """A prefix quantifies no variables (n = 0 is not allowed)."""


class VariableSetMismatchError(PrefixError):
    """Two prefixes do not quantify the same set of variable names."""


class LengthMismatchError(PrefixError):
    """Two prefixes have different lengths."""


class InstanceTooLargeError(PrefixError):
    """An exhaustive operation was asked to run above its size cap."""
