"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: invalid input/parameters -> 2,
cap/budget exhaustion -> 3, checked verification failures -> 1 (those are
not exceptions but report fields). InternalInvariantError signals a bug in
this package, never a user error; it, a bare LllToolError and any other
unexpected exception -> 4.
"""


class LllToolError(Exception):
    pass


class InvalidInputError(LllToolError):
    """Malformed problem/graph/table/sequence data."""


class InvalidParameterError(LllToolError):
    """Parameter outside its documented range."""


class MissingVariableError(InvalidInputError):
    """A labeling is undefined on a variable the operation must read."""


class DepthExceededError(LllToolError):
    """A table row beyond the truncation depth would be read."""


class ScriptError(InvalidInputError):
    """A scripted resampling step is not available at its iteration."""


class CapExceededError(LllToolError):
    """An enumeration or materialization cap was hit."""


class SearchBudgetError(CapExceededError):
    """A search exceeded its node budget; the verdict is unknown."""


class HypothesisError(LllToolError):
    """A required hypothesis fails for the supplied problem or parameters."""


class InternalInvariantError(LllToolError):
    """A guaranteed-by-theory step failed; indicates a bug, not bad input."""
