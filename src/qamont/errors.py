"""Exception types shared across the package.

Construction and input problems raise plain ``ValueError`` (or the
``ParseError`` subclass when a textual token is to blame).  The remaining
types exist so callers, in particular the command line front end, can tell
a violated precondition apart from an internal guard tripping.
"""


class ParseError(ValueError):
    """A textual input (link expression or graph file) failed to parse."""


class NotNegativeDefiniteError(ValueError):
    """An operation that requires a negative definite form received one that is not."""


class InternalError(RuntimeError):
    """An internal guard tripped: a guaranteed invariant failed, which is a bug."""


class StepLimitError(InternalError):
    """The step guard of an iterative algorithm fired; indicates a caller bug."""
