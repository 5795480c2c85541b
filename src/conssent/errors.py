"""Shared exception hierarchy.

Each class carries the CLI's exit code and stderr label for it
(``exit_code``, ``label``), and a subclass inherits its parent's: these
classes are the one table of both. A module defines a subclass
only for an error that some code catches by that class; every other error
a command can meet is one of these five. Caller bugs that no command reaches
(an empty batch, an unknown task name given to a library function, a loss
that is not a scalar) raise ValueError or TypeError.
"""


class ConsSentError(Exception):
    """Base class for every error raised by this package."""

    exit_code, label = 1, "error"


class UsageError(ConsSentError):
    """Bad configuration, bad flags, or API misuse."""


class DataError(ConsSentError):
    """Input data cannot be processed as requested."""

    exit_code, label = 2, "data error"


class NumericError(ConsSentError):
    """Numeric failure: non-finite values or a failed gradient check."""

    exit_code, label = 3, "numeric error"


class WorkerPoolError(ConsSentError):
    """A worker process died before a parallel map finished."""

    exit_code, label = 4, "worker error"
