"""Shared exception hierarchy.

The CLI maps these to exit codes: UsageError -> 1, DataError -> 2,
NumericError -> 3, WorkerPoolError -> 4. A module defines a subclass
only for an error that some code catches by that class; every other error
a command can meet is one of these five. Caller bugs that no command reaches
(an empty batch, an unknown task name given to a library function, a loss
that is not a scalar) raise ValueError or TypeError.
"""


class ConsSentError(Exception):
    """Base class for every error raised by this package."""


class UsageError(ConsSentError):
    """Bad configuration, bad flags, or API misuse."""


class DataError(ConsSentError):
    """Input data cannot be processed as requested."""


class NumericError(ConsSentError):
    """Numeric failure: non-finite values or a failed gradient check."""


class WorkerPoolError(ConsSentError):
    """A worker process died before a parallel map finished."""
