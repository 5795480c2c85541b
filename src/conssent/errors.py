"""Shared exception hierarchy.

The CLI maps these to exit codes: UsageError -> 1, DataError -> 2,
NumericError -> 3, WorkerPoolError -> 4. A module defines a subclass
only for an error that some code catches by that class; everything else
is raised as one of these five.
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
