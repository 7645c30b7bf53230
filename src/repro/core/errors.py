"""Exception hierarchy for the meta-dataflow library.

All library errors derive from :class:`MDFError` so that callers can catch a
single base class.  Specific subclasses signal structural problems with a
dataflow graph, invalid explore/choose usage, and execution-time failures.
"""

from __future__ import annotations


class MDFError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(MDFError):
    """A dataflow graph is structurally invalid (cycle, disconnected, ...)."""


class ValidationError(MDFError):
    """An MDF violates the structural constraints of Definition 3.1."""


class SchedulingError(MDFError):
    """The scheduler reached an inconsistent state (e.g. no runnable stage)."""


class ExecutionError(MDFError):
    """An operator function failed while executing a task."""

    def __init__(self, operator_name: str, message: str):
        super().__init__(f"operator {operator_name!r}: {message}")
        self.operator_name = operator_name
        self.message = message

    def __reduce__(self):
        # default exception pickling replays args=(formatted string,) into
        # __init__(operator_name, message); rebuild from the real parts so
        # the error survives a process boundary intact
        return (ExecutionError, (self.operator_name, self.message))


class FaultError(MDFError):
    """An injected node failure could not be recovered from."""
