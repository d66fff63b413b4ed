"""Exception types shared across the package; UnknownVertex is also a PreconditionViolated."""

from __future__ import annotations


class PCGraphError(Exception):
    """Base class for every error raised by this package."""


class SelfLoop(PCGraphError):
    pass


class DuplicateEdge(PCGraphError):
    pass


class MissingEdge(PCGraphError):
    pass


class RepeatedVertex(PCGraphError):
    pass


class TooSmall(PCGraphError):
    pass


class TooLarge(PCGraphError):
    pass


class NotAPartition(PCGraphError):
    pass


class BadPartition(PCGraphError):
    pass


class BadLength(PCGraphError):
    pass


class NotStronglyConnected(PCGraphError):
    pass


class NotATournament(PCGraphError):
    pass


class PreconditionViolated(PCGraphError):
    """Carries which precondition failed ("size", "connectivity", "disjointness", ...)."""

    def __init__(self, which: str, message: str = ""):
        self.which = which
        super().__init__(f"{which}: {message}" if message else which)


class UnknownVertex(PreconditionViolated):
    """The one vertex check of graphs and digraphs: which is "vertex", the message unprefixed."""

    def __init__(self, message: str):
        self.which = "vertex"
        PCGraphError.__init__(self, message)


class IncompatibleFunction(PCGraphError):
    pass


class FiberTooLarge(PCGraphError):
    pass


class CycleNotInDigraph(PCGraphError):
    pass


class VertexOnCycle(PCGraphError):
    pass


class MonochromaticTrianglePresent(PCGraphError):
    pass


class BudgetExhausted(PCGraphError):
    pass


class ResultMismatch(PCGraphError):
    pass


class InvalidInstance(PCGraphError):
    pass


class InternalError(PCGraphError):
    """A construction the theory guarantees has failed.

    This is the falsification alarm: it carries the offending instance so a
    harness can dump it for inspection instead of silently dying.
    """

    def __init__(self, message: str, instance=None, context=None):
        self.instance = instance
        self.context = context or {}
        super().__init__(message)
