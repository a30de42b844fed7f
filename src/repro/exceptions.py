"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A graph is malformed or an operation received an invalid graph."""


class NodeError(GraphError):
    """A node id is out of range or otherwise invalid for the graph."""

    def __init__(self, node: int, num_nodes: int) -> None:
        super().__init__(
            f"node {node} is not a valid node id for a graph with "
            f"{num_nodes} nodes (valid ids are 0..{num_nodes - 1})"
        )
        self.node = node
        self.num_nodes = num_nodes


class DisconnectedGraphError(GraphError):
    """An operation requiring connectivity was run on a disconnected graph."""


class TopologyError(ReproError):
    """A topology generator received inconsistent parameters."""


class SamplingError(ReproError):
    """A receiver-sampling request cannot be satisfied.

    For example: asking for more distinct receivers than there are eligible
    sites in the network.
    """


class AnalysisError(ReproError):
    """An analytical routine received parameters outside its domain."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured."""


class SegmentError(ReproError, ValueError):
    """A shared segment holds another schema, generation or size.

    Raised by :func:`repro.utils.segment.open_segment`; a
    ``ValueError`` too, so callers checking for bad input catch it.
    """
