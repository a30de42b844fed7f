"""Read-only shared-memory store for estimator tables.

The fleet's workers all serve the same :class:`EstimatorTable` grids,
and those grids are by far the most expensive thing a serving process
builds (a full Monte-Carlo sweep per topology).  The supervisor
therefore builds each table set exactly once, serializes the grids into
one shared-memory segment with :func:`publish_tables`, and every worker
attaches zero-copy views with :func:`attach_tables`.

The segment is a ``table store`` schema over :mod:`repro.utils.segment`
(which owns the byte layout): per table, in sorted key order, the
``sizes`` int64, ``tree_size`` float64 and ``mean_path`` float64 grids,
plus JSON metadata carrying everything scalar about each table (key,
name, mode, source, error bound, algorithm).  A descriptor — segment
name, generation, byte size — is all a worker needs to reconstruct the
full table dict.

Zero-downtime reload rides on POSIX unlink semantics: the supervisor
publishes generation ``g+1`` as a *new* segment, tells workers to
attach-and-swap, and only then unlinks generation ``g``.  Workers still
holding views over the old segment keep a valid mapping until their
last view dies, and not a moment longer; new attachments can only land
on the new generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.serve.tables import EstimatorTable
from repro.utils.segment import SegmentHandle, create_segment, open_segment

__all__ = [
    "TableStoreDescriptor",
    "attach_tables",
    "publish_tables",
]

_SEGMENT_SCHEMA = ("table store", 1)


@dataclass(frozen=True)
class TableStoreDescriptor:
    """A picklable token naming one published table-store generation.

    Like :class:`~repro.graph.core.SharedGraphDescriptor`, this is what
    crosses the process boundary — a few dozen bytes however many knots
    the grids hold; never the tables themselves.
    """

    name: str
    generation: int
    nbytes: int


def publish_tables(
    tables: Dict[Tuple[str, ...], EstimatorTable], generation: int
) -> SegmentHandle:
    """Serialize a table set into one shared segment (one copy total).

    Keys are stored verbatim — the service's ``(name, mode,
    algorithm)`` — so the worker's attached dict mirrors the
    supervisor's exactly.  The
    supervisor must :meth:`~SegmentHandle.release` each generation
    exactly once when it retires; attached workers never unlink.
    """
    entries = []
    arrays = {}
    for i, (key, table) in enumerate(sorted(tables.items())):
        entries.append(
            {
                "key": list(key),
                "name": table.name,
                "mode": table.mode,
                "source": table.source,
                "rel_error_bound": table.rel_error_bound,
                "algorithm": table.algorithm,
            }
        )
        arrays[f"{i}.sizes"] = np.ascontiguousarray(table.sizes, dtype=np.int64)
        arrays[f"{i}.tree_size"] = np.ascontiguousarray(
            table.tree_size, dtype=np.float64
        )
        arrays[f"{i}.mean_path"] = np.ascontiguousarray(
            table.mean_path, dtype=np.float64
        )
    handle = create_segment(
        *_SEGMENT_SCHEMA, arrays, generation=int(generation), meta=entries
    )
    handle.descriptor = TableStoreDescriptor(
        name=handle.name, generation=int(generation), nbytes=handle.nbytes
    )
    return handle


def attach_tables(
    descriptor: TableStoreDescriptor,
) -> Dict[Tuple[str, ...], EstimatorTable]:
    """Reconstruct the table dict as zero-copy, read-only views.

    The segment stays mapped exactly as long as some returned table's
    grids are reachable, so the dict can be handed to
    :meth:`EstimationService.install_tables` and forgotten — the
    mapping survives the supervisor's unlink until the tables do.
    Raises :class:`ValueError` when the descriptor's generation (or the
    segment's schema) does not match.
    """
    segment = open_segment(
        *_SEGMENT_SCHEMA, name=descriptor.name, generation=descriptor.generation
    )
    tables: Dict[Tuple[str, ...], EstimatorTable] = {}
    for i, entry in enumerate(segment.meta):
        tables[tuple(entry["key"])] = EstimatorTable(
            name=entry["name"],
            mode=entry["mode"],
            sizes=segment.arrays[f"{i}.sizes"],
            tree_size=segment.arrays[f"{i}.tree_size"],
            mean_path=segment.arrays[f"{i}.mean_path"],
            source=entry["source"],
            rel_error_bound=float(entry["rel_error_bound"]),
            algorithm=str(entry["algorithm"]),
        )
    return tables
