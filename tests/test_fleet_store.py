"""Tests for the fleet's shared-memory table store (publish/attach).

The store's contract: :func:`publish_tables` serializes a table dict
into one shared segment exactly once; :func:`attach_tables` rebuilds a
*bit-identical*, read-only, zero-copy view of it in any process holding
the descriptor; POSIX unlink semantics give zero-downtime generation
swaps (attached views outlive the creator's unlink, new attachments
cannot land on a retired generation).
"""

from __future__ import annotations

from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.serve.fleet.store import (
    TableStoreDescriptor,
    attach_tables,
    publish_tables,
)
from repro.serve.tables import EstimatorTable, log_spaced_sizes

pytestmark = pytest.mark.usefixtures("_no_leaked_segments")

MAPS = Path("/proc/self/maps")


def _still_mapped(names):
    maps = MAPS.read_text()
    return [name for name in names if name in maps]


def make_table(name: str, mode: str = "distinct", *, scale: float = 1.0):
    sizes = log_spaced_sizes(1, 100, points_per_decade=4)
    tree = scale * np.power(sizes.astype(float), 0.8) * 10.0
    path = np.full(sizes.shape, 9.5)
    return EstimatorTable(
        name=name,
        mode=mode,
        sizes=sizes,
        tree_size=tree,
        mean_path=path,
        source="closed-form",
        rel_error_bound=5e-3,
    )


def make_tables(scale: float = 1.0):
    return {
        ("arpa", "distinct", "spt"): make_table("arpa", scale=scale),
        ("arpa", "replacement", "spt"): make_table(
            "arpa", "replacement", scale=scale
        ),
        ("mbone", "distinct", "spt"): make_table("mbone", scale=scale),
    }


class TestPublishAttachRoundtrip:
    def test_roundtrip_is_bit_identical(self):
        tables = make_tables()
        handle = publish_tables(tables, generation=1)
        try:
            attached = attach_tables(handle.descriptor)
            assert set(attached) == set(tables)
            for key, original in tables.items():
                clone = attached[key]
                assert clone.name == original.name
                assert clone.mode == original.mode
                assert clone.source == original.source
                assert clone.rel_error_bound == original.rel_error_bound
                # Bit-identical grids, not merely approximately equal:
                # workers must answer byte-for-byte like the builder.
                assert np.array_equal(clone.sizes, original.sizes)
                assert np.array_equal(clone.tree_size, original.tree_size)
                assert np.array_equal(clone.mean_path, original.mean_path)
        finally:
            handle.release()

    def test_attached_lookup_matches_source_table(self):
        tables = make_tables()
        handle = publish_tables(tables, generation=3)
        try:
            attached = attach_tables(handle.descriptor)
            for key in tables:
                for m in (1, 7, 42, 100):
                    assert attached[key].lookup(m) == tables[key].lookup(m)
        finally:
            handle.release()

    def test_attached_views_are_read_only_and_zero_copy(self):
        handle = publish_tables(make_tables(), generation=1)
        try:
            attached = attach_tables(handle.descriptor)
            table = attached[("arpa", "distinct", "spt")]
            assert not table.tree_size.flags.writeable
            assert not table.sizes.flags.writeable
            with pytest.raises(ValueError):
                table.tree_size[0] = 0.0
            # Zero-copy: the arrays are views over the segment mapping,
            # not private copies.
            assert table.tree_size.base is not None
        finally:
            handle.release()

    def test_descriptor_generation_mismatch_is_rejected(self):
        handle = publish_tables(make_tables(), generation=2)
        try:
            stale = TableStoreDescriptor(
                name=handle.descriptor.name,
                generation=7,
                nbytes=handle.descriptor.nbytes,
            )
            with pytest.raises(ValueError, match="generation"):
                attach_tables(stale)
        finally:
            handle.release()

    def test_graph_segment_is_not_a_table_store(self, path_graph):
        handle = path_graph.to_shared()
        try:
            impostor = TableStoreDescriptor(
                name=handle.descriptor.name,
                generation=0,
                nbytes=handle.nbytes,
            )
            with pytest.raises(ValueError, match="table store"):
                attach_tables(impostor)
        finally:
            handle.release()


@pytest.mark.skipif(not MAPS.exists(), reason="needs /proc/self/maps")
class TestAttachmentsUnmap:
    def test_dropped_generations_are_unmapped(self):
        # Each hot reload retires a generation; a worker that swapped it
        # out must not keep it mapped.
        names = []
        for generation in (1, 2, 3):
            handle = publish_tables(
                make_tables(scale=generation), generation=generation
            )
            names.append(handle.descriptor.name)
            attached = attach_tables(handle.descriptor)
            assert len(attached) == 3
            del attached
            handle.release()
        assert _still_mapped(names) == []

    def test_failed_stale_attach_is_unmapped(self):
        handle = publish_tables(make_tables(), generation=2)
        try:
            stale = TableStoreDescriptor(
                name=handle.descriptor.name,
                generation=1,
                nbytes=handle.descriptor.nbytes,
            )
            with pytest.raises(ValueError, match="generation"):
                attach_tables(stale)
        finally:
            handle.release()
        assert _still_mapped([handle.descriptor.name]) == []


class TestUnlinkSemantics:
    def test_attached_tables_survive_the_creator_unlink(self):
        # The zero-downtime reload invariant: a worker still serving the
        # old generation keeps valid views after the supervisor retires
        # the segment; only *new* attachments are shut out.
        tables = make_tables()
        handle = publish_tables(tables, generation=1)
        attached = attach_tables(handle.descriptor)
        expected = tables[("arpa", "distinct", "spt")].lookup(42)
        handle.release()
        assert attached[("arpa", "distinct", "spt")].lookup(42) == expected
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.descriptor.name)

    def test_release_is_idempotent(self):
        handle = publish_tables(make_tables(), generation=1)
        handle.release()
        handle.release()  # second release must tolerate the missing file

    def test_two_generations_coexist_until_the_old_one_retires(self):
        old = publish_tables(make_tables(scale=1.0), generation=1)
        new = publish_tables(make_tables(scale=2.0), generation=2)
        try:
            old_view = attach_tables(old.descriptor)
            new_view = attach_tables(new.descriptor)
            key = ("arpa", "distinct", "spt")
            old_tree, _ = old_view[key].lookup(10)
            new_tree, _ = new_view[key].lookup(10)
            assert new_tree == pytest.approx(2.0 * old_tree)
        finally:
            old.release()
            new.release()
