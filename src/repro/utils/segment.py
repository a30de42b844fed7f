"""One codec for every zero-copy payload this package shares.

CSR graphs (:meth:`repro.graph.core.Graph.to_shared`), fleet estimator
tables (:mod:`repro.serve.fleet.store`) and per-source distance rows
(:mod:`repro.graph.distance_store`) all cross process boundaries the
same way: one creator writes a *segment* once, any number of readers
map it read-only.  Each of those modules is a schema — a name, a
version, some JSON metadata and a set of named arrays — over this
codec.

Segment layout (every array offset 8-byte aligned)::

    [u64 header_len][header JSON, utf-8][pad]
    array 0  dtype[shape]                 [pad]
    array 1  dtype[shape]                 [pad]
    ...

The header JSON is ``{schema, version, generation, meta, arrays}``;
``arrays`` lists ``[name, dtype, shape]`` in storage order, so the
header alone fixes every offset and the total size.

Backends.  :func:`create_segment` / :func:`open_segment` use a file
when given a ``path`` and POSIX shared memory otherwise.  A file is
built in a sibling temp file and moved onto ``path`` with
:func:`os.replace` only once it is complete, so readers never see a
half-written segment and a rebuild never truncates a file under a live
mapping.  Shared memory is created through
:class:`multiprocessing.shared_memory.SharedMemory`, so the resource
tracker still unlinks it if the creator crashes.

Lifetimes.  The creator owns the segment through a
:class:`SegmentHandle` and must ``unlink()`` (or ``release()``) it
exactly once.  Readers open the file or shm object, ``mmap`` it
read-only and close the descriptor straight away, so the mapping is
owned by the returned numpy views alone: it survives the creator's
unlink and disappears when the last view does.  Readers never register
with the resource tracker, so a reader exiting never unlinks the
creator's segment.
"""

from __future__ import annotations

import json
import mmap
import os
import secrets
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import _posixshmem
import numpy as np

from repro.exceptions import SegmentError

__all__ = ["Segment", "SegmentHandle", "create_segment", "open_segment"]

_HEADER_LEN = struct.Struct("<Q")

#: An array to store: its contents, or ``(dtype, shape)`` to leave it
#: zeroed for a ``fill`` callback to write.
ArraySpec = Union[np.ndarray, Tuple[Any, Tuple[int, ...]]]


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _layout(header_len: int, arrays: List[list]) -> Tuple[Dict[str, int], int]:
    """Offsets of each ``[name, dtype, shape]`` array and the total size."""
    offset = _align8(_HEADER_LEN.size + header_len)
    offsets: Dict[str, int] = {}
    for name, dtype, shape in arrays:
        offsets[name] = offset
        offset = _align8(offset + np.dtype(dtype).itemsize * int(np.prod(shape)))
    return offsets, offset


class SegmentHandle:
    """Creator-side ownership of one segment (shared memory or file).

    ``descriptor`` is the schema's picklable token for attachers; the
    module that created the segment sets it.  Attached processes never
    unlink; their mapping dies with their last view.
    """

    __slots__ = ("name", "nbytes", "descriptor", "_memory", "_unlinked")

    def __init__(
        self,
        name: str,
        nbytes: int,
        memory: Optional[shared_memory.SharedMemory],
    ) -> None:
        self.name = name
        self.nbytes = nbytes
        self.descriptor: Any = None
        self._memory = memory
        self._unlinked = False

    def unlink(self) -> None:
        """Free the segment system-wide (idempotent)."""
        if not self._unlinked:
            self._unlinked = True
            if self._memory is not None:
                self._memory.unlink()
            else:
                os.unlink(self.name)

    def release(self) -> None:
        """Unlink and drop this process's mapping, tolerating repeats."""
        try:
            self.unlink()
        except FileNotFoundError:  # pragma: no cover - external unlink
            pass
        if self._memory is not None:
            try:
                self._memory.close()
            except BufferError:  # pragma: no cover - a live view pins the map
                pass

    def __repr__(self) -> str:
        return (
            f"SegmentHandle(name={self.name!r}, nbytes={self.nbytes}, "
            f"unlinked={self._unlinked})"
        )


@dataclass(frozen=True)
class Segment:
    """An attached segment: header fields plus read-only array views."""

    generation: int
    meta: Any
    arrays: Dict[str, np.ndarray]
    nbytes: int


def _write(buf, header: bytes, offsets: Dict[str, int], arrays) -> None:
    _HEADER_LEN.pack_into(buf, 0, len(header))
    buf[_HEADER_LEN.size : _HEADER_LEN.size + len(header)] = header
    for name, value in arrays.items():
        if isinstance(value, np.ndarray) and value.size:
            np.frombuffer(
                buf, dtype=value.dtype, count=value.size, offset=offsets[name]
            )[:] = value.reshape(-1)


def create_segment(
    schema: str,
    version: int,
    arrays: Mapping[str, ArraySpec],
    *,
    generation: int = 0,
    meta: Any = None,
    path: Optional[str] = None,
    fill: Optional[Callable[[str, Dict[str, int]], None]] = None,
) -> SegmentHandle:
    """Write one segment: to ``path`` if given, else to shared memory.

    ``fill(target, offsets)``, when given, runs after the header and
    every ndarray in ``arrays`` are written, and writes the
    ``(dtype, shape)`` placeholders in place — ``target`` is the temp
    file (or shm name) to open and ``offsets`` maps array names to byte
    offsets.  If writing or filling raises, the half-built segment is
    unlinked and nothing appears at ``path``.
    """
    specs = []
    for name, value in arrays.items():
        dtype, shape = (
            (value.dtype, value.shape) if isinstance(value, np.ndarray) else value
        )
        specs.append([name, np.dtype(dtype).str, [int(n) for n in shape]])
    header = json.dumps(
        {
            "schema": schema,
            "version": int(version),
            "generation": int(generation),
            "meta": meta,
            "arrays": specs,
        },
        sort_keys=True,
    ).encode("utf-8")
    offsets, total = _layout(len(header), specs)

    if path is None:
        memory = shared_memory.SharedMemory(create=True, size=total)
        try:
            _write(memory.buf, header, offsets, arrays)
            if fill is not None:
                fill(memory.name, offsets)
        except BaseException:
            memory.close()
            memory.unlink()
            raise
        return SegmentHandle(memory.name, total, memory)

    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            os.ftruncate(fd, total)
            with mmap.mmap(fd, total) as mapping:
                _write(mapping, header, offsets, arrays)
        finally:
            os.close(fd)
        if fill is not None:
            fill(tmp, offsets)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return SegmentHandle(path, total, None)


def open_segment(
    schema: str,
    version: int,
    *,
    name: Optional[str] = None,
    path: Optional[str] = None,
    generation: Optional[int] = None,
) -> Segment:
    """Map a segment read-only: the file at ``path``, else shm ``name``.

    Raises :class:`FileNotFoundError` when the segment is gone, and
    :class:`~repro.exceptions.SegmentError` (a ``ValueError``) when it
    holds another schema or version, a different ``generation`` (when
    one is expected), or fewer bytes than its header's layout needs.
    """
    where = path if path is not None else name
    if path is not None:
        fd = os.open(path, os.O_RDONLY)
    else:
        fd = _posixshmem.shm_open("/" + str(name), os.O_RDONLY)
    try:
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    except ValueError:  # an empty file cannot be mapped
        raise SegmentError(f"{where!r} is empty, not a {schema} segment") from None
    finally:
        os.close(fd)
    try:
        try:
            (header_len,) = _HEADER_LEN.unpack_from(mapping, 0)
            header = json.loads(
                mapping[_HEADER_LEN.size : _HEADER_LEN.size + header_len]
            )
            found = (header["schema"], int(header["version"]))
            stored = int(header["generation"])
            meta = header["meta"]
            offsets, total = _layout(header_len, header["arrays"])
        except (struct.error, ValueError, KeyError, TypeError):
            raise SegmentError(
                f"{where!r} is not a {schema} segment (unreadable header)"
            ) from None
        if found != (schema, int(version)):
            raise SegmentError(
                f"{where!r} holds a version-{found[1]} {found[0]} segment, "
                f"not a version-{version} {schema}"
            )
        if generation is not None and stored != int(generation):
            raise SegmentError(
                f"{schema} {where!r} holds generation {stored}, "
                f"expected {generation}"
            )
        if mapping.size() < total:
            raise SegmentError(
                f"{schema} {where!r} is {mapping.size()} bytes, its layout "
                f"needs {total} (truncated)"
            )
    except BaseException:
        # Unmap now: the raised error's traceback would otherwise keep
        # the mapping alive for as long as the caller holds it.
        mapping.close()
        raise
    views = {
        key: np.frombuffer(
            mapping, dtype=dtype, count=int(np.prod(shape)), offset=offsets[key]
        ).reshape(shape)
        for key, dtype, shape in header["arrays"]
    }
    return Segment(generation=stored, meta=meta, arrays=views, nbytes=total)
