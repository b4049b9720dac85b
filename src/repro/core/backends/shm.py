"""Shared-memory publishing of flattened PSTs for other processes.

The shard-process runner (:mod:`repro.shard.proc`) ships cluster
exports between processes without pickling the tables: the publishing
process copies each flat's arrays once into a
``multiprocessing.shared_memory`` segment with :func:`publish_flat`,
and the receiver gets only a :class:`SharedFlatSpec` — segment name,
array shapes/dtypes/offsets, tree version — from which
:func:`attach_flat` rebuilds the flat as zero-copy numpy views over the
mapped segment.

The publisher owns the segment (close + unlink); the receiver keeps
the returned ``SharedMemory`` referenced while the flat is in use and
closes it afterwards. Unlinking only removes the name: a receiver that
still holds a mapping keeps it until it drops its views. Publisher and
receiver must share one ``multiprocessing.resource_tracker`` process,
so the receiver's attach is a no-op duplicate registration and the
publisher's unlink clears the single tracker entry — neither side may
unregister on its own, or the other's bookkeeping breaks.

Segment names are deterministic (``cluseq-<pid>-<counter>``): the
repo's seeded-randomness rule (CLQ002) applies to infrastructure too,
and deterministic names make ``/dev/shm`` hygiene testable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from .flatten import FlattenedPST

#: FlattenedPST array fields shipped through a segment, in layout order.
ARRAY_FIELDS = (
    "depths",
    "suffix_links",
    "child_offsets",
    "child_symbols",
    "child_rows",
    "transitions",
    "log_probs",
)

#: Segment offsets are rounded up to this alignment so every array view
#: starts on a float64-safe boundary.
_ALIGN = 16

#: Monotonic per-process counter for deterministic segment names.
_SEGMENT_COUNTER = 0


@dataclass(frozen=True)
class SharedFlatSpec:
    """The wire form of one published flat: everything a receiver needs
    to rebuild the :class:`FlattenedPST` as views over the segment.

    Pickles to a few hundred bytes regardless of model size — the
    whole point of the shared-memory path.
    """

    name: str
    version: int
    alphabet_size: int
    max_depth: int
    significance_threshold: int
    p_min: float
    #: Per array field: (field name, byte offset, shape, dtype string).
    arrays: tuple[tuple[str, int, tuple[int, ...], str], ...]
    nbytes: int


def _layout(
    flat: FlattenedPST,
) -> tuple[tuple[tuple[str, int, tuple[int, ...], str], ...], int]:
    """Aligned (field, offset, shape, dtype) layout and total byte size."""
    metas: list[tuple[str, int, tuple[int, ...], str]] = []
    offset = 0
    for field in ARRAY_FIELDS:
        array = getattr(flat, field)
        offset = -(-offset // _ALIGN) * _ALIGN
        metas.append((field, offset, tuple(array.shape), array.dtype.str))
        offset += int(array.nbytes)
    return tuple(metas), max(offset, 1)


def _segment_name() -> str:
    global _SEGMENT_COUNTER
    name = f"cluseq-{os.getpid()}-{_SEGMENT_COUNTER}"
    _SEGMENT_COUNTER += 1
    return name


def _create_segment(size: int) -> SharedMemory:
    """A fresh named segment; skips names a crashed run left behind."""
    while True:
        try:
            return SharedMemory(name=_segment_name(), create=True, size=size)
        except FileExistsError:  # pragma: no cover - stale leftover name
            continue


def publish_flat(flat: FlattenedPST) -> tuple[SharedMemory, SharedFlatSpec]:
    """Copy *flat*'s arrays into a fresh segment; returns (segment, spec).

    The segment carries one cluster's §2 PST tables to another process.
    The caller owns the segment (close + unlink).
    """
    metas, total = _layout(flat)
    shm = _create_segment(total)
    for field, offset, shape, dtype in metas:
        source = getattr(flat, field)
        count = int(np.prod(shape)) if shape else 0
        view = np.frombuffer(
            shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
        ).reshape(shape)
        view[...] = source
        del view  # release the buffer export before any close()
    spec = SharedFlatSpec(
        name=shm.name,
        version=flat.version,
        alphabet_size=flat.alphabet_size,
        max_depth=flat.max_depth,
        significance_threshold=flat.significance_threshold,
        p_min=flat.p_min,
        arrays=metas,
        nbytes=total,
    )
    return shm, spec


def attach_flat(spec: SharedFlatSpec) -> tuple[SharedMemory, FlattenedPST]:
    """Map *spec*'s segment and rebuild the flat as zero-copy views.

    The receiving half of a §2 PST table transfer: the returned arrays are read-only views over the mapped segment —
    nothing is deserialized. The caller must keep the returned
    ``SharedMemory`` referenced for as long as the flat is in use and
    drop both together.
    """
    shm = SharedMemory(name=spec.name)
    views: dict[str, np.ndarray] = {}
    for field, offset, shape, dtype in spec.arrays:
        count = int(np.prod(shape)) if shape else 0
        array = np.frombuffer(
            shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
        ).reshape(shape)
        array.flags.writeable = False
        views[field] = array
    flat = FlattenedPST(
        alphabet_size=spec.alphabet_size,
        max_depth=spec.max_depth,
        significance_threshold=spec.significance_threshold,
        p_min=spec.p_min,
        version=spec.version,
        **views,
    )
    return shm, flat
