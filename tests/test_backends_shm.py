"""Shared-memory publishing of flattened PSTs (``repro.core.backends.shm``).

The shard-process runner ships cluster exports through these segments,
so a publish/attach round trip must be zero-copy and bit-exact, segment
names deterministic, the wire spec small, and an unlinked segment gone.
"""

from __future__ import annotations

import os
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.core.backends.shm import ARRAY_FIELDS, attach_flat, publish_flat
from repro.core.pst import ProbabilisticSuffixTree


def _build_pst(seed: int = 7, alphabet: int = 6) -> ProbabilisticSuffixTree:
    rng = np.random.default_rng(seed)
    pst = ProbabilisticSuffixTree(
        alphabet_size=alphabet, max_depth=4, significance_threshold=2
    )
    for _ in range(8):
        pst.add_sequence([int(s) for s in rng.integers(0, alphabet, 40)])
    return pst


def _segment_exists(name: str) -> bool:
    """Whether the named segment is still linked (attachable)."""
    try:
        shm = SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


class TestPublishAttachRoundTrip:
    def test_attached_flat_is_bit_identical(self):
        flat = _build_pst().flattened()
        shm, spec = publish_flat(flat)
        try:
            worker_shm, rebuilt = attach_flat(spec)
            try:
                assert rebuilt.version == flat.version
                assert rebuilt.alphabet_size == flat.alphabet_size
                assert rebuilt.max_depth == flat.max_depth
                assert rebuilt.p_min == flat.p_min
                for field in ARRAY_FIELDS:
                    original = getattr(flat, field)
                    view = getattr(rebuilt, field)
                    assert np.array_equal(original, view)
                    assert view.dtype == original.dtype
                    # Zero-copy: the view maps the segment, read-only.
                    assert not view.flags.writeable
                    assert not view.flags.owndata
                    del view
            finally:
                # The rebuilt flat's arrays are buffer exports over the
                # mapping — drop them before closing.
                del rebuilt
                worker_shm.close()
        finally:
            shm.close()
            shm.unlink()
        assert not _segment_exists(spec.name)

    def test_segment_names_are_deterministic(self):
        flat = _build_pst().flattened()
        shm_a, spec_a = publish_flat(flat)
        shm_b, spec_b = publish_flat(flat)
        try:
            prefix = f"cluseq-{os.getpid()}-"
            assert spec_a.name.startswith(prefix)
            assert spec_b.name.startswith(prefix)
            counter_a = int(spec_a.name.rsplit("-", 1)[1])
            counter_b = int(spec_b.name.rsplit("-", 1)[1])
            assert counter_b == counter_a + 1
        finally:
            for shm in (shm_a, shm_b):
                shm.close()
                shm.unlink()

    def test_spec_pickles_small(self):
        import pickle

        flat = _build_pst().flattened()
        shm, spec = publish_flat(flat)
        try:
            wire = pickle.dumps(spec)
            # The whole point of the shm path: the wire form must not
            # scale with the model tables.
            assert len(wire) < 2048
            assert len(wire) < spec.nbytes
        finally:
            shm.close()
            shm.unlink()
