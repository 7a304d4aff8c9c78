"""Tests for the streaming (bounded-memory) configuration-model builder.

The out-of-core generator must be a drop-in for the in-heap path: for a
fixed ``(n, seed)`` the six CSR arrays are bit-identical whether the
stub/key stream is assembled in one heap pass or through chunked spill
files with an external bucket sort.  The digests below are *pinned* —
they change only if the sampled graph itself changes, which would break
every seeded experiment in the repo.
"""

import hashlib

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import com_dblp_like, powerlaw_configuration
from repro.graphs.streaming import streaming_configuration_csr
from repro.utils.spill import is_spill_backed

CSR_ARRAYS = (
    "out_offsets",
    "out_targets",
    "out_probs",
    "in_offsets",
    "in_sources",
    "in_probs",
)

#: sha256 over the canonicalised CSR arrays of
#: ``powerlaw_configuration(512, average_degree=8.0, seed=2016)``.
#: Pinned: a change here means the generator's output changed.
PINNED = {
    True: "d53e7e826b7791e074114302aece658abfbac62de578c08a537ea3c239c3fc2f",
    False: "8e633fb6011bacaa5238eca0b5eec8a24008011b241f935559d2b60b2d32012d",
}


def _digest(graph: DiGraph) -> str:
    hasher = hashlib.sha256()
    for name in CSR_ARRAYS:
        array = np.asarray(getattr(graph, name))
        wide = np.float64 if "prob" in name else np.int64
        hasher.update(np.ascontiguousarray(array, dtype=wide).tobytes())
    return hasher.hexdigest()


def _assert_same_graph(a: DiGraph, b: DiGraph) -> None:
    assert a.num_nodes == b.num_nodes
    assert a.num_edges == b.num_edges
    for name in CSR_ARRAYS:
        x = np.asarray(getattr(a, name))
        y = np.asarray(getattr(b, name))
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


class TestBitIdentity:
    @pytest.mark.parametrize("directed", [True, False])
    def test_streaming_matches_heap_and_pinned_digest(self, directed):
        heap = powerlaw_configuration(
            512, average_degree=8.0, seed=2016, directed=directed
        )
        mmap = powerlaw_configuration(
            512, average_degree=8.0, seed=2016, directed=directed, backing="mmap"
        )
        _assert_same_graph(heap, mmap)
        assert _digest(heap) == PINNED[directed]
        assert _digest(mmap) == PINNED[directed]

    @pytest.mark.parametrize("directed", [True, False])
    def test_chunk_size_never_changes_output(self, directed, tmp_path):
        """Tiny chunk/bucket sizes force every external-sort code path.

        Together with the pinned-digest test (heap == default-chunk
        streaming) this closes the chain: the multi-chunk, multi-bucket
        assembly is bit-identical to the one-pass heap build.
        """
        degrees = np.random.default_rng(99).integers(1, 12, size=300)
        if degrees.sum() % 2 == 1:
            degrees[0] += 1
        default = streaming_configuration_csr(
            300,
            degrees.copy(),
            np.random.default_rng(7),
            directed=directed,
            spill_dir=tmp_path,
        )
        tiny = streaming_configuration_csr(
            300,
            degrees.copy(),
            np.random.default_rng(7),
            directed=directed,
            spill_dir=tmp_path,
            chunk=64,
            bucket_entries=128,
        )
        _assert_same_graph(default, tiny)

    def test_analogue_passthrough(self, tmp_path):
        heap = com_dblp_like(scale=0.002, seed=3)
        mmap = com_dblp_like(scale=0.002, seed=3, backing="mmap", spill_dir=tmp_path)
        _assert_same_graph(heap, mmap)


class TestShuffleCost:
    def test_stub_shuffle_skips_memmap_getitem(self, monkeypatch, tmp_path):
        """The stub shuffle must run on a plain ndarray view of the spill.

        ``Generator.shuffle`` on an ``np.memmap`` (an ndarray subclass)
        swaps element by element through ``memmap.__getitem__``: about four
        calls per stub.  The chunked passes around it need only a handful.
        """
        degrees = np.random.default_rng(99).integers(1, 12, size=512)
        if degrees.sum() % 2 == 1:
            degrees[0] += 1
        calls = []
        getitem = np.memmap.__getitem__

        def counting_getitem(self, index):
            calls.append(1)
            return getitem(self, index)

        monkeypatch.setattr(np.memmap, "__getitem__", counting_getitem)
        streaming_configuration_csr(
            512, degrees, np.random.default_rng(7), directed=True, spill_dir=tmp_path
        )
        assert len(calls) < int(degrees.sum()) // 10


class TestPlacement:
    def test_mmap_arrays_are_spill_backed(self):
        graph = powerlaw_configuration(
            256, average_degree=6.0, seed=5, directed=True, backing="mmap"
        )
        for name in CSR_ARRAYS:
            assert is_spill_backed(getattr(graph, name)), name

    def test_heap_arrays_are_not_spill_backed(self):
        graph = powerlaw_configuration(256, average_degree=6.0, seed=5)
        for name in CSR_ARRAYS:
            assert not is_spill_backed(getattr(graph, name)), name

    def test_undirected_mmap_aliases_transpose(self):
        """Symmetric key sets make the in-adjacency *be* the out-adjacency."""
        graph = powerlaw_configuration(
            256, average_degree=6.0, seed=5, directed=False, backing="mmap"
        )
        assert graph.in_sources is graph.out_targets
        assert graph.in_offsets is graph.out_offsets
        assert graph.in_probs is graph.out_probs

    def test_invalid_backing_rejected(self):
        with pytest.raises(StorageError):
            powerlaw_configuration(64, seed=1, backing="disk")


class TestPickleRoundTrip:
    def test_mmap_graph_pickles_by_reference(self):
        import pickle

        graph = powerlaw_configuration(
            256, average_degree=6.0, seed=5, directed=True, backing="mmap"
        )
        payload = pickle.dumps(graph)
        # Receipts, not arrays: far below the member stream's byte size.
        assert len(payload) < 4096
        clone = pickle.loads(payload)
        _assert_same_graph(graph, clone)
