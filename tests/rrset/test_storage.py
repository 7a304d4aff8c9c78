"""Unit tests for slab-backed RR-set storage (`repro.rrset.storage`).

Covers the dtype policy (width selection, the uint32 overflow guard, the
member-id hard ceiling), the one placement resolver, the slab store's
write/read/assemble round trip and torn-slab detection, and the headline
contract: shared-slab sampling is bit-identical to heap sampling at every
worker count.
"""

from pathlib import Path


import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import StorageError
from repro.graphs.generators import erdos_renyi, path_graph
from repro.graphs.weights import assign_weighted_cascade
from repro.rrset import storage as storage_mod
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sampler import sample_rr_csr, sample_rr_sets
from repro.rrset.storage import (
    HEAP,
    DtypePolicy,
    Placement,
    SlabRef,
    SlabStore,
    member_dtype,
    edge_id_dtype,
    offset_dtype,
    pickled_size,
)
from repro.utils.spill import default_spill_root

SHM = Path("/dev/shm")


def _model(n=40, p=0.1, seed=1):
    return IndependentCascade(
        assign_weighted_cascade(erdos_renyi(n, p, seed=seed), alpha=1.0)
    )


class TestDtypePolicy:
    def test_small_graph_uses_uint8(self):
        assert member_dtype(256) == np.uint8
        assert member_dtype(10) == np.uint8

    def test_large_graph_uses_uint32(self):
        assert member_dtype(257) == np.uint32
        assert member_dtype(1 << 32) == np.uint32

    def test_member_overflow_is_an_error(self):
        with pytest.raises(StorageError):
            member_dtype((1 << 32) + 1)

    def test_edge_ids_widen_never_fail(self):
        assert edge_id_dtype(10) == np.uint32
        assert edge_id_dtype((1 << 32) - 1) == np.uint32
        assert edge_id_dtype(1 << 32) == np.int64

    def test_offsets_widen_never_fail(self):
        assert offset_dtype(0) == np.uint32
        assert offset_dtype((1 << 32) - 1) == np.uint32
        assert offset_dtype(1 << 32) == np.int64

    def test_choose_bundles_all_three(self):
        policy = DtypePolicy.choose(100, 5000, 40_000)
        assert policy.members == np.uint8
        assert policy.edge_ids == np.uint32
        assert policy.offsets == np.uint32

    def test_shrunk_caps_flip_widths(self, monkeypatch):
        # Shrinking the module caps exercises the uint32 boundary without
        # allocating 4G-element arrays.
        monkeypatch.setattr(storage_mod, "EDGE_ID_LIMIT", 8)
        monkeypatch.setattr(storage_mod, "OFFSET_LIMIT", 7)
        policy = DtypePolicy.choose(300, 8, 8)
        assert policy.members == np.uint32
        assert policy.edge_ids == np.int64
        assert policy.offsets == np.int64


def _shared(tmp_path):
    return Placement.resolve("shared", slab_dir=tmp_path)


def _mmap(tmp_path):
    return Placement.resolve(
        "shared", slab_dir=tmp_path, backing="mmap", spill_dir=tmp_path
    )


class TestPlacementResolve:
    """`Placement.resolve`: the only reader of the slab/spill env vars."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv(storage_mod.SLAB_DIR_ENV_VAR, raising=False)
        monkeypatch.delenv(storage_mod.SPILL_DIR_ENV_VAR, raising=False)

    @pytest.mark.parametrize(
        "storage, backing, kind",
        [
            (None, None, "heap"),
            ("heap", "heap", "heap"),
            ("shared", None, "shm"),
            ("shared", "mmap", "mmap"),
        ],
    )
    def test_modes(self, storage, backing, kind):
        placement = Placement.resolve(storage, backing=backing)
        assert placement.kind == kind
        assert (placement.slab_dir is None) == (kind == "heap")
        assert (placement.spill_dir is None) == (kind != "mmap")
        assert (placement == HEAP) == (kind == "heap")

    @pytest.mark.parametrize("which", ["slab_dir", "spill_dir"])
    @pytest.mark.parametrize("source", ["arg", "env", "default"])
    def test_directory_precedence(self, tmp_path, monkeypatch, which, source):
        env_var = {
            "slab_dir": storage_mod.SLAB_DIR_ENV_VAR,
            "spill_dir": storage_mod.SPILL_DIR_ENV_VAR,
        }[which]
        if source != "default":
            monkeypatch.setenv(env_var, str(tmp_path / "env"))
        arg = tmp_path / "arg" if source == "arg" else None
        placement = Placement.resolve("shared", backing="mmap", **{which: arg})
        default = (
            storage_mod._default_slab_root()
            if which == "slab_dir"
            else default_spill_root()
        )
        expected = {"arg": tmp_path / "arg", "env": tmp_path / "env", "default": default}
        assert getattr(placement, which) == expected[source]

    @pytest.mark.parametrize("tempdir", [None, "/dev/shm", "/dev/shm/nested"])
    def test_spill_root_never_dev_shm(self, monkeypatch, tempdir):
        import tempfile

        if tempdir is not None:
            monkeypatch.setattr(tempfile, "tempdir", tempdir)
        spill = Placement.resolve("shared", backing="mmap").spill_dir
        assert spill != SHM and SHM not in spill.parents

    @pytest.mark.parametrize(
        "storage, backing",
        [("mmap", None), ("disk", None), (None, "shm"), ("shared", "disk")],
    )
    def test_unknown_strings_rejected(self, storage, backing):
        with pytest.raises(StorageError):
            Placement.resolve(storage, backing=backing)

    @pytest.mark.parametrize("storage", [None, "heap"])
    def test_mmap_requires_shared_storage(self, storage):
        with pytest.raises(StorageError, match="requires storage='shared'"):
            Placement.resolve(storage, backing="mmap")

    def test_solve_with_prebuilt_hypergraph_still_rejects_mmap_on_heap(self):
        from repro.core.population import paper_mixture
        from repro.core.problem import CIMProblem
        from repro.core.solvers import solve

        model = _model()
        problem = CIMProblem(model, paper_mixture(model.num_nodes, seed=1), budget=2.0)
        prebuilt = RRHypergraph.build(model, 64, seed=1)
        with pytest.raises(StorageError, match="requires storage='shared'"):
            solve(problem, "ud", hypergraph=prebuilt, storage="heap", backing="mmap")

    @pytest.mark.parametrize(
        "fields",
        [
            dict(kind="disk"),
            dict(kind="heap", slab_dir=Path("/tmp")),
            dict(kind="shm"),
            dict(kind="shm", slab_dir=Path("/tmp"), spill_dir=Path("/tmp")),
            dict(kind="mmap", slab_dir=Path("/tmp")),
        ],
    )
    def test_invalid_states_unrepresentable(self, fields):
        with pytest.raises(StorageError):
            Placement(**fields)


class TestSlabStore:
    def test_round_trip(self, tmp_path):
        rr_sets = [np.array([0, 3, 5]), np.array([2]), np.array([], dtype=np.int64)]
        with SlabStore.create(tmp_path) as store:
            ref = store.write_chunk(0, rr_sets, np.uint8)
            assert ref.count == 3
            assert ref.total_members == 4
            sizes, members = store.read_chunk(ref)
            assert sizes.tolist() == [3, 1, 0]
            assert members.tolist() == [0, 3, 5, 2]
            assert members.dtype == np.uint8

    def test_assemble_plan_order(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            refs = [
                store.write_chunk(0, [np.array([1, 2])], np.uint8),
                store.write_chunk(1, [np.array([3]), np.array([4, 5])], np.uint8),
            ]
            sizes, members = store.assemble(refs, np.uint8)
        assert sizes.tolist() == [2, 1, 2]
        assert sizes.dtype == np.int64
        assert members.tolist() == [1, 2, 3, 4, 5]

    def test_ref_pickles_small(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            ref = store.write_chunk(0, [np.arange(10_000)], np.uint32)
            assert pickled_size(ref) < 1024

    def test_write_range_checked_before_cast(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            with pytest.raises(StorageError):
                store.write_chunk(0, [np.array([0, 300])], np.uint8)

    def test_rewrite_is_idempotent(self, tmp_path):
        rr_sets = [np.array([7, 1]), np.array([4])]
        with SlabStore.create(tmp_path) as store:
            first = store.write_chunk(2, rr_sets, np.uint8)
            raw = store.members_path(first.stem).read_bytes()
            second = store.write_chunk(2, rr_sets, np.uint8)
            assert first == second
            assert store.members_path(second.stem).read_bytes() == raw

    def test_torn_slab_detected(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            ref = store.write_chunk(0, [np.array([1, 2, 3])], np.uint8)
            # Corrupt the sizes half so the cross-check trips.
            np.save(store.sizes_path(ref.stem), np.array([5], dtype=np.int64))
            with pytest.raises(StorageError):
                store.read_chunk(ref)

    def test_missing_slab_detected(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            ref = SlabRef(
                index=0, count=1, total_members=1, member_dtype="|u1", stem="chunk-000000"
            )
            with pytest.raises(StorageError):
                store.read_chunk(ref)

    def test_assemble_dtype_mismatch_detected(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            ref = store.write_chunk(0, [np.array([1])], np.uint8)
            with pytest.raises(StorageError):
                store.assemble([ref], np.uint32)

    def test_cleanup_twice_is_safe(self, tmp_path):
        store = SlabStore.create(tmp_path)
        store.cleanup()
        store.cleanup()

    def test_created_under_given_root(self, tmp_path):
        with SlabStore.create(tmp_path) as store:
            assert Path(store.directory).parent == tmp_path


class TestSampleRRCsr:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_shared_matches_heap_bit_for_bit(self, tmp_path, workers):
        model = _model()
        heap_sizes, heap_members = sample_rr_csr(model, 600, seed=11, workers=1)
        sizes, members = sample_rr_csr(
            model, 600, seed=11, workers=workers, placement=_shared(tmp_path)
        )
        assert np.array_equal(sizes, heap_sizes)
        assert np.array_equal(
            np.asarray(members, dtype=np.int64),
            np.asarray(heap_members, dtype=np.int64),
        )

    def test_matches_sample_rr_sets(self, tmp_path):
        model = _model()
        rr_list = sample_rr_sets(model, 300, seed=5)
        sizes, members = sample_rr_csr(model, 300, seed=5, placement=_shared(tmp_path))
        assert sizes.tolist() == [rr.size for rr in rr_list]
        assert np.array_equal(
            np.asarray(members, dtype=np.int64), np.concatenate(rr_list)
        )

    def test_member_dtype_follows_policy(self, tmp_path):
        small = _model(n=40)
        sizes, members = sample_rr_csr(small, 100, seed=3, placement=_shared(tmp_path))
        assert members.dtype == np.uint8
        big = IndependentCascade(
            assign_weighted_cascade(path_graph(300, probability=0.5), alpha=1.0)
        )
        _, members = sample_rr_csr(big, 50, seed=3, placement=_shared(tmp_path))
        assert members.dtype == np.uint32

    def test_zero_count(self, tmp_path):
        model = _model()
        sizes, members = sample_rr_csr(model, 0, seed=1, placement=_shared(tmp_path))
        assert sizes.size == 0
        assert members.size == 0

    def test_slab_directory_removed_after_run(self, tmp_path):
        model = _model()
        sample_rr_csr(model, 100, seed=2, placement=_shared(tmp_path))
        assert list(tmp_path.glob("repro-slabs-*")) == []

    def test_hypergraph_built_from_csr_matches_list_build(self, tmp_path):
        model = _model()
        sizes, members = sample_rr_csr(model, 400, seed=9, placement=_shared(tmp_path))
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        via_csr = RRHypergraph.from_csr(model.num_nodes, offsets, members)
        via_list = RRHypergraph(model.num_nodes, sample_rr_sets(model, 400, seed=9))
        for attr in ("edge_offsets", "edge_nodes", "node_offsets", "node_edges"):
            assert np.array_equal(
                np.asarray(getattr(via_csr, attr), dtype=np.int64),
                np.asarray(getattr(via_list, attr), dtype=np.int64),
            ), attr


class TestAssemblePlacement:
    """`assemble` allocates its destinations on the given placement."""

    def _refs(self, store):
        return [
            store.write_chunk(0, [np.array([1, 2])], np.uint8),
            store.write_chunk(1, [np.array([3]), np.array([4, 5])], np.uint8),
        ]

    def test_mmap_placement_matches_heap(self, tmp_path):
        from repro.utils.spill import is_spill_backed

        with SlabStore.create(tmp_path) as store:
            refs = self._refs(store)
            heap_sizes, heap_members = store.assemble(refs, np.uint8)
            mm_sizes, mm_members = store.assemble(refs, np.uint8, _mmap(tmp_path))
        assert np.array_equal(heap_sizes, mm_sizes)
        assert np.array_equal(heap_members, mm_members)
        assert mm_members.dtype == heap_members.dtype
        assert is_spill_backed(mm_sizes)
        assert is_spill_backed(mm_members)
        assert not is_spill_backed(heap_members)

    def test_sample_rr_csr_mmap_placement_bit_identical(self, tmp_path):
        from repro.utils.spill import is_spill_backed

        model = _model()
        heap_sizes, heap_members = sample_rr_csr(
            model, 400, seed=13, workers=2, placement=_shared(tmp_path)
        )
        mm_sizes, mm_members = sample_rr_csr(
            model, 400, seed=13, workers=2, placement=_mmap(tmp_path)
        )
        assert np.array_equal(heap_sizes, mm_sizes)
        assert np.array_equal(heap_members, mm_members)
        assert is_spill_backed(mm_members)
