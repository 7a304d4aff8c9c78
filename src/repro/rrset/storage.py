"""Placement, slab-backed RR-set storage and the compact CSR dtype policy.

Three concerns of the million-node scale push live here:

**Placement.**  :class:`Placement` says where one build puts its bytes:
``heap`` (sampled chunks pickle back to the coordinator, arrays on the
heap), ``shm(slab_dir)`` (chunks travel through memory-mapped slab files,
assembled arrays on the heap) or ``mmap(slab_dir, spill_dir)`` (slab
transport, assembled arrays in disk-backed spill files).  The public
entry points (:func:`repro.core.solvers.solve`, the CLI, the graph
generators) turn their ``storage``/``slab_dir``/``backing``/``spill_dir``
keywords into one value with :meth:`Placement.resolve`; every layer
below takes that value.  Placement never changes a result byte.

**Dtype policy.**  :class:`DtypePolicy` picks the narrowest safe width
for each CSR array of an :class:`~repro.rrset.hypergraph.RRHypergraph`:

* *members* (``edge_nodes``) — ``uint8`` when every node id fits a byte
  (``num_nodes <= 256``), else ``uint32``; graphs beyond ``2**32`` nodes
  are rejected with :class:`~repro.exceptions.StorageError` (no wider
  member type is supported, and silently widening would defeat the
  point of the policy).
* *edge ids* (``node_edges``) — ``uint32``, widened to ``int64`` when the
  hyper-edge count crosses ``2**32`` (never an error: widening here is
  an explicit, guarded escape hatch, not a silent upcast).
* *offsets* (``edge_offsets`` / ``node_offsets``) — ``uint32`` while the
  total member stream fits, ``int64`` beyond.

The capacity caps are module globals so tests can shrink them and
exercise the uint32 boundary without allocating 4G-element arrays.

**Shared-memory slabs.**  A :class:`SlabStore` gives each chunk of the
deterministic sampling plan (:func:`repro.parallel.pool.partition_chunks`)
a disjoint pair of ``.npy`` slab files — one for the chunk's member
stream, one for its RR-set sizes — under a directory on ``/dev/shm``
(tmpfs) when available.  Workers write their chunk's slabs and return
only a tiny picklable :class:`SlabRef`; the coordinator assembles the
full CSR arrays by copying each slab (memory-mapped, zero pickling of
member arrays) into its pre-computed extent.  Because chunk ``i`` always
samples child stream ``i`` of the root seed, slab contents are a pure
function of the plan: a re-dispatched or straggler duplicate chunk
rewrites byte-identical slabs, so last-writer-wins is safe and recovered
builds stay bit-identical (see :mod:`repro.parallel.supervisor`).

Slab writes are torn-write-safe: each file lands via ``os.replace`` and
the members file is renamed *before* the sizes file, so a slab with both
files present is complete; :meth:`SlabStore.read_chunk` additionally
cross-checks the two.  A ``storage.slab_write`` fault-injection probe
sits between the two renames so the chaos suite can kill a worker
mid-slab-write and assert the re-dispatched chunk overwrites the partial
slab.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import StorageError
from repro.runtime.faults import maybe_inject, maybe_inject_process
from repro.utils.spill import default_spill_root, spill_array

__all__ = [
    "MEMBER_SMALL_LIMIT",
    "MEMBER_LIMIT",
    "EDGE_ID_LIMIT",
    "OFFSET_LIMIT",
    "STORAGE_MODES",
    "BACKING_MODES",
    "SLAB_DIR_ENV_VAR",
    "SPILL_DIR_ENV_VAR",
    "member_dtype",
    "edge_id_dtype",
    "offset_dtype",
    "DtypePolicy",
    "Placement",
    "HEAP",
    "SlabRef",
    "SlabStore",
    "pickled_size",
]

#: ``storage=`` values of the public entry points.
STORAGE_MODES = ("heap", "shared")
#: ``backing=`` values of the public entry points.
BACKING_MODES = ("heap", "mmap")

#: Environment variables overriding the slab and spill roots.
SLAB_DIR_ENV_VAR = "REPRO_SLAB_DIR"
SPILL_DIR_ENV_VAR = "REPRO_SPILL_DIR"

#: Node counts up to this fit member ids in ``uint8``.
MEMBER_SMALL_LIMIT = 1 << 8
#: Node counts up to this fit member ids in ``uint32``; beyond is an error.
MEMBER_LIMIT = 1 << 32
#: Hyper-edge counts up to (excluding) this fit edge ids in ``uint32``.
EDGE_ID_LIMIT = 1 << 32
#: Largest member-stream length whose offsets fit ``uint32``.
OFFSET_LIMIT = (1 << 32) - 1


def member_dtype(num_nodes: int) -> np.dtype:
    """Narrowest member (node id) dtype for a graph of ``num_nodes``."""
    if num_nodes <= MEMBER_SMALL_LIMIT:
        return np.dtype(np.uint8)
    if num_nodes <= MEMBER_LIMIT:
        return np.dtype(np.uint32)
    raise StorageError(
        f"num_nodes={num_nodes} exceeds the widest supported member dtype "
        f"(uint32 holds ids below {MEMBER_LIMIT})"
    )


def edge_id_dtype(num_hyperedges: int) -> np.dtype:
    """Narrowest hyper-edge-id dtype; widens (never fails) past uint32."""
    if num_hyperedges < EDGE_ID_LIMIT:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def offset_dtype(total_members: int) -> np.dtype:
    """Narrowest CSR offset dtype; widens (never fails) past uint32."""
    if total_members <= OFFSET_LIMIT:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class DtypePolicy:
    """The dtype triple one hyper-graph's CSR arrays are stored in.

    Chosen from the *actual* shape (node count, hyper-edge count, member
    stream length) so append paths re-choose — and explicitly widen —
    when an extension crosses a capacity boundary.
    """

    members: np.dtype
    edge_ids: np.dtype
    offsets: np.dtype

    @classmethod
    def choose(
        cls, num_nodes: int, num_hyperedges: int, total_members: int
    ) -> "DtypePolicy":
        return cls(
            members=member_dtype(num_nodes),
            edge_ids=edge_id_dtype(num_hyperedges),
            offsets=offset_dtype(total_members),
        )


def _root(arg, env_var: str, default) -> Path:
    """A directory chosen as arg > environment variable > default."""
    if arg is not None:
        return Path(arg)
    env = os.environ.get(env_var, "").strip()
    return Path(env) if env else default()


def _default_slab_root() -> Path:
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return shm
    return Path(tempfile.gettempdir())


@dataclass(frozen=True)
class Placement:
    """Where one hyper-graph build puts its bytes; invalid states raise.

    ``kind`` is ``"heap"`` (no directories), ``"shm"`` (slab transport
    under ``slab_dir``, assembled arrays on the heap) or ``"mmap"`` (slab
    transport, assembled arrays in spill files under ``spill_dir``).
    Build one with :meth:`resolve`; the default instance is :data:`HEAP`.
    """

    kind: str = "heap"
    slab_dir: Optional[Path] = None
    spill_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.kind not in ("heap", "shm", "mmap"):
            raise StorageError(f"unknown placement kind {self.kind!r}")
        has_slabs, has_spill = self.slab_dir is not None, self.spill_dir is not None
        if has_slabs != (self.kind != "heap") or has_spill != (self.kind == "mmap"):
            raise StorageError(f"inconsistent placement {self!r}")

    @classmethod
    def resolve(
        cls,
        storage: Optional[str] = None,
        slab_dir: Union[str, Path, None] = None,
        backing: Optional[str] = None,
        spill_dir: Union[str, Path, None] = None,
    ) -> "Placement":
        """The placement the four public keywords describe.

        ``None`` means ``"heap"`` for both modes.  Directories resolve as
        argument > environment variable (:data:`SLAB_DIR_ENV_VAR`,
        :data:`SPILL_DIR_ENV_VAR`) > default: ``/dev/shm`` (else the
        system temp dir) for slabs, and
        :func:`~repro.utils.spill.default_spill_root` — never
        ``/dev/shm`` — for spills.  A directory whose mode does not use
        it is ignored.
        """
        storage = "heap" if storage is None else str(storage)
        backing = "heap" if backing is None else str(backing)
        if storage not in STORAGE_MODES:
            raise StorageError(f"storage must be one of {STORAGE_MODES}, got {storage!r}")
        if backing not in BACKING_MODES:
            raise StorageError(f"backing must be one of {BACKING_MODES}, got {backing!r}")
        if backing == "mmap" and storage != "shared":
            raise StorageError(
                "backing='mmap' requires storage='shared' (the heap transport "
                "assembles on the coordinator heap)"
            )
        if storage == "heap":
            return HEAP
        slabs = _root(slab_dir, SLAB_DIR_ENV_VAR, _default_slab_root)
        if backing == "heap":
            return cls("shm", slabs)
        spills = _root(spill_dir, SPILL_DIR_ENV_VAR, default_spill_root)
        return cls("mmap", slabs, spills)

    def empty(self, size: int, dtype, name_hint: str) -> np.ndarray:
        """An uninitialized destination array on this placement."""
        if self.kind == "mmap":
            return spill_array(size, dtype, self.spill_dir, name_hint)
        return np.empty(size, dtype=np.dtype(dtype))


#: The default placement: everything on the coordinator heap.
HEAP = Placement()


@dataclass(frozen=True)
class SlabRef:
    """A worker's receipt for one written chunk slab.

    This — not the member arrays — is what crosses the process boundary:
    a few scalars and a file stem, so the pickled payload per chunk is
    ~100 bytes regardless of how many members the chunk sampled.
    """

    index: int  #: chunk index within the dispatch plan
    count: int  #: RR sets actually sampled (may undershoot the plan on expiry)
    total_members: int  #: member-stream length of this chunk
    member_dtype: str  #: numpy dtype string of the members slab
    stem: str  #: slab file stem, relative to the store directory


def _atomic_save(path: Path, array: np.ndarray) -> None:
    """Write one ``.npy`` slab atomically (tmp file + ``os.replace``)."""
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            np.save(handle, array)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()


@dataclass(frozen=True)
class SlabStore:
    """One sampling run's slab directory; picklable (a path, no handles).

    Create with :meth:`create` (a fresh unique directory under a
    placement's ``slab_dir``), ship to workers via the pool payload, and
    :meth:`cleanup` — or use as a context manager — once the assembled
    arrays are owned by the coordinator.  Slab files are plain ``.npy``: a crashed run's
    directory is inspectable with ``np.load`` and reclaimed by tmpfs on
    reboot at worst.
    """

    directory: str

    @classmethod
    def create(cls, slab_dir: Union[str, Path]) -> "SlabStore":
        root = Path(slab_dir)
        root.mkdir(parents=True, exist_ok=True)
        return cls(directory=tempfile.mkdtemp(prefix="repro-slabs-", dir=root))

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _stem(self, index: int) -> str:
        return f"chunk-{index:06d}"

    def members_path(self, stem: str) -> Path:
        return Path(self.directory) / f"{stem}.members.npy"

    def sizes_path(self, stem: str) -> Path:
        return Path(self.directory) / f"{stem}.sizes.npy"

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def write_chunk(
        self, index: int, rr_sets: Sequence[np.ndarray], dtype: Union[str, np.dtype]
    ) -> SlabRef:
        """Write one chunk's RR sets into its slab pair; return the receipt.

        The member stream is range-checked against ``dtype`` *before* the
        narrowing cast — a silent wraparound here would corrupt the
        hyper-graph undetectably (wrapped ids look valid downstream).
        Members land first, sizes second, both via ``os.replace``; the
        receipt is only returned after both renames, so a ref in hand
        means a complete slab.  Re-executions (supervisor re-dispatch,
        stragglers) rewrite byte-identical content, making the overwrite
        idempotent.
        """
        target = np.dtype(dtype)
        stem = self._stem(index)
        members_path = self.members_path(stem)
        # A members file already on disk means a previous attempt died
        # between the two renames (or a straggler duplicate is racing a
        # finished rewrite): this execution is attempt > 0 for the
        # mid-write fault probe, so default chaos schedules let it pass.
        attempt = 1 if members_path.exists() else 0
        sizes = np.fromiter(
            (m.size for m in rr_sets), dtype=np.int64, count=len(rr_sets)
        )
        # Range-check each RR set, then copy it straight into a buffer
        # already at the slab dtype.  Concatenating at the sets' native
        # int64 first and casting after would double the worker's peak
        # memory per chunk (an int64 staging copy next to the narrow
        # result); copy-with-cast into the narrow buffer needs only the
        # result.
        stream = np.empty(int(sizes.sum()), dtype=target)
        limit = 1 << (8 * target.itemsize)
        cursor = 0
        for members in rr_sets:
            members = np.asarray(members)
            if members.size:
                hi = int(members.max())
                if int(members.min()) < 0 or hi >= limit:
                    raise StorageError(
                        f"chunk {index}: member id {hi} does not fit slab dtype "
                        f"{target.name}"
                    )
            stream[cursor : cursor + members.size] = members
            cursor += members.size
        _atomic_save(members_path, stream)
        if attempt == 0:
            maybe_inject("storage.slab_write")
        maybe_inject_process("storage.slab_write", index, attempt)
        _atomic_save(self.sizes_path(stem), sizes)
        return SlabRef(
            index=int(index),
            count=int(sizes.size),
            total_members=int(stream.size),
            member_dtype=target.str,
            stem=stem,
        )

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------
    def read_chunk(
        self, ref: SlabRef, mmap: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Load one slab pair as ``(sizes, members)``; cross-checked."""
        try:
            members = np.load(
                self.members_path(ref.stem), mmap_mode="r" if mmap else None
            )
            sizes = np.load(self.sizes_path(ref.stem))
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"chunk {ref.index}: unreadable slab under {self.directory}: {exc}"
            ) from exc
        if sizes.size != ref.count or int(sizes.sum()) != members.size:
            raise StorageError(
                f"chunk {ref.index}: torn slab (sizes/members mismatch)"
            )
        return sizes, members

    def assemble(
        self,
        refs: Sequence[SlabRef],
        dtype: Union[str, np.dtype],
        placement: Placement = HEAP,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate chunk slabs, in plan order, into final CSR inputs.

        Returns ``(sizes, members)``: ``int64`` RR-set sizes and the
        member stream in ``dtype``.  Each slab is memory-mapped and
        copied straight into its extent of the pre-allocated output —
        one pass, no intermediate list, no pickling.  Both destinations
        are allocated on ``placement`` (spill files for ``mmap``, so slab
        contents never transit the coordinator heap); contents are
        bit-identical on every placement.
        """
        target = np.dtype(dtype)
        sizes = placement.empty(sum(ref.count for ref in refs), np.int64, "rr-sizes")
        members = placement.empty(
            sum(ref.total_members for ref in refs), target, "rr-members"
        )
        edge_at = 0
        member_at = 0
        for ref in refs:
            chunk_sizes, chunk_members = self.read_chunk(ref)
            if chunk_members.dtype != target:
                raise StorageError(
                    f"chunk {ref.index}: slab dtype {chunk_members.dtype} != "
                    f"assembly dtype {target}"
                )
            sizes[edge_at : edge_at + chunk_sizes.size] = chunk_sizes
            members[member_at : member_at + chunk_members.size] = chunk_members
            edge_at += chunk_sizes.size
            member_at += chunk_members.size
        return sizes, members

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Delete the slab directory (safe to call twice)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SlabStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cleanup()


def pickled_size(ref: SlabRef) -> int:
    """Bytes this receipt costs on the worker→coordinator pickle channel."""
    import pickle

    return len(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL))
