"""Reverse-reachable set generation (the "poll" of Section 8).

A poll picks a node ``v`` uniformly at random and runs a reverse cascade
from ``v`` on the transpose graph; the reached set ``h`` is a *random
hyper-edge*.  The intuition: nodes with high influence appear in many random
hyper-edges.

The model-specific reverse cascade is delegated to
:meth:`repro.diffusion.base.DiffusionModel.sample_rr_set`, so this module
works unchanged for IC, LT and general triggering models.

Polls are independent, so generation is chunked through the deterministic
parallel engine (:mod:`repro.parallel`): the requested count is
pre-partitioned into fixed chunks, chunk ``i`` draws from child stream
``i`` of the root seed, and chunks are concatenated in order — the sampled
hyper-graph is therefore bit-identical for any ``workers`` value.

:func:`sample_rr_csr` is the one sampler; its
:class:`~repro.rrset.storage.Placement` picks the transport (pickled
chunks or slab files) and where the assembled arrays live.
:func:`sample_rr_sets` is a list-of-arrays view of its result.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.exceptions import EstimationError
from repro.obs.context import get_metrics, get_tracer
from repro.parallel.pool import DEFAULT_CHUNK_SIZE, partition_chunks, run_chunks
from repro.parallel.supervisor import SupervisionLike
from repro.rrset.storage import HEAP, Placement, SlabStore, member_dtype, pickled_size
from repro.runtime.deadline import Deadline, DeadlineLike, as_deadline, deadline_iter
from repro.utils.rng import SeedLike, child_sequences
from repro.utils.spill import peak_rss_mb

__all__ = ["sample_rr_sets", "sample_rr_csr"]


def _chunk_deadline(remaining: Optional[float]) -> Deadline:
    """The chunk-local budget: ``remaining`` seconds on the local clock."""
    if remaining is None:
        return Deadline.never()
    return Deadline.after(float(remaining))


def _rr_chunk_task(
    model: DiffusionModel,
    count: int,
    seed_seq: np.random.SeedSequence,
    roots: Optional[np.ndarray],
    remaining: Optional[float],
) -> List[np.ndarray]:
    """Sample one chunk of RR sets — the single shared sampling kernel.

    On the heap placement this is the pool task itself and the sampled
    arrays are pickled back.

    Roots (when not given) are drawn *before* any cascade so the chunk's
    root choices never depend on how far earlier cascades advanced the
    stream — the layout the checkpoint/resume determinism tests pin down.
    The adaptive-stride deadline polling of
    :func:`~repro.runtime.deadline.deadline_iter` bounds expiry overshoot
    to roughly one RR set's work even on dense graphs.  Both the heap
    and the slab chunk tasks call exactly this function, so every
    placement draws identical streams by construction.
    """
    rng = np.random.default_rng(seed_seq)
    if roots is None:
        roots = rng.integers(0, model.num_nodes, size=count)
    budget = _chunk_deadline(remaining)
    rr_sets: List[np.ndarray] = []
    for index in deadline_iter(count, budget):
        rr_sets.append(model.sample_rr_set(int(roots[index]), rng))
    return rr_sets


def _rr_slab_chunk_task(
    payload: Tuple[DiffusionModel, SlabStore, str],
    index: int,
    count: int,
    seed_seq: np.random.SeedSequence,
    roots: Optional[np.ndarray],
    remaining: Optional[float],
):
    """Shared-storage chunk task: results land in the chunk's slab files.

    Only the returned :class:`~repro.rrset.storage.SlabRef` (a ~100-byte
    receipt) crosses the process boundary.  Re-dispatch after a worker
    crash rewrites byte-identical slabs (same child seed stream), so the
    overwrite is idempotent; see :mod:`repro.rrset.storage`.
    """
    model, store, dtype = payload
    rr_sets = _rr_chunk_task(model, count, seed_seq, roots, remaining)
    return store.write_chunk(index, rr_sets, dtype)


def _sampling_plan(
    model: DiffusionModel,
    count: int,
    seed: SeedLike,
    roots: Optional[Sequence[int]],
    chunk_size: Optional[int],
    start_at: int,
):
    """Validate the request and lay out the deterministic chunk plan.

    Returns ``(sizes, chunk_args)`` with one ``(size, sequence, roots)``
    tuple per chunk, or ``None`` for an empty request.  Every placement
    executes this *same* plan (identical chunk boundaries and child seed
    streams).
    """
    if count < 0:
        raise EstimationError(f"count must be non-negative, got {count}")
    if model.num_nodes == 0:
        raise EstimationError("cannot sample RR sets of an empty graph")
    size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
    if start_at < 0:
        raise EstimationError(f"start_at must be non-negative, got {start_at}")
    if size > 0 and start_at % size != 0:
        raise EstimationError(
            f"start_at must be chunk-aligned (a multiple of {size}), got "
            f"{start_at}: the sampling plan's chunk boundaries are fixed"
        )
    root_arr: Optional[np.ndarray] = None
    if roots is not None:
        root_arr = np.asarray(roots, dtype=np.int64)
        if root_arr.shape != (count,):
            raise EstimationError(
                f"roots must have length {count}, got {root_arr.shape}"
            )
    if count == 0:
        return None

    sizes = partition_chunks(count, chunk_size)
    sequences = child_sequences(seed, start_at // size, len(sizes))
    chunk_args = []
    offset = 0
    for size, sequence in zip(sizes, sequences):
        chunk_roots = None if root_arr is None else root_arr[offset : offset + size]
        chunk_args.append((size, sequence, chunk_roots))
        offset += size
    return sizes, chunk_args


def sample_rr_sets(
    model: DiffusionModel,
    count: int,
    seed: SeedLike = None,
    roots: Optional[Sequence[int]] = None,
    deadline: DeadlineLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    start_at: int = 0,
    supervision: "SupervisionLike" = None,
) -> List[np.ndarray]:
    """Generate ``count`` random RR sets as a list of int64 arrays.

    A view of :func:`sample_rr_csr` on the heap placement (same
    parameters, same streams): each array holds the nodes of one
    hyper-edge, its root included.  The list is shorter than ``count``
    only when the deadline expired.
    """
    sizes, members = sample_rr_csr(
        model,
        count,
        seed=seed,
        roots=roots,
        deadline=deadline,
        workers=workers,
        chunk_size=chunk_size,
        start_at=start_at,
        supervision=supervision,
    )
    if sizes.size == 0:
        return []
    return np.split(members.astype(np.int64), np.cumsum(sizes[:-1]))


def sample_rr_csr(
    model: DiffusionModel,
    count: int,
    seed: SeedLike = None,
    roots: Optional[Sequence[int]] = None,
    deadline: DeadlineLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    start_at: int = 0,
    supervision: "SupervisionLike" = None,
    placement: Placement = HEAP,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``count`` RR sets as a CSR pair ``(sizes, members)``.

    ``sizes`` is ``int64`` per hyper-edge; ``members`` is the
    concatenated member stream in the dtype policy's member width (see
    :mod:`repro.rrset.storage`).  For a fixed seed the output is
    bit-identical across worker counts and placements.

    Parameters
    ----------
    model:
        Any diffusion model exposing ``sample_rr_set``.
    count:
        Number of hyper-edges ``theta`` to generate.
    seed:
        RNG seed (int / Generator / SeedSequence / None).
    roots:
        Optional explicit poll roots (length ``count``); default draws roots
        uniformly from ``V`` — the distribution required for the unbiased
        estimators (Theorem 9 and the ``n * deg_H(S) / theta`` estimator of
        the polling framework).
    deadline:
        Optional run budget (seconds or :class:`~repro.runtime.Deadline`).
        On expiry the sets sampled so far are returned — fewer hyper-edges
        only widen the estimator's variance, never bias it, because each
        RR set is drawn i.i.d.  Expiring before *any* set was sampled
        raises :class:`~repro.exceptions.DeadlineExceeded`.
    workers:
        Parallel sampling processes: ``1`` runs inline, ``"auto"`` means
        one per CPU, ``None`` defers to the ``REPRO_WORKERS`` environment
        variable (default 1).
    chunk_size:
        Sets per work chunk (default
        :data:`~repro.parallel.pool.DEFAULT_CHUNK_SIZE`).  Part of the
        deterministic plan: changing it changes the sampled streams.
    start_at:
        Offset into the *global* sampling plan of ``seed``: the call
        produces hyper-edges ``start_at .. start_at+count-1`` exactly as a
        single call for ``start_at + count`` sets would have, because
        chunk ``i`` of the plan always draws from child ``i`` of the root
        seed.  Must be a multiple of the chunk size (the plan's chunk
        boundaries are fixed); this is how
        :func:`repro.rrset.adaptive.adaptive_hypergraph` extends a
        hyper-graph in instalments that stay bit-identical to a one-shot
        build.  Note a ``SeedSequence``/int seed keeps the plan stable
        across calls; a live ``Generator`` is consumed at the first call.
    supervision:
        Pool recovery policy (see :mod:`repro.parallel.supervisor`);
        never changes the sampled sets of a run that completes.
    placement:
        A :class:`~repro.rrset.storage.Placement`.  On ``heap``, chunks
        pickle their sampled arrays back and the coordinator
        concatenates them.  On ``shm``/``mmap``, each chunk writes its
        members into a memory-mapped slab file under a per-run
        :class:`~repro.rrset.storage.SlabStore` and pickles only a
        ~100-byte receipt; the coordinator assembles the CSR arrays from
        the slabs (into spill files for ``mmap``, keeping its resident
        set independent of ``theta``) and removes them.  The
        ``storage.*`` metrics record each transport's pickle volume.
    """
    plan = _sampling_plan(model, count, seed, roots, chunk_size, start_at)
    dtype = member_dtype(model.num_nodes)
    if plan is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)
    planned_sizes, chunk_args = plan
    budget = as_deadline(deadline)
    metrics = get_metrics()
    tracer = get_tracer()
    with tracer.span(
        "rrset.sample",
        theta=count,
        chunks=len(planned_sizes),
        start_at=start_at,
        storage=placement.kind,
    ) as span:
        if placement.kind != "heap":
            store = SlabStore.create(placement.slab_dir)
            try:
                refs, expired = run_chunks(
                    _rr_slab_chunk_task,
                    (model, store, dtype.str),
                    [(index, *args) for index, args in enumerate(chunk_args)],
                    workers=workers,
                    deadline=budget,
                    inject_site="sampler.chunk",
                    supervision=supervision,
                )
                with tracer.span(
                    "storage.assemble", chunks=len(refs), backing=placement.kind
                ) as assemble_span:
                    sizes, members = store.assemble(refs, dtype, placement)
                    assemble_span.set(
                        produced=int(sizes.size),
                        total_members=int(members.size),
                        slab_bytes=int(members.nbytes + sizes.nbytes),
                    )
            finally:
                store.cleanup()
            produced = [ref.count for ref in refs]
            pickled = sum(pickled_size(ref) for ref in refs)
            rss = peak_rss_mb()
            if rss is not None:
                metrics.set_gauge("storage.peak_rss_mb", rss)
            metrics.inc("storage.slab_chunks_total", len(refs))
            metrics.inc("storage.slab_bytes_total", int(members.nbytes))
            metrics.inc("storage.assemblies_total")
        else:
            chunks, expired = run_chunks(
                _rr_chunk_task,
                model,
                chunk_args,
                workers=workers,
                deadline=budget,
                inject_site="sampler.chunk",
                supervision=supervision,
            )
            produced = [len(chunk) for chunk in chunks]
            rr_sets = [rr for chunk in chunks for rr in chunk]
            sizes = np.fromiter(
                (rr.size for rr in rr_sets), dtype=np.int64, count=len(rr_sets)
            )
            members = (
                np.concatenate(rr_sets, dtype=dtype, casting="unsafe")
                if rr_sets
                else np.empty(0, dtype=dtype)
            )
            # What the member arrays cost on the pickle channel: their
            # full sampled width, 8 bytes per member.
            pickled = int(sum(rr.nbytes for rr in rr_sets))
            metrics.inc("storage.heap_samples_total")
        # Chunk events come off the ordered results list, never from
        # completion order, so traces stay identical across worker counts.
        for index, items in enumerate(produced):
            planned = planned_sizes[index]
            span.event("chunk", index=index, planned=planned, produced=items)
            metrics.observe("rrset.chunk_items", items)
        span.set(produced=int(sizes.size), truncated=expired)
        metrics.inc("rrset.requested_total", count)
        metrics.inc("rrset.sampled_total", int(sizes.size))
        # Total member count = the width of the CSR stream the hyper-graph
        # build will allocate; BENCH_cd.json reports it alongside timings.
        metrics.inc("rrset.nodes_sampled_total", int(members.size))
        metrics.inc("storage.pickled_bytes_total", pickled)
        if expired:
            metrics.inc("rrset.truncated_total")
        if sizes.size == 0:
            budget.check("sampling the first RR set")
    return sizes, members
