"""Maximum-coverage seed selection on the RR hyper-graph.

Two variants share a lazy-greedy (CELF) engine:

* :func:`max_coverage` — classic set cover: pick ``k`` nodes maximizing the
  number of hyper-edges hit (the discrete-IM step 2 of Section 8).
* :func:`weighted_max_coverage` — probabilistic cover used by the Unified
  Discount algorithm: node ``u`` "hits" an incident hyper-edge only with
  probability ``q_u = p_u(c)``, so the objective is
  ``sum_h [1 - prod_{u in h ∩ S} (1 - q_u)]``, which Theorem 8 shows is
  monotone and submodular — hence lazy greedy attains ``1 - 1/e``.

The unweighted variant is exactly the weighted one at ``q ≡ 1``; it is kept
as a thin wrapper so call sites read naturally.  The engine itself,
:func:`celf_coverage`, also runs the cost-capped greedy of expected-budget
UD.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from typing import List

import numpy as np

from repro.exceptions import SolverError
from repro.rrset.hypergraph import RRHypergraph

__all__ = ["CoverageResult", "celf_coverage", "max_coverage", "weighted_max_coverage"]


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a greedy coverage run.

    Attributes
    ----------
    seeds:
        Selected nodes in selection order.
    gains:
        Marginal (weighted) coverage gain of each selection.
    covered:
        Final objective value ``sum_h (1 - survival_h)``; for the
        unweighted case this is the integer count of covered hyper-edges.
    spread_estimate:
        ``n * covered / theta`` — unbiased spread estimate implied by the
        final coverage.
    heap_seeds:
        Entries placed in the initial CELF heap (candidates with a
        positive initial gain).
    lazy_reevals:
        Stale heap tops whose gain was recomputed.
    """

    seeds: List[int]
    gains: List[float]
    covered: float
    spread_estimate: float
    heap_seeds: int = 0
    lazy_reevals: int = 0


def weighted_max_coverage(
    hypergraph: RRHypergraph,
    node_probs: np.ndarray,
    k: int,
    candidates: np.ndarray | None = None,
) -> CoverageResult:
    """Lazy-greedy weighted max coverage.

    Parameters
    ----------
    hypergraph:
        The RR hyper-graph ``H``.
    node_probs:
        Per-node hit probability ``q_u`` in ``[0, 1]`` (for UD this is
        ``p_u(c)`` at the fixed unified discount ``c``).
    k:
        Number of nodes to select (fewer are returned if no candidate has a
        positive gain — adding such nodes cannot help).
    candidates:
        Optional restriction of the selectable nodes.

    Notes
    -----
    Maintains per-hyper-edge *survival* ``r_h = prod_{w in S ∩ h} (1 - q_w)``
    (initially 1); the marginal gain of ``u`` is ``q_u * sum_{h ∋ u} r_h``.
    Lazy evaluation is sound because the objective is submodular (Theorem
    8): a stale upper bound only decreases.
    """
    node_probs = np.asarray(node_probs, dtype=np.float64)
    if node_probs.shape != (hypergraph.num_nodes,):
        raise SolverError(
            f"node_probs must have length n={hypergraph.num_nodes}, got {node_probs.shape}"
        )
    if np.any(node_probs < 0.0) or np.any(node_probs > 1.0):
        raise SolverError("node_probs must lie in [0, 1]")
    if k < 0:
        raise SolverError(f"k must be non-negative, got {k}")
    return celf_coverage(hypergraph, node_probs, k, candidates)


def celf_coverage(
    hypergraph: RRHypergraph,
    node_probs: np.ndarray,
    k: int,
    candidates: np.ndarray | None = None,
    node_costs: np.ndarray | None = None,
    budget: float = np.inf,
) -> CoverageResult:
    """The CELF engine behind :func:`weighted_max_coverage`, unvalidated.

    With ``node_costs``, a node whose cost no longer fits ``budget`` is
    dropped when it reaches the heap top (expected-budget UD).  Output is
    bit-identical to per-node seeding; docs/performance.md ("UD lazy
    greedy") gives the argument.
    """
    if candidates is None:
        candidates = np.arange(hypergraph.num_nodes, dtype=np.int64)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
    # While every survival is 1 the gain is q_u * deg_H(u) exactly (a pairwise
    # sum of d ones is d).  Gains <= 0 can never be picked: every positive
    # entry pops first and a fresh gain <= 0 ends the loop.
    degrees = hypergraph.degrees()[candidates].astype(np.float64)
    initial = node_probs[candidates] * degrees
    keep = initial > 0.0
    # CELF priority queue: (-gain, stale_round, node).
    heap = list(zip((-initial[keep]).tolist(), repeat(-1), candidates[keep].tolist()))
    heapq.heapify(heap)
    heap_seeds = len(heap)

    survival = np.ones(hypergraph.num_hyperedges, dtype=np.float64)
    offsets = np.asarray(hypergraph.node_offsets)
    node_edges = np.asarray(hypergraph.node_edges)
    gather, add = survival.take, np.add.reduce
    seeds: List[int] = []
    gains: List[float] = []
    spent = 0.0
    round_index = 0
    reevals = 0
    selected = bytearray(hypergraph.num_nodes)
    while len(seeds) < k and heap:
        neg_gain, stamp, node = heap[0]
        if selected[node] or (
            node_costs is not None and spent + node_costs[node] > budget + 1e-12
        ):
            heapq.heappop(heap)
            continue
        if stamp != round_index:
            # np.add.reduce: the pairwise sum ndarray.sum runs, minus its wrapper.
            edges = node_edges[offsets[node] : offsets[node + 1]]
            fresh = float(node_probs[node] * add(gather(edges)))
            # Pop-then-push in one sift: pop order depends only on the
            # heap's contents, which are the same either way.
            heapq.heapreplace(heap, (-fresh, round_index, node))
            reevals += 1
            continue
        heapq.heappop(heap)
        gain = -neg_gain
        if gain <= 0.0:
            break
        seeds.append(node)
        gains.append(gain)
        selected[node] = 1
        if node_costs is not None:
            spent += float(node_costs[node])
        survival[hypergraph.incident_edges(node)] *= 1.0 - node_probs[node]
        round_index += 1

    covered = float((1.0 - survival).sum())
    theta = hypergraph.num_hyperedges
    spread = hypergraph.num_nodes * covered / theta if theta else 0.0
    return CoverageResult(
        seeds=seeds,
        gains=gains,
        covered=covered,
        spread_estimate=spread,
        heap_seeds=heap_seeds,
        lazy_reevals=reevals,
    )


def max_coverage(hypergraph: RRHypergraph, k: int) -> CoverageResult:
    """Unweighted lazy-greedy maximum coverage (discrete-IM seed selection)."""
    return weighted_max_coverage(
        hypergraph, np.ones(hypergraph.num_nodes, dtype=np.float64), k
    )
