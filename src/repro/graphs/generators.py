"""Synthetic graph generators.

The paper evaluates on four SNAP networks (wiki-Vote, ca-AstroPh, com-DBLP,
com-LiveJournal) that are not redistributable here.  These generators provide
(1) standard random-graph families and deterministic toy topologies used by
tests and examples, and (2) *benchmark analogues* — reduced-scale graphs that
match the published shape (directedness, average degree, heavy-tailed degree
distribution) of each SNAP dataset, as documented in DESIGN.md.

All generators return :class:`repro.graphs.digraph.DiGraph` with unit edge
probabilities; apply a scheme from :mod:`repro.graphs.weights` afterwards.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.build import GraphBuilder
from repro.graphs.digraph import DiGraph
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "powerlaw_configuration",
    "forest_fire",
    "complete_graph",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "isolated_nodes",
    "wiki_vote_like",
    "ca_astroph_like",
    "com_dblp_like",
    "com_lj_like",
]


# ----------------------------------------------------------------------
# deterministic toy topologies
# ----------------------------------------------------------------------

def isolated_nodes(n: int) -> DiGraph:
    """``n`` nodes, no edges — the paper's Example 1 topology."""
    return GraphBuilder(num_nodes=n).build()


def complete_graph(n: int, probability: float = 1.0) -> DiGraph:
    """Complete directed graph on ``n`` nodes (no self-loops)."""
    builder = GraphBuilder(num_nodes=n, default_probability=probability)
    for u in range(n):
        for v in range(n):
            if u != v:
                builder.add_edge(u, v)
    return builder.build()


def path_graph(n: int, probability: float = 1.0, bidirectional: bool = False) -> DiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    builder = GraphBuilder(num_nodes=n, default_probability=probability)
    for u in range(n - 1):
        builder.add_edge(u, u + 1)
        if bidirectional:
            builder.add_edge(u + 1, u)
    return builder.build()


def cycle_graph(n: int, probability: float = 1.0) -> DiGraph:
    """Directed cycle on ``n`` nodes."""
    if n < 2:
        raise GraphError("cycle_graph requires n >= 2")
    builder = GraphBuilder(num_nodes=n, default_probability=probability)
    for u in range(n):
        builder.add_edge(u, (u + 1) % n)
    return builder.build()


def star_graph(n_leaves: int, probability: float = 1.0, center_out: bool = True) -> DiGraph:
    """Star with node 0 as hub and ``n_leaves`` leaves.

    With ``center_out=True`` edges point hub -> leaf (the Figure 1 toy
    example); otherwise leaf -> hub.
    """
    builder = GraphBuilder(num_nodes=n_leaves + 1, default_probability=probability)
    for leaf in range(1, n_leaves + 1):
        if center_out:
            builder.add_edge(0, leaf)
        else:
            builder.add_edge(leaf, 0)
    return builder.build()


# ----------------------------------------------------------------------
# random families
# ----------------------------------------------------------------------

def erdos_renyi(n: int, p: float, seed: SeedLike = None, directed: bool = True) -> DiGraph:
    """Erdős–Rényi ``G(n, p)`` using sparse edge-count sampling.

    For each ordered (or unordered when ``directed=False``) pair, the edge is
    present independently with probability ``p``; sampling draws the edge
    count from a binomial and then places edges uniformly, which is O(m)
    rather than O(n^2).
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must lie in [0, 1], got {p}")
    rng = as_generator(seed)
    pairs = n * (n - 1) if directed else n * (n - 1) // 2
    m = int(rng.binomial(pairs, p)) if pairs else 0
    builder = GraphBuilder(num_nodes=n)
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        if not directed and u > v:
            u, v = v, u
        seen.add((u, v))
    for u, v in seen:
        if directed:
            builder.add_edge(u, v)
        else:
            builder.add_undirected_edge(u, v)
    return builder.build()


def barabasi_albert(n: int, m: int, seed: SeedLike = None) -> DiGraph:
    """Barabási–Albert preferential attachment, doubled to a digraph.

    Each new node attaches to ``m`` existing nodes chosen proportionally to
    degree (via the standard repeated-nodes urn); each undirected edge
    becomes two directed edges.
    """
    if m < 1 or m >= n:
        raise GraphError(f"barabasi_albert requires 1 <= m < n, got m={m}, n={n}")
    rng = as_generator(seed)
    builder = GraphBuilder(num_nodes=n)
    # Urn of node ids, each repeated once per incident edge endpoint.
    urn: list[int] = []
    # Seed clique-free core: connect node m to each of 0..m-1.
    targets = list(range(m))
    for new_node in range(m, n):
        chosen: set[int] = set()
        for t in targets:
            builder.add_undirected_edge(new_node, t)
            urn.append(new_node)
            urn.append(t)
            chosen.add(t)
        # Pick next targets preferentially from the urn.
        targets = []
        picked: set[int] = set()
        while len(targets) < m and len(picked) < len(set(urn)):
            candidate = urn[int(rng.integers(0, len(urn)))]
            if candidate not in picked:
                picked.add(candidate)
                targets.append(candidate)
    return builder.build()


def watts_strogatz(n: int, k: int, beta: float, seed: SeedLike = None) -> DiGraph:
    """Watts–Strogatz small-world ring, doubled to a digraph.

    Each node connects to its ``k`` nearest ring neighbors (``k`` even);
    each edge rewires its far endpoint with probability ``beta``.
    """
    if k % 2 or k <= 0 or k >= n:
        raise GraphError(f"watts_strogatz requires even 0 < k < n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise GraphError(f"beta must lie in [0, 1], got {beta}")
    rng = as_generator(seed)
    edges: set[tuple[int, int]] = set()
    for u in range(n):
        for j in range(1, k // 2 + 1):
            v = (u + j) % n
            edges.add((min(u, v), max(u, v)))
    rewired: set[tuple[int, int]] = set()
    for u, v in sorted(edges):
        if rng.random() < beta:
            for _ in range(n):  # bounded retry
                w = int(rng.integers(0, n))
                a, b = min(u, w), max(u, w)
                if w != u and (a, b) not in rewired and (a, b) not in edges:
                    u, v = a, b
                    break
        rewired.add((min(u, v), max(u, v)))
    builder = GraphBuilder(num_nodes=n)
    for u, v in rewired:
        builder.add_undirected_edge(u, v)
    return builder.build()


def powerlaw_configuration(
    n: int,
    exponent: float = 2.5,
    average_degree: float = 10.0,
    seed: SeedLike = None,
    directed: bool = True,
    backing: Optional[str] = None,
    spill_dir=None,
) -> DiGraph:
    """Configuration-model graph with power-law degree distribution.

    ``average_degree`` is the target ``m / n`` of the *resulting digraph*.
    Degrees are drawn from a discrete power law ``P(d) ∝ d^(-exponent)``
    rescaled accordingly, then stubs are matched uniformly at random
    (multi-edges and self-loops dropped, which slightly lowers the realized
    degree — acceptable for benchmark analogues).

    ``backing="mmap"`` routes the stub/key stream and the resulting CSR
    through spill files under ``spill_dir``
    (:mod:`repro.graphs.streaming`), capping heap usage at O(n) while
    producing the bit-identical graph; the default keeps everything on
    the heap.  The spill root resolves as in
    :meth:`repro.rrset.storage.Placement.resolve`.
    """
    if n <= 1:
        raise GraphError("powerlaw_configuration requires n > 1")
    if exponent <= 1.0:
        raise GraphError(f"exponent must exceed 1, got {exponent}")
    from repro.rrset.storage import Placement

    # A graph has no slab transport: only the heap-or-spill choice applies.
    placement = Placement.resolve(
        "shared" if backing == "mmap" else None, backing=backing, spill_dir=spill_dir
    )
    rng = as_generator(seed)
    max_degree = max(2, int(math.sqrt(n) * 2))
    support = np.arange(1, max_degree + 1, dtype=np.float64)
    weights = support ** (-exponent)
    weights /= weights.sum()
    raw_mean = float((support * weights).sum())
    # Stub matching yields sum(deg)/2 pairs; each pair becomes one directed
    # edge (directed=True) or two (undirected doubling), so the stub mean
    # must be twice the target m/n in the directed case.
    target_stub_mean = 2.0 * average_degree if directed else average_degree
    scale = target_stub_mean / raw_mean
    degrees = np.maximum(
        1, np.round(rng.choice(support, size=n, p=weights) * scale).astype(np.int64)
    )
    if degrees.sum() % 2:
        degrees[int(rng.integers(0, n))] += 1

    if placement.kind == "mmap":
        # The out-of-core tail consumes the identical RNG stream (its
        # only remaining draw is the stub shuffle, whose consumption
        # depends solely on length), so both paths emit the same graph.
        from repro.graphs.streaming import streaming_configuration_csr

        return streaming_configuration_csr(
            n, degrees, rng, directed=directed, spill_dir=placement.spill_dir
        )

    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    half = stubs.size // 2
    left, right = stubs[:half], stubs[half : 2 * half]

    # Assemble the CSR directly instead of feeding a GraphBuilder one edge
    # at a time: at com-LiveJournal scale the stub list is ~70M entries and
    # Python-level appends dominate both time and memory.  Encoding each
    # pair as ``u * n + v`` makes np.unique's ascending sort equal to the
    # builder's stable (source, target) lexsort, and all probabilities are
    # 1.0, so last-duplicate-wins is moot — the result is bit-identical to
    # the builder path (self-loops dropped, duplicates collapsed).
    keep = left != right
    left, right = left[keep], right[keep]
    if directed:
        keys = left * n + right
    else:
        keys = np.concatenate([left * n + right, right * n + left])
    del left, right, stubs
    keys = np.unique(keys)
    sources = keys // n
    targets = (keys % n).astype(np.int32)
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=out_offsets[1:])
    return DiGraph(n, out_offsets, targets, np.ones(keys.size, dtype=np.float64))


def forest_fire(
    n: int,
    forward_prob: float = 0.35,
    backward_prob: float = 0.30,
    seed: SeedLike = None,
) -> DiGraph:
    """Leskovec et al. forest-fire model (densifying, heavy-tailed).

    Each arriving node picks an ambassador, links to it, then recursively
    "burns" through the ambassador's out- and in-neighbors with geometric
    fan-outs governed by ``forward_prob`` / ``backward_prob``.
    """
    if not 0.0 <= forward_prob < 1.0 or not 0.0 <= backward_prob < 1.0:
        raise GraphError("forest_fire probabilities must lie in [0, 1)")
    rng = as_generator(seed)
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]

    def geometric_count(p: float) -> int:
        if p <= 0.0:
            return 0
        # Number of successes before first failure: mean p / (1 - p).
        return int(rng.geometric(1.0 - p)) - 1

    for new_node in range(1, n):
        ambassador = int(rng.integers(0, new_node))
        visited = {ambassador}
        frontier = [ambassador]
        while frontier:
            current = frontier.pop()
            out_adj[new_node].append(current)
            in_adj[current].append(new_node)
            candidates = [w for w in out_adj[current] if w not in visited and w != new_node]
            burn_fwd = min(geometric_count(forward_prob), len(candidates))
            picked = (
                rng.choice(len(candidates), size=burn_fwd, replace=False) if burn_fwd else []
            )
            next_nodes = [candidates[i] for i in picked]
            back_candidates = [w for w in in_adj[current] if w not in visited and w != new_node]
            burn_bwd = min(geometric_count(backward_prob), len(back_candidates))
            picked_b = (
                rng.choice(len(back_candidates), size=burn_bwd, replace=False)
                if burn_bwd
                else []
            )
            next_nodes += [back_candidates[i] for i in picked_b]
            for w in next_nodes:
                visited.add(w)
                frontier.append(w)
    builder = GraphBuilder(num_nodes=n)
    for u, neighbors in enumerate(out_adj):
        for v in neighbors:
            builder.add_edge(u, v)
    return builder.build()


# ----------------------------------------------------------------------
# benchmark analogues (Table 2 shapes at reduced scale)
# ----------------------------------------------------------------------

def _analogue(
    n: int,
    average_degree: float,
    exponent: float,
    seed: SeedLike,
    directed: bool,
    backing: Optional[str] = None,
    spill_dir=None,
) -> DiGraph:
    return powerlaw_configuration(
        n=n,
        exponent=exponent,
        average_degree=average_degree,
        seed=seed,
        directed=directed,
        backing=backing,
        spill_dir=spill_dir,
    )


def wiki_vote_like(
    scale: float = 1.0,
    seed: SeedLike = 2016,
    backing: Optional[str] = None,
    spill_dir=None,
) -> DiGraph:
    """Analogue of SNAP wiki-Vote (n=7115, m=103689, avg deg 14.6, directed).

    ``scale`` multiplies the node count; degree shape is preserved.
    """
    n = max(50, int(7115 * scale))
    return _analogue(
        n, average_degree=14.6, exponent=2.1, seed=seed, directed=True,
        backing=backing, spill_dir=spill_dir,
    )


def ca_astroph_like(
    scale: float = 1.0,
    seed: SeedLike = 2016,
    backing: Optional[str] = None,
    spill_dir=None,
) -> DiGraph:
    """Analogue of SNAP ca-AstroPh (n=18772, m=396160 directed, avg 21.1).

    The original is an undirected co-authorship network doubled to directed
    edges; the analogue doubles each sampled edge the same way.
    """
    n = max(50, int(18772 * scale))
    return _analogue(
        n, average_degree=21.1, exponent=2.3, seed=seed, directed=False,
        backing=backing, spill_dir=spill_dir,
    )


def com_dblp_like(
    scale: float = 1.0,
    seed: SeedLike = 2016,
    backing: Optional[str] = None,
    spill_dir=None,
) -> DiGraph:
    """Analogue of SNAP com-DBLP (n=317080, m~2.1M directed, avg 6.6)."""
    n = max(50, int(317080 * scale))
    return _analogue(
        n, average_degree=6.6, exponent=2.6, seed=seed, directed=False,
        backing=backing, spill_dir=spill_dir,
    )


def com_lj_like(
    scale: float = 1.0,
    seed: SeedLike = 2016,
    backing: Optional[str] = None,
    spill_dir=None,
) -> DiGraph:
    """Analogue of SNAP com-LiveJournal (n~3.99M, m~69M directed, avg 17.4).

    At ``scale=1.0`` prefer ``backing="mmap"``: the heap path's transient
    stub/key stream costs several GB where the streaming path stays O(n).
    """
    n = max(50, int(3997962 * scale))
    return _analogue(
        n, average_degree=17.4, exponent=2.4, seed=seed, directed=False,
        backing=backing, spill_dir=spill_dir,
    )
