"""Unit tests for (weighted) maximum coverage on hyper-graphs."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.rrset.coverage import celf_coverage, max_coverage, weighted_max_coverage
from repro.rrset.hypergraph import RRHypergraph


def hypergraph_with_obvious_winner():
    """Node 0 covers 3 hyper-edges, node 1 covers 2, node 2 covers 1."""
    return RRHypergraph(
        3,
        [
            np.array([0]),
            np.array([0, 1]),
            np.array([0, 1]),
            np.array([2]),
        ],
    )


class TestMaxCoverage:
    def test_greedy_order(self):
        hg = hypergraph_with_obvious_winner()
        result = max_coverage(hg, 3)
        assert result.seeds[0] == 0  # highest degree first
        assert set(result.seeds) == {0, 1, 2} - {1}  # node 1 adds nothing after 0
        assert result.covered == 4

    def test_marginal_gains_decreasing(self):
        hg = hypergraph_with_obvious_winner()
        result = max_coverage(hg, 3)
        assert all(a >= b for a, b in zip(result.gains, result.gains[1:]))

    def test_stops_when_gain_zero(self):
        hg = RRHypergraph(3, [np.array([0])])
        result = max_coverage(hg, 3)
        assert result.seeds == [0]

    def test_k_zero(self):
        hg = hypergraph_with_obvious_winner()
        result = max_coverage(hg, 0)
        assert result.seeds == []
        assert result.covered == 0

    def test_negative_k_rejected(self):
        hg = hypergraph_with_obvious_winner()
        with pytest.raises(SolverError):
            max_coverage(hg, -1)

    def test_greedy_optimal_on_disjoint_sets(self):
        """Disjoint covers: greedy = optimal, picks the largest-degree nodes."""
        hg = RRHypergraph(
            4,
            [np.array([0]), np.array([0]), np.array([1]), np.array([2]), np.array([3])],
        )
        result = max_coverage(hg, 2)
        assert result.seeds[0] == 0
        assert result.covered == 3

    def test_spread_estimate_scaling(self):
        hg = hypergraph_with_obvious_winner()
        result = max_coverage(hg, 1)
        assert result.spread_estimate == pytest.approx(3 * result.covered / 4)


class TestWeightedMaxCoverage:
    def test_equals_unweighted_at_probability_one(self):
        hg = hypergraph_with_obvious_winner()
        unweighted = max_coverage(hg, 2)
        weighted = weighted_max_coverage(hg, np.ones(3), 2)
        assert weighted.seeds == unweighted.seeds
        assert weighted.covered == pytest.approx(unweighted.covered)

    def test_probability_scales_gain(self):
        """Node 1 at q=1 beats node 0 at q=0.1 despite lower degree."""
        hg = RRHypergraph(
            2, [np.array([0]), np.array([0]), np.array([0]), np.array([1]), np.array([1])]
        )
        result = weighted_max_coverage(hg, np.array([0.1, 1.0]), 1)
        assert result.seeds == [1]
        assert result.covered == pytest.approx(2.0)

    def test_objective_value_formula(self):
        """covered = sum_h (1 - prod (1 - q_u)) for the selected set."""
        hg = RRHypergraph(2, [np.array([0, 1])])
        result = weighted_max_coverage(hg, np.array([0.5, 0.5]), 2)
        # Both selected: 1 - 0.5 * 0.5 = 0.75.
        assert result.covered == pytest.approx(0.75)

    def test_zero_probability_node_never_selected(self):
        hg = hypergraph_with_obvious_winner()
        result = weighted_max_coverage(hg, np.array([0.0, 0.5, 0.5]), 3)
        assert 0 not in result.seeds

    def test_wrong_length_rejected(self):
        hg = hypergraph_with_obvious_winner()
        with pytest.raises(SolverError):
            weighted_max_coverage(hg, np.ones(5), 1)

    def test_invalid_probabilities_rejected(self):
        hg = hypergraph_with_obvious_winner()
        with pytest.raises(SolverError):
            weighted_max_coverage(hg, np.array([0.5, 1.5, 0.5]), 1)

    def test_candidate_restriction(self):
        hg = hypergraph_with_obvious_winner()
        result = weighted_max_coverage(hg, np.ones(3), 1, candidates=np.array([1, 2]))
        assert result.seeds == [1]

    def test_lazy_greedy_matches_naive_greedy(self):
        """CELF must return the same selection as exhaustive greedy."""
        rng = np.random.default_rng(7)
        edges = [rng.choice(12, size=rng.integers(1, 5), replace=False) for _ in range(60)]
        hg = RRHypergraph(12, edges)
        probs = rng.uniform(0.1, 1.0, size=12)
        lazy = weighted_max_coverage(hg, probs, 4)

        # Naive reference implementation.
        survival = np.ones(60)
        chosen = []
        for _ in range(4):
            best, best_gain = None, 0.0
            for u in range(12):
                if u in chosen:
                    continue
                gain = probs[u] * survival[hg.incident_edges(u)].sum()
                if gain > best_gain + 1e-12:
                    best, best_gain = u, gain
            chosen.append(best)
            survival[hg.incident_edges(best)] *= 1.0 - probs[best]
        assert lazy.seeds == chosen


# ---------------------------------------------------------------------------
# Oracles: the per-node-seeding CELF kernels the vectorized engine replaced.
# The engine must agree with them bit for bit, not approximately.


def oracle_weighted_max_coverage(hypergraph, node_probs, k, candidates=None):
    """Reference CELF: one Python ``gain_of`` call per candidate to seed."""
    node_probs = np.asarray(node_probs, dtype=np.float64)
    if candidates is None:
        candidates = np.arange(hypergraph.num_nodes, dtype=np.int64)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
    survival = np.ones(hypergraph.num_hyperedges, dtype=np.float64)

    def gain_of(node):
        edges = hypergraph.incident_edges(node)
        if edges.size == 0:
            return 0.0
        return float(node_probs[node] * survival[edges].sum())

    heap = [(-gain_of(int(u)), -1, int(u)) for u in candidates]
    heapq.heapify(heap)
    seeds, gains = [], []
    round_index = 0
    selected = np.zeros(hypergraph.num_nodes, dtype=bool)
    while len(seeds) < k and heap:
        neg_gain, stamp, node = heapq.heappop(heap)
        if selected[node]:
            continue
        if stamp != round_index:
            heapq.heappush(heap, (-gain_of(node), round_index, node))
            continue
        gain = -neg_gain
        if gain <= 0.0:
            break
        seeds.append(node)
        gains.append(gain)
        selected[node] = True
        survival[hypergraph.incident_edges(node)] *= 1.0 - node_probs[node]
        round_index += 1
    return seeds, gains, float((1.0 - survival).sum())


def oracle_greedy_under_cost(hypergraph, node_probs, node_costs, budget):
    """Reference expected-budget CELF: drops nodes that no longer fit."""
    survival = np.ones(hypergraph.num_hyperedges, dtype=np.float64)

    def gain_of(node):
        edges = hypergraph.incident_edges(node)
        if edges.size == 0:
            return 0.0
        return float(node_probs[node] * survival[edges].sum())

    heap = [(-gain_of(u), -1, u) for u in range(hypergraph.num_nodes)]
    heapq.heapify(heap)
    selected, spent, round_index = [], 0.0, 0
    taken = np.zeros(hypergraph.num_nodes, dtype=bool)
    while heap:
        neg_gain, stamp, node = heapq.heappop(heap)
        if taken[node]:
            continue
        if spent + node_costs[node] > budget + 1e-12:
            continue
        if stamp != round_index:
            heapq.heappush(heap, (-gain_of(node), round_index, node))
            continue
        if -neg_gain <= 0.0:
            break
        selected.append(node)
        taken[node] = True
        spent += float(node_costs[node])
        survival[hypergraph.incident_edges(node)] *= 1.0 - node_probs[node]
        round_index += 1
    return selected, float((1.0 - survival).sum())


#: Few distinct probabilities make ties common; 0 and 1 are the edge cases
#: (never selectable / drives every incident survival to exactly 0).
PROBS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def coverage_instances(draw):
    """Hyper-graphs that leave some nodes with degree zero."""
    n = draw(st.integers(min_value=1, max_value=10))
    active = draw(st.integers(min_value=1, max_value=n))  # nodes >= active: degree 0
    edges = draw(
        st.lists(
            st.sets(st.integers(0, active - 1), min_size=1, max_size=active),
            min_size=1,
            max_size=25,
        )
    )
    hypergraph = RRHypergraph(n, [np.array(sorted(e), dtype=np.int64) for e in edges])
    probs = np.array(draw(st.lists(PROBS, min_size=n, max_size=n)))
    return hypergraph, probs


class TestEngineMatchesOracle:
    @given(
        instance=coverage_instances(),
        k=st.integers(min_value=0, max_value=14),
        pick=st.one_of(st.none(), st.lists(st.integers(0, 9), max_size=14)),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_per_node_seeding(self, instance, k, pick):
        """Subset, unordered and duplicated candidates; k past the
        positive-gain nodes; zero-degree, q=0, q=1 nodes and ties."""
        hypergraph, probs = instance
        candidates = (
            None
            if pick is None
            else np.array([u % hypergraph.num_nodes for u in pick], dtype=np.int64)
        )
        result = weighted_max_coverage(hypergraph, probs, k, candidates=candidates)
        seeds, gains, covered = oracle_weighted_max_coverage(
            hypergraph, probs, k, candidates
        )
        assert result.seeds == seeds
        assert result.gains == gains
        assert result.covered == covered

    @given(
        instance=coverage_instances(),
        cost_scale=st.sampled_from([0.05, 0.5, 1.0]),
        budget=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_cost_capped_mode_matches_expected_budget_oracle(
        self, instance, cost_scale, budget
    ):
        hypergraph, probs = instance
        costs = cost_scale * probs
        result = celf_coverage(
            hypergraph, probs, hypergraph.num_nodes, node_costs=costs, budget=budget
        )
        seeds, covered = oracle_greedy_under_cost(hypergraph, probs, costs, budget)
        assert result.seeds == seeds
        assert result.covered == covered

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_on_dense_random_instance(self, seed):
        """High degrees and generic q make the re-evaluation sums round, so
        a different summation order than ``ndarray.sum`` would show."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 12, size=600)
        edges = [rng.choice(40, size=size, replace=False) for size in sizes]
        hypergraph = RRHypergraph(48, edges)
        probs = rng.uniform(0.0, 1.0, size=48)
        probs[rng.choice(48, size=5, replace=False)] = 0.0
        for k, candidates in ((30, None), (12, rng.integers(0, 48, size=30))):
            result = weighted_max_coverage(hypergraph, probs, k, candidates=candidates)
            seeds, gains, covered = oracle_weighted_max_coverage(
                hypergraph, probs, k, candidates
            )
            assert result.seeds == seeds
            assert result.gains == gains
            assert result.covered == covered

    def test_all_equal_gains_tie_break(self):
        """Every node covers one private edge at the same q: pure ties."""
        hypergraph = RRHypergraph(6, [np.array([u]) for u in (4, 1, 5, 0, 3, 2)])
        probs = np.full(6, 0.5)
        candidates = np.array([5, 2, 2, 0, 4], dtype=np.int64)
        result = weighted_max_coverage(hypergraph, probs, 4, candidates=candidates)
        seeds, gains, covered = oracle_weighted_max_coverage(
            hypergraph, probs, 4, candidates
        )
        assert (result.seeds, result.gains, result.covered) == (seeds, gains, covered)
        assert result.seeds == [0, 2, 4, 5]


class TestOpCounts:
    def test_heap_seeds_counts_positive_initial_gains(self):
        hypergraph = RRHypergraph(
            5, [np.array([0, 1]), np.array([1, 2]), np.array([0, 2])]
        )
        probs = np.array([0.5, 0.0, 1.0, 0.7, 0.2])  # node 1: q=0; 3, 4: degree 0
        result = weighted_max_coverage(hypergraph, probs, 3)
        assert result.heap_seeds == 2
        restricted = weighted_max_coverage(
            hypergraph, probs, 3, candidates=np.array([2, 3])
        )
        assert restricted.heap_seeds == 1

    def test_lazy_reevals_counted(self):
        # Seeded entries carry stamp -1, so each top is recomputed once
        # before it is taken: node 0 in round 0, node 1 in round 1.
        hypergraph = RRHypergraph(2, [np.array([0]), np.array([0, 1]), np.array([1])])
        result = weighted_max_coverage(hypergraph, np.array([1.0, 0.5]), 2)
        assert result.seeds == [0, 1]
        assert result.lazy_reevals == 2
