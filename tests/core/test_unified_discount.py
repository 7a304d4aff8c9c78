"""Unit tests for the Unified Discount algorithm."""

import hashlib

import numpy as np
import pytest

from repro.core.constraints import PerUserCap, resolve_constraints
from repro.core.curves import ConcaveCurve
from repro.core.population import CurvePopulation, paper_mixture
from repro.core.problem import CIMProblem
from repro.core.unified_discount import default_discount_grid, unified_discount
from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import SolverError
from repro.graphs.generators import erdos_renyi, powerlaw_configuration, star_graph
from repro.graphs.weights import assign_weighted_cascade
from repro.obs.context import observe
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@pytest.fixture
def ud_setup():
    graph = assign_weighted_cascade(erdos_renyi(80, 0.08, seed=1), alpha=1.0)
    population = paper_mixture(80, seed=2)
    problem = CIMProblem(IndependentCascade(graph), population, budget=4.0)
    hypergraph = problem.build_hypergraph(num_hyperedges=5000, seed=3)
    return problem, hypergraph


class TestDiscountGrid:
    def test_default_five_percent(self):
        grid = default_discount_grid()
        assert grid.size == 20
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(1.0)

    def test_one_percent(self):
        grid = default_discount_grid(0.01)
        assert grid.size == 100

    def test_invalid_step(self):
        with pytest.raises(SolverError):
            default_discount_grid(0.0)
        with pytest.raises(SolverError):
            default_discount_grid(1.5)


class TestUnifiedDiscount:
    def test_configuration_is_unified(self, ud_setup):
        problem, hypergraph = ud_setup
        result = unified_discount(problem, hypergraph)
        support_values = result.configuration.discounts[result.configuration.support]
        assert np.allclose(support_values, result.best_discount)

    def test_budget_respected(self, ud_setup):
        problem, hypergraph = ud_setup
        result = unified_discount(problem, hypergraph)
        assert result.configuration.is_feasible(problem.budget)

    def test_target_count_matches_floor(self, ud_setup):
        problem, hypergraph = ud_setup
        result = unified_discount(problem, hypergraph)
        k_max = int(np.floor(problem.budget / result.best_discount + 1e-9))
        assert len(result.targets) <= k_max

    def test_grid_trace_complete(self, ud_setup):
        problem, hypergraph = ud_setup
        result = unified_discount(problem, hypergraph, step=0.05)
        assert len(result.grid) == 20  # every c affordable (k >= 1 at c = 1)
        discounts = [point.discount for point in result.grid]
        assert discounts == sorted(discounts)

    def test_best_is_max_of_trace(self, ud_setup):
        problem, hypergraph = ud_setup
        result = unified_discount(problem, hypergraph)
        best_point = max(result.grid, key=lambda p: p.spread_estimate)
        assert result.spread_estimate == pytest.approx(best_point.spread_estimate)
        assert result.best_discount == pytest.approx(best_point.discount)

    def test_explicit_grid(self, ud_setup):
        problem, hypergraph = ud_setup
        result = unified_discount(problem, hypergraph, discount_grid=[0.5])
        assert result.best_discount == pytest.approx(0.5)

    def test_invalid_grid_values(self, ud_setup):
        problem, hypergraph = ud_setup
        with pytest.raises(SolverError):
            unified_discount(problem, hypergraph, discount_grid=[0.0])
        with pytest.raises(SolverError):
            unified_discount(problem, hypergraph, discount_grid=[])

    def test_fine_grid_no_worse(self, ud_setup):
        """Table 3's premise: a finer grid can only improve the best value."""
        problem, hypergraph = ud_setup
        coarse = unified_discount(problem, hypergraph, step=0.05)
        fine = unified_discount(problem, hypergraph, step=0.01)
        assert fine.spread_estimate >= coarse.spread_estimate - 1e-9

    def test_beats_free_products_with_sensitive_users(self):
        """All-sensitive population: a partial unified discount must beat
        the 100% (free product) column of the grid."""
        graph = assign_weighted_cascade(erdos_renyi(60, 0.1, seed=4), alpha=1.0)
        population = CurvePopulation.uniform(60, ConcaveCurve())
        problem = CIMProblem(IndependentCascade(graph), population, budget=3.0)
        hypergraph = problem.build_hypergraph(num_hyperedges=4000, seed=5)
        result = unified_discount(problem, hypergraph)
        full_price_point = next(p for p in result.grid if p.discount == pytest.approx(1.0))
        assert result.spread_estimate > full_price_point.spread_estimate
        assert result.best_discount < 1.0

    def test_hub_targeted_on_star(self):
        graph = star_graph(6, probability=0.9)
        population = CurvePopulation.uniform(7, ConcaveCurve())
        problem = CIMProblem(IndependentCascade(graph), population, budget=1.0)
        hypergraph = problem.build_hypergraph(num_hyperedges=4000, seed=6)
        result = unified_discount(problem, hypergraph)
        assert 0 in result.targets


def _ud_digest(result) -> str:
    """sha256 over ``(best_discount, targets, grid trace)``, floats by hex."""
    hasher = hashlib.sha256()
    hasher.update(float(result.best_discount).hex().encode())
    hasher.update(np.asarray(result.targets, dtype=np.int64).tobytes())
    for point in result.grid:
        hasher.update(
            f"{point.discount.hex()}|{point.num_targets}|"
            f"{point.spread_estimate.hex()};".encode()
        )
    return hasher.hexdigest()


def _pinned_instance(name):
    if name == "er80":
        graph = erdos_renyi(80, 0.08, seed=1)
        n, pop_seed, budget, theta, rr_seed = 80, 2, 4.0, 5000, 3
    else:  # sparse power-law graph: some nodes have RR degree zero
        graph = powerlaw_configuration(400, average_degree=4.0, seed=5)
        n, pop_seed, budget, theta, rr_seed = 400, 6, 6.0, 600, 7
    problem = CIMProblem(
        IndependentCascade(assign_weighted_cascade(graph, alpha=1.0)),
        paper_mixture(n, seed=pop_seed),
        budget=budget,
    )
    return problem, problem.build_hypergraph(num_hyperedges=theta, seed=rr_seed)


#: Pinned: a change here means UD's selection changed (seeds, gains or the
#: grid trace), which no performance change to the CELF kernel may do.
UD_PINNED = {
    ("er80", 0.05): "6d4cc844a10a858fb0d9b68ce85206069ec716fb02d3a0db81f6bd260f2965c9",
    ("er80", 0.01): "ee8402c9fad60471b30e22988f60379856785f071afaefa5b2c69a7c4d9b8ed6",
    ("powerlaw400", 0.05): "ac8f89bb1f44750f3e2ba79c06e051b3afcd538170ba530fe4b6b8c77102ec00",
    ("powerlaw400", 0.01): "c8687e8a3e602d869c6b99e15eecbc6602c925a86ef6271af6706b04fec19ef8",
}


class TestPinnedDigest:
    @pytest.mark.parametrize("name", ["er80", "powerlaw400"])
    def test_grid_trace_digest_pinned(self, name):
        problem, hypergraph = _pinned_instance(name)
        for step in (0.05, 0.01):
            result = unified_discount(problem, hypergraph, step=step)
            assert _ud_digest(result) == UD_PINNED[(name, step)], step


def _observed_ud(problem, hypergraph, **kwargs):
    """UD under fresh collectors: (counters, grid_point event attrs)."""
    tracer, metrics = Tracer(), MetricsRegistry()
    with observe(tracer=tracer, metrics=metrics, merge_up=False):
        unified_discount(problem, hypergraph, **kwargs)
    (span,) = tracer.roots
    events = [e["attrs"] for e in span.events if e["name"] == "grid_point"]
    return metrics.snapshot()["counters"], events


class TestCelfCounters:
    def test_counters_identical_across_worker_counts(self):
        graph = assign_weighted_cascade(erdos_renyi(80, 0.08, seed=1), alpha=1.0)
        problem = CIMProblem(IndependentCascade(graph), paper_mixture(80, seed=2), 4.0)
        observed = []
        for workers in (1, 2):
            hypergraph = problem.build_hypergraph(
                num_hyperedges=2000, seed=3, workers=workers
            )
            counters, events = _observed_ud(problem, hypergraph)
            heap_evals = counters["ud.heap_evals_total"]
            observed.append((heap_evals, counters["ud.lazy_reevals_total"], events))
        assert observed[0] == observed[1]
        heap_evals, reevals, events = observed[0]
        assert heap_evals == sum(e["heap_seeds"] for e in events)
        assert reevals == sum(e["lazy_reevals"] for e in events)
        assert reevals > 0

    def test_heap_seeds_count_eligible_positive_gain_nodes(self):
        problem, hypergraph = _pinned_instance("powerlaw400")
        constraints = resolve_constraints(PerUserCap(0.5), problem, hypergraph)
        degree = hypergraph.degrees()
        for resolved in (None, constraints):
            _, events = _observed_ud(problem, hypergraph, constraints=resolved)
            assert events
            for event in events:
                discount = event["discount"]
                q = problem.population.probabilities_at(discount)
                eligible = np.ones(problem.num_nodes, dtype=bool)
                if resolved is not None:
                    eligible[:] = False
                    eligible[resolved.eligible_at(discount)] = True
                expected = int(np.count_nonzero(eligible & (q > 0) & (degree > 0)))
                assert event["heap_seeds"] == expected
