"""Expected-budget CIM — the paper's flagged future-work constraint.

Section 3 defines the budget as a *safe* (worst-case) budget: the company
reserves ``sum_u c_u``, paying whether or not users convert.  The paper
notes an alternative: "the expected budget under the discount rate
explanation" — the discount is only redeemed by users who actually buy, so
the expected spend of a configuration is

    EC(C) = sum_u  c_u * p_u(c_u).

This module implements CIM under ``EC(C) <= B``:

* :func:`expected_cost` — the constraint functional;
* :func:`invert_expected_cost` — bisection inverse of the per-user expected
  spend ``e_u(c) = c * p_u(c)`` (continuous, strictly increasing on the
  support of ``p_u``, with ``e_u(0) = 0`` and ``e_u(1) = 1``);
* :func:`unified_discount_expected` — UD where the target count at unified
  discount ``c`` is bounded by expected (not worst-case) spend, so the same
  budget reaches ``1 / p(c)`` times more users;
* :func:`coordinate_descent_expected` — pairwise coordinate descent whose
  moves preserve the *expected* pair spend: for a candidate ``c_i``, the
  partner ``c_j`` solves ``e_j(c_j) = E' - e_i(c_i)`` by bisection.

Because every user converts with probability at most 1, the expected spend
never exceeds the safe spend; an expected-budget configuration therefore
always weakly dominates the safe-budget one with the same ``B`` (verified
in the tests and the ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.curves import SeedProbabilityCurve
from repro.core.population import CurvePopulation
from repro.core.problem import CIMProblem
from repro.core.unified_discount import default_discount_grid
from repro.exceptions import SolverError
from repro.rrset.coverage import celf_coverage
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph

__all__ = [
    "expected_cost",
    "invert_expected_cost",
    "ExpectedUDResult",
    "unified_discount_expected",
    "ExpectedCDResult",
    "coordinate_descent_expected",
]

_BISECTION_TOLERANCE = 1e-10


def expected_cost(configuration: Configuration, population: CurvePopulation) -> float:
    """Expected spend ``EC(C) = sum_u c_u * p_u(c_u)``."""
    discounts = configuration.discounts
    return float((discounts * population.probabilities(discounts)).sum())


def invert_expected_cost(
    curve: SeedProbabilityCurve, target: float, tolerance: float = _BISECTION_TOLERANCE
) -> float:
    """The discount ``c`` whose expected spend ``c * p(c)`` equals ``target``.

    ``target`` must lie in ``[0, 1]`` (the range of ``e(c)``); values at the
    boundary return exactly 0 or 1.  Bisection is safe because ``e`` is
    continuous and non-decreasing with ``e(0) = 0``, ``e(1) = 1``.
    """
    if not 0.0 <= target <= 1.0:
        raise SolverError(f"target expected cost must lie in [0, 1], got {target}")
    if target <= 0.0:
        return 0.0
    if target >= 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if mid * curve(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass
class ExpectedUDResult:
    """Outcome of expected-budget Unified Discount."""

    configuration: Configuration
    best_discount: float
    targets: List[int]
    spread_estimate: float
    expected_spend: float
    grid: List[dict] = field(default_factory=list)


def unified_discount_expected(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    discount_grid: Optional[Sequence[float]] = None,
    step: float = 0.05,
) -> ExpectedUDResult:
    """UD under the expected-budget constraint.

    At unified discount ``c`` the expected cost of targeting user ``u`` is
    ``c * p_u(c)``; greedy selection (CELF order, as in safe-budget UD)
    adds users while the accumulated expected spend stays within ``B``.
    Budget-feasibility is per the *expected* semantics — the worst-case
    spend of the result may exceed ``B``, which is exactly the point.
    """
    grid = (
        np.asarray(list(discount_grid), dtype=np.float64)
        if discount_grid is not None
        else default_discount_grid(step)
    )
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid > 1.0):
        raise SolverError("unified discounts must lie in (0, 1]")

    population = problem.population
    n = problem.num_nodes
    best: Optional[tuple] = None
    trace: List[dict] = []
    for discount in grid:
        node_probs = population.probabilities_at(float(discount))
        node_costs = float(discount) * node_probs
        cover = celf_coverage(
            hypergraph, node_probs, n, node_costs=node_costs, budget=problem.budget
        )
        targets = np.asarray(cover.seeds, dtype=np.int64)
        spread = cover.spread_estimate
        spend = float(node_costs[targets].sum()) if targets.size else 0.0
        trace.append(
            {
                "discount": float(discount),
                "num_targets": int(targets.size),
                "spread": spread,
                "expected_spend": spend,
            }
        )
        if best is None or spread > best[2]:
            best = (float(discount), targets, spread, spend)

    if best is None or best[1].size == 0:
        raise SolverError("no affordable target set under the expected budget")
    best_c, targets, spread, spend = best
    configuration = Configuration.unified(targets.tolist(), best_c, n)
    return ExpectedUDResult(
        configuration=configuration,
        best_discount=best_c,
        targets=[int(u) for u in targets],
        spread_estimate=spread,
        expected_spend=spend,
        grid=trace,
    )


@dataclass
class ExpectedCDResult:
    """Outcome of expected-budget coordinate descent."""

    configuration: Configuration
    objective_value: float
    expected_spend: float
    round_values: List[float] = field(default_factory=list)
    rounds_run: int = 0
    pair_updates: int = 0
    converged: bool = False


def coordinate_descent_expected(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    initial: Configuration,
    grid_step: float = 0.02,
    max_rounds: int = 10,
    tolerance: float = 1e-9,
) -> ExpectedCDResult:
    """Pairwise coordinate descent preserving the expected pair spend.

    For each support pair ``(i, j)`` with pair expected spend
    ``E' = e_i(c_i) + e_j(c_j)``, candidate values of ``c_i`` walk a grid
    and the partner discount solves ``e_j(c_j) = E' - e_i(c_i)`` by
    bisection — so every visited configuration has exactly the initial
    expected spend, and the objective never decreases.
    """
    import itertools

    population = problem.population
    discounts = initial.discounts.copy()
    objective = HypergraphObjective(hypergraph, population.probabilities(discounts))
    current_value = objective.value()
    round_values = [current_value]
    coords = initial.support
    if coords.size < 2:
        return ExpectedCDResult(
            configuration=Configuration(discounts),
            objective_value=current_value,
            expected_spend=expected_cost(Configuration(discounts), population),
            round_values=round_values,
            converged=True,
        )

    pair_updates = 0
    rounds_run = 0
    converged = False
    for _ in range(max_rounds):
        rounds_run += 1
        round_start = current_value
        for i, j in itertools.combinations(coords.tolist(), 2):
            curve_i, curve_j = population.curve(i), population.curve(j)
            e_i = discounts[i] * curve_i(float(discounts[i]))
            e_j = discounts[j] * curve_j(float(discounts[j]))
            pair_spend = float(e_i + e_j)
            coefficients = objective.pair_coefficients(i, j)

            best_value = current_value
            best_pair = (float(discounts[i]), float(discounts[j]))
            for c_i in np.arange(0.0, 1.0 + 1e-9, grid_step):
                spend_i = c_i * curve_i(float(c_i))
                remainder = pair_spend - spend_i
                if remainder < -1e-12 or remainder > 1.0:
                    continue
                c_j = invert_expected_cost(curve_j, min(max(remainder, 0.0), 1.0))
                value = coefficients.value(float(curve_i(c_i)), float(curve_j(c_j)))
                if value > best_value + tolerance:
                    best_value = value
                    best_pair = (float(c_i), float(c_j))
            if best_pair != (float(discounts[i]), float(discounts[j])):
                discounts[i], discounts[j] = best_pair
                objective.set_probability(i, float(curve_i(best_pair[0])))
                objective.set_probability(j, float(curve_j(best_pair[1])))
                current_value = objective.value()
                pair_updates += 1
        round_values.append(current_value)
        if current_value - round_start <= tolerance:
            converged = True
            break

    configuration = Configuration(discounts)
    return ExpectedCDResult(
        configuration=configuration,
        objective_value=current_value,
        expected_spend=expected_cost(configuration, population),
        round_values=round_values,
        rounds_run=rounds_run,
        pair_updates=pair_updates,
        converged=converged,
    )
