"""Uniform solver facade: one entry point for IM / UD / CD and baselines.

``solve(problem, method=...)`` runs any registered strategy and returns a
:class:`SolveResult` whose spread estimate is computed with the *same*
Theorem-9 hyper-graph estimator for every method, so results are directly
comparable (the experimental protocol of Section 9: all algorithms run on
the same random hyper-graph ``H``).

Registered methods
------------------
``im``       discrete influence maximization (RR-set max coverage),
             embedded as an integer configuration with ``floor(B)`` seeds.
``ud``       Unified Discount (Section 8).
``cd``       Coordinate Descent warm-started from UD (Section 8).
``cd-im``    Coordinate Descent warm-started from the IM integer
             configuration (the Section-6 "no worse than IM" argument).
``gradient`` projected gradient ascent on the hyper-graph objective
             (capped-simplex projection + Armijo backtracking), warm-started
             from UD; reports a certified duality gap in ``extras``.
``fw``       Frank-Wolfe: projection-free conditional gradient whose
             linear step is a top-k greedy fill of the budget.
``greedy``   greedy fractional allocation: the budget flows in small
             increments to the best marginal-gain user (an alternative
             heuristic the paper does not evaluate).
``uniform``  spread the budget evenly over all users (Example 1 optimum).
``random``   random feasible configuration (sanity floor).
``degree``   integer configuration on the top out-degree nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.configuration import Configuration
from repro.core.objective import HypergraphOracle
from repro.core.problem import CIMProblem
from repro.core.unified_discount import unified_discount
from repro.discrete.heuristics import degree_seeds
from repro.exceptions import PartialResultWarning, SolverError
from repro.obs.context import get_tracer, observe
from repro.obs.metrics import MetricsRegistry
from repro.rrset.coverage import max_coverage
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sample_size import default_num_rr_sets
from repro.rrset.storage import Placement
from repro.runtime.deadline import Deadline, DeadlineLike, as_deadline
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import TimingBreakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.constraints import ConstraintLike, ResolvedConstraints

__all__ = [
    "SolveResult",
    "solve",
    "available_methods",
    "register_solver",
    "unregister_solver",
    "reset_solvers",
    "solver_supports_constraints",
]


@dataclass
class SolveResult:
    """Outcome of one solver run."""

    method: str
    configuration: Configuration
    spread_estimate: float
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """Budget actually spent by the returned configuration."""
        return self.configuration.cost


def _solve_im(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    k = int(np.floor(problem.budget + 1e-9))
    if k == 0:
        raise SolverError("discrete IM needs budget >= 1 (whole seeds)")
    coverage = max_coverage(hypergraph, k)
    config = Configuration.integer(coverage.seeds, problem.num_nodes)
    return config, {"seeds": coverage.seeds, "coverage": coverage.covered}


def _solve_ud(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    result = unified_discount(
        problem,
        hypergraph,
        discount_grid=options.get("discount_grid"),
        step=options.get("step", 0.05),
        deadline=options.get("deadline"),
        constraints=options.get("constraints"),
    )
    return result.configuration, {
        "best_discount": result.best_discount,
        "targets": result.targets,
        "grid": result.grid,
        "deadline_expired": result.deadline_expired,
    }


def _solve_cd(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    constraints = options.get("constraints")
    try:
        ud_result = unified_discount(
            problem,
            hypergraph,
            discount_grid=options.get("discount_grid"),
            step=options.get("step", 0.05),
            deadline=options.get("deadline"),
            constraints=constraints,
        )
        warm_start = ud_result.configuration
        warm_label = "ud"
        ud_discount = ud_result.best_discount
        ud_expired = ud_result.deadline_expired
    except SolverError:
        # Under generic constraints the whole unified family c·1_S can be
        # infeasible (UD then has no grid point to offer).  Descent does
        # not need the warm start to exist — degrade to a feasible cold
        # start instead of failing the solve.
        if constraints is None or not constraints.has_generic:
            raise
        warm_start = Configuration(
            constraints.project(np.zeros(problem.num_nodes))
        )
        warm_label = "cold"
        ud_discount = None
        ud_expired = False
    cd_result = coordinate_descent_hypergraph(
        problem,
        hypergraph,
        warm_start,
        grid_step=options.get("grid_step", 0.01),
        max_rounds=options.get("max_rounds", 10),
        refine_iterations=options.get("refine_iterations", 25),
        pair_strategy=options.get("pair_strategy", "cyclic"),
        deadline=options.get("deadline"),
        constraints=constraints,
    )
    return cd_result.configuration, {
        "warm_start": warm_label,
        "ud_discount": ud_discount,
        "rounds_run": cd_result.rounds_run,
        "pair_updates": cd_result.pair_updates,
        "round_values": cd_result.round_values,
        "converged": cd_result.converged,
        "deadline_expired": ud_expired or cd_result.deadline_expired,
    }


def _solve_cd_im(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    im_config, im_extras = _solve_im(problem, hypergraph, seed, options)
    # An integer warm start is a fixed point of support-restricted pairwise
    # CD: every support pair sits at (1, 1), so its feasible interval
    # [max(0, B'-1), min(1, B')] collapses to the single point {1}.  Budget
    # can only flow *out* of the seeds if promising zero coordinates join
    # the pair set — we add the highest hyper-graph-degree non-seeds.
    support = im_config.support
    degrees = hypergraph.degrees()
    by_degree = np.argsort(-degrees, kind="stable")
    in_support = np.zeros(problem.num_nodes, dtype=bool)
    in_support[support] = True
    extra = [int(u) for u in by_degree if not in_support[u]][: max(1, support.size)]
    coordinates = np.concatenate([support, np.asarray(extra, dtype=np.int64)])
    cd_result = coordinate_descent_hypergraph(
        problem,
        hypergraph,
        im_config,
        grid_step=options.get("grid_step", 0.01),
        max_rounds=options.get("max_rounds", 10),
        refine_iterations=options.get("refine_iterations", 25),
        coordinates=coordinates,
        deadline=options.get("deadline"),
        constraints=options.get("constraints"),
    )
    return cd_result.configuration, {
        "warm_start": "im",
        "im_seeds": im_extras["seeds"],
        "rounds_run": cd_result.rounds_run,
        "round_values": cd_result.round_values,
        "deadline_expired": cd_result.deadline_expired,
    }


def _gradient_warm_start(problem, hypergraph, options) -> tuple[Configuration, dict]:
    """Resolve the ``warm_start`` option shared by gradient and FW."""
    warm = options.get("warm_start", "ud")
    if warm == "ud":
        ud_result = unified_discount(
            problem,
            hypergraph,
            discount_grid=options.get("discount_grid"),
            step=options.get("step", 0.05),
            deadline=options.get("deadline"),
            constraints=options.get("constraints"),
        )
        return ud_result.configuration, {
            "warm_start": "ud",
            "ud_discount": ud_result.best_discount,
            "deadline_expired": ud_result.deadline_expired,
        }
    if warm == "zeros":
        return Configuration.zeros(problem.num_nodes), {
            "warm_start": "zeros",
            "deadline_expired": False,
        }
    if warm == "uniform":
        return Configuration.uniform(problem.budget, problem.num_nodes), {
            "warm_start": "uniform",
            "deadline_expired": False,
        }
    raise SolverError(
        f"unknown warm_start {warm!r}; choose 'ud', 'zeros' or 'uniform'"
    )


def _gradient_extras(result, warm_extras: dict) -> dict:
    extras = dict(warm_extras)
    extras.update(
        steps_run=result.steps_run,
        backtracks=result.backtracks,
        objective_evals=result.objective_evals,
        gradient_evals=result.gradient_evals,
        step_values=result.step_values,
        converged=result.converged,
        duality_gap=result.duality_gap,
        budget_spent=result.budget_spent,
        deadline_expired=warm_extras.get("deadline_expired", False)
        or result.deadline_expired,
    )
    if result.fw_gap is not None:
        extras["fw_gap"] = result.fw_gap
    return extras


def _solve_gradient(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    from repro.core.gradient import projected_gradient_ascent

    initial, warm_extras = _gradient_warm_start(problem, hypergraph, options)
    result = projected_gradient_ascent(
        problem,
        hypergraph,
        initial,
        step_size=options.get("step_size", 0.5),
        max_steps=options.get("max_steps", 200),
        tolerance=options.get("tolerance", 1e-3),
        deadline=options.get("deadline"),
        constraints=options.get("constraints"),
    )
    return result.configuration, _gradient_extras(result, warm_extras)


def _solve_fw(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    from repro.core.gradient import frank_wolfe

    options = dict(options)
    options.setdefault("warm_start", "zeros")
    initial, warm_extras = _gradient_warm_start(problem, hypergraph, options)
    result = frank_wolfe(
        problem,
        hypergraph,
        initial,
        max_steps=options.get("max_steps", 200),
        tolerance=options.get("tolerance", 1e-3),
        deadline=options.get("deadline"),
        constraints=options.get("constraints"),
    )
    return result.configuration, _gradient_extras(result, warm_extras)


def _solve_greedy(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    from repro.core.greedy_allocation import greedy_allocation

    result = greedy_allocation(
        problem, hypergraph, delta=options.get("delta", 0.05)
    )
    return result.configuration, {"increments": result.increments}


def _solve_uniform(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    return Configuration.uniform(problem.budget, problem.num_nodes), {}


def _solve_random(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    rng = as_generator(seed)
    # Random point of the budget simplex via Dirichlet, clipped to [0, 1];
    # clipping only lowers cost, so feasibility is preserved.
    weights = rng.dirichlet(np.ones(problem.num_nodes))
    discounts = np.minimum(1.0, weights * problem.budget)
    return Configuration(discounts), {}


def _solve_degree(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    k = int(np.floor(problem.budget + 1e-9))
    if k == 0:
        raise SolverError("degree seeding needs budget >= 1 (whole seeds)")
    seeds = degree_seeds(problem.graph, k)
    return Configuration.integer(seeds, problem.num_nodes), {"seeds": seeds}


_SolverFn = Callable[[CIMProblem, RRHypergraph, SeedLike, dict], tuple]


@dataclass(frozen=True)
class _SolverEntry:
    """One registry row: the strategy plus its capability flags.

    ``supports_constraints`` marks strategies that consume
    ``options["constraints"]`` natively; :func:`solve` projects the output
    of unaware strategies onto the feasible set instead (and tags the
    result ``extras["constraints_projected"]``).
    """

    fn: _SolverFn
    supports_constraints: bool = False


_REGISTRY: Dict[str, _SolverEntry] = {
    "im": _SolverEntry(_solve_im),
    "ud": _SolverEntry(_solve_ud, supports_constraints=True),
    "cd": _SolverEntry(_solve_cd, supports_constraints=True),
    "cd-im": _SolverEntry(_solve_cd_im, supports_constraints=True),
    "gradient": _SolverEntry(_solve_gradient, supports_constraints=True),
    "fw": _SolverEntry(_solve_fw, supports_constraints=True),
    "greedy": _SolverEntry(_solve_greedy),
    "uniform": _SolverEntry(_solve_uniform),
    "random": _SolverEntry(_solve_random),
    "degree": _SolverEntry(_solve_degree),
}

#: Immutable snapshot of the built-in strategies *with their capability
#: flags*, taken at import time — the restore point of
#: :func:`reset_solvers`.  Snapshotting whole entries (not bare callables)
#: is what lets a reset restore a built-in's constraint support after it
#: was shadowed by a constraint-wrapped re-registration.
_BUILTINS: Dict[str, _SolverEntry] = dict(_REGISTRY)

#: Methods whose descent the adaptive driver can run per instalment.
_ADAPTIVE_OPTIMIZERS = ("cd", "gradient", "fw")


def available_methods() -> List[str]:
    """Names accepted by :func:`solve`."""
    return sorted(_REGISTRY)


def solver_supports_constraints(name: str) -> bool:
    """Whether a registered strategy consumes ``constraints=`` natively.

    Unaware strategies still work under constraints — :func:`solve`
    projects their output onto the feasible set — but only native support
    optimizes *within* the feasible set.
    """
    try:
        return _REGISTRY[name].supports_constraints
    except KeyError:
        raise SolverError(f"no solver named {name!r}") from None


def register_solver(
    name: str,
    solver: _SolverFn,
    overwrite: bool = False,
    supports_constraints: bool = False,
) -> None:
    """Register a custom strategy with :func:`solve`.

    ``solver`` receives ``(problem, hypergraph, seed, options)`` and must
    return ``(configuration, extras_dict)``; the returned configuration is
    feasibility-checked and scored with the shared Theorem-9 estimator
    like every built-in.  Overwriting a built-in requires
    ``overwrite=True`` (guards against accidental shadowing).

    Pass ``supports_constraints=True`` when the strategy consumes
    ``options["constraints"]`` (a
    :class:`~repro.core.constraints.ResolvedConstraints`) itself;
    otherwise :func:`solve` enforces active constraints by projecting the
    strategy's output onto the feasible set.
    """
    if not name or not isinstance(name, str):
        raise SolverError(f"solver name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise SolverError(
            f"solver {name!r} already registered; pass overwrite=True to replace"
        )
    if not callable(solver):
        raise SolverError("solver must be callable")
    _REGISTRY[name] = _SolverEntry(solver, supports_constraints=supports_constraints)


def unregister_solver(name: str) -> None:
    """Remove a strategy from the registry.

    Built-ins may also be removed (e.g. to shadow-test a replacement);
    :func:`reset_solvers` restores the pristine built-in registry at any
    time — no interpreter restart needed.
    """
    try:
        del _REGISTRY[name]
    except KeyError:
        raise SolverError(f"no solver named {name!r}") from None


def reset_solvers() -> None:
    """Restore the registry to the import-time built-in snapshot.

    Re-registers every built-in strategy *with its original capability
    flags* (undoing any :func:`unregister_solver` of them, and undoing
    flag changes from overwriting re-registrations) and drops all custom
    strategies added with :func:`register_solver`.
    """
    _REGISTRY.clear()
    _REGISTRY.update(_BUILTINS)


def solve(
    problem: CIMProblem,
    method: str = "cd",
    hypergraph: Optional[RRHypergraph] = None,
    num_hyperedges: Union[int, str, None] = None,
    seed: SeedLike = None,
    deadline: DeadlineLike = None,
    workers: Optional[int] = None,
    supervision: "SupervisionLike" = None,
    constraints: "ConstraintLike" = None,
    storage: Optional[str] = None,
    slab_dir=None,
    backing: Optional[str] = None,
    spill_dir=None,
    **options,
) -> SolveResult:
    """Run one CIM strategy end to end.

    Parameters
    ----------
    problem:
        The CIM instance.
    method:
        One of :func:`available_methods`.
    hypergraph:
        Pass a pre-built hyper-graph to share it across methods; otherwise
        one is built (and its build time recorded in the ``hypergraph``
        timing phase — the decomposition of Figure 6).
    num_hyperedges / seed:
        Hyper-graph size and RNG seed when building here.  ``"auto"``
        runs the adaptive doubling driver
        (:func:`repro.rrset.adaptive.adaptive_hypergraph`) instead of a
        fixed-θ build: sampling stops once the incumbent UI(C) estimate
        is certified.  Driver knobs travel in ``options["adaptive"]``
        (a dict of ``epsilon``, ``max_theta``, ``checkpoint_dir``, ...).
        For ``method="cd"`` the driver's own warm-started descent *is*
        the solve — its certified configuration is returned directly,
        with the doubling trace in ``extras["adaptive"]``; other methods
        run normally on the adaptively-sized hyper-graph.  Incompatible
        with a prebuilt ``hypergraph``.
    deadline:
        Optional wall-clock budget for the *whole* run (seconds or a
        shared :class:`~repro.runtime.Deadline`): hyper-graph construction
        and the solver draw it down together.  On expiry the run degrades
        instead of failing — it returns a budget-feasible configuration
        built from the work done so far, tags it ``extras["partial"] is
        True`` and issues a :class:`~repro.exceptions.PartialResultWarning`.
        Only if *nothing* usable was produced (e.g. the deadline expired
        before a single RR set was sampled) does
        :class:`~repro.exceptions.DeadlineExceeded` escape.
    workers:
        Parallel sampling processes for hyper-graph construction
        (``"auto"`` = one per CPU).  Never changes results — only
        wall-clock time.
    supervision:
        Worker-pool recovery policy for the pooled build (a
        :class:`~repro.parallel.SupervisionPolicy` or a dict of its
        fields; see :mod:`repro.parallel.supervisor`).  A quarantined
        poison chunk or salvaged instalment degrades through the same
        partial-result contract as a deadline expiry.
    constraints:
        Optional solver constraints — a single
        :class:`~repro.core.constraints.Constraint` or a list of them
        (their intersection).  Constraint-aware methods (``ud``, ``cd``,
        ``cd-im``, ``gradient``, ``fw``) optimize *within* the feasible
        set; the output of unaware strategies is projected onto it (and
        tagged ``extras["constraints_projected"]``).  Constraints whose
        feasible set contains the plain budget simplex are *trivial* and
        reduce to the unconstrained code path, so slack constraints
        reproduce unconstrained results bit for bit at any worker count.
        Active constraints are recorded in ``extras["constraints"]`` and
        the returned configuration is verified feasible.
    storage / slab_dir / backing / spill_dir:
        Where the hyper-graph build puts its bytes, resolved once into a
        :class:`~repro.rrset.storage.Placement` (see
        :meth:`~repro.rrset.storage.Placement.resolve` for the modes,
        directory defaults and the one rejected combination).  Never
        changes results; unused with a prebuilt ``hypergraph``, but an
        invalid combination is rejected even then.
    options:
        Method-specific knobs (``step``, ``grid_step``, ``max_rounds``...).
    """
    try:
        entry = _REGISTRY[method]
    except KeyError:
        raise SolverError(
            f"unknown method {method!r}; choose from {available_methods()}"
        ) from None
    solver = entry.fn
    placement = Placement.resolve(storage, slab_dir, backing, spill_dir)

    run_budget: Deadline = as_deadline(deadline)
    options = dict(options)
    options.setdefault("deadline", run_budget)
    adaptive_options = dict(options.pop("adaptive", None) or {})
    if num_hyperedges == "auto" and hypergraph is not None:
        raise SolverError(
            "num_hyperedges='auto' cannot be combined with a prebuilt hypergraph"
        )
    if adaptive_options and num_hyperedges != "auto":
        raise SolverError("options['adaptive'] requires num_hyperedges='auto'")

    def resolve(bound_hypergraph) -> Optional["ResolvedConstraints"]:
        """Bind ``constraints`` and drop them when trivially slack.

        The trivial→``None`` reduction is the no-op composition
        guarantee: a slack constraint list runs the *identical* code
        path as no constraints at all, so results match bit for bit.
        """
        if constraints is None:
            return None
        from repro.core.constraints import resolve_constraints

        resolved = resolve_constraints(constraints, problem, bound_hypergraph)
        if resolved is not None and resolved.is_trivial(problem.budget):
            return None
        return resolved

    resolved_constraints: Optional["ResolvedConstraints"] = None
    timings = TimingBreakdown()
    adaptive_result = None
    hypergraph_truncated = False
    # Metrics for this call land in a private registry so the
    # extras["metrics"] snapshot depends only on this run, then merge
    # into whatever registry the caller installed (see repro.obs).
    run_metrics = MetricsRegistry()
    with observe(metrics=run_metrics), get_tracer().span("solve", method=method) as span:
        if hypergraph is None and num_hyperedges == "auto":
            from repro.rrset.adaptive import adaptive_hypergraph

            if method in _ADAPTIVE_OPTIMIZERS:
                # Let the driver run *this* method's descent per instalment
                # so its certified incumbent is the solve result.
                adaptive_options.setdefault("optimizer", method)
            # The driver needs constraints before any hyper-graph exists,
            # so TopKAccess binds against the weighted out-degree proxy
            # here (deterministic, hyper-graph-free).
            resolved_constraints = resolve(None)
            with timings.phase("hypergraph"):
                adaptive_options.setdefault("placement", placement)
                adaptive_result = adaptive_hypergraph(
                    problem,
                    seed=seed,
                    deadline=run_budget,
                    workers=workers,
                    supervision=supervision,
                    constraints=resolved_constraints,
                    **adaptive_options,
                )
            hypergraph = adaptive_result.hypergraph
            hypergraph_truncated = adaptive_result.stop_reason in (
                "deadline",
                "fault",
            )
        elif hypergraph is None:
            requested = (
                num_hyperedges
                if num_hyperedges is not None
                else default_num_rr_sets(problem.num_nodes)
            )
            with timings.phase("hypergraph"):
                hypergraph = problem.build_hypergraph(
                    num_hyperedges=requested,
                    seed=seed,
                    deadline=run_budget,
                    workers=workers,
                    supervision=supervision,
                    placement=placement,
                )
            hypergraph_truncated = hypergraph.num_hyperedges < requested
        else:
            run_metrics.inc("solver.hypergraph_reuse_total")
            if num_hyperedges is not None:
                # A caller handing over a prebuilt hyper-graph *and* a
                # requested size is declaring intent; a smaller graph (e.g.
                # deadline-truncated sampling) taints every estimate
                # computed on it.
                hypergraph_truncated = hypergraph.num_hyperedges < num_hyperedges
        if adaptive_result is None:
            resolved_constraints = resolve(hypergraph)
        if resolved_constraints is not None and entry.supports_constraints:
            options["constraints"] = resolved_constraints
        with timings.phase(method):
            if (
                adaptive_result is not None
                and adaptive_options.get("optimizer", "cd") == method
            ):
                # The driver already alternated UD warm-start with this
                # method's descent at every doubling — its incumbent IS the
                # solution on the final hyper-graph; re-running would
                # duplicate the work.
                configuration = adaptive_result.configuration
                extras = {"warm_start": "ud"}
                inner = adaptive_result.cd_result
                if inner is not None:
                    if method == "cd":
                        extras.update(
                            rounds_run=inner.rounds_run,
                            pair_updates=inner.pair_updates,
                            round_values=inner.round_values,
                            converged=inner.converged,
                        )
                    else:
                        extras = _gradient_extras(inner, extras)
                extras["deadline_expired"] = adaptive_result.stop_reason == "deadline"
            else:
                configuration, extras = solver(problem, hypergraph, seed, options)
        if resolved_constraints is not None and not entry.supports_constraints:
            # Constraint-unaware strategy: enforce feasibility by
            # projecting its output onto the feasible set.
            projected = resolved_constraints.project(configuration.discounts)
            if not np.array_equal(projected, configuration.discounts):
                configuration = Configuration(projected)
                extras["constraints_projected"] = True
        if adaptive_result is not None:
            extras["adaptive"] = {
                "stop_reason": adaptive_result.stop_reason,
                "theta": adaptive_result.theta,
                "epsilon_bound": adaptive_result.epsilon_bound,
                "stages": adaptive_result.stages,
                "checkpoint_hits": adaptive_result.checkpoint_hits,
            }

        configuration.require_feasible(problem.budget)
        if resolved_constraints is not None:
            resolved_constraints.require_satisfied(configuration.discounts)
            extras["constraints"] = resolved_constraints.spec()
            span.set(constrained=True)
        oracle = HypergraphOracle(hypergraph, problem.population)
        estimate = oracle.evaluate(configuration)
        extras["num_hyperedges"] = hypergraph.num_hyperedges
        partial = bool(hypergraph_truncated or extras.get("deadline_expired", False))
        extras["partial"] = partial
        span.set(
            num_hyperedges=hypergraph.num_hyperedges,
            partial=partial,
            spread_estimate=float(estimate),
        )
        run_metrics.inc("solver.runs_total")
        run_metrics.set_gauge("solver.num_hyperedges", hypergraph.num_hyperedges)
        if partial:
            run_metrics.inc("solver.partial_total")
        extras["metrics"] = run_metrics.snapshot()
    if partial:
        warnings.warn(
            f"solver {method!r} hit its deadline and returned a truncated "
            "(but budget-feasible) result",
            PartialResultWarning,
            stacklevel=2,
        )
    return SolveResult(
        method=method,
        configuration=configuration,
        spread_estimate=estimate,
        timings=timings,
        extras=extras,
    )
