"""One workload's pipeline stages, output checks and digests.

The stages call only the program's public API and wrap each layer call
in a benchmark-side span, so with a real tracer installed the spans the
program emits itself (``hypergraph.build``, ``solver.ud``, ``mc.estimate``,
...) nest under them.  With the default null tracer the spans cost
nothing and the same code path is timed untraced.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, List, Optional

import numpy as np

from workloads import Shape, Workload, expected_nodes

#: ``spread`` may trail the solver's RR estimate by this share on top of
#: 5 standard errors of the two estimates: the RR estimate is taken on the
#: sample the configuration was optimized for, so it reads slightly high.
SPREAD_RELATIVE_SLACK = 0.05
#: Lemma 1 / Theorem 5: an optimal configuration spends (almost) all of B.
MIN_BUDGET_SHARE = 0.95
#: Feasibility tolerance on sum(c) <= B, for float summation error.
BUDGET_TOLERANCE = 1e-9


def load_program() -> SimpleNamespace:
    """Import the public functions the pipeline calls (timed as set-up)."""
    import repro
    from repro.core.population import paper_mixture
    from repro.core.problem import CIMProblem
    from repro.core.solvers import solve
    from repro.diffusion.independent_cascade import IndependentCascade
    from repro.diffusion.montecarlo import estimate_configuration_spread
    from repro.graphs import generators
    from repro.graphs.weights import assign_weighted_cascade
    from repro.obs.context import observe
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import NULL_TRACER, Tracer
    from repro.rrset.hypergraph import RRHypergraph

    return SimpleNamespace(
        repro=repro,
        generators=generators,
        assign_weighted_cascade=assign_weighted_cascade,
        paper_mixture=paper_mixture,
        CIMProblem=CIMProblem,
        IndependentCascade=IndependentCascade,
        solve=solve,
        estimate_configuration_spread=estimate_configuration_spread,
        RRHypergraph=RRHypergraph,
        observe=observe,
        MetricsRegistry=MetricsRegistry,
        Tracer=Tracer,
        NULL_TRACER=NULL_TRACER,
    )


@dataclass
class Check:
    """One tri-state output check: a skip is never read as a pass."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


def _check(name: str, ok: bool, detail: str) -> Check:
    return Check(name, "pass" if ok else "fail", detail)


def digest(*arrays: np.ndarray) -> str:
    """sha256 over arrays' values (widened, so storage width never matters)."""
    h = hashlib.sha256()
    for array in arrays:
        values = np.asarray(array)
        values = values.astype(np.float64 if values.dtype.kind == "f" else np.int64)
        h.update(str(values.size).encode())
        h.update(values.tobytes())
    return h.hexdigest()[:16]


@contextmanager
def last_hypergraph(cls) -> Iterator[List[object]]:
    """Keep a reference to the last RR hypergraph the program constructs.

    ``solve()`` does not return its hypergraph; the determinism check
    digests the exact CSR the solver used, so the benchmark wraps the
    three public ways one is made (a fresh sample, a CSR adoption, an
    append) and restores them on exit.
    """
    box: List[object] = []
    init, from_csr, extend_csr = (
        cls.__dict__["__init__"], cls.__dict__["from_csr"], cls.__dict__["extend_csr"]
    )

    def init_and_keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        box[:] = [self]

    def from_csr_and_keep(klass, *args, **kwargs):
        out = from_csr.__func__(klass, *args, **kwargs)
        box[:] = [out]
        return out

    def extend_and_keep(self, *args, **kwargs):
        out = extend_csr(self, *args, **kwargs)
        box[:] = [out]
        return out

    cls.__init__ = init_and_keep
    cls.from_csr = classmethod(from_csr_and_keep)
    cls.extend_csr = extend_and_keep
    try:
        yield box
    finally:
        cls.__init__, cls.from_csr, cls.extend_csr = init, from_csr, extend_csr


class Pipeline:
    """The user pipeline of one workload at one seed plan."""

    def __init__(
        self,
        api: SimpleNamespace,
        workload: Workload,
        smoke: bool,
        seeds: dict,
        work_dir: Path,
    ) -> None:
        self.api = api
        self.workload = workload
        self.smoke = smoke
        self.shape: Shape = workload.shape(smoke)
        self.seeds = seeds
        self.spill_dir = work_dir / "spill"
        self.slab_dir = work_dir / "slabs"
        for directory in (self.spill_dir, self.slab_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- stages -----------------------------------------------------------

    def setup(self, tracer):
        """Graph generation, weights, population and problem.

        Returns ``(problem, seconds)``.
        """
        api, shape = self.api, self.shape
        generate = getattr(api.generators, self.workload.generator)
        placement = (
            {"backing": "mmap", "spill_dir": str(self.spill_dir)}
            if self.workload.out_of_core
            else {}
        )
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            with tracer.span("graph.generate", generator=self.workload.generator):
                graph = generate(scale=shape.scale, seed=self.seeds["graph"], **placement)
            with tracer.span("graph.weights"):
                graph = api.assign_weighted_cascade(graph, alpha=1.0)
            with tracer.span("population.build"):
                population = api.paper_mixture(graph.num_nodes, seed=self.seeds["population"])
                problem = api.CIMProblem(
                    api.IndependentCascade(graph), population, shape.budget
                )
        return problem, time.perf_counter() - start

    def solve(self, problem, tracer):
        """The one ``solve()`` call: ``(result, seconds, rr_csr_digest)``."""
        options = dict(self.shape.solve_options)
        if self.workload.out_of_core:
            options.update(
                storage="shared",
                slab_dir=str(self.slab_dir),
                backing="mmap",
                spill_dir=str(self.spill_dir),
            )
        with last_hypergraph(self.api.RRHypergraph) as box:
            start = time.perf_counter()
            with tracer.span("bench.solve"):
                result = self.api.solve(
                    problem,
                    self.workload.method,
                    num_hyperedges=self.shape.theta,
                    seed=self.seeds["solve"],
                    workers=self.workload.workers,
                    **options,
                )
            seconds = time.perf_counter() - start
        hypergraph = box[0] if box else None
        rr_digest = (
            digest(hypergraph.edge_offsets, hypergraph.edge_nodes)
            if hypergraph is not None
            else None
        )
        return result, seconds, rr_digest

    def evaluate(self, problem, result, tracer):
        """Monte-Carlo UI(C) of the returned configuration: ``(estimate, seconds)``."""
        start = time.perf_counter()
        with tracer.span("bench.evaluate"):
            probabilities = problem.population.probabilities(
                result.configuration.discounts
            )
            estimate = self.api.estimate_configuration_spread(
                problem.model,
                probabilities,
                num_samples=self.shape.mc_samples,
                seed=self.seeds["evaluate"],
                workers=1,
            )
        return estimate, time.perf_counter() - start

    # -- checks -----------------------------------------------------------

    def graph_digest(self, problem) -> str:
        graph = problem.graph
        return digest(graph.out_offsets, graph.out_targets, graph.out_probs)

    def check_graph(self, problem) -> Check:
        want = expected_nodes(self.workload, self.smoke)
        got = problem.num_nodes
        return _check("graph_nodes", got == want, f"n={got}, formula gives {want}")

    def check_solution(self, problem, result, estimate) -> List[Check]:
        budget = float(problem.budget)
        discounts = np.asarray(result.configuration.discounts, dtype=np.float64)
        spent = float(discounts.sum())
        in_box = bool(discounts.size == problem.num_nodes
                      and np.all(discounts >= 0.0) and np.all(discounts <= 1.0))
        checks = [
            _check(
                "feasible",
                in_box and spent <= budget * (1.0 + BUDGET_TOLERANCE),
                f"sum(c)={spent:.6g} <= B={budget:g}, 0<=c<=1: {in_box}",
            ),
            _check(
                "budget_spent",
                spent >= MIN_BUDGET_SHARE * budget,
                f"sum(c)={spent:.6g} >= {MIN_BUDGET_SHARE:g}*B",
            ),
        ]
        rr = float(result.spread_estimate)
        if estimate.num_samples < 2 or not math.isfinite(estimate.stddev):
            checks.append(Check(
                "spread_vs_rr", "skip",
                f"{estimate.num_samples} MC sample(s): no standard error",
            ))
        else:
            mc_stderr = estimate.stddev / math.sqrt(estimate.num_samples)
            # The RR estimate n/θ · Σ_h cover_h averages θ terms in [0, 1],
            # so its standard error is at most n·sqrt(p(1-p)/θ), p = rr/n.
            n, theta = problem.num_nodes, result.extras["num_hyperedges"]
            share = min(max(rr / n, 0.0), 1.0)
            rr_stderr = n * math.sqrt(share * (1.0 - share) / theta)
            allowed = 5.0 * math.hypot(mc_stderr, rr_stderr) + SPREAD_RELATIVE_SLACK * abs(rr)
            gap = abs(float(estimate.mean) - rr)
            checks.append(_check(
                "spread_vs_rr",
                gap <= allowed,
                f"|MC {estimate.mean:.1f} - RR {rr:.1f}| = {gap:.1f} <= {allowed:.1f}",
            ))
        return checks


def same_digest(name: str, first: Optional[str], now: Optional[str]) -> Check:
    """Determinism across same-seed repetitions within one run."""
    if first is None or now is None:
        return Check(name, "skip", "no digest recorded")
    return _check(name, first == now, f"{now} vs first {first}")
