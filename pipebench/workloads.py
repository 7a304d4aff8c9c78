"""The benchmark's named workloads and the seed plan derived from ``--seed``.

Each workload is one batch job of the user pipeline — generate a graph,
weight it, build the population and problem, ``solve()`` once, evaluate
the returned discounts by Monte Carlo — at a fixed shape.  ``smoke`` is
the same pipeline shrunk to finish in seconds; the benchmark's own tests
run it.

The problem instance (graph and population) is fixed, as the paper's
datasets are: the analogues' default seed.  ``--seed`` drives the
randomized algorithm — RR sampling inside ``solve()`` and the
Monte-Carlo evaluation — so run-to-run spread measures the program and
not how different two random graphs are.

This module imports nothing from the program: `run.py` decides when
the (timed) import of ``repro`` happens.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Published SNAP node counts the ``*_like`` analogues scale from
#: (``repro.graphs.generators``); the node-count check recomputes
#: ``max(50, int(base * scale))`` from them independently of the program.
ANALOGUE_BASE_NODES = {"com_dblp_like": 317080, "com_lj_like": 3997962}


@dataclass(frozen=True)
class Shape:
    """Everything that sizes one workload."""

    scale: float
    budget: float
    mc_samples: int
    #: ``num_hyperedges`` for ``solve``: an int θ, or ``"auto"``.
    theta: object
    #: Extra keyword options for ``solve`` (``step``, ``adaptive``, ...).
    solve_options: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # "com_dblp_like" | "com_lj_like"
    method: str
    workers: int
    #: Out-of-core placement: streaming graph generation, shared slabs and
    #: memory-mapped CSR destinations all under the run's work directory.
    out_of_core: bool
    full: Shape
    smoke: Shape
    #: RR-sampling seed when the workload fixes it; ``None`` derives it
    #: from ``--seed``.
    solve_seed: Optional[int] = None

    def shape(self, smoke: bool) -> Shape:
        return self.smoke if smoke else self.full


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ud_dblp",
            why=(
                "plain single-process baseline: UD's CELF heap seeding dominates "
                "solve_s; population construction and the import split setup_s"
            ),
            generator="com_dblp_like",
            method="ud",
            workers=1,
            out_of_core=False,
            full=Shape(
                scale=0.03, budget=50, mc_samples=80, theta=5000,
                solve_options={"step": 0.05},
            ),
            smoke=Shape(
                scale=0.01, budget=10, mc_samples=16, theta=1000,
                solve_options={"step": 0.05},
            ),
        ),
        Workload(
            name="lj_outofcore",
            why=(
                "streaming memmap graph build dominates setup_s; pooled shared-slab "
                "sampling and assembly dominate solve_s; UD and CD never run"
            ),
            generator="com_lj_like",
            method="gradient",
            workers=2,
            out_of_core=True,
            full=Shape(
                scale=0.0015, budget=50, mc_samples=20, theta=8000,
                # A fixed step count (tolerance 0) keeps the solver's work
                # the same on every seed, so solve_s tracks the layers and
                # not where one seed happens to converge.
                solve_options={"warm_start": "uniform", "max_steps": 15, "tolerance": 0.0},
            ),
            smoke=Shape(
                scale=0.001, budget=10, mc_samples=8, theta=4096,
                solve_options={"warm_start": "uniform", "max_steps": 5, "tolerance": 0.0},
            ),
        ),
        Workload(
            name="cd_adaptive",
            why=(
                "certified adaptive CD: the hypergraph grows by extend appends and "
                "MC pays per-cascade overhead on many small cascades"
            ),
            generator="com_dblp_like",
            method="cd",
            workers=1,
            out_of_core=False,
            full=Shape(
                scale=0.01, budget=10, mc_samples=200, theta="auto",
                # Two CD rounds per instalment: seeds whose descent would
                # converge early and seeds that would use all ten rounds
                # then do the same work.
                solve_options={"adaptive": {
                    "epsilon": 0.12, "theta0": 1024, "max_theta": 16384,
                    "cd_max_rounds": 2,
                }},
            ),
            # Which UD discount level wins the warm start flips between
            # neighbouring levels from one RR sample to the next, and with
            # it the CD support: 312 or 610 pair updates per instalment on
            # this instance.  A fixed RR seed keeps solve_s one mode;
            # --seed still drives the Monte-Carlo evaluation.
            solve_seed=2016,
            smoke=Shape(
                scale=0.005, budget=5, mc_samples=50, theta="auto",
                solve_options={"adaptive": {
                    "epsilon": 0.2, "max_theta": 4096, "cd_max_rounds": 2,
                }},
            ),
        ),
    )
}


def expected_nodes(workload: Workload, smoke: bool) -> int:
    """Node count the analogue's formula gives for this shape."""
    return max(50, int(ANALOGUE_BASE_NODES[workload.generator] * workload.shape(smoke).scale))


#: Seeds of the fixed instance; 2016 is the ``*_like`` generators' default.
INSTANCE_SEEDS = {"graph": 2016, "population": 2016}


def stage_seed(workload: str, seed: int, stage: str) -> int:
    """A 32-bit seed for one pipeline stage, fixed by (workload, seed, stage)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def seed_plan(workload: str, seed: int) -> Dict[str, int]:
    plan = dict(INSTANCE_SEEDS)
    plan.update({stage: stage_seed(workload, seed, stage) for stage in ("solve", "evaluate")})
    if WORKLOADS[workload].solve_seed is not None:
        plan["solve"] = WORKLOADS[workload].solve_seed
    return plan
