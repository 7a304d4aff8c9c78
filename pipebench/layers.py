"""Per-layer metrics from a traced run: span self times plus program counters.

A layer's self time is its spans' duration minus the part their child
spans cover.  Spans that belong to no layer — the benchmark's stage
roots and the program's ``solve`` orchestration span — make up
``trace.unattributed_s``.  Counts come from the counters the program
already records into the installed ``MetricsRegistry``.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Program or benchmark span name -> layer key.
LAYER_OF_SPAN = {
    "graph.generate": "graph.generate",
    "graph.weights": "graph.weights",
    "population.build": "population.build",
    "rrset.sample": "rrset.sample",
    "rrset.sample_csr": "rrset.sample",
    "storage.assemble": "storage.assemble",
    "pool.recovery": "pool.recovery",
    "hypergraph.build": "hypergraph.build",
    "hypergraph.extend": "hypergraph.extend",
    "solver.ud": "ud",
    "solver.cd": "cd",
    "solver.gradient": "gradient",
    "adaptive.run": "adaptive",
    "mc.estimate": "mc.evaluate",
}

#: Layer key -> (module, the end-to-end metric its time counts toward).
LAYERS = {
    "graph.generate": ("repro.graphs.generators/streaming", "setup_s"),
    "graph.weights": ("repro.graphs.weights", "setup_s"),
    "population.build": ("repro.core.population", "setup_s"),
    "rrset.sample": ("repro.rrset.sampler", "solve_s"),
    "storage.assemble": ("repro.rrset.storage", "solve_s"),
    "pool.recovery": ("repro.parallel", "solve_s"),
    "hypergraph.build": ("repro.rrset.hypergraph", "solve_s"),
    "hypergraph.extend": ("repro.rrset.hypergraph", "solve_s"),
    "ud": ("repro.core.unified_discount", "solve_s"),
    "cd": ("repro.core.cd_hypergraph", "solve_s"),
    "gradient": ("repro.core.gradient", "solve_s"),
    "adaptive": ("repro.rrset.adaptive", "solve_s"),
    "mc.evaluate": ("repro.diffusion.montecarlo", "evaluate_s"),
}

#: Per-layer metrics the traced run reports, in order, with their units.
PER_LAYER_UNITS = {
    "graph.generate_s": "s",
    "graph.edges_per_s": "1/s",
    "graph.weights_s": "s",
    "population.build_s": "s",
    "rrset.sample_s": "s",
    "rrset.rr_sets_per_s": "1/s",
    "rrset.members_per_s": "1/s",
    "rrset.sample_cpu_per_wall": "ratio",
    "storage.assemble_s": "s",
    "storage.pickled_bytes_per_chunk": "bytes",
    "storage.spill_bytes": "bytes",
    "pool.chunks": "count",
    "pool.chunks_retried": "count",
    "pool.restarts": "count",
    "hypergraph.build_s": "s",
    "hypergraph.extend_s": "s",
    "hypergraph.member_entries": "count",
    "objective.full_scans": "count",
    "objective.incremental_updates": "count",
    "objective.topology_cache_hit_ratio": "ratio",
    "ud.s": "s",
    "ud.grid_points": "count",
    "ud.s_per_grid_point": "s",
    "cd.s": "s",
    "cd.pair_evals": "count",
    "cd.pair_evals_per_s": "1/s",
    "cd.pair_update_ratio": "ratio",
    "gradient.s": "s",
    "gradient.steps": "count",
    "gradient.objective_evals": "count",
    "gradient.backtrack_ratio": "ratio",
    "adaptive.s": "s",
    "adaptive.stages": "count",
    "adaptive.theta_final": "count",
    "mc.evaluate_s": "s",
    "mc.cascades_per_s": "1/s",
    "mc.activations_per_s": "1/s",
    "import.s": "s",
    "rss.after_setup_mb": "MiB",
    "rss.after_solve_mb": "MiB",
    "rss.after_evaluate_mb": "MiB",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

#: Counters that must repeat exactly across same-seed traced repetitions.
DETERMINISTIC_COUNTERS = (
    "rrset.sampled_total",
    "rrset.nodes_sampled_total",
    "ud.grid_points_total",
    "cd.pair_evals_total",
    "cd.pair_updates_total",
    "gradient.steps_total",
    "gradient.objective_evals_total",
    "adaptive.stages_total",
    "objective.full_scans_total",
    "objective.incremental_updates_total",
    "mc.samples_total",
)


class CpuClock:
    """Tracer clock that also notes process + reaped-children CPU time.

    Each reading is keyed by the wall time it returned, which the tracer
    stores as a span's start or end, so a span's CPU time is
    ``cpu[span.end] - cpu[span.start]``.
    """

    def __init__(self) -> None:
        self.cpu: Dict[float, float] = {}

    def __call__(self) -> float:
        now = time.perf_counter()
        self.cpu[now] = sum(os.times()[:4])
        return now


def _walk(span, out: Dict[str, float], cpu: Dict[str, Tuple[float, float]], clock) -> None:
    covered = sum(child.duration for child in span.children)
    key = LAYER_OF_SPAN.get(span.name, "unattributed")
    out[key] += max(0.0, span.duration - covered)
    if key == "rrset.sample" and clock is not None:
        busy, wall = cpu[key]
        cpu[key] = (
            busy + clock.cpu.get(span.end, 0.0) - clock.cpu.get(span.start, 0.0),
            wall + span.duration,
        )
    for child in span.children:
        _walk(child, out, cpu, clock)


def self_times(roots, clock: Optional[CpuClock] = None):
    """``({layer: self seconds}, sampling (cpu_s, wall_s))`` for one trace."""
    out: Dict[str, float] = defaultdict(float)
    cpu: Dict[str, Tuple[float, float]] = defaultdict(lambda: (0.0, 0.0))
    for root in roots:
        _walk(root, out, cpu, clock)
    return dict(out), cpu["rrset.sample"]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(
    traces: List[dict],
    untraced_s: List[float],
    import_s: float,
    rss: Dict[str, float],
) -> Dict[str, float]:
    """Fold traced repetitions into the per-layer metric values.

    Each trace is ``{"self": {layer: s}, "sample_cpu": (cpu_s, wall_s),
    "counters", "gauges", "histograms", "setup_s", "solve_s",
    "evaluate_s", "job_ref_s", "edges", "activations"}``.  Self times are
    medians over repetitions; counts come from the first one (they repeat
    exactly).  ``untraced_s`` are the untraced repetitions' whole-job times;
    they and ``job_ref_s`` are in reference seconds (``reference.py``), so
    the tracing overhead is not confounded with the machine's speed.
    """
    def layer_s(layer):
        return _median([t["self"].get(layer, 0.0) for t in traces])

    first = traces[0]
    counters = defaultdict(int, first["counters"])
    gauges = first["gauges"]
    chunks = first["histograms"].get("rrset.chunk_items", {}).get("count") or 0

    m: Dict[str, float] = {}
    m["graph.generate_s"] = layer_s("graph.generate")
    m["graph.edges_per_s"] = _ratio(first["edges"], m["graph.generate_s"])
    m["graph.weights_s"] = layer_s("graph.weights")
    m["population.build_s"] = layer_s("population.build")

    m["rrset.sample_s"] = layer_s("rrset.sample")
    m["rrset.rr_sets_per_s"] = _ratio(counters["rrset.sampled_total"], m["rrset.sample_s"])
    m["rrset.members_per_s"] = _ratio(
        counters["rrset.nodes_sampled_total"], m["rrset.sample_s"]
    )
    m["rrset.sample_cpu_per_wall"] = _median([_ratio(*t["sample_cpu"]) for t in traces])
    m["storage.assemble_s"] = layer_s("storage.assemble")
    m["storage.pickled_bytes_per_chunk"] = _ratio(
        counters["storage.pickled_bytes_total"], chunks
    )
    m["storage.spill_bytes"] = counters["storage.spill_bytes_total"]
    m["pool.chunks"] = counters["parallel.chunks_total"]
    m["pool.chunks_retried"] = counters["pool.chunks_retried_total"]
    m["pool.restarts"] = counters["pool.restarts_total"]

    m["hypergraph.build_s"] = layer_s("hypergraph.build")
    m["hypergraph.extend_s"] = layer_s("hypergraph.extend")
    m["hypergraph.member_entries"] = counters["rrset.nodes_sampled_total"]
    m["objective.full_scans"] = counters["objective.full_scans_total"]
    m["objective.incremental_updates"] = counters["objective.incremental_updates_total"]
    hits = counters["objective.topology_cache_hits_total"]
    m["objective.topology_cache_hit_ratio"] = _ratio(
        hits, hits + counters["objective.topology_cache_misses_total"]
    )

    m["ud.s"] = layer_s("ud")
    m["ud.grid_points"] = counters["ud.grid_points_total"]
    m["ud.s_per_grid_point"] = _ratio(m["ud.s"], m["ud.grid_points"])
    m["cd.s"] = layer_s("cd")
    m["cd.pair_evals"] = counters["cd.pair_evals_total"]
    m["cd.pair_evals_per_s"] = _ratio(m["cd.pair_evals"], m["cd.s"])
    m["cd.pair_update_ratio"] = _ratio(counters["cd.pair_updates_total"], m["cd.pair_evals"])
    m["gradient.s"] = layer_s("gradient")
    m["gradient.steps"] = counters["gradient.steps_total"]
    m["gradient.objective_evals"] = counters["gradient.objective_evals_total"]
    m["gradient.backtrack_ratio"] = _ratio(
        counters["gradient.backtracks_total"], m["gradient.objective_evals"]
    )
    m["adaptive.s"] = layer_s("adaptive")
    m["adaptive.stages"] = counters["adaptive.stages_total"]
    m["adaptive.theta_final"] = gauges.get("adaptive.final_theta") or 0

    m["mc.evaluate_s"] = layer_s("mc.evaluate")
    m["mc.cascades_per_s"] = _ratio(counters["mc.samples_total"], m["mc.evaluate_s"])
    m["mc.activations_per_s"] = _ratio(first["activations"], m["mc.evaluate_s"])

    m["import.s"] = import_s
    m["rss.after_setup_mb"] = rss.get("setup", 0.0)
    m["rss.after_solve_mb"] = rss.get("solve", 0.0)
    m["rss.after_evaluate_mb"] = rss.get("evaluate", 0.0)

    traced_s = _median([t["job_ref_s"] for t in traces])
    m["trace.overhead_frac"] = _ratio(traced_s - _median(untraced_s), _median(untraced_s))
    m["trace.unattributed_s"] = layer_s("unattributed")
    return m


def counter_drift(traces: List[dict]) -> List[str]:
    """Deterministic counters that differ between traced repetitions."""
    first = traces[0]["counters"]
    return [
        name
        for name in DETERMINISTIC_COUNTERS
        if any(t["counters"].get(name, 0) != first.get(name, 0) for t in traces[1:])
    ]


def format_table(
    traces: List[dict], end_to_end: Dict[str, float], metrics: Dict[str, float]
) -> List[str]:
    """The human-readable per-layer table of one traced run."""
    medians = {
        layer: _median([t["self"].get(layer, 0.0) for t in traces]) for layer in LAYERS
    }
    throughput = {
        "graph.generate": ("edges/s", metrics["graph.edges_per_s"]),
        "rrset.sample": ("RR sets/s", metrics["rrset.rr_sets_per_s"]),
        "cd": ("pair evals/s", metrics["cd.pair_evals_per_s"]),
        "mc.evaluate": ("cascades/s", metrics["mc.cascades_per_s"]),
    }
    lines = [
        f"{'layer':<18} {'module':<34} {'self s':>9} {'share':>7} {'of':<10} throughput",
    ]
    for layer, (module, stage) in LAYERS.items():
        seconds = medians[layer]
        # pool.recovery only appears when a worker pool had to recover.
        if seconds == 0.0 and layer == "pool.recovery":
            continue
        share = _ratio(seconds, end_to_end.get(stage, 0.0))
        unit, rate = throughput.get(layer, ("", 0.0))
        rate_text = f"{rate:,.0f} {unit}" if unit else ""
        lines.append(
            f"{layer:<18} {module:<34} {seconds:>9.3f} {share:>7.1%} {stage:<10} {rate_text}"
        )
    lines.append(f"{'import':<18} {'repro (+numpy)':<34} {metrics['import.s']:>9.3f}"
                 f" {_ratio(metrics['import.s'], end_to_end.get('setup_s', 0.0)):>7.1%}"
                 f" {'setup_s':<10}")
    lines.append(f"{'unattributed':<18} {'(no layer span)':<34}"
                 f" {metrics['trace.unattributed_s']:>9.3f}")
    lines.append(
        "peak RSS after setup / solve / evaluate: "
        f"{metrics['rss.after_setup_mb']:.1f} / {metrics['rss.after_solve_mb']:.1f} / "
        f"{metrics['rss.after_evaluate_mb']:.1f} MiB"
    )
    lines.append(f"tracing overhead (traced vs warm untraced repetition): "
                 f"{metrics['trace.overhead_frac']:+.2%}")
    return lines
