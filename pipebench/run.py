#!/usr/bin/env python3
"""Pipeline benchmark: the whole user pipeline on one named workload.

    python3 pipebench/run.py --workload ud_dblp --seed 1 --seconds 36 --trace 0

One run is one fresh process and one batch job at a time (a closed loop
with one client).  It imports the program from ``src/`` of the checkout
it sits in, then repeats the batch job — set-up, ``solve()``,
Monte-Carlo evaluation, all with the same seeds — until ``--seconds``
have passed (at least ``MIN_REPS`` times), checking every output as it
goes.  Reported times are medians over the repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``pipebench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS, seed_plan

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
#: Import is paid once per process, and the first one in a checkout also
#: compiles it.  ``setup_s`` counts the median import time of this many
#: fresh interpreters instead, so one slow import does not move it.
IMPORT_PROBES = 5
#: A traced run alternates untraced/traced repetitions starting untraced;
#: three give one traced and one warm untraced repetition to compare.
MIN_TRACED_RUN_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "evaluate_s": "s",
    "spread": "nodes",
    "peak_rss_mb": "MiB",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measurement window (default 36, as in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's smoke size (finishes in seconds)")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Process high-water RSS (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_import_seconds(src: Path, reference) -> Tuple[List[float], List[float]]:
    """Seconds to import the program, each in a fresh interpreter.

    Returns the wall seconds and the same in reference seconds.
    """
    from reference import in_reference_s

    code = (
        "import sys, time; sys.path[:0] = [%r, %r]; start = time.perf_counter(); "
        "from pipeline import load_program; load_program(); "
        "print(time.perf_counter() - start)" % (str(src), str(Path(__file__).resolve().parent))
    )
    wall, scaled = [], []
    before = reference.seconds()
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = reference.seconds()
        wall.append(float(proc.stdout.split()[-1]))
        scaled.append(in_reference_s(wall[-1], (before + after) / 2.0))
        before = after
    return wall, scaled


def machine(work_dir: Path) -> Dict[str, object]:
    import numpy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "spill_dir": str((work_dir / "spill").relative_to(ROOT)),
        "slab_dir": str((work_dir / "slabs").relative_to(ROOT)),
    }


class Ledger:
    """Operations attempted and failed: pipeline stages and output checks.

    A skipped check is listed with its reason but counts as neither.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, Dict[str, object]] = {}

    def stage(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, check) -> None:
        entry = self.checks.setdefault(
            check.name, {"pass": 0, "fail": 0, "skip": 0, "detail": "", "failures": []}
        )
        entry[check.status] += 1
        entry["detail"] = check.detail
        if check.status == "fail":
            entry["failures"].append(check.detail)
        if check.status != "skip":
            self.attempted += 1
            self.failed += check.status == "fail"


def collectors(api, traced: bool):
    """``(tracer, registry, clock)`` for one repetition; nulls when untraced."""
    if not traced:
        return api.NULL_TRACER, None, None
    from layers import CpuClock

    clock = CpuClock()
    return api.Tracer(clock=clock), api.MetricsRegistry(), clock


def trace_record(tracer, registry, clock) -> Dict[str, object]:
    from layers import self_times

    own, sample_cpu = self_times(tracer.roots, clock)
    snapshot = registry.snapshot()
    return {
        "self": own,
        "sample_cpu": sample_cpu,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
    }


def run(api, workload, args, work_dir: Path, reference, parallel, imports) -> Optional[dict]:
    from pipeline import Check, Pipeline, digest, same_digest
    from reference import in_reference_s

    import_wall, import_ref = imports
    import_s = statistics.median(import_wall)

    ledger = Ledger()
    seeds = seed_plan(workload.name, args.seed)
    pipe = Pipeline(api, workload, args.smoke, seeds, work_dir)
    traced_run = bool(args.trace)
    min_reps = MIN_TRACED_RUN_REPS if traced_run else MIN_REPS
    begin = time.perf_counter()
    deadline = begin + args.seconds
    rss: Dict[str, float] = {}
    stage_s: Dict[str, List[float]] = defaultdict(list)
    #: Mean wall time of the reference job just before and after each stage.
    stage_speed: Dict[str, List[float]] = defaultdict(list)
    #: The reference job's wall time between stages, the first before any.
    marks = [reference.seconds()]
    #: The same around each pooled solve, when the workload has a pool.
    pool_reference: List[float] = []
    spreads: List[float] = []
    untraced_total: List[float] = []
    traces: List[dict] = []
    first_digests: Dict[str, Optional[str]] = {}
    rep = 0
    last_rep_s = 0.0
    while rep < min_reps or time.perf_counter() + last_rep_s <= deadline:
        # A traced run alternates untraced and traced repetitions so the
        # tracing overhead is measured inside the same process.
        traced = traced_run and rep % 2 == 1
        tracer, registry, clock = collectors(api, traced)
        rep_start = time.perf_counter()
        try:
            with api.observe(tracer=tracer, metrics=registry):
                problem, setup_s = pipe.setup(tracer)
                ledger.stage(True)
                rss.setdefault("setup", peak_rss_mb())
                marks.append(reference.seconds())
                # A pooled solve is bracketed by the reference job run in
                # as many processes as it has workers.
                pool_marks = [parallel.seconds()] if parallel else []
                result, solve_s, rr_digest = pipe.solve(problem, tracer)
                pool_marks += [parallel.seconds()] if parallel else []
                ledger.stage(True)
                rss.setdefault("solve", peak_rss_mb())
                marks.append(reference.seconds())
                estimate, evaluate_s = pipe.evaluate(problem, result, tracer)
                ledger.stage(True)
                rss.setdefault("evaluate", peak_rss_mb())
                marks.append(reference.seconds())
        except Exception:
            traceback.print_exc()
            ledger.stage(False)
            break
        last_rep_s = time.perf_counter() - rep_start
        around = marks[-4:]
        speed = {
            "setup": (around[0] + around[1]) / 2.0,
            "solve": statistics.fmean(pool_marks or around[1:3]),
            "evaluate": (around[2] + around[3]) / 2.0,
        }
        walls = {"setup": setup_s, "solve": solve_s, "evaluate": evaluate_s}
        scaled = {stage: in_reference_s(walls[stage], speed[stage]) for stage in walls}
        pool_reference.extend(pool_marks)

        ledger.check(pipe.check_graph(problem))
        for check in pipe.check_solution(problem, result, estimate):
            ledger.check(check)
        now = {
            "graph": pipe.graph_digest(problem),
            "rr_csr": rr_digest,
            "discounts": digest(result.configuration.discounts),
            "spread": repr(float(estimate.mean)),
        }
        if first_digests:
            for name, value in now.items():
                ledger.check(same_digest(f"{name}_digest", first_digests[name], value))
        else:
            first_digests = now

        if traced:
            record = trace_record(tracer, registry, clock)
            record.update(
                setup_s=setup_s,
                solve_s=solve_s,
                evaluate_s=evaluate_s,
                job_ref_s=sum(scaled.values()),
                edges=problem.graph.num_edges,
                activations=float(estimate.mean) * estimate.num_samples,
            )
            traces.append(record)
        else:
            untraced_total.append(sum(scaled.values()))
        for stage, seconds in walls.items():
            stage_s[stage].append(seconds)
            stage_speed[stage].append(speed[stage])
        spreads.append(float(estimate.mean))
        problem = result = None  # free this repetition's graph and hypergraph
        rep += 1
    if not spreads or (traced_run and not traces):
        return None

    def warm_reference_s(stage: str) -> float:
        """The stage's wall time over its reference job's wall time, both
        summed over the repetitions after the first (which pays
        first-call costs), in reference seconds."""
        warm = slice(1 if rep > 1 else 0, None)
        return in_reference_s(sum(stage_s[stage][warm]), sum(stage_speed[stage][warm]))

    end_to_end = {
        "setup_s": statistics.median(import_ref) + warm_reference_s("setup"),
        "solve_s": warm_reference_s("solve"),
        "evaluate_s": warm_reference_s("evaluate"),
        "spread": statistics.median(spreads),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seeds": seeds,
        "reps": rep,
        "elapsed_s": time.perf_counter() - begin,
        "stage_seconds": {
            "import": import_wall, **stage_s, "reference": marks,
            "pool_reference": pool_reference,
        },
        "wall_medians": {
            "setup_s": import_s + statistics.median(stage_s["setup"]),
            "solve_s": statistics.median(stage_s["solve"]),
            "evaluate_s": statistics.median(stage_s["evaluate"]),
        },
        "reference_job_s": statistics.median(marks),
        "digests": first_digests,
        "end_to_end": end_to_end,
    }
    if traced_run:
        from layers import counter_drift, format_table, per_layer_metrics

        if len(traces) > 1:
            drift = counter_drift(traces)
            ledger.check(Check(
                "trace_counts_repeat", "fail" if drift else "pass",
                f"differing counters: {drift}" if drift else "op counts identical",
            ))
        # The first repetition pays first-call costs; compare traced
        # repetitions with the warm untraced ones.
        warm_untraced = untraced_total[1:] or untraced_total
        per_layer = per_layer_metrics(traces, warm_untraced, import_s, rss)
        traced_e2e = {
            name: statistics.median(t[name] for t in traces)
            for name in ("setup_s", "solve_s", "evaluate_s")
        }
        traced_e2e["setup_s"] += import_s
        report["per_layer"] = per_layer
        report["layer_table"] = format_table(traces, traced_e2e, per_layer)
    report.update(
        checks=ledger.checks,
        attempted=ledger.attempted,
        failed=ledger.failed,
        error_rate=ledger.failed / ledger.attempted,
    )
    return report


def print_report(report: dict) -> None:
    from layers import PER_LAYER_UNITS
    from reference import REFERENCE_S

    print(
        f"pipebench {report['workload']} seed={report['seed']} trace={report['trace']}"
        f"{' smoke' if report['smoke'] else ''}: {report['reps']} repetitions "
        f"in {report['elapsed_s']:.1f} s"
    )
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    print("seeds " + json.dumps(report["seeds"], sort_keys=True))
    print("digests " + json.dumps(report["digests"], sort_keys=True))
    print("repetition seconds " + json.dumps(
        {k: v if isinstance(v, float) else [round(x, 4) for x in v]
         for k, v in report["stage_seconds"].items()}
    ))
    for name, entry in report["checks"].items():
        status = "fail" if entry["fail"] else ("pass" if entry["pass"] else "skip")
        detail = entry["failures"][0] if entry["failures"] else entry["detail"]
        print(f"check {name:<20} {status:<4} (pass {entry['pass']}, fail {entry['fail']}, "
              f"skip {entry['skip']}) {detail}")
    print(f"reference job  {report['reference_job_s']:.4f} s wall (median; "
          f"a reference second is {report['reference_job_s'] / REFERENCE_S:.3f} s wall)")
    for name, value in report["end_to_end"].items():
        wall = report["wall_medians"].get(name)
        print(f"{name:<14} {value:>14.4f} {END_TO_END_UNITS[name]}"
              + (f"  ({wall:.4f} s wall)" if wall is not None else ""))
    print(f"{'error_rate':<14} {report['error_rate']:>14.4f} ratio "
          f"({report['failed']} failed / {report['attempted']} attempted)")
    if "per_layer" in report:
        for line in report["layer_table"]:
            print(line)
        for name, value in report["per_layer"].items():
            print(f"  {name:<36} {value:>16.6g} {PER_LAYER_UNITS[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program source under {src}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(src))
    try:
        from pipeline import load_program

        api = load_program()
    except ImportError:
        traceback.print_exc()
        print("pipebench: could not import the program", file=sys.stderr)
        return 2
    first_import_s = time.perf_counter() - start
    if not Path(api.repro.__file__).resolve().is_relative_to(src):
        print(f"pipebench: imported repro from {api.repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    # A terminated run still stops its import probes and removes its spill
    # files and slabs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from reference import ParallelReference, ReferenceJob

    reference = ReferenceJob()
    imports = probe_import_seconds(src, reference)
    work_dir = ROOT / ".pipebench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    parallel = None
    try:
        if workload.workers > 1:
            parallel = ParallelReference(workload.workers)
        machine_info = machine(work_dir)
        report = run(api, workload, args, work_dir, reference, parallel, imports)
    finally:
        if parallel is not None:
            parallel.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if report is None:
        print("pipebench: no complete repetition; no result", file=sys.stderr)
        return 1

    report["machine"] = machine_info
    report["stage_seconds"]["first_import"] = first_import_s
    print_report(report)
    if args.trace:
        from layers import PER_LAYER_UNITS

        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in report["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in report["end_to_end"].items()
        }
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
