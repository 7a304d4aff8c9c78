"""Tests for the scale-storage benchmark (`repro.rrset.bench --scale`).

Runs the real benchmark body at a toy scale so CI exercises the whole
path — graph build (heap and streaming/mmap), sampling sweep through
both transports, spill-backed hyper-graph assembly, UD solve, the
backing cross-check, check evaluation, report rendering — in seconds,
and pins the ``BENCH_scale.json`` schema (``repro.rrset.bench/4``) the
docs and the CI regression guard rely on.  Checks are tri-state: at toy
scale a gate may be skipped (with a reason) but none may fail.
"""

import json

import pytest

from repro.rrset.bench import SCALE_SCHEMA, format_scale_report, run_scale_benchmark

EXPECTED_CHECKS = {
    "graph_nodes_ok",
    "graph_edges_ok",
    "hypergraph_identical",
    "backing_identical",
    "solver_identical",
    "pickled_members_near_zero",
    "sampling_speedup_ok",
    "rss_within_budget",
}


@pytest.fixture(scope="module")
def report():
    return run_scale_benchmark(
        graph_scale=0.005, rr_sets=512, budget=5.0, workers=(1, 2), seed=2016
    )


@pytest.fixture(scope="module")
def mmap_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scale-spill")
    return run_scale_benchmark(
        graph_scale=0.005,
        rr_sets=512,
        budget=5.0,
        workers=(1, 2),
        seed=2016,
        backing="mmap",
        spill_dir=tmp,
    )


def _assert_no_check_failed(report):
    checks = report["summary"]["checks"]
    assert checks, "checks block must not be empty"
    assert set(checks.values()) <= {"pass", "skip"}, checks
    skipped = {k for k, v in checks.items() if v == "skip"}
    assert skipped == set(report["summary"]["check_reasons"])
    assert report["summary"]["ok"] is True


class TestScaleReport:
    def test_all_checks_pass_at_toy_scale(self, report):
        _assert_no_check_failed(report)
        for name in ("hypergraph_identical", "backing_identical", "solver_identical"):
            assert report["summary"]["checks"][name] == "pass", name

    def test_schema_and_top_level_keys(self, report):
        assert report["schema"] == SCALE_SCHEMA
        for key in ("summary", "config", "machine", "results", "determinism"):
            assert key in report, key
        assert report["summary"]["benchmark"] == "scale-storage"

    def test_expected_checks_present(self, report):
        assert set(report["summary"]["checks"]) == EXPECTED_CHECKS

    def test_config_records_backing(self, report):
        assert report["config"]["backing"] == "heap"
        assert report["config"]["graph"] == "com_dblp_like"

    def test_backing_cross_check_always_present(self, report):
        check = report["results"]["backing_check"]
        assert check["identical"] is True
        assert set(check["digests"]) == {"heap", "mmap"}
        assert check["digests"]["heap"] == check["digests"]["mmap"]

    def test_shared_rows_cover_worker_sweep(self, report):
        sampling = report["results"]["sampling"]
        assert [row["workers"] for row in sampling["shared"]] == [1, 2]
        assert sampling["heap"]["workers"] == 2
        # Heap ships members through the pool; shared ships ~100-byte refs.
        assert sampling["heap"]["pickled_bytes_per_chunk"] > 1024
        for row in sampling["shared"]:
            assert row["pickled_bytes_per_chunk"] <= 1024

    def test_speedup_skip_reason_is_machine_derived(self, report):
        import os

        sampling = report["results"]["sampling"]
        status = report["summary"]["checks"]["sampling_speedup_ok"]
        floor = sampling["speedup_floor_seconds"]
        assert sampling["pool_startup_seconds"] > 0
        assert floor == pytest.approx(sampling["pool_startup_seconds"] * 2 / 0.1)
        serial = sampling["shared"][0]["seconds"]
        if sampling["cpu_limited"]:
            assert sampling["speedup_skip_reason"] == (
                f"cpu_count={os.cpu_count() or 1} < max_workers=2"
            )
        elif serial < floor:
            assert sampling["speedup_skip_reason"].startswith("serial sampling")
        else:
            assert sampling["speedup_skip_reason"] is None
            assert status in ("pass", "fail")
        if sampling["speedup_skip_reason"] is not None:
            assert status == "skip"
            assert (
                report["summary"]["check_reasons"]["sampling_speedup_ok"]
                == sampling["speedup_skip_reason"]
            )

    def test_digests_identical_across_modes_and_workers(self, report):
        determinism = report["determinism"]
        assert determinism["identical"] is True
        assert len(determinism["digest"]) == 64

    def test_dtypes_recorded_for_all_csr_arrays(self, report):
        dtypes = report["results"]["hypergraph"]["dtypes"]
        assert set(dtypes) == {
            "edge_offsets",
            "edge_nodes",
            "node_offsets",
            "node_edges",
        }

    def test_report_is_json_serialisable(self, report):
        json.dumps(report)

    def test_rss_budget_turns_into_failing_check(self):
        tiny = run_scale_benchmark(
            graph_scale=0.005,
            rr_sets=256,
            budget=5.0,
            workers=(1,),
            seed=2016,
            rss_budget_mb=1.0,
        )
        assert tiny["summary"]["checks"]["rss_within_budget"] == "fail"
        assert tiny["summary"]["ok"] is False
        # One worker count measures no speedup: skipped, never passed.
        assert tiny["summary"]["checks"]["sampling_speedup_ok"] == "skip"

    def test_required_edges_gate(self):
        gated = run_scale_benchmark(
            graph_scale=0.005,
            rr_sets=256,
            budget=5.0,
            workers=(1,),
            seed=2016,
            required_edges=10**9,
        )
        assert gated["summary"]["checks"]["graph_edges_ok"] == "fail"

    def test_required_nodes_gate(self):
        gated = run_scale_benchmark(
            graph_scale=0.005,
            rr_sets=256,
            budget=5.0,
            workers=(1,),
            seed=2016,
            required_nodes=10**9,
        )
        assert gated["summary"]["checks"]["graph_nodes_ok"] == "fail"

    def test_unknown_graph_rejected(self):
        with pytest.raises(ValueError):
            run_scale_benchmark(
                graph_scale=0.005,
                rr_sets=64,
                budget=5.0,
                workers=(1,),
                seed=2016,
                graph="erdos_renyi",
            )

    def test_format_scale_report_renders_both_modes(self, report):
        text = format_scale_report(report)
        assert "heap" in text
        assert "shared" in text
        assert "pickled" in text
        assert "backing" in text


class TestSpeedupGate:
    """The speedup check is skipped only where the sweep cannot show scaling."""

    @pytest.mark.parametrize(
        "cpus, workers, serial, wide, status",
        [
            (8, (1, 2), 1.0, 0.5, "pass"),  # above the 0.2s floor, 2.0x
            (8, (1, 2), 1.0, 0.9, "fail"),  # above the floor: enforced
            (8, (1, 2), 0.1, 0.2, "skip"),  # start-up dominated
            (1, (1, 2), 1.0, 0.9, "skip"),  # fewer CPUs than workers
            (8, (1,), 1.0, 1.0, "skip"),  # nothing to compare
        ],
    )
    def test_status(self, monkeypatch, cpus, workers, serial, wide, status):
        import os

        from repro.rrset.bench import _speedup_check

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rows = [{"workers": 1, "seconds": serial}, {"workers": 2, "seconds": wide}]
        startup = 0.01 if max(workers) > 1 else None
        check = _speedup_check(rows[: len(workers)], workers, startup)
        assert check["status"] == status
        assert (check["skip_reason"] is not None) == (status == "skip")


class TestScaleReportMmap:
    def test_mmap_cell_passes_and_matches_heap_digest(self, report, mmap_report):
        _assert_no_check_failed(mmap_report)
        assert mmap_report["config"]["backing"] == "mmap"
        # Same seed, same chunk plan: the spill-assembled streams hash to
        # the heap cell's digest exactly.
        assert mmap_report["determinism"]["digest"] == report["determinism"]["digest"]

    def test_mmap_rows_record_spill_volume(self, mmap_report):
        for row in mmap_report["results"]["sampling"]["shared"]:
            assert row["spill_bytes"] > 0
