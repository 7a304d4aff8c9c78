"""Unit tests for the command-line interface (invoked in-process)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def network_file(tmp_path):
    path = tmp_path / "net.txt"
    code = main(
        [
            "generate",
            "--model",
            "erdos-renyi",
            "--nodes",
            "80",
            "--edge-prob",
            "0.06",
            "--seed",
            "1",
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_solve_requires_budget(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "net.txt"])


class TestGenerate:
    @pytest.mark.parametrize(
        "model", ["erdos-renyi", "powerlaw", "barabasi-albert", "forest-fire"]
    )
    def test_all_models(self, tmp_path, model, capsys):
        path = tmp_path / f"{model}.txt"
        code = main(
            ["generate", "--model", model, "--nodes", "60", "--seed", "2", "-o", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_weighted_cascade_applied(self, network_file):
        from repro.graphs.io import read_edge_list

        graph, _ = read_edge_list(network_file)
        assert graph.out_probs.max() <= 1.0
        assert graph.out_probs.min() > 0.0


class TestInspect:
    def test_prints_stats(self, network_file, capsys):
        assert main(["inspect", str(network_file)]) == 0
        out = capsys.readouterr().out
        assert "n=" in out and "m=" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.txt")]) == 1
        assert "error" in capsys.readouterr().err


class TestSolveAndEvaluate:
    def test_solve_prints_and_saves(self, network_file, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        code = main(
            [
                "solve",
                str(network_file),
                "--method",
                "ud",
                "--budget",
                "4",
                "--hyperedges",
                "1500",
                "--seed",
                "3",
                "-o",
                str(plan),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated spread" in out
        payload = json.loads(plan.read_text())
        assert payload["method"] == "ud"

    def test_evaluate_solve_result(self, network_file, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        main(
            [
                "solve",
                str(network_file),
                "--method",
                "im",
                "--budget",
                "3",
                "--hyperedges",
                "1000",
                "--seed",
                "4",
                "-o",
                str(plan),
            ]
        )
        capsys.readouterr()
        code = main(
            ["evaluate", str(network_file), str(plan), "--samples", "300", "--seed", "5"]
        )
        assert code == 0
        assert "spread" in capsys.readouterr().out

    def test_evaluate_bare_configuration(self, network_file, tmp_path, capsys):
        from repro.core.configuration import Configuration
        from repro.graphs.io import read_edge_list
        from repro.io.serialization import save_configuration

        graph, _ = read_edge_list(network_file)
        config_path = tmp_path / "config.json"
        save_configuration(Configuration.integer([0, 1], graph.num_nodes), config_path)
        code = main(
            [
                "evaluate",
                str(network_file),
                str(config_path),
                "--samples",
                "200",
                "--seed",
                "6",
            ]
        )
        assert code == 0
        assert "spread" in capsys.readouterr().out

    def test_lt_diffusion(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--method",
                "ud",
                "--budget",
                "3",
                "--diffusion",
                "lt",
                "--hyperedges",
                "1000",
                "--seed",
                "7",
            ]
        )
        assert code == 0

    def test_rr_sets_auto_prints_adaptive_summary(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--method",
                "cd",
                "--budget",
                "4",
                "--rr-sets",
                "auto",
                "--rr-epsilon",
                "0.3",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive sampling: theta" in out
        assert "stopped on" in out

    def test_rr_sets_integer_overrides_hyperedges(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--method",
                "ud",
                "--budget",
                "4",
                "--hyperedges",
                "9999",
                "--rr-sets",
                "800",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        assert "estimated spread" in capsys.readouterr().out

    def test_rr_sets_rejects_garbage(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--budget",
                "4",
                "--rr-sets",
                "soon",
                "--seed",
                "3",
            ]
        )
        assert code == 2
        assert "--rr-sets" in capsys.readouterr().out


class TestReport:
    def test_report_writes_csvs(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(
            [
                "report",
                str(out),
                "--scale",
                "0.01",
                "--hyperedges",
                "600",
                "--samples",
                "100",
                "--seed",
                "9",
            ]
        )
        assert code == 0
        assert (out / "figure3_influence_spread.csv").exists()
        assert (out / "MANIFEST.txt").exists()
        assert "report written" in capsys.readouterr().out


class TestObservabilityFlags:
    def _solve_args(self, network_file, extra):
        return [
            "solve",
            str(network_file),
            "--method",
            "ud",
            "--budget",
            "4",
            "--hyperedges",
            "600",
            "--seed",
            "3",
            *extra,
        ]

    @staticmethod
    def _read_jsonl(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_solve_trace_and_metrics_files(self, network_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            self._solve_args(
                network_file,
                ["--trace", str(trace), "--metrics-out", str(metrics)],
            )
        )
        assert code == 0
        records = self._read_jsonl(trace)
        assert records, "trace is empty"
        roots = [r for r in records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["solve"]
        ids = {r["id"] for r in records}
        assert all(r["parent"] in ids for r in records if r["parent"] is not None)
        assert "rrset.sample" in {r["name"] for r in records}

        snapshot = json.loads(metrics.read_text())
        assert sorted(snapshot) == ["counters", "gauges", "histograms"]
        assert snapshot["counters"]["solver.runs_total"] == 1
        assert snapshot["counters"]["rrset.requested_total"] == 600

    def test_trace_composes_with_workers(self, network_file, tmp_path, capsys):
        canonical = {}
        for workers in ("1", "2"):
            trace = tmp_path / f"trace-{workers}.jsonl"
            metrics = tmp_path / f"metrics-{workers}.json"
            code = main(
                self._solve_args(
                    network_file,
                    [
                        "--workers",
                        workers,
                        "--trace",
                        str(trace),
                        "--metrics-out",
                        str(metrics),
                    ],
                )
            )
            assert code == 0
            records = self._read_jsonl(trace)
            # Deterministic content: everything except the timing fields.
            canonical[workers] = (
                [
                    {k: r[k] for k in ("id", "parent", "name", "attrs", "events", "error")}
                    for r in records
                ],
                json.loads(metrics.read_text()),
            )
        assert canonical["1"] == canonical["2"]

    def test_trace_composes_with_deadline(self, network_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            self._solve_args(
                network_file, ["--deadline", "1e9", "--trace", str(trace)]
            )
        )
        assert code == 0
        assert self._read_jsonl(trace)

    def test_evaluate_metrics_out(self, network_file, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(self._solve_args(network_file, ["-o", str(plan)])) == 0
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "evaluate",
                str(network_file),
                str(plan),
                "--samples",
                "200",
                "--seed",
                "5",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["mc.samples_total"] == 200

    def test_report_trace_composes_with_resume(self, tmp_path, capsys):
        out = tmp_path / "report"
        trace = tmp_path / "trace.jsonl"
        store = tmp_path / "ckpt"
        args = [
            "report",
            str(out),
            "--scale",
            "0.01",
            "--hyperedges",
            "400",
            "--samples",
            "50",
            "--seed",
            "9",
            "--checkpoint-dir",
            str(store),
            "--resume",
            "--trace",
            str(trace),
            "--metrics-out",
            str(tmp_path / "metrics.json"),
        ]
        assert main(args) == 0
        names = {r["name"] for r in self._read_jsonl(trace)}
        assert "report.generate" in names
        assert "experiment.run_methods" in names
        assert (out / "metrics.json").exists()
        assert "metrics.json" in (out / "MANIFEST.txt").read_text()

    def test_files_written_even_on_failure(self, network_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "solve",
                str(network_file),
                "--method",
                "no-such-method",
                "--budget",
                "4",
                "--trace",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert trace.exists()
        assert sorted(json.loads(metrics.read_text())) == [
            "counters",
            "gauges",
            "histograms",
        ]


class TestReproduce:
    def test_table2(self, capsys):
        assert main(["reproduce", "table2", "--scale", "0.01"]) == 0
        assert "wiki-vote" in capsys.readouterr().out

    def test_fig5(self, capsys):
        code = main(
            ["reproduce", "fig5", "--scale", "0.01", "--budget", "5", "--seed", "8"]
        )
        assert code == 0
        assert "best c" in capsys.readouterr().out


class TestSupervisionFlags:
    def test_flags_parse_into_namespace(self):
        args = build_parser().parse_args(
            [
                "solve",
                "net.txt",
                "--budget",
                "5",
                "--max-chunk-retries",
                "4",
                "--chunk-timeout",
                "1.5",
                "--on-poison-chunk",
                "serial",
            ]
        )
        assert args.max_chunk_retries == 4
        assert args.chunk_timeout == 1.5
        assert args.on_poison_chunk == "serial"

    def test_report_accepts_the_same_flags(self):
        args = build_parser().parse_args(
            ["report", "out", "--on-poison-chunk", "partial"]
        )
        assert args.on_poison_chunk == "partial"

    def test_workers_auto_accepted(self):
        args = build_parser().parse_args(
            ["solve", "net.txt", "--budget", "5", "--workers", "auto"]
        )
        assert args.workers == "auto"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--max-chunk-retries", "-1"],
            ["--max-chunk-retries", "two"],
            ["--chunk-timeout", "0"],
            ["--chunk-timeout", "-3"],
            ["--on-poison-chunk", "explode"],
            ["--workers", "0"],
            ["--workers", "-2"],
            ["--workers", "nope"],
        ],
    )
    def test_bad_values_rejected_at_parse_time(self, extra, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "net.txt", "--budget", "5"] + extra)

    def test_supervision_flags_reach_the_solver(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--budget",
                "5",
                "--method",
                "ud",
                "--hyperedges",
                "300",
                "--seed",
                "3",
                "--workers",
                "2",
                "--max-chunk-retries",
                "1",
                "--on-poison-chunk",
                "serial",
            ]
        )
        assert code == 0
        assert "estimated spread" in capsys.readouterr().out


class TestConstraintFlags:
    def test_flags_parse_into_namespace(self):
        args = build_parser().parse_args(
            [
                "solve",
                "net.txt",
                "--budget",
                "4",
                "--access-k",
                "10",
                "--user-cap",
                "0.5",
            ]
        )
        assert args.access_k == 10
        assert args.user_cap == 0.5
        assert args.constraint_json is None

    @pytest.mark.parametrize(
        "extra",
        [
            ["--access-k", "0"],
            ["--access-k", "two"],
            ["--user-cap", "1.5"],
            ["--user-cap", "-0.1"],
            ["--user-cap", "nan"],
        ],
    )
    def test_bad_values_rejected_at_parse_time(self, extra, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "net.txt", "--budget", "4"] + extra)

    def test_user_cap_reaches_the_solver(self, network_file, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        code = main(
            [
                "solve",
                str(network_file),
                "--method",
                "cd",
                "--budget",
                "4",
                "--hyperedges",
                "1000",
                "--seed",
                "3",
                "--user-cap",
                "0.5",
                "-o",
                str(plan),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "constraints active: cap" in out
        payload = json.loads(plan.read_text())
        discounts = payload["configuration"]["discounts"]  # sparse {node: c}
        assert all(c <= 0.5 + 1e-9 for c in discounts.values())
        assert payload["extras"]["constraints"] == [{"type": "cap", "cap": 0.5}]

    def test_access_k_restricts_support(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--method",
                "ud",
                "--budget",
                "4",
                "--hyperedges",
                "1000",
                "--seed",
                "3",
                "--access-k",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "constraints active: access" in out
        # at most 5 users hold discounts
        targeted = int(out.split("users targeted")[0].rsplit(",", 1)[1].strip())
        assert targeted <= 5

    def test_constraint_json_inline_and_file(self, network_file, tmp_path, capsys):
        spec = '[{"type": "cap", "cap": 0.4}, {"type": "budget", "budget": 2.0}]'
        inline = main(
            [
                "solve",
                str(network_file),
                "--budget",
                "4",
                "--hyperedges",
                "800",
                "--seed",
                "3",
                "--constraint-json",
                spec,
            ]
        )
        assert inline == 0
        assert "constraints active: cap, budget" in capsys.readouterr().out

        spec_file = tmp_path / "constraints.json"
        spec_file.write_text(spec, encoding="utf-8")
        from_file = main(
            [
                "solve",
                str(network_file),
                "--budget",
                "4",
                "--hyperedges",
                "800",
                "--seed",
                "3",
                "--constraint-json",
                str(spec_file),
            ]
        )
        assert from_file == 0
        assert "constraints active: cap, budget" in capsys.readouterr().out

    def test_malformed_constraint_json_fails_cleanly(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--budget",
                "4",
                "--constraint-json",
                "{not json",
            ]
        )
        assert code == 1
        assert "constraint-json" in capsys.readouterr().err

    def test_unknown_constraint_type_fails_cleanly(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--budget",
                "4",
                "--constraint-json",
                '[{"type": "martian"}]',
            ]
        )
        assert code == 1
        assert "unknown constraint type" in capsys.readouterr().err

    def test_slack_constraints_print_nothing(self, network_file, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--budget",
                "4",
                "--hyperedges",
                "800",
                "--seed",
                "3",
                "--user-cap",
                "1.0",
            ]
        )
        assert code == 0
        assert "constraints active" not in capsys.readouterr().out


class TestPlacementFlags:
    @pytest.mark.parametrize("storage", [[], ["--storage", "heap"]])
    def test_mmap_without_shared_rejected_before_any_work(
        self, tmp_path, capsys, storage
    ):
        # The graph path does not exist: only a check that runs before
        # the graph is loaded can produce the placement error.
        missing = tmp_path / "no-such-graph.txt"
        code = main(
            ["solve", str(missing), "--budget", "4", "--backing", "mmap", *storage]
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "--backing" in err and "--storage" in err
        assert "no-such-graph" not in err

    def test_shared_mmap_placement_solves(self, network_file, tmp_path, capsys):
        code = main(
            [
                "solve",
                str(network_file),
                "--budget",
                "4",
                "--hyperedges",
                "300",
                "--seed",
                "3",
                "--storage",
                "shared",
                "--slab-dir",
                str(tmp_path / "slabs"),
                "--backing",
                "mmap",
                "--spill-dir",
                str(tmp_path / "spill"),
            ]
        )
        assert code == 0
        assert "estimated spread" in capsys.readouterr().out
