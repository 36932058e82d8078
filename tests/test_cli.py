"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.config == "coaxial-4x"
        assert args.workload == "stream-copy"

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--config", "nope"])

    def test_trace_only_inspects(self):
        # Audited runs go through `repro run --validate strict --trace-out`.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--config", "coaxial-4x"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "coaxial-4x" in out
        assert "stream-copy" in out

    def test_run_small(self, capsys):
        rc = main(["run", "--workload", "mcf", "--ops", "300",
                   "--config", "ddr-baseline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "IPC" in out

    def test_run_with_calm_override(self, capsys):
        rc = main(["run", "--workload", "mcf", "--ops", "300",
                   "--config", "coaxial-4x", "--calm", "never"])
        assert rc == 0

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "--workload", "nope", "--ops", "100"]) == 2

    def test_compare(self, capsys):
        rc = main(["compare", "--workloads", "mcf", "--configs", "coaxial-4x",
                   "--ops", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "geomean speedup" in out

    def test_compare_unknown_config(self, capsys):
        assert main(["compare", "--workloads", "mcf",
                     "--configs", "warpdrive"]) == 2

    def test_curve(self, capsys):
        rc = main(["curve", "--loads", "0.1,0.3", "--requests", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p90" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "COAXIAL-4x" in out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "EDP ratio" in out

    def test_cost(self, capsys):
        assert main(["cost", "--capacity", "3072"]) == 0
        out = capsys.readouterr().out
        assert "COAXIAL" in out

    def test_sweep_cold_then_warm(self, capsys, tmp_path):
        argv = ["sweep", "--configs", "ddr-baseline", "--workloads", "mcf,BFS",
                "--ops", "250", "--jobs", "1", "--quiet",
                "--cache-dir", str(tmp_path / "cache"),
                "--bench-out", str(tmp_path / "BENCH_sweep.json")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "misses: 2" in cold and "stores: 2" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "hits: 2 misses: 0" in warm
        import json
        bench = json.loads((tmp_path / "BENCH_sweep.json").read_text())
        assert bench["summary"]["n_jobs"] == 2
        assert bench["summary"]["n_cached"] == 2
        assert {j["workload"] for j in bench["jobs"]} == {"mcf", "BFS"}

    def test_sweep_unknown_config(self, capsys, tmp_path):
        assert main(["sweep", "--configs", "warpdrive",
                     "--cache-dir", str(tmp_path)]) == 2

    def test_run_obs_then_report(self, capsys, tmp_path):
        out_path = tmp_path / "metrics" / "obs.jsonl"
        rc = main(["run", "--workload", "mcf", "--ops", "300",
                   "--config", "coaxial-4x", "--obs", str(out_path)])
        assert rc == 0
        run_out = capsys.readouterr().out
        assert "p50" in run_out and "p99.9" in run_out
        assert out_path.exists()
        rc = main(["obs", "report", str(out_path)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "Kernel profile" in report
        assert "repro_miss_latency_ns" in report
        assert "p99" in report

    def test_obs_report_missing_file(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 2

    def test_sweep_with_obs_fleet(self, capsys, tmp_path):
        import json
        argv = ["sweep", "--configs", "ddr-baseline", "--workloads", "mcf",
                "--ops", "250", "--jobs", "1", "--quiet", "--obs", "on",
                "--cache-dir", str(tmp_path / "cache"),
                "--bench-out", str(tmp_path / "BENCH_sweep.json")]
        assert main(argv) == 0
        capsys.readouterr()
        bench = json.loads((tmp_path / "BENCH_sweep.json").read_text())
        assert bench["fleet"]["slowest_jobs"]
        assert bench["fleet"]["miss_latency_ns"]["count"] > 0

    def test_bench_run_gate_fails_below_min_ratio(self, capsys, tmp_path):
        import json
        from pathlib import Path

        golden = Path(__file__).resolve().parents[1] / "goldens" / "bench.json"
        out = tmp_path / "BENCH_kernel.json"
        rc = main(["bench", "run", "--ops", "100", "--repeats", "1",
                   "--quiet", "--golden", str(golden), "--out", str(out),
                   "--min-ratio", "1e9"])
        assert rc == 1
        assert "PERF GATE FAILED" in capsys.readouterr().err
        record = json.loads(out.read_text())
        assert record["events"] > 0 and record["ratio_vs_baseline"] > 0

    def test_run_obs_unknown_suffix_rejected_before_run(self, capsys,
                                                        tmp_path):
        rc = main(["run", "--workload", "mcf", "--ops", "200",
                   "--obs", str(tmp_path / "metrics.xml")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown metrics export format" in err
        assert not (tmp_path / "metrics.xml").exists()


class TestAuditedTrace:
    ARGS = ["run", "--workload", "mcf", "--ops", "300",
            "--config", "coaxial-4x", "--validate", "strict"]

    def test_strict_run_writes_viewable_trace(self, capsys, tmp_path):
        import numpy as np

        out = tmp_path / "audit" / "trace.jsonl"
        assert main(self.ARGS + ["--trace-out", str(out)]) == 0
        run_out = capsys.readouterr().out
        assert "0 violation(s)" in run_out and str(out) in run_out
        assert main(["trace", "view", str(out)]) == 0
        assert "slowest" in capsys.readouterr().out
        # A .npy path writes the timelines as a structured array.
        assert main(self.ARGS + ["--trace-out", str(tmp_path / "t.npy")]) == 0
        arr = np.load(tmp_path / "t.npy")
        assert len(arr) > 0 and "t_mc_enqueue" in arr.dtype.names

    def test_strict_violation_is_one_line_exit_1(self, capsys, monkeypatch,
                                                 tmp_path):
        from repro.dram.controller import _SubChannel

        orig = _SubChannel.enqueue

        def corrupt(self, req, coord):
            ok = orig(self, req, coord)
            if req.t_create >= 0:
                req.t_mc_enqueue = req.t_create - 5.0  # enqueue before create
            return ok

        monkeypatch.setattr(_SubChannel, "enqueue", corrupt)
        out = tmp_path / "trace.jsonl"
        assert main(self.ARGS + ["--trace-out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("invariant violation (strict): ")
        assert "Traceback" not in err[0]
        assert not out.exists()
