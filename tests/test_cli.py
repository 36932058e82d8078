"""Tests for the command-line interface."""

import pytest

from repro.cli import UsageError, build_parser, main
from repro.exec.perf import BaselineProtectedError
from repro.exec.runner import ExecutorError
from repro.exec.spec import SpecError
from repro.exportutil import GoldenError
from repro.fleet.campaign import CampaignFailed


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

    def test_sweep_device_flags_become_overrides(self, capsys, tmp_path):
        import json
        argv = ["sweep", "--configs", "coaxial-4x", "--workloads", "mcf",
                "--ops", "200", "--jobs", "1", "--quiet", "--no-cache",
                "--tiering", "epoch", "--device-profile", "demystify-b",
                "--bench-out", str(tmp_path / "BENCH_sweep.json")]
        assert main(argv) == 0
        capsys.readouterr()
        bench = json.loads((tmp_path / "BENCH_sweep.json").read_text())
        from repro.system.config import config_digest
        from repro.exec.spec import build_config
        want = build_config("coaxial-4x", {"tiering": "epoch",
                                           "device_profile": "demystify-b"})
        assert bench["config_digests"] == {"coaxial-4x": config_digest(want)}
        # Flag values the config rejects exit 2 before anything runs.
        assert main(argv[:-2] + ["--configs", "ddr-baseline"]) == 2
        assert "requires memory_kind='cxl'" in capsys.readouterr().err

    def test_campaign_tiering_search_scores_finite_ipc(self, capsys,
                                                       tmp_path):
        import json
        import math
        out = tmp_path / "campaign.json"
        rc = main(["campaign", "--base", "coaxial-4x", "--search",
                   "tiering=static,epoch", "--workloads", "mcf",
                   "--ops0", "50", "--rungs", "1", "--jobs", "1",
                   "--out", str(out)])
        assert rc == 0
        winner = json.loads(out.read_text())["winner"]
        assert winner["overrides"]["tiering"] in ("static", "epoch")
        assert math.isfinite(winner["score"]) and winner["score"] > 0

    def test_campaign_bad_search_knob_exits_2(self, capsys):
        assert main(["campaign", "--search", "tiering=nope",
                     "--workloads", "mcf", "--jobs", "1"]) == 2
        assert "'tiering'" in capsys.readouterr().err

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

    def test_run_trace_out_unknown_suffix_rejected_before_run(
            self, capsys, monkeypatch, tmp_path):
        import repro.cli

        def never(*args, **kwargs):
            raise AssertionError("simulated before checking --trace-out")

        monkeypatch.setattr(repro.cli, "simulate", never)
        out = tmp_path / "trace.xml"
        rc = main(["run", "--workload", "mcf", "--ops", "200",
                   "--trace-out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: unknown span trace format '.xml' for {out}; "
            f"use a .json (Perfetto), .jsonl or .npy path\n")

    def test_keyerror_from_simulate_is_a_bug_not_bad_input(self, monkeypatch):
        import repro.cli

        def buggy(*args, **kwargs):
            raise KeyError("internal_bug")

        monkeypatch.setattr(repro.cli, "simulate", buggy)
        with pytest.raises(KeyError, match="internal_bug"):
            main(["run", "--workload", "mcf", "--ops", "100"])

    def test_compare_unknown_workload(self, capsys):
        assert main(["compare", "--workloads", "mcf,nope",
                     "--configs", "coaxial-4x"]) == 2
        assert "'workload'" in capsys.readouterr().err

    def test_campaign_bad_eta_exits_2(self, capsys):
        assert main(["campaign", "--search", "calm_policy=calm_50",
                     "--workloads", "mcf", "--jobs", "1", "--eta", "1"]) == 2
        assert "error: eta must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--seeds", "x", "--no-cache"], ["curve", "--loads", "abc"]])
    def test_malformed_number_list_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--configs", "ddr-baseline", "--workloads", "mcf"],
        ["campaign", "--search", "calm_policy=calm_50", "--workloads", "mcf"],
        ["serve", "--port", "0"],
        ["fuzz", "run", "--trials", "1", "--oracles", "calm_clock"]])
    def test_malformed_repro_jobs_exits_2(self, capsys, monkeypatch, argv):
        import repro.serve

        def never(**kwargs):
            raise AssertionError("served despite a malformed REPRO_JOBS")

        monkeypatch.setattr(repro.serve, "run_server", never)
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: REPRO_JOBS must be an integer" in err

    def test_obs_report_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "run"}\n{"kind": "metric", "name": "x"}\n')
        assert main(["obs", "report", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestExitCodes:
    """``main`` is the one place an error becomes an exit code."""

    @pytest.fixture
    def failing_list(self, monkeypatch):
        import repro.cli

        def install(exc):
            def cmd(args):
                raise exc
            monkeypatch.setattr(repro.cli, "cmd_list", cmd)
        return install

    @pytest.mark.parametrize("exc, code", [
        (SpecError, 2), (UsageError, 2), (GoldenError, 2),
        (BaselineProtectedError, 2), (ExecutorError, 2), (CampaignFailed, 1),
    ])
    def test_error_table(self, failing_list, capsys, exc, code):
        failing_list(exc("boom"))
        assert main(["list"]) == code
        assert capsys.readouterr().err == "error: boom\n"

    def test_unknown_error_keeps_its_traceback(self, failing_list):
        failing_list(ValueError("a bug"))
        with pytest.raises(ValueError, match="a bug"):
            main(["list"])


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


class TestSweepOnBroker:
    """``repro sweep --broker``: the same grid, rows and record on a fleet."""

    GRID = ["--configs", "ddr-baseline,coaxial-4x", "--workloads", "mcf,gcc",
            "--ops", "200", "--quiet"]

    def test_rows_match_local_sweep(self, capsys, tmp_path):
        import json
        import threading

        from repro.exec.cache import ResultCache
        from repro.fleet import FleetClient, FleetWorker
        from tests.test_fleet import BrokerHarness

        broker = BrokerHarness(cache=ResultCache(root=tmp_path / "broker"))
        url = broker.url
        worker = FleetWorker(url, worker_id="w0", poll_s=0.05)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            fleet_out = tmp_path / "BENCH_fleet.json"
            assert main(["sweep", "--broker", url, "--tracing", "on",
                         "--bench-out", str(fleet_out)] + self.GRID) == 0
            header = capsys.readouterr().out.splitlines()[0]
            assert f"-> {url} (trace " in header
        finally:
            FleetClient(url).drain()
            thread.join(timeout=30)
            broker.stop()
        local_out = tmp_path / "BENCH_sweep.json"
        assert main(["sweep", "--jobs", "1", "--tracing", "on",
                     "--cache-dir", str(tmp_path / "fresh"),
                     "--bench-out", str(local_out)] + self.GRID) == 0
        capsys.readouterr()

        def rows(path):
            record = json.loads(path.read_text())
            return record, [(j["config"], j["workload"], j["seed"], j["ipc"],
                             j["events"]) for j in record["jobs"]]

        fleet, fleet_rows = rows(fleet_out)
        local, local_rows = rows(local_out)
        assert fleet_rows == local_rows and len(fleet_rows) == 4
        assert fleet["fleet"]["broker"] == url
        assert fleet["workers"] == 1
        assert fleet["summary"]["n_failed"] == local["summary"]["n_failed"] == 0

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--retries", "0"],
                                      ["--no-cache"], ["--clear-cache"],
                                      ["--cache-dir", "somewhere"]])
    def test_local_flags_rejected(self, capsys, flag):
        # Checked before any broker contact: port 9 (discard) never answers.
        assert main(["sweep", "--broker", "http://127.0.0.1:9"] + flag
                    + self.GRID) == 2
        assert "cannot be combined with --broker" in capsys.readouterr().err

    def test_unreachable_broker_exits_2(self, capsys):
        assert main(["sweep", "--broker", "http://127.0.0.1:9"]
                    + self.GRID) == 2
        assert "unreachable" in capsys.readouterr().err
