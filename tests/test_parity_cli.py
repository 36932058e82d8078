"""End-to-end CLI coverage for `repro parity ...` and `repro bench ...`.

Simulations run at a deliberately tiny scale (one workload, 150 ops) —
the point is exit codes and file round trips, not numbers. The on-disk
result cache is pointed at a temp dir, and the in-process memo makes the
repeated evaluations (bless, then compare) nearly free.
"""

import json

import pytest

from repro.cli import main

TINY = ["--workloads", "mcf", "--ops", "150", "--quiet"]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestParityRun:
    def test_run_prints_all_metrics(self, tmp_path, capsys):
        # The tiny suite sits outside some sanity bands (one stream-less
        # workload), so accept both exit codes; every metric must print.
        rc = main(["parity", "run", *TINY,
                   "--json", str(tmp_path / "measured.json")])
        assert rc in (0, 1)
        out = capsys.readouterr().out
        assert "fig5.geomean_speedup.coaxial-4x" in out
        measured = json.load(open(tmp_path / "measured.json"))
        assert len(measured) >= 13

    def test_unknown_workload_is_an_error(self, capsys):
        rc = main(["parity", "run", "--workloads", "not-a-workload",
                   "--ops", "100", "--quiet"])
        assert rc == 2


class TestParityBlessCompare:
    def _golden(self, tmp_path):
        return str(tmp_path / "parity.json")

    def test_bless_then_compare_passes(self, tmp_path, capsys):
        golden = self._golden(tmp_path)
        assert main(["parity", "bless", *TINY, "--golden", golden]) == 0
        rc = main(["parity", "compare", "--quiet", "--golden", golden,
                   "--strict", "--report", str(tmp_path / "report.md")])
        assert rc == 0
        report = (tmp_path / "report.md").read_text()
        assert "PASS" in report and "FAIL" not in report

    def test_compare_fails_on_perturbed_golden(self, tmp_path, capsys):
        golden = self._golden(tmp_path)
        assert main(["parity", "bless", *TINY, "--golden", golden]) == 0
        payload = json.load(open(golden))
        entry = payload["metrics"]["fig5.geomean_speedup.coaxial-4x"]
        entry["value"] = entry["value"] * 1.5          # way past fail band
        json.dump(payload, open(golden, "w"))
        assert main(["parity", "compare", "--quiet", "--golden", golden]) == 1

    def test_compare_strict_fails_on_new_metric(self, tmp_path, capsys):
        golden = self._golden(tmp_path)
        assert main(["parity", "bless", *TINY, "--golden", golden]) == 0
        payload = json.load(open(golden))
        del payload["metrics"]["tab5.edp_ratio.coaxial-4x"]
        json.dump(payload, open(golden, "w"))
        assert main(["parity", "compare", "--quiet", "--golden", golden]) == 0
        assert main(["parity", "compare", "--quiet", "--golden", golden,
                     "--strict"]) == 1

    def test_compare_corrupted_value_exits_1(self, tmp_path, capsys):
        # A golden whose stored value drifted an order of magnitude is a
        # scientific failure (exit 1), not an infrastructure one.
        golden = self._golden(tmp_path)
        assert main(["parity", "bless", *TINY, "--golden", golden]) == 0
        payload = json.load(open(golden))
        entry = payload["metrics"]["fig5.geomean_speedup.coaxial-4x"]
        entry["value"] = entry["value"] * 10.0
        json.dump(payload, open(golden, "w"))
        assert main(["parity", "compare", "--quiet", "--golden", golden]) == 1

    def test_compare_metric_missing_value_exits_2(self, tmp_path, capsys):
        # A structurally broken metric entry (no numeric 'value') is an
        # unusable golden: infrastructure error, exit 2.
        golden = self._golden(tmp_path)
        assert main(["parity", "bless", *TINY, "--golden", golden]) == 0
        payload = json.load(open(golden))
        del payload["metrics"]["fig5.geomean_speedup.coaxial-4x"]["value"]
        json.dump(payload, open(golden, "w"))
        assert main(["parity", "compare", "--quiet", "--golden", golden]) == 2

    def test_compare_missing_golden_exits_2(self, tmp_path, capsys):
        assert main(["parity", "compare", "--quiet",
                     "--golden", str(tmp_path / "absent.json")]) == 2

    def test_compare_malformed_golden_exits_2(self, tmp_path, capsys):
        golden = tmp_path / "broken.json"
        golden.write_text('{"schema": 1, "metrics": "oops"}')
        assert main(["parity", "compare", "--quiet",
                     "--golden", str(golden)]) == 2

    def test_bless_round_trip_is_stable(self, tmp_path, capsys):
        # Re-blessing from the same (cached) runs must reproduce the file.
        golden = self._golden(tmp_path)
        assert main(["parity", "bless", *TINY, "--golden", golden]) == 0
        first = json.load(open(golden))
        assert main(["parity", "bless", *TINY, "--golden", golden]) == 0
        second = json.load(open(golden))
        assert first["metrics"] == second["metrics"]
        assert first["suite"] == second["suite"]


class TestBenchCli:
    def _record(self, tmp_path, eps):
        rec = {"schema": 1, "workers": 2, "jobs": [],
               "summary": {"events_per_s": eps, "total_events": 1000,
                           "n_jobs": 1}}
        p = tmp_path / f"bench-{eps}.json"
        p.write_text(json.dumps(rec))
        return str(p)

    def test_bless_and_compare_pass(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        assert main(["bench", "bless", "--bench",
                     self._record(tmp_path, 50_000), "--golden", golden]) == 0
        assert main(["bench", "compare", "--bench",
                     self._record(tmp_path, 48_000), "--golden", golden]) == 0

    def test_warn_passes_unless_strict(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        main(["bench", "bless", "--bench", self._record(tmp_path, 50_000),
              "--golden", golden])
        fresh = self._record(tmp_path, 37_000)        # 26% slower
        assert main(["bench", "compare", "--bench", fresh,
                     "--golden", golden]) == 0
        assert main(["bench", "compare", "--bench", fresh,
                     "--golden", golden, "--strict"]) == 1

    def test_fail_band_exits_1(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        main(["bench", "bless", "--bench", self._record(tmp_path, 50_000),
              "--golden", golden])
        assert main(["bench", "compare", "--bench",
                     self._record(tmp_path, 30_000), "--golden", golden]) == 1

    def test_missing_or_raw_golden_exits_2(self, tmp_path, capsys):
        fresh = self._record(tmp_path, 50_000)
        assert main(["bench", "compare", "--bench", fresh,
                     "--golden", str(tmp_path / "none.json")]) == 2
        # A raw sweep record is not an acceptable baseline.
        assert main(["bench", "compare", "--bench", fresh,
                     "--golden", fresh]) == 2

    def test_unset_flags_take_their_owners_defaults(self, tmp_path, capsys,
                                                     monkeypatch):
        # The parser restates no default: the record name is
        # repro.exec.perf's and the bands are repro.parity.bench's.
        from repro.exec.perf import BENCH_FILENAME
        from repro.parity.bench import (DEFAULT_FAIL_SLOWDOWN,
                                        DEFAULT_WARN_SLOWDOWN)

        monkeypatch.chdir(tmp_path)
        golden = str(tmp_path / "golden.json")
        (tmp_path / BENCH_FILENAME).write_text(
            open(self._record(tmp_path, 50_000)).read())
        assert main(["bench", "bless", "--golden", golden]) == 0
        assert main(["bench", "compare", "--golden", golden]) == 0
        assert (f"warn at {100 * DEFAULT_WARN_SLOWDOWN:.0f}%, fail at "
                f"{100 * DEFAULT_FAIL_SLOWDOWN:.0f}%"
                in capsys.readouterr().out)

    def test_bless_refuses_overwrite_without_force(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        rec = self._record(tmp_path, 50_000)
        assert main(["bench", "bless", "--bench", rec, "--golden", golden]) == 0
        assert main(["bench", "bless", "--bench", rec, "--golden", golden]) == 2
        assert main(["bench", "bless", "--bench", rec, "--golden", golden,
                     "--force"]) == 0


class TestSweepBaselineGuard:
    def test_sweep_refuses_committed_baseline_target(self, tmp_path, capsys):
        golden = str(tmp_path / "bench.json")
        rec = {"schema": 1, "workers": 1, "jobs": [],
               "summary": {"events_per_s": 10.0, "total_events": 10,
                           "n_jobs": 1}}
        src = tmp_path / "rec.json"
        src.write_text(json.dumps(rec))
        assert main(["bench", "bless", "--bench", str(src),
                     "--golden", golden]) == 0
        rc = main(["sweep", "--configs", "ddr-baseline", "--workloads", "mcf",
                   "--ops", "150", "--jobs", "1", "--quiet",
                   "--bench-out", golden])
        assert rc == 2
        err = capsys.readouterr().err
        assert "committed perf baseline" in err
        # Baseline survived the refused sweep write.
        assert json.load(open(golden))["baseline"] is True

    def test_sweep_force_overwrites(self, tmp_path, capsys):
        golden = str(tmp_path / "bench.json")
        rec = {"schema": 1, "workers": 1, "jobs": [],
               "summary": {"events_per_s": 10.0, "total_events": 10,
                           "n_jobs": 1}}
        src = tmp_path / "rec.json"
        src.write_text(json.dumps(rec))
        main(["bench", "bless", "--bench", str(src), "--golden", golden])
        rc = main(["sweep", "--configs", "ddr-baseline", "--workloads", "mcf",
                   "--ops", "150", "--jobs", "1", "--quiet", "--force",
                   "--bench-out", golden])
        assert rc == 0
        assert "baseline" not in json.load(open(golden))
