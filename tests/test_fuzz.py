"""Unit tests for the fuzzer's plumbing: gen, shrink, corpus, harness, CLI.

Oracle *soundness* (do the checks pass on a healthy tree?) is covered by
the campaign smoke in ``test_fuzz_oracles.py`` and by the corpus replay;
here we pin the deterministic machinery around them, using a stub oracle
wherever a real simulation would be too slow.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.exec.spec import SpecError, TaskSpec
from repro.fuzz.corpus import (
    case_dict, entry_name, load_corpus, load_entry, parse_case,
    replay_entry, save_entry,
)
from repro.fuzz.gen import generate_case, generate_cases
from repro.fuzz.harness import FuzzRunner
from repro.fuzz.oracles import ORACLES, Oracle, applicable_oracles
from repro.fuzz import shrink as shrink_mod
from repro.system.config import ALL_CONFIGS


class TestGenerator:
    def test_same_seed_same_campaign(self):
        assert generate_cases(20, seed=7) == generate_cases(20, seed=7)

    def test_different_seeds_differ(self):
        assert generate_cases(20, seed=7) != generate_cases(20, seed=8)

    def test_generated_configs_always_valid(self):
        # The generator's domains must satisfy SystemConfig.__post_init__
        # jointly — the validator never rejects a case over a large sample.
        for case in generate_cases(300, seed=11):
            cfg = case.build_job().config
            assert 1 <= cfg.active_cores <= cfg.n_cores
            assert cfg.mesh_rows * cfg.mesh_cols >= cfg.n_cores

    def test_case_json_round_trip(self):
        for case in generate_cases(25, seed=3):
            assert parse_case(json.loads(json.dumps(case_dict(case)))) == case
            assert TaskSpec.from_dict(case.to_dict()) == case

    def test_ddr_base_never_gets_cxl_knobs(self):
        for case in generate_cases(300, seed=5):
            if ALL_CONFIGS[case.base]().memory_kind == "ddr":
                assert "cxl" not in case.overrides
                assert "ddr_per_cxl" not in case.overrides

    def test_unknown_base_rejected(self):
        with pytest.raises(SpecError, match="'base'"):
            TaskSpec(base="not-a-config", ops=600).build_job()

    def test_n_cores_override_couples_active_cores(self):
        cfg = TaskSpec(overrides={"n_cores": 4}, ops=600).build_job().config
        assert cfg.active_cores == 4


class TestApplicability:
    def test_default_set_excludes_regression_oracles(self):
        case = generate_case(1)
        assert "calm_clock" not in applicable_oracles(case)

    def test_named_set_is_honored(self):
        case = TaskSpec(ops=600)
        assert applicable_oracles(case, ["calm_clock"]) == ["calm_clock"]

    def test_cxl_oracles_skip_ddr_configs(self):
        case = TaskSpec(base="ddr-baseline", ops=600)
        names = applicable_oracles(case)
        assert "bw_monotone" not in names
        assert "asym_read_heavy" not in names


def _stub_oracle(monkeypatch, fails_when):
    """Install a fast fake oracle keyed on the case's op count."""
    def check(case):
        return "stub failure" if fails_when(case) else None

    monkeypatch.setitem(ORACLES, "stub", Oracle("stub", check, default=False))


class TestShrinker:
    def test_non_failing_case_returns_none(self, monkeypatch):
        _stub_oracle(monkeypatch, lambda c: False)
        assert shrink_mod.shrink(TaskSpec(ops=600), "stub") is None

    def test_overrides_and_ops_are_minimized(self, monkeypatch):
        # Fails whenever replacement=srrip: everything else is noise.
        _stub_oracle(
            monkeypatch,
            lambda c: c.overrides.get("replacement") == "srrip")
        bloated = TaskSpec(
            overrides={"replacement": "srrip", "mshrs": 32, "l1_kb": 8,
                       "prefetcher": "stride"},
            ops=1200, seed=99)
        result = shrink_mod.shrink(bloated, "stub")
        assert result is not None
        assert result.case.overrides == {"replacement": "srrip"}
        assert result.case.ops == shrink_mod.MIN_OPS
        assert result.case.seed == 1
        assert result.detail == "stub failure"

    def test_probe_budget_respected(self, monkeypatch):
        calls = []

        def check(case):
            calls.append(1)
            return "always fails"

        monkeypatch.setitem(ORACLES, "stub", Oracle("stub", check, default=False))
        big = TaskSpec(overrides={k: v for k, v in
                                  [("mshrs", 32), ("l1_kb", 8), ("l2_kb", 32),
                                   ("replacement", "random")]}, ops=1200)
        result = shrink_mod.shrink(big, "stub", max_probes=10)
        assert result is not None
        assert len(calls) <= 11  # initial check + probe budget

    def test_crashing_oracle_counts_as_failing(self, monkeypatch):
        def check(case):
            raise RuntimeError("boom")

        monkeypatch.setitem(ORACLES, "stub", Oracle("stub", check, default=False))
        result = shrink_mod.shrink(TaskSpec(overrides={"mshrs": 8}, ops=600), "stub",
                                   max_probes=8)
        assert result is not None
        assert "RuntimeError" in result.detail


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        case = TaskSpec(base="coaxial-4x", overrides={"mshrs": 8},
                        workload="gcc", ops=300, seed=2)
        path = save_entry(case, "invariant", note="why", corpus_dir=tmp_path)
        entry = load_entry(path)
        assert entry.case == case
        assert entry.oracle == "invariant"
        assert entry.note == "why"
        assert [e.name for e in load_corpus(tmp_path)] == [path.stem]

    def test_entry_name_is_content_stable(self):
        case = TaskSpec(ops=600)
        assert entry_name(case, "invariant") == entry_name(case, "invariant")
        assert entry_name(case, "invariant") != entry_name(case, "diff_kernel")

    def test_malformed_entry_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"oracle": "invariant"}')  # no case
        with pytest.raises(ValueError):
            load_entry(bad)

    def test_entry_with_invalid_config_raises(self, tmp_path):
        # Every field is fine on its own; tiering on a DDR base is not.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"case": {
            "base": "ddr-baseline", "overrides": {"tiering": "epoch"},
            "workload": "mcf", "ops": 300, "seed": 1},
            "oracle": "invariant"}))
        with pytest.raises(ValueError, match="requires memory_kind='cxl'"):
            load_entry(bad)

    def test_replay_uses_entry_oracle(self, tmp_path, monkeypatch):
        _stub_oracle(monkeypatch, lambda c: c.ops == 777)
        ok = load_entry(save_entry(TaskSpec(ops=300), "stub", corpus_dir=tmp_path))
        bad = load_entry(save_entry(TaskSpec(ops=777), "stub", corpus_dir=tmp_path))
        assert replay_entry(ok) is None
        assert replay_entry(bad) == "stub failure"


class TestHarness:
    def test_clean_campaign_reports_ok(self, monkeypatch, tmp_path):
        _stub_oracle(monkeypatch, lambda c: False)
        report = FuzzRunner(trials=5, seed=0, oracles=["stub"], workers=1,
                            corpus_dir=tmp_path).run()
        assert report.ok
        assert report.checks_run == 5
        assert report.checks_passed == 5
        assert not list(tmp_path.glob("*.json"))

    def test_failures_are_shrunk_and_saved(self, monkeypatch, tmp_path):
        _stub_oracle(monkeypatch, lambda c: True)
        report = FuzzRunner(trials=3, seed=0, oracles=["stub"], workers=1,
                            max_shrink_probes=6, corpus_dir=tmp_path).run()
        assert not report.ok
        assert len(report.failures) == 3
        assert all(f.corpus_path and f.corpus_path.exists()
                   for f in report.failures)

    def test_time_budget_stops_campaign(self, monkeypatch, tmp_path):
        _stub_oracle(monkeypatch, lambda c: False)
        report = FuzzRunner(trials=500, seed=0, oracles=["stub"], workers=1,
                            time_budget_s=0.0, corpus_dir=tmp_path).run()
        assert report.time_exhausted
        assert report.checks_run < 500


class TestFuzzCli:
    def test_run_clean_exits_0(self, tmp_path, capsys):
        # calm_clock needs no simulation, so this is a fast full pass
        # through the CLI -> harness -> pool -> oracle stack.
        rc = main(["fuzz", "run", "--trials", "3", "--seed", "0",
                   "--oracles", "calm_clock", "--jobs", "1", "--quiet",
                   "--corpus", str(tmp_path)])
        assert rc == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_replay_empty_corpus_exits_0(self, tmp_path, capsys):
        assert main(["fuzz", "replay", "--corpus", str(tmp_path)]) == 0

    def test_replay_reports_regression(self, tmp_path, capsys, monkeypatch):
        # An entry whose oracle now fails must flip the exit code to 1.
        save_entry(TaskSpec(ops=300), "calm_clock", corpus_dir=tmp_path)
        from repro.calm.policy import CalmR
        monkeypatch.setattr(CalmR, "decide", lambda self, pc, addr: True)
        assert main(["fuzz", "replay", "--corpus", str(tmp_path)]) == 1

    def test_shrink_requires_oracle_for_raw_case(self, tmp_path, capsys):
        raw = tmp_path / "case.json"
        raw.write_text(json.dumps(case_dict(TaskSpec(ops=600))))
        assert main(["fuzz", "shrink", str(raw)]) == 2

    def test_case_without_ops_rejected(self, tmp_path, capsys):
        # A fuzz case needs an op count: shrink and replay refuse one
        # without, naming the field.
        raw = tmp_path / "case.json"
        raw.write_text(json.dumps({"base": "ddr-baseline", "workload": "mcf"}))
        assert main(["fuzz", "shrink", str(raw), "--oracle",
                     "calm_clock"]) == 2
        assert "'ops'" in capsys.readouterr().err
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "no-ops.json").write_text(json.dumps(
            {"case": {"base": "ddr-baseline", "workload": "mcf"},
             "oracle": "calm_clock"}))
        assert main(["fuzz", "replay", "--corpus", str(corpus)]) == 2
        assert "'ops'" in capsys.readouterr().err

    def test_shrink_non_failing_exits_1(self, tmp_path, capsys):
        raw = tmp_path / "case.json"
        raw.write_text(json.dumps(case_dict(TaskSpec(ops=200))))
        assert main(["fuzz", "shrink", str(raw), "--oracle", "calm_clock"]) == 1


class TestUnknownOracle:
    """An oracle name is checked where it enters, and the error lists the
    valid names (exit 2), instead of reading as a failing check."""

    @staticmethod
    def _lists_valid_names(err):
        assert "unknown oracle 'nope'" in err
        assert all(name in err for name in ORACLES)

    def test_shrink_saves_nothing(self, tmp_path, capsys):
        raw = tmp_path / "case.json"
        raw.write_text(json.dumps(case_dict(TaskSpec(ops=200))))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert main(["fuzz", "shrink", str(raw), "--oracle", "nope",
                     "--save", "--corpus", str(corpus)]) == 2
        self._lists_valid_names(capsys.readouterr().err)
        assert list(corpus.iterdir()) == []

    def test_shrink_corpus_entry_oracle(self, tmp_path, capsys):
        entry = tmp_path / "entry.json"
        entry.write_text(json.dumps(
            {"case": case_dict(TaskSpec(ops=200)), "oracle": "nope"}))
        assert main(["fuzz", "shrink", str(entry)]) == 2
        self._lists_valid_names(capsys.readouterr().err)

    def test_replay_rejects_entry(self, tmp_path, capsys):
        (tmp_path / "nope-0.json").write_text(json.dumps(
            {"case": case_dict(TaskSpec(ops=200)), "oracle": "nope"}))
        with pytest.raises(ValueError, match="unknown oracle 'nope'"):
            load_entry(tmp_path / "nope-0.json")
        assert main(["fuzz", "replay", "--corpus", str(tmp_path)]) == 2
        self._lists_valid_names(capsys.readouterr().err)

    def test_run_oracles_flag(self, tmp_path, capsys):
        assert main(["fuzz", "run", "--trials", "1", "--oracles",
                     "calm_clock,nope", "--jobs", "1", "--quiet",
                     "--corpus", str(tmp_path)]) == 2
        self._lists_valid_names(capsys.readouterr().err)


def test_fuzzcase_is_frozen_and_picklable():
    import pickle

    case = generate_case(4)
    assert pickle.loads(pickle.dumps(case)) == case
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.ops = 1

def test_corpus_entry_json_is_compact():
    case = TaskSpec(ops=600)
    entry_json = json.dumps({"case": case_dict(case), "oracle": "invariant"})
    assert "\n" not in entry_json
