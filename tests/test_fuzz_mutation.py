"""The fuzzer must catch a seeded bug and shrink it to a tiny reproducer.

This is the end-to-end proof the oracle suite has teeth: reintroduce the
historical channel-decode skew (every request routed to a device's first
local DDR channel), run a small inline campaign, and require that the
channel-balance oracle catches it and the shrinker minimizes the case.

The campaign runs with ``workers=1`` so the monkeypatched device class is
visible to the oracle runs (a process pool would re-import the clean
module).
"""

import json

import pytest

from repro.cxl.device import CxlType3Device
from repro.exec.spec import TaskSpec
from repro.fuzz.corpus import case_dict
from repro.fuzz.harness import FuzzRunner
from repro.fuzz.oracles import run_oracle
from repro.fuzz.shrink import shrink

#: A case the clean tree passes and the skewed decode fails: two DDR
#: channels behind each CXL port, streaming traffic across all of them.
SKEW_CASE = TaskSpec(base="coaxial-asym", overrides={}, workload="stream-copy",
                     ops=600, seed=1)


def _skewed_submit(self, req):
    self.channels[0].enqueue(req)  # the historical double-modulo collapse


@pytest.fixture
def skewed_decode(monkeypatch):
    monkeypatch.setattr(CxlType3Device, "submit", _skewed_submit)


@pytest.mark.slow
class TestMutationSeededBug:
    def test_clean_tree_passes(self):
        assert run_oracle("channel_balance", SKEW_CASE) is None

    def test_oracle_catches_skew(self, skewed_decode):
        detail = run_oracle("channel_balance", SKEW_CASE)
        assert detail is not None
        assert "no traffic" in detail or "imbalance" in detail

    def test_shrinker_minimizes_skew_case(self, skewed_decode):
        bloated = TaskSpec(
            base="coaxial-asym",
            overrides={"l1_kb": 8, "mshrs": 32, "prefetcher": "nextline",
                       "replacement": "srrip"},
            workload="stream-copy", ops=1200, seed=77)
        result = shrink(bloated, "channel_balance", max_probes=32)
        assert result is not None
        # Every override was noise; the shrinker must strip them all and
        # cut the op count, leaving a reproducer a human can read.
        assert result.case.overrides == {}
        assert result.case.ops < bloated.ops
        assert result.case.seed == 1
        assert len(json.dumps(case_dict(result.case))) < 200

    def test_campaign_catches_and_writes_reproducer(self, skewed_decode,
                                                    tmp_path):
        runner = FuzzRunner(trials=8, seed=3, oracles=["channel_balance"],
                            workers=1, max_shrink_probes=16,
                            corpus_dir=tmp_path)
        report = runner.run()
        hits = [f for f in report.failures if f.oracle == "channel_balance"]
        assert hits, "fuzz campaign missed the seeded channel-decode skew"
        assert hits[0].corpus_path is not None
        assert hits[0].corpus_path.exists()
        # The written reproducer satisfies the <= 5 line corpus bar.
        assert len(hits[0].corpus_path.read_text().strip().splitlines()) <= 5
