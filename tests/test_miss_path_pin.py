"""Bit-exact pins of the L2-miss path on setups no other golden covers.

perfbench's digests and the paper-parity goldens run only the ``never`` and
``calm_70`` CALM policies, LRU replacement, no prefetcher and full core
counts; the scenario goldens check the tiered configs within tolerances.
Each setup here hashes one run's full ``SimResult``, the timeline of every
request that completed in the measured window (in completion order), the
chip's counters in insertion order, the CALM counters, the event count and
the final clock. The digests were recorded before the miss path was
restructured for speed, so they hold it to the old behaviour bit for bit.

Every setup runs synthetic per-core traces built by integer arithmetic,
never the catalog generators, so the digests do not depend on numpy's
random streams. :func:`shared_ring` gives LLC hits (CALM false positives,
the on-chip latency record): every core walks one ring of lines from its
own offset and finds the lines its neighbours already fetched.
:func:`walks` streams two private regions per core for memory bandwidth
and page migration. ``req_id`` is left out (it comes from a process-global
counter). Prefetch fills complete in the measured window too and are
hashed along with the demand misses. Re-record a digest only for a
deliberate change to the modelled behaviour.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import numpy as np
import pytest

import repro.system.sim as sim_mod
from repro.cpu.trace import TRACE_DTYPE, Trace
from repro.exec.spec import build_config
from repro.system.builder import Chip

OPS = 1000


def shared_ring(n_cores: int, ops: int, lines: int = 1536,
                stride: int = 97, gap: int = 3) -> list:
    """Per-core traces over one shared ring of ``lines`` cache lines.

    Core ``c`` starts ``c * stride`` lines in, so most of its L2 misses hit
    lines another core already brought into the LLC. Every seventh op is a
    store and some loads depend on the load before them. Each PC's loads
    step 13 lines, a stride the stride prefetcher learns.
    """
    i = np.arange(ops)
    writes = i % 7 == 3
    deps = np.where((i % 4 == 2) & ~np.roll(writes, 1), 1, 0)
    traces = []
    for c in range(n_cores):
        arr = np.zeros(ops, dtype=TRACE_DTYPE)
        arr["gap"] = gap + i % 5
        arr["addr"] = 0x4000000 + ((c * stride + i) % lines) * 64
        arr["is_write"] = writes
        arr["pc"] = 0x400 + (i % 13) * 4
        arr["dep"] = deps
        traces.append(Trace(arr, f"ring{c}"))
    return traces


def spaced_ring(n_cores: int, ops: int) -> list:
    """:func:`shared_ring` with four times the compute between ops, so the
    MSHRs have free slots for prefetches."""
    return shared_ring(n_cores, ops, gap=12)


def walks(n_cores: int, ops: int) -> list:
    """Per-core traces of two private sequential walks that never reuse a line.

    Even ops load from one region and odd ops store to another, one line
    further on each time. Regions start a prime number of lines apart, so
    the walks spread over the DRAM banks.
    """
    i = np.arange(ops)
    k = i % 2
    traces = []
    for c in range(n_cores):
        arr = np.zeros(ops, dtype=TRACE_DTYPE)
        arr["gap"] = 1 + i % 3
        arr["addr"] = 0x4000000 + (c * 24593 + k * 6151 + i // 2) * 64
        arr["is_write"] = k
        arr["pc"] = 0x800 + k * 4
        traces.append(Trace(arr, f"walk{c}"))
    return traces


#: name -> (base config, overrides, traces(n_cores, ops), simulate()
#: keyword arguments). A slow LLC (``llc_hit_cyc``) lets CALM memory data
#: beat the LLC verdict, or land between the verdict and its arrival at the
#: core; CALM_50 on the DDR baseline's walks suppresses some
#: misses by its epochs' bandwidth estimates; a 16 KB/core LLC makes the
#: replacement policies pick ring lines as victims; the tiered walks
#: promote far pages.
SETUPS = {
    "calm-always": ("coaxial-4x", {"calm_policy": "always"}, shared_ring, {}),
    "calm-mapi": ("coaxial-4x", {"calm_policy": "mapi"}, shared_ring, {}),
    "calm-ideal": ("ddr-baseline", {"calm_policy": "ideal",
                                    "llc_hit_cyc": 80}, shared_ring, {}),
    "calm-regulated": ("ddr-baseline", {"calm_policy": "calm_50"}, walks, {}),
    "pf-nextline": ("ddr-baseline", {"prefetcher": "nextline"}, spaced_ring,
                    {}),
    "pf-stride": ("coaxial-4x", {"prefetcher": "stride",
                                 "calm_policy": "calm_70"}, spaced_ring, {}),
    "repl-srrip": ("coaxial-4x", {"replacement": "srrip",
                                  "llc_kb_per_core": 16}, shared_ring, {}),
    "repl-random": ("ddr-baseline", {"replacement": "random",
                                     "llc_kb_per_core": 16}, shared_ring, {}),
    "tiered-lru": ("tiered-lru", {}, walks, {}),
    "active-4": ("coaxial-asym", {"active_cores": 4,
                                  "calm_policy": "calm_70"}, shared_ring, {}),
    "obs-tracing": ("coaxial-4x", {"calm_policy": "calm_70"}, shared_ring,
                    {"obs": "on", "tracing": "on"}),
}

#: Recorded at the parent of the call-light miss-path change; obs-tracing
#: re-recorded when the obs sampler stopped scheduling ticks (only the raw
#: ``sim.events_fired`` moved, 76,618 -> 76,597).
DIGESTS = {
    "calm-always": "9e680f92d06b26339c66e4688cf22784"
                   "35faea9142f416e85523f4cbbe59b0bb",
    "calm-mapi": "33bb3c2ddfaa5db8419c683fb8f56bc7"
                 "efa7d05a7e1a94075b2b923550ca721b",
    "calm-ideal": "34947b5eae7db08d1b537cb71fc768f1"
                  "c0f34ebfd681be832437b188c5e51733",
    "calm-regulated": "ca0c5ced173449067812e6fe8c4daf35"
                      "c73ad14ebee5146797758519dc95012c",
    "pf-nextline": "93a88d5ed46cedf4a16fcb42d0cf3d45"
                   "70262e8b3f0ba6d1e3bddde2ad2ba1f7",
    "pf-stride": "495f1dcf7ca8bda3679a2a1d44110cfd"
                 "b0bb3e5f7f865c9e41066555439f632c",
    "repl-srrip": "f2535683e4ca8903db581d79c31045ea"
                  "2ec1a17f50e060a576bfb6aece6c3448",
    "repl-random": "81a51f5999f96a401f42c15859d52b81"
                   "ae893ab4c37f22a70ab323999c8467b1",
    "tiered-lru": "ea0707374d8e4c49b1ea5e811cabe49b"
                  "038440d31ae3c0dafd57b455602823ed",
    "active-4": "865996ab4f10821ea4a6631eb10970c6"
                "65e0ac7cd5e03dda9cdfcf23c016312a",
    "obs-tracing": "bdbd9e6c696a643c3751e370a11f3932"
                   "e3061025a3e5ca42ace93bacb76a62cb",
}

_REQ_FIELDS = ("core_id", "addr", "calm", "llc_hit", "t_create",
               "t_llc_done", "t_mc_enqueue", "t_mc_issue", "t_dram_done",
               "t_complete", "cxl_delay")


def _scrub(obj):
    """Drop every ``req_id`` (process-global numbering) from a payload."""
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items() if k != "req_id"}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    return obj


def _calm_counters(calm) -> list:
    """Outcome and decision counters, plus CALM_R's last epoch estimates."""
    return [dataclasses.astuple(calm.stats), calm.n_go, calm.n_suppress_cap,
            calm.n_suppress_prob, getattr(calm, "bw_filtered", None),
            getattr(calm, "bw_unfiltered", None)]


def run_digest(setup: str, monkeypatch, mutate=None) -> str:
    """The setup's digest; ``mutate(chip)`` runs right after the build."""
    base, overrides, traces, kwargs = SETUPS[setup]
    built = []
    done = []
    build = sim_mod.build_system
    complete = Chip._complete

    def capture_build(cfg, sim=None):
        out = build(cfg, sim)
        built.append(out)
        if mutate is not None:
            mutate(out[1])
        return out

    def capture_complete(self, req):
        if self.measuring and req.t_complete < 0.0:
            done.append(req)
        complete(self, req)

    monkeypatch.setattr(sim_mod, "build_system", capture_build)
    monkeypatch.setattr(Chip, "_complete", capture_complete)
    cfg = build_config(base, overrides)
    result = sim_mod.simulate(cfg, traces(cfg.active_cores, OPS),
                              ops_per_core=OPS, seed=1,
                              validate="off",
                              obs=kwargs.get("obs", "off"),
                              tracing=kwargs.get("tracing", "off"))
    (sim, chip), = built
    assert done and result.n_misses > 0
    payload = (
        _scrub(dataclasses.asdict(result)),
        [tuple(getattr(r, f) for f in _REQ_FIELDS) for r in done],
        list(chip.stats.items()),
        _calm_counters(chip.calm),
        sim.events_fired, sim.now,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@pytest.mark.parametrize("setup", list(SETUPS))
def test_miss_path_digest(setup, monkeypatch):
    assert run_digest(setup, monkeypatch) == DIGESTS[setup]


# -- the pins have teeth: seeded miss-path mutations move the digest ---------


def _flip_calm(chip) -> None:
    """Invert one CALM decision in 16, by a seeded coin."""
    rng = random.Random(7)
    decide = chip.calm.decide
    chip.calm.decide = lambda pc, addr: decide(pc, addr) != (rng.random() < 1 / 16)


def _drop_writebacks(chip) -> None:
    """Lose every eighth dirty L2 victim on its way to the LLC."""
    seen = [0]
    for core in chip.cores:
        def writeback(c, addr, _wb=core.l2_writeback_fn):
            seen[0] += 1
            if seen[0] % 8:
                _wb(c, addr)
        core.l2_writeback_fn = writeback


def _skew_home_slice(chip) -> None:
    """Fill one line in 32 into the next slice over, by a seeded coin."""
    rng = random.Random(11)
    fill = chip._fill_llc
    n = len(chip.llc_slices)

    def skewed(line, stile, dirty=False):
        if rng.random() < 1 / 32:
            stile = (stile + 1) % n
        fill(line, stile, dirty)
    chip._fill_llc = skewed


MUTATIONS = {
    "calm-coin-flip": ("calm-always", _flip_calm),
    "dropped-writeback": ("pf-nextline", _drop_writebacks),
    "wrong-home-slice": ("repl-random", _skew_home_slice),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_moves_the_digest(name, monkeypatch):
    setup, mutate = MUTATIONS[name]
    assert run_digest(setup, monkeypatch, mutate) != DIGESTS[setup]
