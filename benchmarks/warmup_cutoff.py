#!/usr/bin/env python
"""Host time of both LRU functional-warmup paths on synthetic streams.

``MAX_SET_SHARE`` in :mod:`repro.system.sim` picks between the set-parallel
pass and the generic scalar replay (``_replay_functional``) from each cache
level's busiest-set share. This script times both paths on the streams the
cut-off was chosen from: ``ACCESSES`` accesses per core on the
``ddr-baseline`` geometry, uniform or piled into a few sets, each path on a
fresh chip, best of ``REPS``. "Busiest" is the largest share over the three
levels. Narrow chips with skewed streams set the cut-off, since a step there
has the fewest sets to spread its cost over. Both paths leave the same
caches (``tests/test_warmup.py``), so only time is compared.

Usage::

    PYTHONPATH=src taskset -c 0 python benchmarks/warmup_cutoff.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.kernel import Simulator
from repro.system import sim
from repro.system.builder import Chip
from repro.system.config import ALL_CONFIGS

ACCESSES = 12_000
REPS = 3


def streams(cores: int, kind: str, rng) -> list:
    """One ``(core, addr, is_write)`` stream per core, each in its own
    2^24-line region: uniform lines, ``hot 1/N`` (every N-th access in the
    core's L1 set 0) or ``stride N`` (lines N apart)."""
    out = []
    for c in range(cores):
        lines = rng.integers(0, 1 << 20, ACCESSES)
        if kind.startswith("hot"):
            every = int(kind.split("/")[1])
            lines[::every] &= ~np.int64(31)
        elif kind.startswith("stride"):
            lines = np.arange(ACCESSES) * int(kind.split()[1])
        addr = np.asarray(lines + (c << 24), np.uint64) << np.uint64(6)
        is_write = (rng.random(ACCESSES) < 0.3).astype(np.uint8)
        out.append((c, addr, is_write))
    return out


def best_of(run, cfg, stream) -> float:
    times = []
    for _ in range(REPS):
        chip = Chip(Simulator(), cfg)
        t0 = time.perf_counter()
        run(chip, stream)
        times.append(time.perf_counter() - t0)
    return min(times)


def set_parallel(chip, stream) -> None:
    assert sim._replay_lru_sets(chip, stream)


def busiest(cfg, stream) -> float:
    shares = []
    real = sim.busiest_share
    sim.busiest_share = lambda ev: shares.append(real(ev)) or 0.0
    try:
        sim._replay_lru_sets(Chip(Simulator(), cfg), stream)
    finally:
        sim.busiest_share = real
    return max(shares)


def main() -> None:
    cfg = ALL_CONFIGS["ddr-baseline"]()
    rows = [(n, "uniform") for n in (1, 2, 4, 8, 12)]
    rows += [(cores, f"hot 1/{n}") for cores in (1, 2, 4)
             for n in (2, 4, 6, 8, 10, 12)]
    rows += [(2, f"hot 1/{n}") for n in (16, 32, 64, 128)]
    rows += [(12, "hot 1/2"), (12, "stride 32"), (12, "stride 128")]
    print("| cores | stream | busiest share | generic | set-parallel | ratio |")
    print("|---|---|---|---|---|---|")
    for cores, kind in rows:
        stream = streams(cores, kind, np.random.default_rng(cores))
        t_s = best_of(sim._replay_functional, cfg, stream)
        t_p = best_of(set_parallel, cfg, stream)
        print(f"| {cores} | {kind} | 1/{1 / busiest(cfg, stream):.1f} "
              f"| {t_s * 1e3:.0f} ms | {t_p * 1e3:.0f} ms "
              f"| {t_p / t_s:.2f}x |")


if __name__ == "__main__":
    main()
