"""Trace generator families.

Each generator maps a small set of behavioural parameters onto a memory
operation trace:

- ``gap``        — mean non-memory instructions between memory ops
                   (memory intensity);
- working sets   — line counts relative to the scaled hierarchy
                   (L1 256 lines, L2 1K lines, LLC 48K lines total);
- ``write_frac`` — store fraction;
- dependency structure — chains bound memory-level parallelism.

All randomness flows from seeded ``numpy`` generators, so traces are
reproducible and per-core seeds decorrelate the cores' access streams.

The paper deploys the *same* workload trace on every core, so the cores'
compute/memory phases run in lockstep and their misses arrive at the
memory controller in correlated bursts. We reproduce that by drawing trace
*structure* (gaps, write mix, dependency and hot/cold patterns) from a
per-workload structure generator ``rs`` shared by all cores, while *address
values* come from a per-core address generator ``ra`` so cores touch
disjoint data. Each family is therefore written in three parts (see
:class:`Draw`): the structure draw on ``rs`` (the write column and whatever
the addresses need), one core's address draw on ``ra``, and the rest of the
structure on ``rs`` (PCs, dependences, gaps). Every ``rs`` draw the
addresses need comes before the rest, so the structure is drawn once and
shared by any number of cores, in the same order as a one-core trace.
"""

from __future__ import annotations

import inspect
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.cpu.trace import Trace, make_trace

LINE = 64
_PAGE_SHIFT = 12
_FRAME_BITS = 36
_FRAME_MASK = (1 << _FRAME_BITS) - 1


def _page_scatter(addr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Map virtual-like addresses onto scattered physical frames.

    Real OSes hand out physical pages in effectively arbitrary order, which
    is what spreads large sequential sweeps across DRAM banks/rows. We apply
    a bijective odd-multiplier hash to the 4 KB frame number (preserving the
    footprint's cardinality and intra-page locality) with a per-trace salt
    so different cores' regions don't alias.
    """
    a = addr.astype(np.uint64)
    off = a & np.uint64((1 << _PAGE_SHIFT) - 1)
    frame = (a >> np.uint64(_PAGE_SHIFT)) & np.uint64(_FRAME_MASK)
    salt = np.uint64(int(rng.integers(0, 1 << 35)) * 2 + 1)
    frame = (frame * np.uint64(0x9E3779B97F4A7C15) + salt) & np.uint64(_FRAME_MASK)
    return (frame << np.uint64(_PAGE_SHIFT)) | off


def _gaps(rng: np.random.Generator, n: int, gap: float, burst: float = 0.0) -> np.ndarray:
    """Geometric-ish gap distribution with optional burstiness.

    ``burst`` in [0, 1): that fraction of ops arrive back-to-back (gap 0),
    with the remaining ops carrying correspondingly larger gaps so the mean
    stays ``gap``.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    if not 0.0 <= burst < 1.0:
        raise ValueError("burst must be in [0, 1)")
    if burst > 0.0:
        in_burst = rng.random(n) < burst
        scale = gap / (1.0 - burst) if burst < 1.0 else gap
        g = np.where(in_burst, 0.0, rng.exponential(scale, n))
    else:
        g = rng.exponential(gap, n) if gap > 0 else np.zeros(n)
    return np.minimum(g, 60000).astype(np.uint16)


def _dep_chain_to_prev_load(is_write: np.ndarray, want_dep: np.ndarray) -> np.ndarray:
    """dep[i] = distance to the most recent load before i (0 if none/unwanted)."""
    n = len(is_write)
    idx = np.arange(n)
    last_load = np.where(is_write == 0, idx, -1)
    last_load = np.maximum.accumulate(last_load)
    prev = np.empty(n, dtype=np.int64)
    prev[0] = -1
    prev[1:] = last_load[:-1]
    dep = np.where(want_dep & (prev >= 0), idx - prev, 0)
    return dep.astype(np.int32)


def _skewed_indices(rng: np.random.Generator, n: int, universe: int, skew: float) -> np.ndarray:
    """Power-law-skewed indices in [0, universe): higher ``skew`` = hotter head."""
    if universe < 1:
        raise ValueError("universe must be >= 1")
    u = rng.random(n)
    return np.minimum((u ** max(1.0, skew) * universe).astype(np.int64), universe - 1)


class Draw(NamedTuple):
    """One structure draw of a family: what every core's trace shares.

    ``is_write`` is the write column. ``addresses(ra)`` draws one core's
    address column from its address generator: the core offset, the
    address draws and the page scatter; it may be called for any number of
    cores. ``rest()`` draws the rest of the structure from the structure
    generator and returns ``(gaps, pc, dep)``; call it at most once.
    """

    is_write: np.ndarray
    addresses: Callable[[np.random.Generator], np.ndarray]
    rest: Callable[[], Tuple[np.ndarray, np.ndarray, np.ndarray]]

    def address_columns(self, seeds: Sequence[int]) -> List[np.ndarray]:
        """One address column per seed, each from ``default_rng(seed)``."""
        return [self.addresses(np.random.default_rng(s)) for s in seeds]

    def traces(self, seeds: Sequence[int], name: str) -> List[Trace]:
        """One full trace per seed; they differ only in ``addr``. It calls
        ``rest``, so call it at most once."""
        gaps, pc, dep = self.rest()
        return [make_trace(gaps, addr, self.is_write, pc, dep, name)
                for addr in self.address_columns(seeds)]


def _family(name: str):
    """Make a family's public trace generator from its structure draw.

    ``draw(rs, n_ops, **params) -> Draw`` holds the family's parameters and
    their defaults. The generator ``(n_ops, seed, **params, struct_seed=None)
    -> Trace`` builds one trace named ``name``: ``struct_seed`` seeds the
    structure (``seed`` when it is None) and ``seed`` the addresses. The
    draw stays reachable as ``generator.draw``.
    """
    def wrap(draw):
        def generator(n_ops, seed, *args, struct_seed=None, **params) -> Trace:
            rs = np.random.default_rng(seed if struct_seed is None
                                       else struct_seed)
            return draw(rs, n_ops, *args, **params).traces([seed], name)[0]

        sig = inspect.signature(draw)
        _, n_ops, *params = sig.parameters.values()
        generator.__signature__ = sig.replace(
            parameters=[n_ops, n_ops.replace(name="seed"), *params,
                        inspect.Parameter("struct_seed", inspect.Parameter.KEYWORD_ONLY,
                                          default=None)],
            return_annotation=Trace)
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(generator, attr, getattr(draw, attr))
        generator.draw = draw
        return generator
    return wrap


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@_family("stream")
def stream(rs: np.random.Generator, n_ops: int, n_read_streams: int = 1,
           has_write_stream: bool = True, gap: float = 8.0,
           ws_lines: int = 1 << 21, pc_base: int = 0x1000) -> Draw:
    """STREAM-style kernels: long unit-stride streams, zero reuse, high MLP.

    ``copy``/``scale`` use one read + one write stream; ``add``/``triad``
    use two read streams + one write stream.
    """
    streams = n_read_streams + (1 if has_write_stream else 0)
    iters = n_ops // streams + 1
    base = [int(s) * ws_lines * LINE * 4 for s in range(streams)]
    addr_cols = []
    write_cols = []
    offs = np.arange(iters, dtype=np.int64) % ws_lines * LINE
    for s in range(streams):
        addr_cols.append(base[s] + offs)
        is_w = has_write_stream and s == streams - 1
        write_cols.append(np.full(iters, 1 if is_w else 0, dtype=np.uint8))
    addr = np.stack(addr_cols, axis=1).reshape(-1)[:n_ops]
    is_write = np.stack(write_cols, axis=1).reshape(-1)[:n_ops]

    def addresses(ra):
        # Per-core offset so cores stream disjoint regions.
        core_off = int(ra.integers(0, 1 << 12)) * ws_lines * LINE * 16
        return _page_scatter(addr + core_off, ra)

    def rest():
        pc_cols = [np.full(iters, pc_base + 16 * s, dtype=np.uint32)
                   for s in range(streams)]
        pc = np.stack(pc_cols, axis=1).reshape(-1)[:n_ops]
        return _gaps(rs, n_ops, gap), pc, np.zeros(n_ops, dtype=np.int32)

    return Draw(is_write, addresses, rest)


@_family("hot_cold")
def hot_cold(rs: np.random.Generator, n_ops: int, hot_lines: int = 512,
             cold_lines: int = 1 << 20, hot_prob: float = 0.7,
             write_frac: float = 0.2, dep_prob: float = 0.1, gap: float = 12.0,
             burst: float = 0.0, spatial: int = 1, pc_count: int = 32) -> Draw:
    """General-purpose pattern: a hot set plus a large cold footprint.

    ``hot_prob`` controls hit rates; ``spatial`` > 1 walks that many
    consecutive lines per cold touch (spatial locality); ``dep_prob`` makes
    ops depend on the previous load (limits MLP).
    """
    is_hot = rs.random(n_ops) < hot_prob
    is_write = (rs.random(n_ops) < write_frac).astype(np.uint8)

    def addresses(ra):
        core_off = int(ra.integers(0, 1 << 10)) * (cold_lines + hot_lines) * LINE * 2
        hot_addr = ra.integers(0, hot_lines, n_ops) * LINE
        if spatial > 1:
            n_groups = n_ops // spatial + 1
            g_base = ra.integers(0, max(1, cold_lines - spatial), n_groups)
            cold_addr = (np.repeat(g_base, spatial)[:n_ops]
                         + np.tile(np.arange(spatial), n_groups)[:n_ops]) * LINE
        else:
            cold_addr = ra.integers(0, cold_lines, n_ops) * LINE
        addr = np.where(is_hot, hot_addr, hot_lines * LINE + cold_addr) + core_off
        return _page_scatter(addr, ra)

    def rest():
        pc = (rs.integers(0, pc_count, n_ops) * 4 + 0x4000).astype(np.uint32)
        dep = _dep_chain_to_prev_load(is_write, rs.random(n_ops) < dep_prob)
        return _gaps(rs, n_ops, gap, burst), pc, dep

    return Draw(is_write, addresses, rest)


@_family("pointer_chase")
def pointer_chase(rs: np.random.Generator, n_ops: int, ws_lines: int = 1 << 18,
                  chain_len: int = 6, write_frac: float = 0.1,
                  gap: float = 15.0, hot_lines: int = 0,
                  hot_prob: float = 0.0) -> Draw:
    """Linked-structure traversal: dependent load chains (low MLP).

    Each chain is ``chain_len`` loads, each depending on the previous;
    chains themselves are independent (a new traversal).
    """
    pos_in_chain = np.arange(n_ops) % max(1, chain_len)
    is_hot = (rs.random(n_ops) < hot_prob
              if hot_lines > 0 and hot_prob > 0 else None)
    is_write = ((rs.random(n_ops) < write_frac) & (pos_in_chain == chain_len - 1)).astype(np.uint8)

    def addresses(ra):
        core_off = int(ra.integers(0, 1 << 10)) * ws_lines * LINE * 2
        if is_hot is not None:
            addr = np.where(is_hot,
                            ra.integers(0, hot_lines, n_ops),
                            hot_lines + ra.integers(0, ws_lines, n_ops)) * LINE
        else:
            addr = ra.integers(0, ws_lines, n_ops) * LINE
        return _page_scatter(addr + core_off, ra)

    def rest():
        dep = np.where((pos_in_chain > 0) & (is_write == 0), 1, 0).astype(np.int32)
        # Writes at chain ends depend on the load before them too.
        dep = np.where((is_write == 1) & (pos_in_chain > 0), 1, dep).astype(np.int32)
        pc = ((pos_in_chain * 4) + 0x8000).astype(np.uint32)
        return _gaps(rs, n_ops, gap), pc, dep

    return Draw(is_write, addresses, rest)


@_family("strided")
def strided(rs: np.random.Generator, n_ops: int, ws_lines: int = 1 << 20,
            n_streams: int = 4, stride_lines: int = 1, write_frac: float = 0.15,
            gap: float = 10.0, reuse_prob: float = 0.0,
            reuse_lines: int = 256) -> Draw:
    """SPEC-FP-style blocked/strided sweeps with optional hot reuse set."""
    stream_id = np.arange(n_ops) % n_streams
    iter_no = np.arange(n_ops) // n_streams
    sweep = (stream_id * ws_lines + (iter_no * stride_lines) % ws_lines) * LINE
    reuse = rs.random(n_ops) < reuse_prob if reuse_prob > 0 else None
    is_write = (rs.random(n_ops) < write_frac).astype(np.uint8)

    def addresses(ra):
        core_off = int(ra.integers(0, 1 << 10)) * ws_lines * LINE * (n_streams + 1)
        addr = sweep
        if reuse is not None:
            hot = ra.integers(0, reuse_lines, n_ops) * LINE + n_streams * ws_lines * LINE
            addr = np.where(reuse, hot, addr)
        return _page_scatter(addr + core_off, ra)

    def rest():
        pc = (stream_id * 8 + 0xC000).astype(np.uint32)
        return _gaps(rs, n_ops, gap), pc, np.zeros(n_ops, dtype=np.int32)

    return Draw(is_write, addresses, rest)


@_family("graph")
def graph_analytics(rs: np.random.Generator, n_ops: int,
                    n_vertices: int = 1 << 17, skew: float = 2.0,
                    edge_gap: float = 6.0, write_frac: float = 0.12,
                    dep_frac: float = 0.5, frontier_lines: int = 256) -> Draw:
    """LIGRA-style push/pull iteration: sequential edge scans feeding
    skewed random vertex accesses (the vertex load depends on the edge load)."""
    n_pairs = n_ops // 2 + 1
    # Edge array scan: sequential lines.
    edge_addr = (np.arange(n_pairs, dtype=np.int64) % (n_vertices * 4)) * LINE
    # Vertex data: skewed random; the vertex choice is structural (lockstep
    # across cores), and each core's offset and page scatter are its own.
    v = _skewed_indices(rs, n_pairs, n_vertices, skew)
    vert_addr = (n_vertices * 4 + v) * LINE
    addr = np.empty(2 * n_pairs, dtype=np.int64)
    addr[0::2] = edge_addr
    addr[1::2] = vert_addr
    addr = addr[:n_ops]
    is_write = np.zeros(n_ops, dtype=np.uint8)
    vert_slots = np.arange(n_ops) % 2 == 1
    is_write[vert_slots & (rs.random(n_ops) < write_frac)] = 1

    def addresses(ra):
        core_off = int(ra.integers(0, 1 << 10)) * n_vertices * LINE * 8
        return _page_scatter(addr + core_off, ra)

    def rest():
        # Vertex access depends on the edge load just before it.
        dep = np.zeros(n_ops, dtype=np.int32)
        dep_mask = vert_slots & (rs.random(n_ops) < dep_frac)
        dep_mask &= np.arange(n_ops) >= 1
        dep[dep_mask] = 1
        pc = np.where(vert_slots, 0x10010, 0x10000).astype(np.uint32)
        return _gaps(rs, n_ops, edge_gap), pc, dep

    return Draw(is_write, addresses, rest)


@_family("kvs")
def kvs(rs: np.random.Generator, n_ops: int, n_keys: int = 1 << 18,
        levels: int = 5, gap: float = 10.0, write_frac: float = 0.08) -> Draw:
    """Masstree-style lookups: per query, ``levels`` dependent loads walking
    a tree whose top levels are hot and leaves are cold."""
    level = np.arange(n_ops) % levels
    # Level k spans ~ n_keys / 8^(levels-1-k) nodes: root tiny, leaves huge.
    span = np.maximum(1, (n_keys / (8.0 ** (levels - 1 - level))).astype(np.int64))
    base = np.cumsum([0] + [max(1, n_keys // (8 ** (levels - 1 - k))) for k in range(levels)])
    level_base = base[level]
    is_write = ((level == levels - 1) & (rs.random(n_ops) < write_frac * levels)).astype(np.uint8)

    def addresses(ra):
        core_off = int(ra.integers(0, 1 << 10)) * n_keys * LINE * 4
        node = (ra.random(n_ops) * span).astype(np.int64)
        return _page_scatter((level_base + node) * LINE + core_off, ra)

    def rest():
        dep = np.where((level > 0) & (is_write == 0), 1, 0).astype(np.int32)
        dep = np.where((level > 0) & (is_write == 1), 1, dep).astype(np.int32)
        pc = (level * 4 + 0x20000).astype(np.uint32)
        return _gaps(rs, n_ops, gap), pc, dep

    return Draw(is_write, addresses, rest)


@_family("phased")
def phased(rs: np.random.Generator, n_ops: int, phase_ops: int = 400,
           hot_lines: int = 2048, cold_lines: int = 1 << 20,
           n_hot_sets: int = 8, hot_prob: float = 0.85,
           write_frac: float = 0.15, dep_prob: float = 0.05, gap: float = 10.0,
           burst: float = 0.3) -> Draw:
    """Phase-changing behaviour: streaming and hot-set phases alternate.

    Even phases sweep the cold region sequentially (stream-like, zero
    reuse); odd phases hammer a *moving* hot set — the set shifts to a
    fresh region every other phase, cycling through ``n_hot_sets``
    regions. The shifting hot set is what exercises tiered-memory
    migration policies: a static first-touch placement keeps serving
    yesterday's hot pages while the epoch/LRU policies chase the move.
    """
    idx = np.arange(n_ops)
    phase = idx // max(1, phase_ops)
    in_stream = (phase % 2) == 0
    hot_set = (phase // 2) % n_hot_sets
    cold_base = n_hot_sets * hot_lines
    # Stream leg: sequential position advances only on stream-phase ops.
    seq = np.cumsum(in_stream.astype(np.int64)) % cold_lines
    stream_addr = cold_base + seq
    is_hot = (~in_stream) & (rs.random(n_ops) < hot_prob)
    is_write = (rs.random(n_ops) < write_frac).astype(np.uint8)

    def addresses(ra):
        core_off = int(ra.integers(0, 1 << 10)) * (n_hot_sets * hot_lines + cold_lines) * LINE * 2
        hot_addr = hot_set * hot_lines + ra.integers(0, hot_lines, n_ops)
        cold_addr = cold_base + ra.integers(0, cold_lines, n_ops)
        addr = (np.where(in_stream, stream_addr,
                         np.where(is_hot, hot_addr, cold_addr)) * LINE + core_off)
        return _page_scatter(addr, ra)

    def rest():
        dep = _dep_chain_to_prev_load(
            is_write, (~in_stream) & (rs.random(n_ops) < dep_prob))
        pc = np.where(in_stream, 0x40000, 0x40010 + hot_set * 4).astype(np.uint32)
        return _gaps(rs, n_ops, gap, burst), pc, dep

    return Draw(is_write, addresses, rest)


@_family("capacity_churn")
def capacity_churn(rs: np.random.Generator, n_ops: int, region_lines: int = 4096,
                   n_regions: int = 12, passes: int = 3, write_frac: float = 0.25,
                   dep_prob: float = 0.05, gap: float = 8.0,
                   jitter_lines: int = 8) -> Draw:
    """Capacity-pressure churn: region-by-region sweeps with bounded reuse.

    The footprint (``n_regions`` x ``region_lines`` lines per core) is
    walked one region at a time; each visit makes ``passes`` nearly
    sequential passes over the region before moving on, so every page is
    warm for a while and then cold for a long time. Sized to overflow
    both the LLC and a tiered system's local-DRAM capacity, it keeps
    placement policies (and the SSD backend's on-device cache) under
    continuous eviction pressure.
    """
    if region_lines < 1 or n_regions < 1 or passes < 1:
        raise ValueError("region_lines, n_regions, passes must be >= 1")
    idx = np.arange(n_ops)
    per_region = region_lines * passes
    region = (idx // per_region) % n_regions
    off_in = (idx % per_region) % region_lines
    is_write = (rs.random(n_ops) < write_frac).astype(np.uint8)

    def addresses(ra):
        core_off = int(ra.integers(0, 1 << 10)) * region_lines * n_regions * LINE * 2
        jit = ra.integers(0, max(1, jitter_lines), n_ops)
        addr = (region * region_lines + (off_in + jit) % region_lines) * LINE + core_off
        return _page_scatter(addr, ra)

    def rest():
        dep = _dep_chain_to_prev_load(is_write, rs.random(n_ops) < dep_prob)
        pc = (region % 16 * 4 + 0x50000).astype(np.uint32)
        return _gaps(rs, n_ops, gap), pc, dep

    return Draw(is_write, addresses, rest)


@_family("kmeans")
def kmeans_scan(rs: np.random.Generator, n_ops: int, points_lines: int = 1 << 20,
                centroid_lines: int = 16, gap: float = 9.0,
                centroid_prob: float = 0.45, write_frac: float = 0.05) -> Draw:
    """K-means: streaming point scan interleaved with hot centroid reads."""
    is_centroid = rs.random(n_ops) < centroid_prob
    seq = np.cumsum((~is_centroid).astype(np.int64)) % points_lines
    is_write = (is_centroid & (rs.random(n_ops) < write_frac / max(centroid_prob, 1e-9))).astype(np.uint8)

    def addresses(ra):
        core_off = int(ra.integers(0, 1 << 10)) * points_lines * LINE * 2
        cent = ra.integers(0, centroid_lines, n_ops)
        addr = np.where(is_centroid, cent, centroid_lines + seq) * LINE + core_off
        return _page_scatter(addr, ra)

    def rest():
        pc = np.where(is_centroid, 0x30010, 0x30000).astype(np.uint32)
        return _gaps(rs, n_ops, gap), pc, np.zeros(n_ops, dtype=np.int32)

    return Draw(is_write, addresses, rest)
