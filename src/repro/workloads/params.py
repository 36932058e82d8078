"""Workload specification: a named, parameterized trace generator."""

from __future__ import annotations

import zlib

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.trace import Trace
from repro.workloads.generators import Draw


@dataclass
class WorkloadSpec:
    """One catalog entry.

    ``generator`` is a family from :mod:`repro.workloads.generators`: a
    function ``(n_ops, seed, **params) -> Trace`` whose ``draw`` attribute
    is the family's structure draw. ``paper_ipc``/``paper_mpki`` are Table
    IV's baseline measurements, recorded so benches can report
    paper-vs-measured side by side.

    ``seed`` decorrelates per-core *addresses*; trace *structure* (gaps,
    write mix, hot/cold pattern) comes from a per-workload seed, so all
    cores running this workload execute in lockstep — the paper's
    same-workload-on-all-cores methodology, whose correlated miss bursts
    drive memory-controller queuing. The three entry points draw that
    structure once per call and share it across their seeds.
    """

    name: str
    suite: str
    generator: Callable[..., Trace]
    params: Dict[str, object] = field(default_factory=dict)
    paper_ipc: Optional[float] = None
    paper_mpki: Optional[float] = None
    default_ops: int = 6000

    def _draw(self, n_ops: Optional[int]) -> Draw:
        """The structure of ``n_ops`` ops (``None``: ``default_ops``)."""
        if n_ops is None:
            n_ops = self.default_ops
        elif n_ops < 1:
            raise ValueError(f"n_ops must be >= 1, got {n_ops}")
        rs = np.random.default_rng(zlib.crc32(self.name.encode()) & 0x7FFFFFFF)
        return self.generator.draw(rs, n_ops, **self.params)

    def generate(self, n_ops: Optional[int] = None, seed: int = 1) -> Trace:
        """Build a trace of ``n_ops`` memory operations for one core."""
        return self.generate_many(n_ops, [seed])[0]

    def generate_many(self, n_ops: Optional[int],
                      seeds: Sequence[int]) -> List[Trace]:
        """One trace per seed, equal to ``generate(n_ops, seed)`` each; the
        traces differ only in ``addr``."""
        return self._draw(n_ops).traces(seeds, self.name)

    def sample(self, n_ops: Optional[int], seeds: Sequence[int]
               ) -> Tuple[List[np.ndarray], np.ndarray]:
        """``generate_many``'s ``addr`` columns, one per seed, and its shared
        ``is_write`` column, without gaps, PCs, dependences or validation."""
        draw = self._draw(n_ops)
        return draw.address_columns(seeds), draw.is_write

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WorkloadSpec {self.name} ({self.suite})>"
