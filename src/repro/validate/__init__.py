"""Request-lifecycle invariant checking and latency-accounting audits.

The simulator's headline numbers — the queuing share of L2-miss latency,
miss-latency reductions, speedups — are all computed from per-request
timestamp arithmetic aggregated across the DRAM, CXL, NoC and cache
layers. This package makes accounting bugs loud instead of silent:
:class:`InvariantChecker`, an :class:`~repro.observer.Observer`, verifies
per-request invariants at response time (timestamp monotonicity for the
stages a request actually visited, component conservation without
clamping, no double completion) and system-level invariants at end of
run (achieved bandwidth <= physical peak per DDR channel and CXL link,
MC queue lengths within configured caps, stats-counter consistency, read
conservation). Each violation carries the offending request's full
timeline; for the timelines of every measured request, run with span
tracing on as well (``repro run --validate strict --trace-out
trace.jsonl``).

Enable with ``simulate(..., validate=True)`` or ``REPRO_VALIDATE=1``
(collect violations into ``SimResult.extras["invariant_violations"]``),
or ``validate="strict"`` / ``REPRO_VALIDATE=strict`` (raise
:class:`InvariantError` on the first violation); modes resolve through
:func:`repro.observer.resolve_mode`. When disabled the hot path pays one
``is None`` check per hook site.
"""

from repro.validate.checker import InvariantChecker, InvariantError, Violation

__all__ = ["InvariantChecker", "InvariantError", "Violation"]
