"""Job-plane metrics, built on the obs subsystem's registry.

Both HTTP job planes — the ``repro serve`` job server and the fleet
broker — reuse :class:`repro.obs.MetricRegistry`: the same instrument
types, snapshot schema, and Prometheus renderer the simulator's own
telemetry uses, so a fleet of servers is scrapeable with the existing
round-trip-tested exporter and nothing bespoke. :class:`PlaneMetrics`
holds what the two planes share under their own name prefix: the uptime
gauge and the cache hit/miss/store totals, which are refreshed from the
shared :class:`~repro.exec.cache.ResultCache` counters at scrape time
rather than double-counted on every settle.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.exec.cache import ResultCache
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricRegistry

__all__ = ["BrokerMetrics", "PlaneMetrics", "ServerMetrics"]


class PlaneMetrics:
    """One job plane's registry; every metric is named ``<prefix>_...``."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.registry = MetricRegistry()
        self.started_at = time.time()
        self._cache_hits = self.counter("cache_hits_total")
        self._cache_misses = self.counter("cache_misses_total")
        self._cache_stores = self.counter("cache_stores_total")
        self._uptime = self.gauge("uptime_seconds")

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None):
        return self.registry.counter(f"{self.prefix}_{name}", labels=labels)

    def gauge(self, name: str):
        return self.registry.gauge(f"{self.prefix}_{name}")

    def histogram(self, name: str):
        return self.registry.histogram(f"{self.prefix}_{name}")

    def render(self, cache: Optional[ResultCache] = None) -> str:
        """The ``/metrics`` body: refresh derived values, then export."""
        self._uptime.set(time.time() - self.started_at)
        if cache is not None:
            counts = cache.counters()
            self._cache_hits.set_total(counts["hits"])
            self._cache_misses.set_total(counts["misses"])
            self._cache_stores.set_total(counts["stores"])
        return prometheus_text({"metrics": self.registry.snapshot()})


class ServerMetrics(PlaneMetrics):
    """Counters/gauges/histograms describing one job-server process."""

    def __init__(self):
        super().__init__("repro_serve")
        self.jobs_accepted = self.counter("jobs_accepted_total")
        self.jobs_rejected = self.counter("jobs_rejected_total")
        self.jobs_completed = self.counter("jobs_completed_total")
        self.jobs_failed = self.counter("jobs_failed_total")
        self.jobs_timed_out = self.counter("jobs_timed_out_total")
        self.jobs_cancelled = self.counter("jobs_cancelled_total")
        self.tasks_completed = self.counter("tasks_completed_total")
        self.tasks_cached = self.counter("tasks_cached_total")
        self.tasks_failed = self.counter("tasks_failed_total")
        self.tasks_timed_out = self.counter("tasks_timed_out_total")
        self.queue_depth = self.gauge("queue_depth")
        self.active_jobs = self.gauge("active_jobs")
        self.job_wall = self.histogram("job_wall_seconds")

    def observe_http(self, status: int) -> None:
        """Per-status-class HTTP request counter (2xx/4xx/5xx...)."""
        self.counter("http_requests_total",
                     labels={"code": f"{status // 100}xx"}).inc()


class BrokerMetrics(PlaneMetrics):
    """Task-broker metrics (``repro_fleet_*``; see :mod:`repro.serve.broker`)."""

    def __init__(self):
        super().__init__("repro_fleet")
        self.tasks_submitted = self.counter("tasks_submitted_total")
        self.tasks_leased = self.counter("tasks_leased_total")
        self.tasks_settled = self.counter("tasks_settled_total")
        self.tasks_cached = self.counter("tasks_cached_total")
        self.tasks_requeued = self.counter("tasks_requeued_total")
        self.tasks_failed = self.counter("tasks_failed_total")
        self.duplicate_settles = self.counter("duplicate_settles_total")
        self.queue_depth = self.gauge("queue_depth")
        self.leased = self.gauge("leased_tasks")
        self.workers_seen = self.gauge("workers_seen")
        self.task_wall = self.histogram("task_wall_seconds")
