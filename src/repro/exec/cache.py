"""Content-addressed on-disk cache of :class:`SimResult`\\ s.

Each simulation job — a ``(SystemConfig, workload, ops, seed)`` tuple — is
keyed by a SHA-256 digest of its *complete* canonical JSON form: every
config field (``dataclasses.asdict``, so nested ``CxlLinkParams`` knobs are
included), the workload name, the op count, the seed, and a code-version
salt. Two configs that differ in any knob therefore never alias to one
cached result, and bumping :data:`CACHE_SCHEMA_VERSION` (or the package
version) invalidates every stale entry at once.

Layout: one JSON file per result under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``), named ``<digest>.json`` and sharded by the first two
hex chars to keep directories small::

    ~/.cache/repro/results/ab/abcdef....json

Writes are atomic (tempfile + ``os.replace``), so concurrent writers — e.g.
several pool workers finishing the same warm-up job — can race safely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.exportutil import write_json
from repro.system.config import SystemConfig, config_fingerprint
from repro.system.stats import SimResult

#: Bump when the meaning of cached numbers changes (simulator semantics,
#: SimResult schema) without a package-version bump.
#: 3: p50/p99/p99.9 miss-latency fields; p90 now comes from the streaming
#:    log-bucketed histogram instead of an exact full-sample percentile.
#: 4: ``extras["events_fired"]`` counts model events only; an entry stored
#:    from an obs-on run used to include the sampler's ticks.
#: 5: a core started on an empty trace schedules nothing, so runs of 1-3
#:    ops per core count ``active_cores`` fewer ``events_fired``.
CACHE_SCHEMA_VERSION = 5

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Set to a non-empty value to disable the disk cache entirely.
ENV_NO_DISK_CACHE = "REPRO_NO_DISK_CACHE"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def disk_cache_enabled() -> bool:
    """Whether the on-disk layer should be used (cheap env check)."""
    return not os.environ.get(ENV_NO_DISK_CACHE)


def cache_from_flags(cache_dir: Optional[str],
                     no_cache: bool) -> Optional["ResultCache"]:
    """The cache a command's ``--cache-dir``/``--no-cache`` flags select:
    ``None`` when the flag or ``$REPRO_NO_DISK_CACHE`` turns it off."""
    if no_cache or not disk_cache_enabled():
        return None
    return ResultCache(root=Path(cache_dir) if cache_dir else None)


def job_key(cfg: SystemConfig, workload: str, ops: Optional[int],
            seed: int) -> Tuple:
    """Hashable in-process memo key covering the complete config."""
    fp = config_fingerprint(cfg)
    return (tuple(sorted(fp.items())), workload, ops, seed)


def job_digest(cfg: SystemConfig, workload: str, ops: Optional[int],
               seed: int, salt: str = "") -> str:
    """Stable SHA-256 content address of one simulation job.

    ``ops=None`` means "the workload default scaled by REPRO_SCALE", so the
    effective scale joins the key in that case — runs under different
    ``REPRO_SCALE`` settings must not alias.
    """
    from repro.system.sim import _SCALE

    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "version": __version__,
        "salt": salt,
        "config": config_fingerprint(cfg),
        "workload": workload,
        "ops": ops,
        "scale": _SCALE if ops is None else None,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """On-disk result store with hit/miss counters.

    Parameters
    ----------
    root:
        Cache directory (default: :func:`default_cache_dir`).
    salt:
        Extra key material mixed into every digest (tests use this to get
        disjoint namespaces inside one directory).

    Callers that run without a cache hold ``None`` instead of an instance
    (see :func:`cache_from_flags`).
    """

    def __init__(self, root: Optional[Path] = None, salt: str = ""):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- paths -----------------------------------------------------------------
    def _path(self, digest: str) -> Path:
        return self.root / "results" / digest[:2] / f"{digest}.json"

    # -- API -------------------------------------------------------------------
    def get(self, cfg: SystemConfig, workload: str, ops: Optional[int],
            seed: int) -> Optional[SimResult]:
        """Return the cached result for a job, or ``None`` (counts hit/miss)."""
        path = self._path(job_digest(cfg, workload, ops, seed, self.salt))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            result = SimResult(**payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError):
            # Corrupt or schema-incompatible entry: treat as a miss and drop
            # it so the rewrite below heals the cache.
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, cfg: SystemConfig, workload: str, ops: Optional[int],
            seed: int, result: SimResult) -> None:
        """Store one result atomically (safe under concurrent writers)."""
        digest = job_digest(cfg, workload, ops, seed, self.salt)
        payload = {
            "digest": digest,
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "job": {"config": cfg.name, "workload": workload,
                    "ops": ops, "seed": seed},
            "result": dataclasses.asdict(result),
        }
        write_json(self._path(digest), payload)
        self.stores += 1

    def counters(self) -> Dict[str, int]:
        """Hit/miss/store counts since construction."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def size(self) -> int:
        """Number of result files currently on disk."""
        results = self.root / "results"
        if not results.is_dir():
            return 0
        return sum(1 for _ in results.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached result; returns how many were removed."""
        results = self.root / "results"
        n = 0
        if results.is_dir():
            for f in results.glob("*/*.json"):
                try:
                    os.unlink(f)
                    n += 1
                except OSError:
                    pass
        return n
