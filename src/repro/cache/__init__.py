"""Cache substrate: set-associative arrays, replacement policies, MSHRs.

Models the paper's three-level hierarchy (Table III): 32 KB L1, 512 KB L2
per core, and a distributed, shared, non-inclusive LLC (2 MB/core baseline,
1 MB/core for COAXIAL-4x/asym). Caches here are *functional + latency*
models: hits cost a fixed pipeline latency; misses allocate MSHRs and
travel through the event-driven memory system.
"""

from repro.cache.cache import CacheArray, CacheLevel, level_sets
from repro.cache.replacement import LRUPolicy, RandomPolicy, SRRIPPolicy, make_policy
from repro.cache.mshr import MSHRFile

__all__ = [
    "CacheArray", "CacheLevel", "MSHRFile", "level_sets",
    "LRUPolicy", "RandomPolicy", "SRRIPPolicy", "make_policy",
]
