"""Randomized differential & metamorphic simulation fuzzer.

The fuzzer closes the loop between three testing layers that previously ran
only on hand-picked configurations:

- :mod:`repro.fuzz.gen` draws valid random cases, each a
  :class:`~repro.exec.spec.TaskSpec` with an op count (the generator
  encodes the builder's validity constraints, so a generated case never
  trips ``SystemConfig.__post_init__``);
- :mod:`repro.fuzz.oracles` runs each case against invariant, differential
  (fast-vs-reference kernel, cached-vs-cold), and metamorphic oracles;
- :mod:`repro.fuzz.shrink` delta-debugs a failing case down to the smallest
  reproducer, which :mod:`repro.fuzz.corpus` commits to ``tests/corpus/``
  where it replays forever as an ordinary pytest case.

Drive it with ``repro fuzz run|replay|shrink`` (see :mod:`repro.cli`) or
programmatically through :class:`repro.fuzz.harness.FuzzRunner`.
"""

from repro.fuzz.gen import generate_case
from repro.fuzz.harness import FuzzRunner

__all__ = ["FuzzRunner", "generate_case"]
