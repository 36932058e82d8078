"""Record the expected ``SimResult`` digest of every job the benchmark can
generate into ``expected.json``.

    python3 perfbench/bless.py

Run it only when simulated results are meant to change: a performance or
simplicity change must reproduce these digests exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    for k in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[k]
    sys.path.insert(0, str(ROOT / "src"))
    from jobs import EXPECTED_PATH, digest, run_inline, universe

    jobs = universe()
    digests = {}
    for i, job in enumerate(jobs, 1):
        digests[job.label] = digest(dataclasses.asdict(run_inline(job)))
        print(f"[{i}/{len(jobs)}] {job.label}", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
