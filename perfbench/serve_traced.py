"""Run ``repro serve`` with the layer shims installed.

Usage: ``python perfbench/serve_traced.py OUT.json -- <repro serve args>``

Each task the pool runs is one root span. The first tasks (the
benchmark's warm-up job, one task per service config) are coverage-check
tasks: they run with the dispatch hook on and are left out of the totals.
On shutdown the per-layer summary goes to ``OUT.json`` and the span table
to ``OUT.json.spans``.
"""

from __future__ import annotations

import json
import sys

from jobs import SERVICE_CONFIGS
from layers import LayerTracer, write_spans

#: Coverage-check tasks, run hooked and dropped from the totals.
CHECK_TASKS = len(SERVICE_CONFIGS)
#: Timed tasks whose spans are kept (later tasks add to the totals only).
SPAN_TASKS = 16


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out = argv[0]
    tracer = LayerTracer()
    tracer.install()
    import repro.exec.runner as runner
    from repro.cli import main as cli_main

    timed = runner._simulate_job
    kept = []
    checks = [CHECK_TASKS]

    def _simulate_job(job):
        tracer.check_dispatch = checks[0] > 0
        value = tracer.run_job(timed, job)
        if tracer.check_dispatch:
            checks[0] -= 1
            tracer.reset()
            return value
        tracer.events += value[2]
        if tracer.jobs == SPAN_TASKS:
            kept.append(tracer.take_spans())
        elif tracer.jobs > SPAN_TASKS:
            tracer.take_spans()
        return value

    runner._simulate_job = _simulate_job
    try:
        return cli_main(["serve"] + argv[2:])
    finally:
        runner._simulate_job = timed
        tracer.uninstall()
        write_spans(kept[0] if kept else tracer.take_spans(), out + ".spans")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"layers": tracer.summary(), "jobs": tracer.jobs,
                       "unmapped": tracer.unmapped()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
