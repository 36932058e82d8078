"""Command-line interface: run COAXIAL experiments without writing code.

Examples
--------
::

    python -m repro list
    python -m repro run --config coaxial-4x --workload stream-copy
    python -m repro trace --config coaxial-4x --workload mcf --strict
    python -m repro compare --workloads stream-copy,PageRank,gcc
    python -m repro curve --loads 0.1,0.3,0.5,0.6
    python -m repro area
    python -m repro power --base-cpi 2.05 --coax-cpi 1.48
    python -m repro cost --capacity 3072
    python -m repro serve --port 8723
    python -m repro parity run
    python -m repro parity compare --strict --report parity-report.md
    python -m repro parity bless
    python -m repro bench compare --bench BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis import format_table, geomean
from repro.analysis.figures import bar_chart
from repro.area import bandwidth_per_pin_table, server_design_table
from repro.area.cost import iso_capacity_comparison
from repro.dram import load_latency_curve
from repro.power import energy_report, system_power
from repro.cxl.profiles import PROFILES
from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.tiering.config import TIERING_PRESETS, get_tiering
from repro.workloads import REPRESENTATIVE, SUITES, get_workload, workload_names


def _parse_list(text: str) -> List[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def cmd_list(args: argparse.Namespace) -> int:
    print("configurations:")
    for name in ALL_CONFIGS:
        print(f"  {name}")
    print("\nworkloads (by suite):")
    for suite, names in SUITES.items():
        print(f"  {suite}: {', '.join(names)}")
    return 0


def _print_violation_report(report: dict) -> None:
    """Summarize an extras["invariant_violations"] dict on stdout."""
    count = report.get("count", 0)
    checked = report.get("checked_requests", 0)
    print(f"  invariants       : {count} violation(s) over "
          f"{checked} checked request(s)")
    for kind, n in sorted(report.get("by_kind", {}).items()):
        print(f"    {kind:24s} x{n}")
    for v in report.get("violations", [])[:5]:
        print(f"    e.g. {v['message']}")


def _device_overrides(args: argparse.Namespace) -> dict:
    """SystemConfig overrides from --tiering/--device-profile/--cxl-backend."""
    ov = {}
    t = getattr(args, "tiering", None)
    if t is not None:
        ov["tiering"] = None if t == "none" else get_tiering(t)
    if getattr(args, "device_profile", None) is not None:
        ov["device_profile"] = args.device_profile
    if getattr(args, "cxl_backend", None) is not None:
        ov["cxl_backend"] = args.cxl_backend
    return ov


def cmd_run(args: argparse.Namespace) -> int:
    cfg = ALL_CONFIGS[args.config]()
    if args.calm:
        cfg = cfg.replace(calm_policy=args.calm)
    if args.active_cores:
        cfg = cfg.replace(active_cores=args.active_cores)
    device = _device_overrides(args)
    if device:
        try:
            cfg = cfg.replace(**device)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    wl = get_workload(args.workload)
    collector = None
    if args.obs:
        from repro.obs import ObsCollector, known_export_suffixes
        from pathlib import Path
        if Path(args.obs).suffix.lower() not in known_export_suffixes():
            # Fail before simulating, not after: a bad output path
            # shouldn't cost the user the whole run.
            print(f"error: unknown metrics export format "
                  f"{Path(args.obs).suffix!r} for {args.obs}; expected one "
                  f"of: {', '.join(known_export_suffixes())}",
                  file=sys.stderr)
            return 2
        # The exported file should answer "where did the time go", so an
        # explicit --obs run collects the kernel profile as well.
        collector = ObsCollector(mode=args.obs_mode)
    tracing = args.tracing
    if args.trace_out:
        from pathlib import Path
        if Path(args.trace_out).suffix.lower() not in (".json", ".jsonl"):
            print(f"error: unknown span trace format "
                  f"{Path(args.trace_out).suffix!r} for {args.trace_out}; "
                  f"use a .json (Perfetto) or .jsonl path", file=sys.stderr)
            return 2
        tracing = tracing or "on"
    r = simulate(cfg, wl, ops_per_core=args.ops, seed=args.seed,
                 validate=args.validate, obs=collector, tracing=tracing)
    print(r.summary())
    print(f"  miss latency     : p50 {r.p50_miss_latency:.1f} / "
          f"p90 {r.p90_miss_latency:.1f} / p99 {r.p99_miss_latency:.1f} / "
          f"p99.9 {r.p999_miss_latency:.1f} ns")
    print(f"  read/write BW    : {r.read_bandwidth_gbps:.1f} / "
          f"{r.write_bandwidth_gbps:.1f} GB/s")
    print(f"  LLC hit rate     : {100 * r.llc_hit_rate:.1f}%")
    if cfg.calm_policy != "never":
        print(f"  CALM fraction    : {100 * r.calm_fraction:.1f}% "
              f"(fp {100 * r.calm_false_pos_rate:.1f}%, "
              f"fn {100 * r.calm_false_neg_rate:.1f}%)")
    if collector is not None:
        from repro.obs import export_snapshot
        out = export_snapshot(
            args.obs, collector.snapshot(with_profile=True),
            meta={"config": cfg.name, "workload": r.workload_name,
                  "seed": args.seed})
        hint = (f" (render with: repro obs report {out})"
                if out.suffix.lower() in (".jsonl",) else "")
        print(f"  metrics          : -> {out}{hint}")
    if args.trace_out:
        from repro.tracing import export_trace
        tout = export_trace(r.extras["trace"], args.trace_out)
        att = r.extras["trace"]["attribution"]
        print(f"  spans            : {att['n']} measured requests -> {tout} "
              f"(view with: repro trace view {tout})")
    report = r.extras.get("invariant_violations")
    if report is not None:
        _print_violation_report(report)
        if report.get("count", 0):
            return 1
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Render exported metrics JSONL as a terminal run report."""
    from repro.obs import load_jsonl, render_report

    try:
        runs = load_jsonl(args.file)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not runs:
        print(f"{args.file}: no runs recorded", file=sys.stderr)
        return 1
    for i, run in enumerate(runs):
        if i:
            print()
        print(render_report(run, top=args.top), end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one simulation under audit and export the request trace."""
    from repro.validate import InvariantError, TraceRecorder

    cfg = ALL_CONFIGS[args.config]()
    wl = get_workload(args.workload)
    recorder = TraceRecorder(capacity=args.capacity)
    mode = "strict" if args.strict else "on"
    try:
        r = simulate(cfg, wl, ops_per_core=args.ops, seed=args.seed,
                     validate=mode, trace=recorder)
    except InvariantError as e:
        print(f"invariant violation (strict): {e}", file=sys.stderr)
        return 1
    out = recorder.export(args.out, fmt=args.format)
    print(r.summary())
    print(f"  trace            : {len(recorder)} of {recorder.recorded} "
          f"measured requests -> {out}")
    report = r.extras.get("invariant_violations", {})
    _print_violation_report(report)
    return 1 if report.get("count", 0) else 0


def cmd_trace_view(args: argparse.Namespace) -> int:
    """Summarize an exported span trace: attribution + slowest requests."""
    from repro.tracing import attribution_table, load_trace, slowest

    try:
        snap = load_trace(args.file)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"trace: {args.file}")
    print(f"  schema {snap.get('schema')}  mode {snap.get('mode')}  "
          f"trace_id {snap.get('trace_id') or '-'}")
    print()
    print(attribution_table(snap))
    rows = slowest(snap, n=args.top)
    if rows:
        print()
        print(f"slowest {len(rows)} retained request(s):")
        for row in rows:
            print(f"  req {row['req_id']:<8d} core {row['core']:<3d} "
                  f"{'hit ' if row.get('llc_hit') else 'miss'} "
                  f"total {row['total']:>10.1f} ns")
    kernel_events = snap.get("kernel_events")
    if kernel_events:
        print()
        print(f"kernel events ({sum(kernel_events.values())} fired):")
        for name, count in sorted(kernel_events.items(),
                                  key=lambda kv: -kv[1])[:10]:
            print(f"  {name:<44s} {count:>10d}")
    return 0


def cmd_trace_critpath(args: argparse.Namespace) -> int:
    """Print per-request critical-path blocking chains from a trace."""
    from repro.tracing import format_critical_path, load_trace, slowest

    try:
        snap = load_trace(args.file)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    rows = snap.get("spans") or []
    if args.req is not None:
        rows = [r for r in rows if r["req_id"] == args.req]
        if not rows:
            print(f"error: request {args.req} is not in the retained ring "
                  f"({len(snap.get('spans') or [])} row(s))", file=sys.stderr)
            return 1
    else:
        rows = slowest(snap, n=args.top)
    for i, row in enumerate(rows):
        if i:
            print()
        print(format_critical_path(row))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workloads = _parse_list(args.workloads)
    configs = _parse_list(args.configs)
    for c in configs:
        if c not in ALL_CONFIGS:
            print(f"unknown config {c!r}; choose from {list(ALL_CONFIGS)}",
                  file=sys.stderr)
            return 2
    base_cfg = ALL_CONFIGS[args.baseline]()
    rows = []
    chart = {}
    for w in workloads:
        wl = get_workload(w)
        base = simulate(base_cfg, wl, ops_per_core=args.ops, seed=args.seed)
        for c in configs:
            r = simulate(ALL_CONFIGS[c](), wl, ops_per_core=args.ops,
                         seed=args.seed)
            sp = r.speedup_over(base)
            chart[f"{w} ({c})"] = sp
            rows.append([w, c, base.ipc, r.ipc, sp,
                         base.avg_miss_latency, r.avg_miss_latency])
    print(format_table(
        ["workload", "config", "base IPC", "IPC", "speedup",
         "base misslat", "misslat"], rows))
    speedups = [row[4] for row in rows]
    print(f"\ngeomean speedup: {geomean(speedups):.2f}x\n")
    print(bar_chart(chart, title="speedup vs baseline", unit="x", reference=1.0))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Grid sweep across a process pool with the on-disk result cache."""
    import time

    from repro.exec.cache import ResultCache, disk_cache_enabled
    from repro.exec.perf import (
        BaselineProtectedError, bench_record, format_summary, write_bench,
    )
    from repro.exec.runner import (
        default_workers, expand_grid, print_progress, SweepRunner,
    )

    configs = _parse_list(args.configs)
    for c in configs:
        if c not in ALL_CONFIGS:
            print(f"unknown config {c!r}; choose from {list(ALL_CONFIGS)}",
                  file=sys.stderr)
            return 2
    if args.workloads.lower() == "all":
        workloads = workload_names()
    elif args.workloads.lower() == "representative":
        workloads = list(REPRESENTATIVE)
    else:
        workloads = _parse_list(args.workloads)
    seeds = [int(s) for s in _parse_list(args.seeds)]

    cache = ResultCache(root=args.cache_dir,
                        enabled=not args.no_cache and disk_cache_enabled())
    if args.clear_cache:
        n = cache.clear()
        print(f"cleared {n} cached results under {cache.root}")

    try:
        workers = args.jobs or default_workers()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        jobs = expand_grid(configs, workloads, ops=args.ops, seeds=seeds,
                           validate=args.validate, obs=args.obs,
                           tracing=args.tracing,
                           overrides=_device_overrides(args))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"sweep: {len(configs)} config(s) x {len(workloads)} workload(s) x "
          f"{len(seeds)} seed(s) = {len(jobs)} jobs on {workers} worker(s)")

    runner = SweepRunner(workers=workers, cache=cache,
                         job_timeout_s=args.timeout, retries=args.retries,
                         progress=None if args.quiet else print_progress)
    t0 = time.perf_counter()
    results = runner.run(jobs)
    total_wall = time.perf_counter() - t0

    rows = [[r.job.config.name, r.job.workload, r.job.seed,
             r.result.ipc if r.result else float("nan"),
             r.result.avg_miss_latency if r.result else float("nan"),
             r.result.bandwidth_gbps if r.result else float("nan"),
             "cache" if r.cached else f"{r.wall_s:.1f}s"]
            for r in results]
    print(format_table(
        ["config", "workload", "seed", "IPC", "misslat ns", "BW GB/s", "ran"],
        rows))

    record = bench_record(results, total_wall, workers, cache)
    print()
    for line in format_summary(record):
        print(line)
    try:
        out = write_bench(record, args.bench_out, force=args.force)
    except BaselineProtectedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"benchmark record written to {out}")

    failed = [r for r in results if r.result is None]
    for r in failed:
        print(f"FAILED: {r.job.label()}: {r.error}", file=sys.stderr)

    dirty = [r for r in results
             if r.result is not None
             and (r.result.invariant_violation_count or 0) > 0]
    for r in dirty:
        print(f"INVARIANT VIOLATIONS: {r.job.label()}: "
              f"{r.result.invariant_violation_count}", file=sys.stderr)
    return 1 if failed or dirty else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async simulation job server (see docs/serving.md)."""
    from repro.exec.runner import default_workers
    from repro.serve import run_server

    try:
        pool_workers = args.pool_workers or default_workers()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return run_server(
        host=args.host, port=args.port, pool_workers=pool_workers,
        job_timeout_s=args.job_timeout, retries=args.retries,
        max_active=args.max_active, max_queue=args.max_queue,
        tenant_max_jobs=args.tenant_quota, no_cache=args.no_cache,
        cache_dir=args.cache_dir, drain_s=args.drain)


def cmd_fleet_broker(args: argparse.Namespace) -> int:
    """Run the fleet work-queue broker (see docs/fleet.md)."""
    from repro.fleet import run_broker

    return run_broker(host=args.host, port=args.port, lease_s=args.lease,
                      retries=args.retries, no_cache=args.no_cache,
                      cache_dir=args.cache_dir)


def cmd_fleet_worker(args: argparse.Namespace) -> int:
    """Run one fleet worker against a broker URL."""
    from repro.fleet import run_worker

    return run_worker(broker_url=args.broker, worker_id=args.id,
                      poll_s=args.poll, max_tasks=args.max_tasks,
                      oneshot=not args.keep_alive, no_cache=args.no_cache,
                      cache_dir=args.cache_dir, trace_dir=args.trace_dir)


def cmd_fleet_sweep(args: argparse.Namespace) -> int:
    """Submit a sweep grid to a fleet broker and collect merged results."""
    import time

    from repro.exec.perf import (
        BaselineProtectedError, bench_record, format_summary, write_bench,
    )
    from repro.fleet import FleetClient, FleetError, expand_specs

    configs = _parse_list(args.configs)
    if args.workloads.lower() == "all":
        workloads = workload_names()
    elif args.workloads.lower() == "representative":
        workloads = list(REPRESENTATIVE)
    else:
        workloads = _parse_list(args.workloads)
    seeds = [int(s) for s in _parse_list(args.seeds)]
    trace_id = None
    if args.tracing and args.tracing != "off":
        # Submission is the root of the causal chain: one id for the whole
        # grid, recoverable from every worker-side span export.
        import uuid
        trace_id = uuid.uuid4().hex
    try:
        specs = expand_specs(configs, workloads, ops=args.ops, seeds=seeds,
                             validate=args.validate, obs=args.obs,
                             tracing=args.tracing, trace_id=trace_id)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2

    client = FleetClient(args.broker)
    print(f"fleet sweep: {len(specs)} job(s) -> {client.broker_url}"
          + (f" (trace {trace_id})" if trace_id else ""))

    def tick(done: int, total: int) -> None:
        if not args.quiet:
            print(f"  settled {done}/{total}", file=sys.stderr, flush=True)

    t0 = time.perf_counter()
    try:
        ids = client.submit(specs)
        client.wait(ids, timeout_s=args.timeout, progress=tick)
        results = client.results(ids)
        status = client.tasks()
    except FleetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    total_wall = time.perf_counter() - t0
    if args.drain:
        client.drain()

    rows = [[r.job.config.name, r.job.workload, r.job.seed,
             r.result.ipc if r.result else float("nan"),
             r.result.avg_miss_latency if r.result else float("nan"),
             "cache" if r.cached else f"{r.wall_s:.1f}s"]
            for r in results]
    print(format_table(
        ["config", "workload", "seed", "IPC", "misslat ns", "ran"], rows))

    record = bench_record(results, total_wall,
                          workers=int(status.get("workers", 0)))
    record["fleet"]["broker"] = client.broker_url
    print()
    for line in format_summary(record):
        print(line)
    try:
        out = write_bench(record, args.bench_out, force=args.force)
    except BaselineProtectedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"benchmark record written to {out}")

    failed = [r for r in results if r.result is None]
    for r in failed:
        print(f"FAILED: {r.job.label()}: {r.error}", file=sys.stderr)
    return 1 if failed else 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Successive-halving config-space search (local pool or fleet)."""
    import json

    from repro.fleet import FleetClient, FleetError, LocalExecutor, run_campaign

    if args.base not in ALL_CONFIGS:
        print(f"unknown config {args.base!r}; choose from {list(ALL_CONFIGS)}",
              file=sys.stderr)
        return 2
    if args.workloads.lower() == "representative":
        workloads = list(REPRESENTATIVE)
    else:
        workloads = _parse_list(args.workloads)

    if args.broker:
        executor = FleetClient(args.broker)
        where = args.broker
    else:
        executor = LocalExecutor(workers=args.jobs)
        where = f"local pool ({args.jobs or 'auto'} workers)"
    print(f"campaign: base={args.base} search={args.search!r} "
          f"objective={args.objective} on {where}")
    try:
        res = run_campaign(
            executor, args.base, args.search, workloads,
            objective=args.objective, ops0=args.ops0, eta=args.eta,
            max_rungs=args.rungs, seed=args.seed, obs=args.obs,
            timeout_s=args.timeout, log=print)
    except (ValueError, KeyError, FleetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"\nwinner: {res.winner.label()} "
          f"({res.objective}={res.winner_score:.4f}) "
          f"after {res.total_jobs} job(s), "
          f"{res.total_sim_wall_s:.1f}s simulated, "
          f"{res.cache_hits} cache hit(s)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(res.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"campaign report written to {args.out}")
    return 0


def _parity_registry(args: argparse.Namespace):
    """(registry, default_golden_path) for the selected metric family."""
    if getattr(args, "scenarios", False):
        from repro.parity.scenarios import SCENARIO_GOLDEN_PATH, SCENARIO_REGISTRY
        return SCENARIO_REGISTRY, str(SCENARIO_GOLDEN_PATH)
    from repro.parity import REGISTRY
    from repro.parity.golden import DEFAULT_GOLDEN_PATH
    return REGISTRY, str(DEFAULT_GOLDEN_PATH)


def _parity_suite(args: argparse.Namespace):
    """Build a ParitySuite from CLI flags (paper or scenario config grid)."""
    from repro.parity import ParitySuite
    from repro.parity.registry import DEFAULT_OPS, DEFAULT_SEED, DEFAULT_WORKLOADS

    if getattr(args, "scenarios", False):
        from repro.parity.scenarios import scenario_suite, SCENARIO_OPS, SCENARIO_SEED

        base = scenario_suite(
            ops=args.ops if args.ops is not None else SCENARIO_OPS,
            seed=args.seed if args.seed is not None else SCENARIO_SEED)
        if args.workloads.lower() != "default":
            base = ParitySuite(configs=base.configs,
                               workloads=tuple(_parse_list(args.workloads)),
                               ops=base.ops, seed=base.seed)
        return base
    if args.workloads.lower() == "default":
        workloads = DEFAULT_WORKLOADS
    else:
        workloads = tuple(_parse_list(args.workloads))
    return ParitySuite(
        workloads=workloads,
        ops=args.ops if args.ops is not None else DEFAULT_OPS,
        seed=args.seed if args.seed is not None else DEFAULT_SEED)


def _parity_progress(msg: str) -> None:
    print(f"  {msg}", file=sys.stderr)


def cmd_parity_run(args: argparse.Namespace) -> int:
    """Evaluate every registry metric; gate only on the sanity bands."""
    import json as _json

    from repro.parity import evaluate

    registry, _ = _parity_registry(args)
    suite = _parity_suite(args)
    measured = evaluate(suite, workers=args.jobs, registry=registry,
                        progress=None if args.quiet else _parity_progress)
    rows = []
    out_of_band = []
    for m in registry:
        v = measured[m.id]
        ok = m.in_band(v)
        if not ok:
            out_of_band.append(m.id)
        rows.append([m.id, f"{v:.4g}",
                     "-" if m.paper is None else f"{m.paper:g}",
                     m.unit, "ok" if ok else "OUT OF BAND"])
    print(format_table(["metric", "measured", "paper", "unit", "band"], rows))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(measured, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"measured values written to {args.json}")
    if out_of_band:
        print(f"{len(out_of_band)} metric(s) outside their sanity band: "
              f"{', '.join(out_of_band)}", file=sys.stderr)
        return 1
    return 0


def cmd_parity_bless(args: argparse.Namespace) -> int:
    """Regenerate the golden file from a fresh evaluation (intentional)."""
    from repro.parity import (
        GoldenError, compare, evaluate, golden_payload, load_golden,
        write_golden,
    )

    registry, default_golden = _parity_registry(args)
    golden_path = args.golden or default_golden
    suite = _parity_suite(args)
    measured = evaluate(suite, workers=args.jobs, registry=registry,
                        progress=None if args.quiet else _parity_progress)
    try:
        previous = load_golden(golden_path)
    except GoldenError:
        previous = None
    if previous is not None:
        drifted = [v for v in compare(measured, previous, registry=registry)
                   if v.status not in ("pass", "stale")]
        for v in drifted:
            print(f"  re-blessing {v.id}: {v.golden} -> "
                  f"{v.measured:.6g} ({v.status})")
    out = write_golden(golden_payload(measured, suite, registry=registry),
                       golden_path)
    print(f"blessed {len(measured)} metrics -> {out}")
    return 0


def cmd_parity_compare(args: argparse.Namespace) -> int:
    """Gate a fresh evaluation against the committed golden file."""
    from repro.parity import (
        GoldenError, compare, evaluate, load_golden, render_report,
        worst_status,
    )
    from repro.parity.golden import golden_suite

    registry, default_golden = _parity_registry(args)
    try:
        payload = load_golden(args.golden or default_golden)
    except GoldenError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # Always evaluate at the scale the golden was blessed at — drift
    # verdicts are meaningless across scales.
    suite = golden_suite(payload)
    measured = evaluate(suite, workers=args.jobs, registry=registry,
                        progress=None if args.quiet else _parity_progress)
    verdicts = compare(measured, payload, registry=registry)
    report = render_report(verdicts, suite,
                           title="Scenario drift report"
                           if getattr(args, "scenarios", False)
                           else "Parity drift report")
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"drift report written to {args.report}")
    rc = worst_status(verdicts, strict=args.strict)
    if rc:
        print("parity gate FAILED", file=sys.stderr)
    return rc


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Perf gate: fresh sweep events/s versus the committed baseline."""
    from repro.parity import (
        GoldenError, compare_bench, load_bench_baseline, load_bench_record,
    )

    try:
        fresh = load_bench_record(args.bench)
        baseline = load_bench_baseline(args.golden)
        verdict = compare_bench(fresh, baseline,
                                warn=args.warn, fail=args.fail)
    except (GoldenError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(verdict.summary())
    if verdict.status == "fail":
        return 1
    if verdict.status == "warn" and args.strict:
        return 1
    return 0


def cmd_bench_bless(args: argparse.Namespace) -> int:
    """Commit a sweep record as the new perf baseline (intentional)."""
    from repro.parity import GoldenError, bless_bench, load_bench_record

    try:
        record = load_bench_record(args.bench)
        out = bless_bench(record, args.golden, force=args.force)
    except GoldenError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"perf baseline blessed -> {out}")
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Measure dispatch-loop throughput; optional ratio gate."""
    from repro.exec.perf import kernel_bench_record, write_bench
    from repro.parity import GoldenError, load_bench_baseline, record_events_per_s

    baseline_eps = None
    if args.golden:
        try:
            baseline_eps = record_events_per_s(
                load_bench_baseline(args.golden), args.golden)
        except GoldenError as e:
            if args.min_ratio is not None:
                print(f"error: {e}", file=sys.stderr)
                return 2
            print(f"note: no usable baseline ({e}); ratios omitted",
                  file=sys.stderr)
    progress = (None if args.quiet
                else (lambda msg: print(f"  {msg}", file=sys.stderr)))
    record = kernel_bench_record(
        ops=args.ops, seed=args.seed, repeats=args.repeats,
        baseline_eps=baseline_eps, progress=progress)
    ratio = record["ratio_vs_baseline"]
    print(format_table(
        ["events", "wall s", "events/s", "vs baseline"],
        [[f"{record['events']:,}", f"{record['wall_s']:.2f}",
          f"{record['events_per_s']:,.0f}",
          "-" if ratio is None else f"{ratio:.2f}x"]]))
    out = write_bench(record, args.out, force=args.force)
    print(f"kernel benchmark written to {out}")
    if args.min_ratio is not None:
        if ratio is None or ratio < args.min_ratio:
            print(f"PERF GATE FAILED: {ratio if ratio is not None else 'n/a'}x "
                  f"vs blessed baseline; need >= {args.min_ratio}x",
                  file=sys.stderr)
            return 1
        print(f"perf gate passed: {ratio:.2f}x >= {args.min_ratio}x baseline")
    return 0


def cmd_fuzz_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz.harness import FuzzRunner

    log = ((lambda msg: None) if args.quiet
           else (lambda msg: print(msg, file=sys.stderr)))
    runner = FuzzRunner(
        trials=args.trials, seed=args.seed,
        oracles=_parse_list(args.oracles) if args.oracles else None,
        workers=args.jobs, time_budget_s=args.time_budget,
        shrink_failures=not args.no_shrink,
        max_shrink_probes=args.max_shrink_probes,
        corpus_dir=Path(args.corpus) if args.corpus else None,
        log=log,
    )
    report = runner.run()
    status = "CLEAN" if report.ok else "FAILURES"
    print(f"fuzz {status}: {report.checks_passed}/{report.checks_run} checks "
          f"passed over {report.trials} cases in {report.elapsed_s:.1f}s"
          + (" (time budget hit)" if report.time_exhausted else ""))
    for f in report.failures:
        rc = f.shrunk.case if f.shrunk else f.case
        print(f"  FAIL {f.oracle}: {rc.label()}")
        print(f"       {f.shrunk.detail if f.shrunk else f.detail}")
        if f.corpus_path:
            print(f"       reproducer: {f.corpus_path}")
    for e in report.errors:
        print(f"  ERROR {e}")
    return 0 if report.ok else 1


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz.corpus import load_corpus, replay_entry

    corpus_dir = Path(args.corpus) if args.corpus else None
    entries = list(load_corpus(corpus_dir))
    if args.only:
        wanted = set(_parse_list(args.only))
        entries = [e for e in entries if e.name in wanted]
    if not entries:
        print("no corpus entries to replay")
        return 0
    failed = 0
    for entry in entries:
        detail = replay_entry(entry)
        tag = "ok  " if detail is None else "FAIL"
        print(f"  {tag} {entry.name} [{entry.oracle}] {entry.case.label()}")
        if detail is not None:
            failed += 1
            print(f"       {detail}")
    print(f"replayed {len(entries)} entries, {failed} regression(s)")
    return 1 if failed else 0


def cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.fuzz.corpus import load_entry, save_entry
    from repro.fuzz.gen import FuzzCase
    from repro.fuzz.shrink import shrink

    src = Path(args.case)
    if src.exists():
        try:
            entry = load_entry(src)
            case, oracle = entry.case, args.oracle or entry.oracle
        except ValueError:
            case = FuzzCase.from_json(src.read_text(encoding="utf-8"))
            oracle = args.oracle
    else:
        case = FuzzCase.from_json(args.case)
        oracle = args.oracle
    if not oracle:
        print("error: --oracle is required unless the file is a corpus entry",
              file=sys.stderr)
        return 2
    result = shrink(case, oracle, max_probes=args.max_probes,
                    log=lambda msg: print(msg, file=sys.stderr))
    if result is None:
        print(f"case does not fail oracle {oracle!r}; nothing to shrink")
        return 1
    print(f"minimized after {result.probes} probes "
          f"(-{result.removed_overrides} overrides, "
          f"ops {result.ops_before} -> {result.case.ops}):")
    print(_json.dumps(result.case.to_dict(), indent=2, sort_keys=True))
    print(f"still fails: {result.detail}")
    if args.save:
        path = save_entry(result.case, oracle, note=result.detail,
                          corpus_dir=Path(args.corpus) if args.corpus else None)
        print(f"saved reproducer: {path}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    loads = [float(x) for x in _parse_list(args.loads)]
    pts = load_latency_curve(loads, n_requests=args.requests)
    rows = [[f"{p.target_utilization:.0%}", f"{p.achieved_utilization:.0%}",
             p.mean_latency, p.p50_latency, p.p90_latency, p.p99_latency]
            for p in pts]
    print(format_table(["load", "achieved", "mean", "p50", "p90", "p99"], rows))
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    print("bandwidth per pin (normalized to PCIe-1.0):")
    for name, v in bandwidth_per_pin_table().items():
        print(f"  {name:12s} {v:8.2f}")
    print()
    rows = [[r["design"], r["cores"], r["llc_per_core_mb"], r["ddr_channels"],
             r["cxl_channels"], r["relative_bw"], r["relative_area"]]
            for r in server_design_table()]
    print(format_table(
        ["design", "cores", "LLC/core MB", "DDR", "CXL", "rel BW", "rel area"],
        rows))
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    base_p = system_power("DDR-based", 12, 0, 288, args.base_util)
    coax_p = system_power("COAXIAL", 48, 384, 144, args.coax_util)
    base_e = energy_report(base_p, args.base_cpi)
    coax_e = energy_report(coax_p, args.coax_cpi)
    rows = [[e.name, e.power_w, e.cpi, e.edp, e.ed2p,
             1000 * e.perf_per_watt] for e in (base_e, coax_e)]
    print(format_table(
        ["system", "power W", "CPI", "EDP", "ED^2P", "perf/W x1e3"], rows))
    print(f"EDP ratio {coax_e.edp / base_e.edp:.2f}, "
          f"ED^2P ratio {coax_e.ed2p / base_e.ed2p:.2f}")
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    rows = iso_capacity_comparison(capacity_gb=args.capacity)
    print(format_table(
        ["system", "channels", "DIMM GB", "DPC", "capacity GB",
         "rel cost", "cost/GB", "rel BW"],
        [[r["system"], r["channels"], r["dimm_gb"], r["dpc"],
          r["capacity_gb"], r["relative_cost"], r["cost_per_gb"],
          r["relative_bw"]] for r in rows]))
    return 0


def _add_device_args(sp: argparse.ArgumentParser) -> None:
    """Tiering / device-realism overrides shared by ``run`` and ``sweep``."""
    sp.add_argument("--tiering", default=None,
                    choices=["none"] + sorted(TIERING_PRESETS),
                    help="hot/cold page-placement preset between a local "
                         "DDR tier and the CXL tier ('none' = flat); "
                         "requires a CXL config")
    sp.add_argument("--device-profile", default=None,
                    choices=sorted(PROFILES),
                    help="per-device CXL latency profile (default: the "
                         "config's own; 'fixed' = the historical model)")
    sp.add_argument("--cxl-backend", default=None, choices=["ddr", "ssd"],
                    help="Type-3 capacity medium behind each CXL port")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="COAXIAL CXL-centric memory system simulator (SC'24 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list configurations and workloads"
    ).set_defaults(fn=cmd_list)

    pr = sub.add_parser("run", help="simulate one config x workload")
    pr.add_argument("--config", default="coaxial-4x", choices=list(ALL_CONFIGS))
    pr.add_argument("--workload", default="stream-copy")
    pr.add_argument("--ops", type=int, default=None,
                    help="memory ops per core (default: workload default)")
    pr.add_argument("--seed", type=int, default=1)
    pr.add_argument("--calm", default=None,
                    help="override CALM policy (never/calm_70/mapi/ideal)")
    pr.add_argument("--active-cores", type=int, default=None)
    pr.add_argument("--validate", default=None,
                    choices=["off", "on", "strict"],
                    help="request-lifecycle invariant auditing "
                         "(default: $REPRO_VALIDATE)")
    pr.add_argument("--obs", default=None, metavar="PATH",
                    help="export run metrics to PATH (.jsonl/.csv/.prom); "
                         "render with 'repro obs report PATH'")
    pr.add_argument("--obs-mode", default="profile",
                    choices=["on", "profile"],
                    help="what --obs collects: metrics+series ('on') or "
                         "additionally the kernel profile (default)")
    pr.add_argument("--tracing", default=None, choices=["on", "kernel"],
                    help="per-request causal span tracing (zero-perturbation; "
                         "'kernel' also counts fired events per callback)")
    pr.add_argument("--trace-out", default=None, metavar="PATH",
                    help="export the span trace to PATH (.json = Perfetto "
                         "trace_event, .jsonl = span lines); implies "
                         "--tracing on")
    _add_device_args(pr)
    pr.set_defaults(fn=cmd_run)

    pt = sub.add_parser(
        "trace", help="run one simulation under invariant audit and export "
                      "the per-request timeline trace")
    pt.add_argument("--config", default="coaxial-4x", choices=list(ALL_CONFIGS))
    pt.add_argument("--workload", default="stream-copy")
    pt.add_argument("--ops", type=int, default=None,
                    help="memory ops per core (default: workload default)")
    pt.add_argument("--seed", type=int, default=1)
    pt.add_argument("--out", default="trace.jsonl",
                    help="output path (default: trace.jsonl)")
    pt.add_argument("--format", default=None, choices=["jsonl", "npy"],
                    help="export format (default: by --out suffix)")
    pt.add_argument("--capacity", type=int, default=4096,
                    help="trace ring-buffer size (most recent N requests)")
    pt.add_argument("--strict", action="store_true",
                    help="raise on the first invariant violation")
    pt.set_defaults(fn=cmd_trace)
    ptsub = pt.add_subparsers(dest="trace_command",
                              metavar="{view,critpath}")
    ptv = ptsub.add_parser(
        "view", help="summarize an exported span trace "
                     "(Perfetto .json or span .jsonl)")
    ptv.add_argument("file", help="trace written by 'repro run --trace-out' "
                                  "or a fleet worker's --trace-dir")
    ptv.add_argument("--top", type=int, default=5,
                     help="slowest requests to list (default 5)")
    ptv.set_defaults(fn=cmd_trace_view)
    ptc = ptsub.add_parser(
        "critpath", help="per-request critical-path blocking chains")
    ptc.add_argument("file", help="trace written by 'repro run --trace-out' "
                                  "or a fleet worker's --trace-dir")
    ptc.add_argument("--top", type=int, default=3,
                     help="slowest requests to expand (default 3)")
    ptc.add_argument("--req", type=int, default=None,
                     help="expand one specific request id instead")
    ptc.set_defaults(fn=cmd_trace_critpath)

    pc = sub.add_parser("compare", help="speedup of configs over a baseline")
    pc.add_argument("--workloads", default="stream-copy,PageRank,gcc")
    pc.add_argument("--configs", default="coaxial-4x")
    pc.add_argument("--baseline", default="ddr-baseline",
                    choices=list(ALL_CONFIGS))
    pc.add_argument("--ops", type=int, default=None)
    pc.add_argument("--seed", type=int, default=1)
    pc.set_defaults(fn=cmd_compare)

    ps = sub.add_parser(
        "sweep", help="parallel grid sweep with on-disk result caching")
    ps.add_argument("--configs", default="ddr-baseline,coaxial-4x",
                    help="comma list of config names")
    ps.add_argument("--workloads", default="representative",
                    help="comma list, or 'representative' / 'all'")
    ps.add_argument("--ops", type=int, default=None,
                    help="memory ops per core (default: workload default)")
    ps.add_argument("--seeds", default="1", help="comma list of seeds")
    ps.add_argument("--jobs", type=int, default=None,
                    help="pool workers (default: REPRO_JOBS or CPU count)")
    ps.add_argument("--timeout", type=float, default=None,
                    help="per-job wait timeout in seconds")
    ps.add_argument("--retries", type=int, default=1,
                    help="extra attempts per failed/timed-out job")
    ps.add_argument("--no-cache", action="store_true",
                    help="skip the on-disk result cache")
    ps.add_argument("--cache-dir", default=None,
                    help="cache root (default: REPRO_CACHE_DIR or ~/.cache/repro)")
    ps.add_argument("--clear-cache", action="store_true",
                    help="drop cached results before running")
    ps.add_argument("--bench-out", default="BENCH_sweep.json",
                    help="where to write the benchmark record")
    ps.add_argument("--force", action="store_true",
                    help="allow overwriting a committed perf baseline")
    ps.add_argument("--quiet", action="store_true",
                    help="suppress the per-job progress ticker")
    ps.add_argument("--validate", default=None,
                    choices=["off", "on", "strict"],
                    help="invariant auditing per job (cache hits skip it)")
    ps.add_argument("--obs", default=None, choices=["off", "on", "profile"],
                    help="per-job observability; enables the fleet metric "
                         "rollup in the benchmark record (cache hits skip it)")
    ps.add_argument("--tracing", default=None,
                    choices=["off", "on", "kernel"],
                    help="per-job causal span tracing (cache hits carry "
                         "no trace payload)")
    _add_device_args(ps)
    ps.set_defaults(fn=cmd_sweep)

    pe = sub.add_parser(
        "serve", help="async simulation job server (HTTP + /metrics)")
    pe.add_argument("--host", default="127.0.0.1")
    pe.add_argument("--port", type=int, default=8723,
                    help="listen port (0 = ephemeral; default 8723)")
    pe.add_argument("--pool-workers", type=int, default=None,
                    help="process-pool size per active job "
                         "(default: REPRO_JOBS or CPU count)")
    pe.add_argument("--max-active", type=int, default=1,
                    help="concurrent running jobs (each owns a pool)")
    pe.add_argument("--job-timeout", type=float, default=300.0,
                    help="per-task deadline in seconds, from submission "
                         "(default 300; hung workers are replaced)")
    pe.add_argument("--retries", type=int, default=1,
                    help="extra attempts per failed/timed-out task")
    pe.add_argument("--max-queue", type=int, default=256,
                    help="queued-job cap across all tenants")
    pe.add_argument("--tenant-quota", type=int, default=8,
                    help="per-tenant cap on queued+running jobs")
    pe.add_argument("--no-cache", action="store_true",
                    help="skip the shared on-disk result cache")
    pe.add_argument("--cache-dir", default=None,
                    help="cache root (default: REPRO_CACHE_DIR or "
                         "~/.cache/repro)")
    pe.add_argument("--drain", type=float, default=30.0,
                    help="seconds to wait for active jobs on shutdown")
    pe.set_defaults(fn=cmd_serve)

    pfl = sub.add_parser(
        "fleet", help="distributed sweep fleet: broker / worker / sweep")
    flsub = pfl.add_subparsers(dest="fleet_command", required=True)

    pflb = flsub.add_parser(
        "broker", help="work-queue broker leasing tasks to fleet workers")
    pflb.add_argument("--host", default="127.0.0.1")
    pflb.add_argument("--port", type=int, default=8724,
                      help="listen port (0 = ephemeral; default 8724)")
    pflb.add_argument("--lease", type=float, default=60.0,
                      help="lease seconds before an unsettled task is "
                           "requeued (workers heartbeat at lease/3)")
    pflb.add_argument("--retries", type=int, default=2,
                      help="extra lease attempts before a task fails")
    pflb.add_argument("--no-cache", action="store_true",
                      help="skip the shared on-disk result cache")
    pflb.add_argument("--cache-dir", default=None,
                      help="cache root (default: REPRO_CACHE_DIR or "
                           "~/.cache/repro)")
    pflb.set_defaults(fn=cmd_fleet_broker)

    pflw = flsub.add_parser(
        "worker", help="lease/simulate/settle loop against a broker")
    pflw.add_argument("--broker", default="http://127.0.0.1:8724",
                      help="broker URL")
    pflw.add_argument("--id", default=None,
                      help="worker identity (default: hostname-pid)")
    pflw.add_argument("--poll", type=float, default=0.5,
                      help="seconds between empty lease polls")
    pflw.add_argument("--max-tasks", type=int, default=1,
                      help="tasks requested per lease call")
    pflw.add_argument("--keep-alive", action="store_true",
                      help="keep polling after the broker drains "
                           "(default: exit on drain)")
    pflw.add_argument("--no-cache", action="store_true",
                      help="skip the local/shared result cache")
    pflw.add_argument("--cache-dir", default=None,
                      help="cache root (default: REPRO_CACHE_DIR or "
                           "~/.cache/repro)")
    pflw.add_argument("--trace-dir", default=None,
                      help="export each freshly traced task's spans as "
                           "Perfetto JSON into this directory")
    pflw.set_defaults(fn=cmd_fleet_worker)

    pfls = flsub.add_parser(
        "sweep", help="submit a sweep grid to a broker, wait, merge results")
    pfls.add_argument("--broker", default="http://127.0.0.1:8724",
                      help="broker URL")
    pfls.add_argument("--configs", default="ddr-baseline,coaxial-4x",
                      help="comma list of config names")
    pfls.add_argument("--workloads", default="representative",
                      help="comma list, or 'representative' / 'all'")
    pfls.add_argument("--ops", type=int, default=None,
                      help="memory ops per core (default: workload default)")
    pfls.add_argument("--seeds", default="1", help="comma list of seeds")
    pfls.add_argument("--timeout", type=float, default=600.0,
                      help="seconds to wait for the whole grid to settle")
    pfls.add_argument("--bench-out", default="BENCH_fleet.json",
                      help="where to write the benchmark record")
    pfls.add_argument("--force", action="store_true",
                      help="allow overwriting a committed perf baseline")
    pfls.add_argument("--drain", action="store_true",
                      help="tell the broker to drain after results arrive "
                           "(oneshot workers then exit)")
    pfls.add_argument("--quiet", action="store_true",
                      help="suppress the settle progress ticker")
    pfls.add_argument("--validate", default=None,
                      choices=["off", "on", "strict"],
                      help="invariant auditing per job")
    pfls.add_argument("--tracing", default=None,
                      choices=["off", "on", "kernel"],
                      help="per-job causal span tracing; mints one trace id "
                           "for the grid and stamps every task with it")
    pfls.add_argument("--obs", default=None, choices=["off", "on", "profile"],
                      help="per-job observability; enables exact fleet "
                           "quantile merging in the benchmark record")
    pfls.set_defaults(fn=cmd_fleet_sweep)

    pca = sub.add_parser(
        "campaign", help="successive-halving config search (pool or fleet)")
    pca.add_argument("--base", default="coaxial-4x",
                     help="base config the search perturbs")
    pca.add_argument("--search", required=True,
                     help="knob values, e.g. "
                          "'calm_policy=calm_50,calm_90;cxl=x8,asym'")
    pca.add_argument("--workloads", default="representative",
                     help="comma list, or 'representative'")
    pca.add_argument("--objective", default="ipc",
                     choices=["ipc", "miss_latency", "speedup"],
                     help="score to optimize (speedup is vs the unmodified "
                          "base config at the same rung budget)")
    pca.add_argument("--ops0", type=int, default=500,
                     help="ops budget of the first rung")
    pca.add_argument("--eta", type=int, default=3,
                     help="halving factor: keep top 1/eta, multiply ops by eta")
    pca.add_argument("--rungs", type=int, default=4,
                     help="maximum number of rungs")
    pca.add_argument("--seed", type=int, default=1)
    pca.add_argument("--obs", default=None, choices=["off", "on", "profile"])
    pca.add_argument("--broker", default=None,
                     help="run rungs on this fleet broker URL instead of "
                          "the local process pool")
    pca.add_argument("--jobs", type=int, default=None,
                     help="local pool workers when no --broker is given")
    pca.add_argument("--timeout", type=float, default=1800.0,
                     help="per-rung settle timeout in seconds")
    pca.add_argument("--out", default=None,
                     help="write the campaign report JSON here")
    pca.set_defaults(fn=cmd_campaign)

    po = sub.add_parser(
        "obs", help="observability: render exported metrics files")
    osub = po.add_subparsers(dest="obs_command", required=True)
    por = osub.add_parser(
        "report", help="render a metrics .jsonl as a terminal run report")
    por.add_argument("file", help="metrics JSONL written by 'repro run --obs'")
    por.add_argument("--top", type=int, default=12,
                     help="profile rows to show (default 12)")
    por.set_defaults(fn=cmd_obs_report)

    pp = sub.add_parser(
        "parity", help="paper-parity golden metrics: run / compare / bless")
    psub = pp.add_subparsers(dest="parity_command", required=True)

    def _add_parity_suite_args(sp, with_suite=True):
        if with_suite:
            sp.add_argument("--workloads", default="default",
                            help="comma list, or 'default' (the registry suite)")
            sp.add_argument("--ops", type=int, default=None,
                            help="memory ops per core (default: registry scale)")
            sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--scenarios", action="store_true",
                        help="use the tiering/device-realism scenario "
                             "registry and golden (goldens/scenarios.json) "
                             "instead of the paper registry")
        sp.add_argument("--jobs", type=int, default=1,
                        help="process-pool workers for uncached runs")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress per-config progress on stderr")

    ppr = psub.add_parser(
        "run", help="measure every registry metric (sanity-band gate only)")
    _add_parity_suite_args(ppr)
    ppr.add_argument("--json", default=None,
                     help="also dump measured values as JSON to this path")
    ppr.set_defaults(fn=cmd_parity_run)

    ppc = psub.add_parser(
        "compare", help="gate a fresh evaluation against the committed golden")
    _add_parity_suite_args(ppc, with_suite=False)
    ppc.add_argument("--golden", default=None,
                     help="golden file (default: goldens/parity.json, or "
                          "goldens/scenarios.json with --scenarios)")
    ppc.add_argument("--strict", action="store_true",
                     help="treat warn/new/stale verdicts as failures")
    ppc.add_argument("--report", default=None,
                     help="write the markdown drift report to this path")
    ppc.set_defaults(fn=cmd_parity_compare)

    ppb = psub.add_parser(
        "bless", help="regenerate the golden file (intentional recalibration)")
    _add_parity_suite_args(ppb)
    ppb.add_argument("--golden", default=None,
                     help="golden file (default: goldens/parity.json, or "
                          "goldens/scenarios.json with --scenarios)")
    ppb.set_defaults(fn=cmd_parity_bless)

    pb = sub.add_parser(
        "bench", help="events-per-second perf gate: run / compare / bless")
    bsub = pb.add_subparsers(dest="bench_command", required=True)

    pbr = bsub.add_parser(
        "run", help="measure dispatch-loop throughput (cache-free, in-process)")
    pbr.add_argument("--ops", type=int, default=800,
                     help="memory ops per core per job (default 800)")
    pbr.add_argument("--seed", type=int, default=1)
    pbr.add_argument("--repeats", type=int, default=3,
                     help="measurement repeats; best aggregate kept")
    pbr.add_argument("--golden", default="goldens/bench.json",
                     help="blessed baseline for the vs-baseline ratio "
                          "('' to skip)")
    pbr.add_argument("--out", default="BENCH_kernel.json",
                     help="where to write the throughput record")
    pbr.add_argument("--force", action="store_true",
                     help="allow overwriting a committed perf baseline")
    pbr.add_argument("--min-ratio", type=float, default=None,
                     help="fail unless events/s reaches this multiple of "
                          "the blessed baseline")
    pbr.add_argument("--quiet", action="store_true",
                     help="suppress per-repeat progress on stderr")
    pbr.set_defaults(fn=cmd_bench_run)

    pbc = bsub.add_parser(
        "compare", help="gate a fresh BENCH_sweep.json against the baseline")
    pbc.add_argument("--bench", default="BENCH_sweep.json",
                     help="fresh sweep record to grade")
    pbc.add_argument("--golden", default="goldens/bench.json",
                     help="committed perf baseline")
    pbc.add_argument("--warn", type=float, default=0.20,
                     help="slowdown warn band (default 20%%)")
    pbc.add_argument("--fail", type=float, default=0.35,
                     help="slowdown fail band (default 35%%)")
    pbc.add_argument("--strict", action="store_true",
                     help="treat a warn-band slowdown as failure")
    pbc.set_defaults(fn=cmd_bench_compare)

    pbb = bsub.add_parser(
        "bless", help="commit a sweep record as the new perf baseline")
    pbb.add_argument("--bench", default="BENCH_sweep.json")
    pbb.add_argument("--golden", default="goldens/bench.json")
    pbb.add_argument("--force", action="store_true",
                     help="overwrite an existing committed baseline")
    pbb.set_defaults(fn=cmd_bench_bless)

    pf = sub.add_parser(
        "fuzz", help="randomized differential/metamorphic fuzzer: run / replay / shrink")
    fsub = pf.add_subparsers(dest="fuzz_command", required=True)

    pfr = fsub.add_parser(
        "run", help="fuzz random configs against the oracle suite")
    pfr.add_argument("--trials", type=int, default=50,
                     help="random (config, workload) cases to generate")
    pfr.add_argument("--seed", type=int, default=0,
                     help="master seed; same seed => same campaign")
    pfr.add_argument("--oracles", default=None,
                     help="comma list of oracle names (default: all applicable)")
    pfr.add_argument("--jobs", type=int, default=None,
                     help="process-pool workers (1 = inline; default REPRO_JOBS/CPUs)")
    pfr.add_argument("--time-budget", type=float, default=None,
                     help="stop submitting new checks after this many seconds")
    pfr.add_argument("--no-shrink", action="store_true",
                     help="report failures without minimizing them")
    pfr.add_argument("--max-shrink-probes", type=int, default=48,
                     help="oracle runs the shrinker may spend per failure")
    pfr.add_argument("--corpus", default=None,
                     help="directory for shrunk reproducers (default tests/corpus)")
    pfr.add_argument("--quiet", action="store_true",
                     help="suppress per-check progress on stderr")
    pfr.set_defaults(fn=cmd_fuzz_run)

    pfp = fsub.add_parser(
        "replay", help="re-run every committed corpus reproducer")
    pfp.add_argument("--corpus", default=None,
                     help="corpus directory (default tests/corpus)")
    pfp.add_argument("--only", default=None,
                     help="comma list of entry names to replay")
    pfp.set_defaults(fn=cmd_fuzz_replay)

    pfs = fsub.add_parser(
        "shrink", help="minimize one failing case (corpus entry, case JSON file, or literal)")
    pfs.add_argument("case", help="corpus entry path, FuzzCase JSON file, or JSON literal")
    pfs.add_argument("--oracle", default=None,
                     help="oracle name (inferred from a corpus entry)")
    pfs.add_argument("--max-probes", type=int, default=48)
    pfs.add_argument("--save", action="store_true",
                     help="write the minimized case to the corpus")
    pfs.add_argument("--corpus", default=None,
                     help="corpus directory for --save (default tests/corpus)")
    pfs.set_defaults(fn=cmd_fuzz_shrink)

    pv = sub.add_parser("curve", help="DDR load-latency curve (Fig 2a)")
    pv.add_argument("--loads", default="0.1,0.3,0.5,0.6")
    pv.add_argument("--requests", type=int, default=2500)
    pv.set_defaults(fn=cmd_curve)

    sub.add_parser(
        "area", help="pin/area tables (Fig 1, Tables I-II)"
    ).set_defaults(fn=cmd_area)

    pw = sub.add_parser("power", help="power/EDP comparison (Table V)")
    pw.add_argument("--base-cpi", type=float, default=2.05)
    pw.add_argument("--coax-cpi", type=float, default=1.48)
    pw.add_argument("--base-util", type=float, default=0.54)
    pw.add_argument("--coax-util", type=float, default=0.34)
    pw.set_defaults(fn=cmd_power)

    pk = sub.add_parser("cost", help="iso-capacity cost comparison (Sec IV-E)")
    pk.add_argument("--capacity", type=int, default=3072)
    pk.set_defaults(fn=cmd_cost)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
