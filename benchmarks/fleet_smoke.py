"""End-to-end smoke test for the ``repro.fleet`` distributed sweep fleet.

Boots a real broker subprocess plus two worker subprocesses and drives
the acceptance path over actual sockets:

1. a 2-worker fleet sweep of the smoke grid produces merged SimResults
   **bit-identical** to a single-pool ``repro sweep`` of the same grid
   (separate cache directories, so both legs really simulate), and the
   fleet's exactly-merged miss-latency quantiles equal the pool's; the
   same comparison then runs through the CLI, ``repro sweep --broker``
   against a local ``repro sweep`` with a fresh cache, on their BENCH
   records' job rows and merged ``fleet.miss_latency_ns``;
2. one worker is SIGKILLed mid-run (short leases, no heartbeats
   surviving death) and the fleet still completes every task via lease
   expiry and requeue — ``requeues > 0`` is asserted on the broker;
3. a small successive-halving campaign runs over the same broker and
   picks a winner;
4. drain flags oneshot workers to exit 0, and SIGTERM stops the broker
   cleanly; ``BENCH_fleet.json`` is written for the CI artifact.

Run directly: ``PYTHONPATH=src python benchmarks/fleet_smoke.py``.
Exit code 0 on success. CI runs this as the ``fleet-smoke`` job.
"""

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

HOST = "127.0.0.1"
BOOT_BUDGET_S = 30
EXIT_BUDGET_S = 30
SETTLE_BUDGET_S = 300
GRID_CONFIGS = ["ddr-baseline", "coaxial-4x"]
GRID_WORKLOADS = ["mcf", "stream-copy", "gcc"]
GRID_OPS = 800
CLI_OPS = 600                # a fresh op count: the CLI legs simulate too
KILL_LEASE_S = 2.0           # short leases so a killed worker requeues fast
BENCH_OUT = "BENCH_fleet.json"

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")


def free_port():
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def rjson(port, method, path, body=None):
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload)
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, json.loads(data) if data else {}


def wait_for_boot(port, proc):
    deadline = time.time() + BOOT_BUDGET_S
    while time.time() < deadline:
        if proc.poll() is not None:
            raise AssertionError(f"broker died at boot: rc={proc.returncode}")
        try:
            status, payload = rjson(port, "GET", "/healthz")
            if status == 200 and payload["status"] == "ok":
                return
        except OSError:
            pass
        time.sleep(0.2)
    raise AssertionError(f"broker not up within {BOOT_BUDGET_S}s")


def start_broker(env, lease_s, cache_dir):
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "broker", "--host", HOST,
         "--port", str(port), "--lease", str(lease_s),
         "--cache-dir", cache_dir], env=env)
    wait_for_boot(port, proc)
    return port, proc


def start_worker(env, port, worker_id, cache_dir):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "worker",
         "--broker", f"http://{HOST}:{port}", "--id", worker_id,
         "--poll", "0.1", "--cache-dir", cache_dir], env=env)


def wait_settled(port, ids, budget_s=SETTLE_BUDGET_S):
    wanted = set(ids)
    deadline = time.time() + budget_s
    while time.time() < deadline:
        status, payload = rjson(port, "GET", "/tasks")
        assert status == 200, payload
        tasks = [t for t in payload["tasks"] if t["id"] in wanted]
        if all(t["state"] in ("done", "failed") for t in tasks):
            return tasks
        time.sleep(0.2)
    raise AssertionError(f"tasks not settled within {budget_s}s")


def cli_sweep(env, extra, bench_out):
    """One ``repro sweep`` subprocess over the CLI grid; its BENCH record."""
    subprocess.run(
        [sys.executable, "-m", "repro", "sweep",
         "--configs", ",".join(GRID_CONFIGS),
         "--workloads", ",".join(GRID_WORKLOADS), "--ops", str(CLI_OPS),
         "--obs", "on", "--quiet", "--bench-out", bench_out] + extra,
        env=env, check=True, timeout=SETTLE_BUDGET_S)
    with open(bench_out, encoding="utf-8") as fh:
        return json.load(fh)


def job_rows(record):
    return [(j["config"], j["workload"], j["seed"], j["ipc"], j["events"])
            for j in record["jobs"]]


def stop_all(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def main():
    sys.path.insert(0, SRC)
    from repro.exec.runner import LocalExecutor
    from repro.exec.spec import expand_specs
    from repro.fleet import FleetClient, run_campaign

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    fleet_cache = os.path.join(ROOT, f".fleet-smoke-cache-{os.getpid()}")
    pool_cache = os.path.join(ROOT, f".fleet-smoke-pool-{os.getpid()}")
    cli_cache = os.path.join(ROOT, f".fleet-smoke-cli-{os.getpid()}")
    cli_bench = os.path.join(ROOT, f".fleet-smoke-bench-{os.getpid()}")
    procs = []
    try:
        # -- 1. bit-identity: 2-worker fleet vs single-pool sweep ---------
        port, broker = start_broker(env, lease_s=30.0, cache_dir=fleet_cache)
        procs.append(broker)
        print(f"fleet-smoke: broker up on :{port}")
        workers = [start_worker(env, port, f"w{i}", fleet_cache)
                   for i in range(2)]
        procs.extend(workers)

        specs = expand_specs(GRID_CONFIGS, GRID_WORKLOADS, ops=GRID_OPS,
                             obs="on")
        client = FleetClient(f"http://{HOST}:{port}",
                             job_timeout_s=SETTLE_BUDGET_S)
        fleet_results = client.run(specs)
        # pool leg gets its own cache dir so it really simulates too
        from pathlib import Path

        from repro.exec.cache import ResultCache
        pool_results = LocalExecutor(
            workers=2, cache=ResultCache(root=Path(pool_cache))).run(specs)

        import dataclasses
        fleet_dicts = [dataclasses.asdict(r.result) for r in fleet_results]
        pool_dicts = [dataclasses.asdict(r.result) for r in pool_results]
        assert fleet_dicts == pool_dicts, (
            "fleet results differ from single-pool sweep")
        print(f"fleet-smoke: {len(specs)} task(s) bit-identical across "
              "2-worker fleet and single pool")

        from repro.exec.perf import fleet_summary
        fleet_ml = fleet_summary(fleet_results).get("miss_latency_ns")
        pool_ml = fleet_summary(pool_results).get("miss_latency_ns")
        assert fleet_ml and pool_ml and fleet_ml == pool_ml, (
            f"merged quantiles differ: {fleet_ml} vs {pool_ml}")
        print(f"fleet-smoke: merged miss-latency quantiles identical "
              f"(p99 {fleet_ml['p99']:.0f} ns over {fleet_ml['count']} misses)")

        from repro.exec.perf import bench_record, write_bench
        record = bench_record(fleet_results, 0.0, workers=2)
        record["fleet"]["broker"] = client.broker_url
        out = write_bench(record, os.path.join(ROOT, BENCH_OUT), force=True)
        print(f"fleet-smoke: benchmark record written to {out}")

        # The same identity through the CLI: `repro sweep --broker` on the
        # 2-worker fleet vs a local `repro sweep` with a fresh cache.
        os.makedirs(cli_bench, exist_ok=True)
        fleet_rec = cli_sweep(env, ["--broker", client.broker_url],
                              os.path.join(cli_bench, "fleet.json"))
        local_rec = cli_sweep(env, ["--jobs", "2", "--cache-dir", cli_cache],
                              os.path.join(cli_bench, "local.json"))
        assert job_rows(fleet_rec) == job_rows(local_rec), (
            f"repro sweep --broker rows differ from the local sweep:\n"
            f"{job_rows(fleet_rec)}\n{job_rows(local_rec)}")
        assert all(r[3] is not None for r in job_rows(fleet_rec))
        assert fleet_rec["summary"]["n_cached"] == 0, fleet_rec["summary"]
        assert local_rec["summary"]["n_cached"] == 0, local_rec["summary"]
        fleet_ml = fleet_rec["fleet"].get("miss_latency_ns")
        local_ml = local_rec["fleet"].get("miss_latency_ns")
        assert fleet_ml and fleet_ml == local_ml, (
            f"CLI merged quantiles differ: {fleet_ml} vs {local_ml}")
        assert fleet_rec["fleet"]["broker"] == client.broker_url
        assert fleet_rec["workers"] == 2, fleet_rec["workers"]
        print(f"fleet-smoke: repro sweep --broker matches a local repro "
              f"sweep on {len(job_rows(fleet_rec))} row(s) and merged "
              f"quantiles")

        # drain; oneshot workers must exit 0
        client.drain()
        for w in workers:
            rc = w.wait(timeout=EXIT_BUDGET_S)
            assert rc == 0, f"worker exited {rc} after drain"
        broker.send_signal(signal.SIGTERM)
        assert broker.wait(timeout=EXIT_BUDGET_S) == 0
        print("fleet-smoke: drain + SIGTERM clean (all rc=0)")

        # -- 2. kill a worker mid-run; leases expire and requeue ----------
        # Fresh broker with short leases and a fresh cache, so every task
        # really simulates and the victim dies holding a live lease.
        shutil.rmtree(fleet_cache, ignore_errors=True)
        port, broker = start_broker(env, lease_s=KILL_LEASE_S,
                                    cache_dir=fleet_cache)
        procs.append(broker)
        victim = start_worker(env, port, "victim", fleet_cache)
        procs.append(victim)
        client = FleetClient(f"http://{HOST}:{port}",
                             job_timeout_s=SETTLE_BUDGET_S)
        ids = client.submit(expand_specs(GRID_CONFIGS, ["mcf", "gcc"],
                                         ops=GRID_OPS))
        # wait until the victim holds a lease, then kill -9 mid-task
        deadline = time.time() + 30
        while time.time() < deadline:
            _, payload = rjson(port, "GET", "/tasks")
            if any(t["state"] == "leased" for t in payload["tasks"]):
                break
            time.sleep(0.05)
        else:
            raise AssertionError("victim never leased a task")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)
        print("fleet-smoke: victim worker killed mid-lease")

        survivor = start_worker(env, port, "survivor", fleet_cache)
        procs.append(survivor)
        tasks = wait_settled(port, ids)
        assert all(t["state"] == "done" for t in tasks), tasks
        requeues = sum(t["requeues"] for t in tasks)
        assert requeues > 0, f"expected a requeue after the kill: {tasks}"
        fleet_results2 = client.results(ids)
        assert all(r.result is not None for r in fleet_results2)
        print(f"fleet-smoke: all {len(ids)} task(s) done after kill "
              f"({requeues} requeue(s)) -- work-stealing ok")

        # -- 3. a small campaign over the same broker ---------------------
        res = run_campaign(
            client, "coaxial-4x", "calm_policy=calm_50,calm_90;cxl=x8,asym",
            ["mcf"], objective="ipc", ops0=300, eta=2, max_rungs=2)
        assert res.winner.base == "coaxial-4x", res.winner
        assert res.total_jobs >= 6, res.total_jobs
        print(f"fleet-smoke: campaign winner {res.winner.label()} "
              f"({res.total_jobs} job(s), {len(res.rungs)} rung(s))")

        # -- 4. drain and shut down ---------------------------------------
        client.drain()
        assert survivor.wait(timeout=EXIT_BUDGET_S) == 0
        broker.send_signal(signal.SIGTERM)
        assert broker.wait(timeout=EXIT_BUDGET_S) == 0
        print("fleet-smoke: clean shutdown (rc=0) -- PASS")
        return 0
    finally:
        stop_all(procs)
        shutil.rmtree(fleet_cache, ignore_errors=True)
        shutil.rmtree(pool_cache, ignore_errors=True)
        shutil.rmtree(cli_cache, ignore_errors=True)
        shutil.rmtree(cli_bench, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
