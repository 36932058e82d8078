"""End-to-end smoke test for the ``repro serve`` daemon.

Boots a real server subprocess and drives the acceptance path over
actual sockets:

1. two concurrent clients submit sweep jobs; a resubmission of an
   already-computed grid settles entirely from the shared result cache
   (``cached_tasks == total_tasks``, no pool work);
2. a job whose simulation cannot finish inside ``--job-timeout`` is
   reported ``timed_out`` while the server keeps serving new jobs;
3. ``/metrics`` scrapes as valid Prometheus text with the expected
   counters;
4. SIGTERM drains the server and it exits 0 inside the budget.

Run directly: ``PYTHONPATH=src python benchmarks/serve_smoke.py``.
Exit code 0 on success. CI runs this as the ``serve-smoke`` job.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

HOST = "127.0.0.1"
JOB_TIMEOUT_S = 8.0          # covers pool spawn + small sims on a loaded
                             # 1-core CI box; the hung job needs ~40s
HUNG_OPS = 50_000            # ~40s of simulation: cannot beat the deadline
FAST_OPS = 300
BOOT_BUDGET_S = 30
EXIT_BUDGET_S = 30


def free_port():
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload)
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, data


def rjson(port, method, path, body=None):
    status, data = request(port, method, path, body)
    return status, json.loads(data)


def submit(port, spec, expect=202):
    status, payload = rjson(port, "POST", "/jobs", spec)
    assert status == expect, (status, payload)
    return payload["job"]


def wait_job(port, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, payload = rjson(port, "GET", f"/jobs/{job_id}")
        assert status == 200, payload
        job = payload["job"]
        if job["state"] not in ("queued", "running"):
            return job
        time.sleep(0.2)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


def wait_for_boot(port, proc):
    deadline = time.time() + BOOT_BUDGET_S
    while time.time() < deadline:
        if proc.poll() is not None:
            raise AssertionError(f"server died at boot: rc={proc.returncode}")
        try:
            status, payload = rjson(port, "GET", "/healthz")
            if status == 200 and payload["status"] == "ok":
                return
        except OSError:
            pass
        time.sleep(0.2)
    raise AssertionError(f"server not up within {BOOT_BUDGET_S}s")


def metric(parsed, name):
    (value,) = [v for n, _, v in parsed[name]["samples"] if n == name]
    return value


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.obs.export import parse_prometheus

    port = free_port()
    cache_dir = os.path.join(os.path.dirname(__file__), "..",
                             f".serve-smoke-cache-{port}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", HOST,
         "--port", str(port), "--pool-workers", "2",
         "--job-timeout", str(JOB_TIMEOUT_S), "--retries", "0",
         "--cache-dir", cache_dir],
        env=env)
    try:
        wait_for_boot(port, proc)
        print(f"serve-smoke: server up on :{port}")

        # -- 1. two concurrent clients; duplicates settle from cache -----
        grid_a = {"configs": "ddr-baseline", "workloads": "mcf",
                  "ops": FAST_OPS, "seeds": [1, 2], "tenant": "alice"}
        grid_b = {"configs": "coaxial-4x", "workloads": "mcf",
                  "ops": FAST_OPS, "seeds": [1], "tenant": "bob"}
        done, lock = {}, threading.Lock()

        def client(name, spec):
            job = submit(port, spec)
            final = wait_job(port, job["id"])
            with lock:
                done[name] = final

        threads = [threading.Thread(target=client, args=("a", grid_a)),
                   threading.Thread(target=client, args=("b", grid_b))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "client thread stuck"
        assert done["a"]["state"] == "done", done["a"]
        assert done["b"]["state"] == "done", done["b"]
        assert done["a"]["cached_tasks"] == 0, done["a"]

        dup = wait_job(port, submit(port, grid_a)["id"])
        assert dup["state"] == "done", dup
        assert dup["cached_tasks"] == dup["total_tasks"] == 2, dup
        print("serve-smoke: concurrent submit ok, resubmission fully cached")

        # -- 2. a hung job times out; the server keeps serving -----------
        hung = submit(port, {"configs": "ddr-baseline", "workloads": "mcf",
                             "ops": HUNG_OPS, "tenant": "carol"})
        final = wait_job(port, hung["id"])
        assert final["state"] == "timed_out", final
        assert final["timed_out_tasks"] == 1, final
        after = wait_job(port, submit(port, grid_b)["id"])
        assert after["state"] == "done", after
        print("serve-smoke: hung job timed out, server still serving")

        # -- 3. /metrics round-trips through the Prometheus parser -------
        status, text = request(port, "GET", "/metrics")
        assert status == 200
        parsed = parse_prometheus(text.decode())
        assert metric(parsed, "repro_serve_jobs_accepted_total") == 5
        assert metric(parsed, "repro_serve_jobs_timed_out_total") == 1
        assert metric(parsed, "repro_serve_tasks_cached_total") >= 3
        assert metric(parsed, "repro_serve_queue_depth") == 0
        print("serve-smoke: /metrics ok "
              f"({len(parsed)} metric families)")

        # -- 4. SIGTERM drains and exits 0 within budget ------------------
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=EXIT_BUDGET_S)
        assert rc == 0, f"server exited {rc} on SIGTERM"
        print("serve-smoke: clean SIGTERM exit (rc=0) -- PASS")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        import shutil
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
