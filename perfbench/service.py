"""The ``job-service`` workload: a ``repro serve`` subprocess under a
closed loop of client connections.

Clients submit single-task jobs and wait on the streaming endpoint
``GET /jobs/{id}/events`` for the terminal event, so a measured latency
holds no poll interval. A client draws its job and submits it under one
lock, so the server sees submissions in sequence order: with one active
job at a time, FIFO dispatch and the cache looked up when a job runs, a
repeated point always settles from the result cache.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from jobs import Job

HERE = Path(__file__).resolve().parent

#: Client connections (one thread each): the closed loop's concurrency.
CLIENTS = 2
HTTP_TIMEOUT_S = 120.0
BOOT_TIMEOUT_S = 60.0
#: What a failed submission raises: it counts as a failed job.
ERRORS = (OSError, RuntimeError, ValueError, KeyError)
#: How often :func:`drive` polls while its clients run.
POLL_S = 0.02
#: A block is about 5 s of server work; one that takes this long has hung.
BLOCK_TIMEOUT_S = 60.0


def request(port: int, method: str, path: str,
            body: Optional[dict] = None) -> Tuple[int, dict]:
    """One JSON request on its own connection (the server closes each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


def wait_terminal(port: int, job_id: str) -> Tuple[float, dict]:
    """Follow a job's JSONL event stream until its ``finished`` event.

    Returns the wall-clock time the event arrived and the event itself;
    it returns on that event, without waiting for the stream to close.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        resp = conn.getresponse()
        if resp.status != 200:
            raise RuntimeError(f"events for {job_id}: HTTP {resp.status}")
        while True:
            line = resp.readline()
            if not line:
                raise RuntimeError(f"event stream for {job_id} ended early")
            event = json.loads(line)
            if event.get("event") == "finished":
                return time.time(), event
    finally:
        conn.close()


class Server:
    """A ``repro serve`` subprocess with one pool worker (inline sims).

    It inherits this process's environment, which must put ``src`` on
    ``PYTHONPATH``.
    """

    def __init__(self, root: Path, cache_dir: Path, log_path: Path,
                 traced_out: Optional[Path] = None) -> None:
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--pool-workers", "1", "--cache-dir", str(cache_dir),
                      "--job-timeout", "120", "--drain", "10"]
        if traced_out is None:
            self.cmd = [sys.executable, "-m", "repro"] + serve_args
        else:
            self.cmd = [sys.executable, str(HERE / "serve_traced.py"),
                        str(traced_out), "--"] + serve_args[1:]
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server; returns seconds until the first healthy /healthz."""
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(self.cmd, cwd=self.root, stdout=log,
                                         stderr=subprocess.STDOUT)
        pattern = re.compile(rb"listening on http://127\.0\.0\.1:(\d+)")
        while True:
            if time.perf_counter() - t0 > BOOT_TIMEOUT_S or self.proc.poll() is not None:
                raise RuntimeError(f"server did not boot; log: {self.log_path}")
            if not self.port:
                m = pattern.search(self.log_path.read_bytes())
                if m:
                    self.port = int(m.group(1))
            if self.port:
                try:
                    status, body = request(self.port, "GET", "/healthz")
                    if status == 200 and body.get("status") == "ok":
                        return time.perf_counter() - t0
                except OSError:
                    pass
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM the server and reap it."""
        proc, self.proc = self.proc, None
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


class Record(NamedTuple):
    """One settled submission as the client saw it."""

    job: Job
    submit_s: float        # POST round trip
    latency_s: float       # submit -> terminal event
    t_done: float          # perf_counter at the terminal event
    notify_s: float        # terminal event arrival - server finished_at
    summary: dict          # job summary (server clock times)
    task: Optional[dict]   # the single task's result row


def drive(port: int, sequence: Iterator[Job], n: int,
          poll: Callable[[], None]) -> List[Record]:
    """Closed loop: ``CLIENTS`` connections submit the next ``n`` jobs of
    ``sequence`` and wait for all of them.

    ``poll()`` is called every :data:`POLL_S` while the clients run.
    Raises ``RuntimeError`` if they run past :data:`BLOCK_TIMEOUT_S`.
    """
    lock = threading.Lock()
    left = [n]
    records: List[Record] = []
    errors: List[BaseException] = []

    def submit(job: Job) -> Tuple[str, float, float]:
        """POST one job: its id, submit time and POST round trip."""
        t_submit = time.perf_counter()
        status, body = request(port, "POST", "/jobs", {
            "configs": [job.config], "workloads": [job.workload],
            "ops": job.ops, "seeds": [job.seed]})
        submit_s = time.perf_counter() - t_submit
        if status != 202:
            raise RuntimeError(f"submit {job.label}: HTTP {status} {body}")
        return body["job"]["id"], t_submit, submit_s

    def settle(job: Job, job_id: str, t_submit: float,
               submit_s: float) -> Record:
        t_wall, _ = wait_terminal(port, job_id)
        t_done = time.perf_counter()
        status, payload = request(port, "GET", f"/jobs/{job_id}/result")
        if status != 200:
            raise RuntimeError(f"result {job.label}: HTTP {status}")
        summary = payload["job"]
        tasks = summary.pop("tasks")
        return Record(job, submit_s, t_done - t_submit, t_done,
                      t_wall - summary["finished_at"], summary,
                      tasks[0] if len(tasks) == 1 else None)

    def failed(job: Job, e: Exception) -> Record:
        return Record(job, 0.0, 0.0, time.perf_counter(), 0.0,
                      {"error": f"{type(e).__name__}: {e}"}, None)

    def client() -> None:
        try:
            while True:
                with lock:
                    job = next(sequence, None) if left[0] else None
                    if job is None:
                        return
                    left[0] -= 1
                    # Submitted under the lock of the draw, so the server
                    # sees the submissions in sequence order.
                    try:
                        submitted, rec = submit(job), None
                    except ERRORS as e:
                        submitted, rec = None, failed(job, e)
                if submitted is not None:
                    try:
                        rec = settle(job, *submitted)
                    except ERRORS as e:
                        rec = failed(job, e)
                with lock:
                    records.append(rec)
        except BaseException as e:  # surfaced by the caller after join
            errors.append(e)
            raise

    threads = [threading.Thread(target=client, name=f"client-{i}",
                                daemon=True) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    deadline = time.perf_counter() + BLOCK_TIMEOUT_S
    while True:
        poll()
        alive = [t for t in threads if t.is_alive()]
        if not alive:
            break
        if time.perf_counter() > deadline:
            raise RuntimeError(f"{alive[0].name} did not finish")
        alive[0].join(POLL_S)
    if errors:
        raise errors[0]
    records.sort(key=lambda r: r.t_done)
    return records


def task_result(rec: Record) -> Optional[Dict]:
    """The settled ``SimResult`` dict, or ``None`` if the job failed."""
    if rec.task is None or rec.summary.get("state") != "done":
        return None
    return rec.task.get("result")


def is_hit(rec: Record) -> bool:
    return bool(rec.task and rec.task.get("cached"))
