"""The ``served_repeat`` workload: a fit server in its own process under a
closed-loop load of two client connections.

Run as a script, this module is the server launcher: it pins BLAS, builds a
:class:`~repro.serve.app.FitService` over a 2-worker thread engine with a
memory :class:`~repro.cache.FitCache` and the response cache, prints one
JSON line with its port and provenance, and serves until ``POST
/shutdown``.  With ``--trace 1`` it wraps the layers and prints their
metrics as a last JSON line before exiting.

The schedule keeps every cache counter a pure function of the seed:

* each connection draws from its own job pool (Monte-Carlo jobs on one,
  port-sweep and time-domain jobs on the other), so the two never share a
  fit, a dataset or a reference and cannot race on a cache entry;
* a connection sends its next request only after the previous one has
  streamed back, so a repeated job is always a fit-cache hit;
* the first request touching a dataset carries one job, so the reference
  norms of that dataset are computed once, before concurrent jobs read them;
* duplicates inside one request coalesce deterministically at admission.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.provenance import (  # noqa: E402  (stdlib-only: safe before numpy)
    ROOT,
    pin_blas_env,
    provenance,
    require_single_thread,
    use_checkout_sources,
)

MAX_JOBS_PER_REQUEST = 4
SERVER_WORKERS = 2
LAUNCHER = os.path.abspath(__file__)


@dataclass(frozen=True)
class Request:
    """One ``POST /submit``: jobs sharing one dataset, relabelled per request."""

    rid: str
    jobs: tuple
    origins: tuple  # pool labels: the content each job repeats


def _group_requests(jobs: list, rng: random.Random) -> list[list]:
    """The requests of one dataset's jobs, first request first.

    One pass over the jobs in builder order, cut into requests of at most
    ``MAX_JOBS_PER_REQUEST`` distinct jobs, carries the fits; its first job
    is split off as a one-job introduction.  Then as many sends again
    repeat earlier content, so half the jobs sent are repeats: each job of
    the first half as a duplicate pair inside one request (a fit-cache hit
    and a coalesced copy), and the last job alone when the count is odd.
    The repeat requests follow the first pass in a seeded order.
    """
    n_chunks = -(-len(jobs) // MAX_JOBS_PER_REQUEST)
    requests = [jobs[i::n_chunks] for i in range(n_chunks)]
    half = len(jobs) // 2
    per_request = MAX_JOBS_PER_REQUEST // 2
    repeats = [[job for job in jobs[i:min(i + per_request, half)] for _ in range(2)]
               for i in range(0, half, per_request)]
    if len(jobs) % 2:
        repeats.append([jobs[-1]])
    rng.shuffle(repeats)
    introduction = [requests[0].pop(0)]
    return [introduction] + [request for request in requests if request] + repeats


def build_schedule(pools: list[list], seed: int) -> list[list[Request]]:
    """One request list per connection, drawn from that connection's pool.

    Every seed sends the same requests, so the work per pass does not depend
    on the seed; the seed decides the order they are sent in.
    """
    schedule = []
    for connection, pool in enumerate(pools):
        rng = random.Random(seed * len(pools) + connection)
        groups: dict[int, list] = {}
        for job in pool:
            groups.setdefault(id(job.data), []).append(job)
        queues = [_group_requests(jobs, rng) for jobs in groups.values()]
        requests = []
        while any(queues):
            # interleave datasets; each queue keeps its introduction first
            queue = rng.choice([queue for queue in queues for _ in queue])
            picks = queue.pop(0)
            rid = f"c{connection}r{len(requests):03d}"
            requests.append(Request(
                rid=rid,
                jobs=tuple(dataclasses.replace(job, label=f"{rid}.{slot}/{job.label}",
                                               tags=dict(job.tags, request=rid))
                           for slot, job in enumerate(picks)),
                origins=tuple(job.label for job in picks)))
        schedule.append(requests)
    return schedule


@dataclass
class Answer:
    request: Request
    latency: float
    result: object = None  # BatchResult, or None when the request raised
    error: Optional[str] = None


def run_schedule(port: int, schedule: list[list[Request]]) -> tuple[float, list[Answer]]:
    """Drive every connection's requests closed-loop; ``(wall seconds, answers)``."""
    from repro.serve.client import Client

    answers: list[list[Answer]] = [[] for _ in schedule]
    barrier = threading.Barrier(len(schedule) + 1)

    def drive(requests: list[Request], out: list[Answer]) -> None:
        client = Client("127.0.0.1", port, timeout=120.0)
        barrier.wait()
        for request in requests:
            started = time.perf_counter()
            try:
                result = client.submit(list(request.jobs))
                out.append(Answer(request, time.perf_counter() - started, result))
            except Exception as exc:  # noqa: BLE001 - a failed request is a counted failure
                out.append(Answer(request, time.perf_counter() - started,
                                  error=f"{type(exc).__name__}: {exc}"))

    threads = [threading.Thread(target=drive, args=(requests, out), daemon=True)
               for requests, out in zip(schedule, answers)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return wall, [answer for out in answers for answer in out]


class ServerProcess:
    """The fit server launcher as a child process; always stopped on exit."""

    def __init__(self, *, traced: bool = False, trace_out: Optional[str] = None):
        self.traced = traced
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()

    def start(self) -> float:
        """Start the server; seconds from launch until ``/healthz`` answers."""
        from repro.serve.client import Client

        command = [sys.executable, LAUNCHER, "--trace", "1" if self.traced else "0"]
        if self.trace_out:
            command += ["--trace-out", self.trace_out]
        started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"fit server exited with code {self.process.wait()} "
                               "before it was ready")
        hello = json.loads(line)
        require_single_thread(hello["provenance"], who="fit server")
        self.port = int(hello["port"])
        Client("127.0.0.1", self.port, timeout=60.0).healthz()
        return time.perf_counter() - started

    def submit(self, jobs: list):
        from repro.serve.client import Client

        return Client("127.0.0.1", self.port, timeout=120.0).submit(jobs)

    def stats(self) -> dict:
        from repro.serve.client import Client

        return Client("127.0.0.1", self.port, timeout=60.0).stats()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) so far."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> dict:
        """Shut the server down cleanly; returns its trace metrics (traced runs)."""
        from repro.serve.client import Client

        Client("127.0.0.1", self.port, timeout=60.0).shutdown()
        output, _ = self.process.communicate(timeout=60)
        code = self.process.returncode
        self.process = None
        if code != 0:
            raise RuntimeError(f"fit server exited with code {code}")
        lines = [line for line in output.splitlines() if line.strip()]
        return json.loads(lines[-1])["trace"] if self.traced and lines else {}

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        if self.process is not None:
            self.process.wait(timeout=60)
            if self.process.stdout is not None:
                self.process.stdout.close()
        self.process = None


def serve_main(argv: Optional[list[str]] = None) -> int:
    """Entry point of the server launcher process."""
    import argparse

    parser = argparse.ArgumentParser(description="fit server for the served_repeat workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    pin_blas_env()
    use_checkout_sources()
    info = provenance()

    import asyncio

    from repro.batch.engine import BatchEngine
    from repro.cache import FitCache
    from repro.serve.app import FitService, serve_forever

    tracer = patch = None
    if args.trace:
        from perfbench import layers
        from perfbench.tracer import Tracer

        tracer = Tracer()
        patch = layers.install(tracer, scope="server")
    service = FitService(BatchEngine(executor="thread", max_workers=SERVER_WORKERS,
                                     cache=FitCache()))

    def ready(server) -> None:
        print(json.dumps({"port": server.port, "provenance": info}), flush=True)

    try:
        asyncio.run(serve_forever(service, port=0, ready=ready))
    finally:
        if patch is not None:
            patch.restore()
    if tracer is not None:
        if args.trace_out:
            tracer.dump(args.trace_out)
        print(json.dumps({"trace": layers.span_metrics(tracer.spans)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve_main())
