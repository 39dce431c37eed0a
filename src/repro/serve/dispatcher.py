"""The shard dispatcher: plan, launch, retry, merge -- one call.

``python -m repro shard plan|run|merge`` already covers the manual
cross-machine cycle; the dispatcher automates it for the common case of one
coordinator driving all shards:

1. build the named workload grid and plan it with
   :func:`~repro.batch.sharding.plan_shards`,
2. write the shard manifests,
3. launch one runner per shard through a pluggable :class:`Launcher`
   (a local subprocess pool by default), each with a per-shard timeout,
4. retry lost, failed or straggling shards with exponential backoff --
   re-running a shard is safe because shard results are content-addressed
   against the plan and a shared disk cache replays the fits,
5. merge, which re-validates everything
   (:func:`~repro.batch.sharding.merge_shard_results` refuses missing,
   duplicate or cross-plan shards).

The merged :class:`~repro.batch.results.BatchResult` is bit-identical to the
unsharded run of the same grid -- including after injected shard failures,
which is exactly what the differential tests assert.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from repro.batch.results import BatchResult
from repro.batch.sharding import (
    ShardError,
    merge_shard_results,
    plan_shards,
    read_shard_result,
    shard_result_name,
    write_manifests,
)

__all__ = [
    "DispatchError",
    "Launcher",
    "SubprocessLauncher",
    "dispatch_workload",
]


class DispatchError(RuntimeError):
    """A shard could not be completed within its retry budget."""


def child_environment() -> dict[str, str]:
    """``os.environ`` with this package's ``src`` root first on ``PYTHONPATH``.

    A child process started with it imports the same ``repro`` sources as
    this one, however this process was launched.
    """
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (src_root, env.get("PYTHONPATH")) if part)
    return env


class Launcher:
    """Interface of one way to execute a shard.

    :meth:`launch` runs the shard described by ``manifest_path`` to
    completion and must leave the result archive at ``result_path``.  It
    returns ``(status, detail)`` where ``status`` is ``"ok"``, ``"failed"``
    or ``"timeout"`` -- the dispatcher itself verifies that an ``"ok"``
    launch really produced a readable result (a runner that dies after its
    exit handshake is indistinguishable from a lost machine).
    """

    name = "abstract"

    def launch(self, shard_index: int, manifest_path: str, result_path: str, *,
               timeout: Optional[float] = None) -> tuple[str, str]:
        raise NotImplementedError("use a concrete Launcher")


class SubprocessLauncher(Launcher):
    """Run each shard as a local ``python -m repro shard run`` subprocess.

    The runner subprocess is exactly the operator CLI, started with the
    same :func:`child_environment` as :func:`repro.cli.cli_subprocess`, so
    the dispatcher exercises the identical code path a manual cross-machine
    run would.  ``executor`` / ``workers`` / ``chunk_size`` forward to the
    runner's engine flags.
    """

    name = "subprocess"

    def __init__(self, *, executor: Optional[str] = None,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None):
        self.executor = executor
        self.workers = workers
        self.chunk_size = chunk_size

    def _argv(self, manifest_path: str, result_path: str) -> list[str]:
        argv = [sys.executable, "-m", "repro", "shard", "run",
                manifest_path, "--out", result_path]
        if self.executor is not None:
            argv += ["--executor", self.executor]
        if self.workers is not None:
            argv += ["--workers", str(self.workers)]
        if self.chunk_size is not None:
            argv += ["--chunk-size", str(self.chunk_size)]
        return argv

    def _popen(self, argv: list[str]) -> subprocess.Popen:
        """Start the runner process (test seam: failure injection overrides this).

        The runner is started in its own session (process group): a shard
        running with ``--executor process`` forks a worker pool, and a
        timeout-kill of the direct child alone would orphan those workers
        mid-fit.  :meth:`launch` kills the whole group instead.
        """
        return subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=child_environment(), start_new_session=True)

    @staticmethod
    def _kill_tree(process: subprocess.Popen) -> None:
        """Kill the runner *and* its process group (its executor workers).

        Falls back to killing the direct child alone when the group is gone
        already or the platform/test double never created one.
        """
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError, AttributeError):
            process.kill()

    def launch(self, shard_index: int, manifest_path: str, result_path: str, *,
               timeout: Optional[float] = None) -> tuple[str, str]:
        process = self._popen(self._argv(manifest_path, result_path))
        try:
            _, stderr = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self._kill_tree(process)
            process.communicate()
            return "timeout", f"shard runner exceeded {timeout}s and was killed"
        if process.returncode != 0:
            tail = (stderr or "").strip().splitlines()[-3:]
            return "failed", (f"exit code {process.returncode}: "
                              + " | ".join(tail) if tail
                              else f"exit code {process.returncode}")
        return "ok", ""


def dispatch_workload(
    workload: str,
    n_shards: int,
    out_dir: str | os.PathLike,
    *,
    workload_kwargs: Optional[dict[str, Any]] = None,
    cache_dir: Optional[str] = None,
    launcher: Optional[Launcher] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff_seconds: float = 0.25,
) -> BatchResult:
    """Plan, launch, retry and merge one named workload grid.

    Parameters
    ----------
    workload, workload_kwargs:
        Entry of :data:`repro.experiments.workloads.WORKLOADS` and its
        builder kwargs (must be JSON-safe -- they travel in the manifests).
    n_shards, out_dir:
        Shard count and the directory manifests + results are written to.
    cache_dir:
        Optional shared :class:`~repro.cache.DiskStore` directory recorded in
        every manifest; retried shards then replay already-computed fits.
    launcher:
        How shards are run (default: a plain :class:`SubprocessLauncher`).
    timeout:
        Per-shard wall-clock budget per attempt (``None``: no limit); a
        straggler is killed and retried like any failure.
    max_retries:
        Extra attempts per shard after the first (so ``max_retries=2`` means
        at most 3 attempts).
    backoff_seconds:
        Sleep before retry ``k`` is ``backoff_seconds * 2**(k-1)``.

    Returns the merged :class:`~repro.batch.results.BatchResult`; raises
    :class:`DispatchError` when any shard exhausts its retry budget.
    """
    from repro.experiments.workloads import workload_jobs

    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if backoff_seconds < 0:
        raise ValueError("backoff_seconds must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be > 0 when given")
    kwargs = dict(workload_kwargs or {})
    jobs = workload_jobs(workload, **kwargs)
    plan = plan_shards(jobs, n_shards)
    out_dir = os.fspath(out_dir)
    manifest_paths = write_manifests(
        plan, jobs, out_dir, workload=workload, workload_kwargs=kwargs,
        cache_dir=cache_dir,
    )
    active_launcher = launcher if launcher is not None else SubprocessLauncher()

    def run_one(shard: int) -> str:
        manifest_path = manifest_paths[shard]
        result_path = os.path.join(out_dir, shard_result_name(shard, plan.n_shards))
        last = ("lost", "never launched")
        for attempt in range(1, max_retries + 2):
            if attempt > 1:
                time.sleep(backoff_seconds * 2 ** (attempt - 2))
            # a partial archive from a killed attempt must never satisfy the
            # "did the runner produce a result" check below
            if os.path.exists(result_path):
                os.unlink(result_path)
            status, detail = active_launcher.launch(
                shard, manifest_path, result_path, timeout=timeout)
            if status == "ok":
                if not os.path.exists(result_path):
                    last = ("lost", "runner reported success but wrote no result")
                    continue
                try:
                    read_shard_result(result_path)
                except ShardError as exc:
                    last = ("corrupt", str(exc))
                    continue
                return result_path
            last = (status, detail)
        raise DispatchError(
            f"shard {shard}/{plan.n_shards} failed after {max_retries + 1} "
            f"attempt(s): {last[0]}: {last[1]}"
        )

    max_parallel = max(1, min(plan.n_shards, os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=max_parallel,
                            thread_name_prefix="repro-dispatch") as pool:
        result_paths = list(pool.map(run_one, range(plan.n_shards)))
    return merge_shard_results(result_paths)
