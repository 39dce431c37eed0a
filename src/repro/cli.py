"""``python -m repro`` -- the command line of the package.

One CLI over the four ways work gets executed (the command-line counterpart
of :mod:`repro.api`):

* ``fit`` -- one macromodel fit of a Touchstone file::

      python -m repro fit board.s4p --method mfti --options '{"block_size": 2}'

* ``batch`` -- run a named workload grid (:data:`repro.experiments.
  workloads.WORKLOADS`) through a :class:`~repro.batch.engine.BatchEngine`::

      python -m repro batch --workload mixed_batch_jobs --executor thread

* ``shard plan|run|merge|dispatch`` -- the cross-machine cycle of
  :mod:`repro.batch.sharding`:

  1. ``plan`` (once, anywhere) builds the grid, assigns jobs to shards
     deterministically and writes one ``shard-XXX-of-YYY.manifest.json``
     per shard::

         python -m repro shard plan --workload mixed_batch_jobs \\
             --shards 4 --out-dir sharded/ --cache-dir /shared/fit-cache

  2. ``run`` (once per shard, on any machine that sees the manifest)
     rebuilds the grid from the manifest's workload entry, verifies it
     against the planned job fingerprints, executes the shard's subset and
     writes the shard result archive next to the manifest (override with
     ``--out``)::

         python -m repro shard run sharded/shard-000-of-004.manifest.json \\
             --executor process

  3. ``merge`` (once, anywhere that sees all shard results) validates the
     shard files against each other and writes the reassembled
     :class:`~repro.batch.results.BatchResult` JSON export -- identical in
     record order and payloads to a single-process run of the same grid::

         python -m repro shard merge sharded/*.result.npz --out merged.json

  ``dispatch`` is the one-call dispatcher of :mod:`repro.serve.dispatcher`
  (plan + launch subprocess runners + retry + merge)::

      python -m repro shard dispatch --workload mixed_batch_jobs --shards 4 \\
          --out-dir sharded/

* ``serve`` -- the asyncio fit service of :mod:`repro.serve`::

      python -m repro serve --port 8765 --executor thread --workers 4

Exit codes: 0 on success, 1 when ``--fail-on-job-errors`` sees failed
records, 2 on validation/dispatch errors, argparse's usual 2 on bad usage.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
from typing import Optional

from repro.batch.engine import EXECUTORS, BatchEngine
from repro.batch.sharding import (
    ShardError,
    ShardPlan,
    load_manifest,
    merge_shard_results,
    run_shard,
    shard_result_name,
    write_manifests,
    write_shard_result,
)

__all__ = ["build_parser", "cli_subprocess", "main"]


def cli_subprocess(*args: str, timeout: float = 600) -> subprocess.CompletedProcess:
    """Run ``python -m repro *args`` in a fresh subprocess, as an operator would.

    The one harness behind the CLI differential tests and the sharded
    benchmark: the child imports the same ``repro`` sources as the caller
    (see :func:`~repro.serve.dispatcher.child_environment`), and its text
    output is captured.
    """
    from repro.serve.dispatcher import child_environment

    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=child_environment(), timeout=timeout,
    )


def _engine_config_from_args(args: argparse.Namespace) -> dict:
    """The :meth:`BatchEngine.from_config` dict of the engine flags."""
    config: dict = {}
    if getattr(args, "executor", None) is not None:
        config["executor"] = args.executor
    if getattr(args, "workers", None) is not None:
        config["max_workers"] = args.workers
    if getattr(args, "chunk_size", None) is not None:
        config["chunk_size"] = args.chunk_size
    if getattr(args, "cache_dir", None):
        config["cache_dir"] = args.cache_dir
    return config


def _engine_from_args(args: argparse.Namespace) -> BatchEngine:
    try:
        return BatchEngine.from_config(_engine_config_from_args(args))
    except ValueError as exc:
        raise ShardError(f"invalid engine configuration: {exc}") from exc


def _parse_json_object(raw: Optional[str], flag: str) -> dict:
    if not raw:
        return {}
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ShardError(f"{flag} must be a JSON object: {exc}") from exc
    if not isinstance(value, dict):
        raise ShardError(f"{flag} must be a JSON object, got {type(value).__name__}")
    return value


def _build_jobs(name: str, kwargs: dict):
    from repro.experiments.workloads import workload_jobs

    try:
        return workload_jobs(name, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ShardError(f"cannot build workload {name!r}: {exc}") from exc


def _cache_note(result) -> str:
    return (f", cache hits={result.n_cache_hits}/{result.n_jobs}"
            if result.used_cache else "")


def _report(result, args: argparse.Namespace, title: str) -> int:
    """Write ``--out``, print the summary table, apply ``--fail-on-job-errors``."""
    if args.out:
        result.save_json(args.out)
    print(result.summary_table(title=title + (f" -> {args.out}" if args.out else "")))
    if args.fail_on_job_errors and result.n_failed:
        print(f"error: {result.n_failed} job(s) failed", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------- #
# fit / batch / serve
# --------------------------------------------------------------------------- #
def cmd_fit(args: argparse.Namespace) -> int:
    from repro.core._pipeline import frontend_spec
    from repro.core.directions import resolve_block_sizes
    from repro.core.options import MftiOptions
    from repro.data import read_touchstone

    try:
        data = read_touchstone(args.touchstone)
        reference = read_touchstone(args.reference) if args.reference else None
    except (OSError, ValueError) as exc:
        raise ShardError(f"cannot read Touchstone input: {exc}") from exc
    spec = frontend_spec(args.method)
    option_kwargs = _parse_json_object(args.options, "--options")
    try:
        options = spec.options_type(**option_kwargs) if option_kwargs else None
        if isinstance(options, MftiOptions):
            # the fit would refuse these sizes for this data; say so up front
            resolve_block_sizes(options.block_size, data.n_samples,
                                min(data.n_inputs, data.n_outputs))
    except (TypeError, ValueError) as exc:
        raise ShardError(
            f"invalid --options for method {args.method!r}: {exc}") from exc

    passivity = None
    if args.passivity is not None:
        from repro.vectorfitting.enforcement import PassivitySpec

        passivity_kwargs = _parse_json_object(args.passivity, "--passivity")
        try:
            passivity = PassivitySpec(**passivity_kwargs)
        except (TypeError, ValueError) as exc:
            raise ShardError(f"invalid --passivity spec: {exc}") from exc

    from repro.batch.jobs import FitJob, run_job

    try:
        job = FitJob(data, method=args.method, options=options,
                     reference=reference, passivity=passivity)
    except (TypeError, ValueError) as exc:
        raise ShardError(f"invalid fit job: {exc}") from exc
    record = run_job(0, job)
    if not record.ok:
        print(f"error: fit failed: {record.error_type}: {record.error_message}",
              file=sys.stderr)
        return 1
    print(f"{args.method} fit of {args.touchstone}: order={record.order}, "
          f"error vs data={record.error_vs_data:.3e}"
          + (f", error vs reference={record.error_vs_reference:.3e}"
             if reference is not None else "")
          + f", {record.elapsed_seconds:.3f}s")
    if record.passivity:
        print("passivity certificate: "
              f"margin={record.passivity['worst_margin']:.3e}, "
              f"perturbation={record.passivity['perturbation_norm']:.3e}, "
              f"iterations={record.passivity['iterations']:.0f}, "
              f"error delta={record.passivity['error_delta']:.3e}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    jobs = _build_jobs(args.workload,
                       _parse_json_object(args.workload_args, "--workload-args"))
    result = _engine_from_args(args).run(jobs)
    return _report(result, args, (
        f"{args.workload}: {result.n_ok}/{result.n_jobs} ok, "
        f"executor={result.executor}, wall={result.wall_seconds:.3f}s"))


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.app import FitService, serve_forever

    engine = _engine_from_args(args)
    try:
        service = FitService(engine, max_pending=args.max_pending)
    except ValueError as exc:
        raise ShardError(f"invalid service configuration: {exc}") from exc

    def announce(server) -> None:
        print(f"serving on http://{server.host}:{server.port} "
              f"(engine={engine.executor}, max_pending={args.max_pending}); "
              f"POST /shutdown to stop", flush=True)

    try:
        asyncio.run(serve_forever(service, host=args.host, port=args.port,
                                  ready=announce))
    except KeyboardInterrupt:
        pass
    return 0


# --------------------------------------------------------------------------- #
# shard plan / run / merge / dispatch
# --------------------------------------------------------------------------- #
def cmd_plan(args: argparse.Namespace) -> int:
    kwargs = _parse_json_object(args.workload_args, "--workload-args")
    jobs = _build_jobs(args.workload, kwargs)
    plan = ShardPlan.from_jobs(jobs, args.shards)
    paths = write_manifests(plan, jobs, args.out_dir, workload=args.workload,
                            workload_kwargs=kwargs, cache_dir=args.cache_dir)
    print(f"plan {plan.fingerprint[:16]}...: {plan.n_jobs} jobs "
          f"({args.workload}) over {plan.n_shards} shards")
    for shard, path in enumerate(paths):
        print(f"  shard {shard}: {len(plan.indices_for(shard))} jobs -> {path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    workload = manifest.get("workload")
    if not workload:
        raise ShardError(
            "manifest carries no workload entry point; in-memory batches must "
            "be run through repro.batch.sharding.run_shard() directly"
        )
    jobs = _build_jobs(workload["name"], workload.get("kwargs") or {})
    result = run_shard(manifest, jobs, engine=_engine_from_args(args))
    out = args.out or os.path.join(
        os.path.dirname(os.path.abspath(args.manifest)),
        shard_result_name(manifest["shard_index"], manifest["n_shards"]),
    )
    write_shard_result(out, manifest, result)
    print(f"shard {manifest['shard_index']}/{manifest['n_shards']}: "
          f"{result.n_ok}/{result.n_jobs} ok, executor={result.executor}, "
          f"wall={result.wall_seconds:.3f}s{_cache_note(result)} -> {out}")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    merged = merge_shard_results(args.shard_results)
    return _report(merged, args, (
        f"merged {merged.executor}: {merged.n_ok}/{merged.n_jobs} ok{_cache_note(merged)}"))


def cmd_dispatch(args: argparse.Namespace) -> int:
    from repro.serve.dispatcher import SubprocessLauncher, dispatch_workload

    try:
        merged = dispatch_workload(
            args.workload,
            args.shards,
            args.out_dir,
            workload_kwargs=_parse_json_object(args.workload_args, "--workload-args"),
            cache_dir=args.cache_dir,
            launcher=SubprocessLauncher(executor=args.executor, workers=args.workers,
                                        chunk_size=args.chunk_size),
            timeout=args.timeout,
            max_retries=args.max_retries,
            backoff_seconds=args.backoff,
        )
    except ShardError:
        raise
    except (TypeError, ValueError) as exc:  # TypeError: bad --workload-args
        raise ShardError(f"invalid dispatch request: {exc}") from exc
    return _report(merged, args, (
        f"dispatched {merged.executor}: {merged.n_ok}/{merged.n_jobs} ok"
        f"{_cache_note(merged)}"))


# --------------------------------------------------------------------------- #
# parser assembly
# --------------------------------------------------------------------------- #
def _add_engine_arguments(parser: argparse.ArgumentParser, *,
                          with_cache: bool = True) -> None:
    parser.add_argument("--executor", default=None, choices=EXECUTORS,
                        help="batch executor (default: serial)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the pooled executors")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="jobs per engine chunk (default: automatic)")
    if with_cache:
        parser.add_argument("--cache-dir", default=None,
                            help="attach a disk-backed FitCache rooted here")


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True,
                        help="named grid from repro.experiments.workloads.WORKLOADS")
    parser.add_argument("--workload-args", default=None,
                        help="JSON object of kwargs for the workload builder")


def _add_plan_arguments(parser: argparse.ArgumentParser) -> None:
    _add_workload_arguments(parser)
    parser.add_argument("--shards", type=int, required=True, help="number of shards")
    parser.add_argument("--out-dir", required=True,
                        help="directory the shard manifests (and results) go to")
    parser.add_argument("--cache-dir", default=None,
                        help="shared DiskStore directory every shard runner attaches")


def _add_report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None,
                        help="write the BatchResult JSON export here")
    parser.add_argument("--fail-on-job-errors", action="store_true",
                        help="exit 1 when any record has status 'failed'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__.splitlines()[0],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit one Touchstone file")
    fit.add_argument("touchstone", help="input Touchstone (.sNp) file")
    fit.add_argument("--method", default="mfti",
                     help="registered front-end (mfti, vfti, mfti-recursive)")
    fit.add_argument("--options", default=None,
                     help="JSON object of options for the method")
    fit.add_argument("--reference", default=None,
                     help="optional validation Touchstone file")
    fit.add_argument("--passivity", default=None,
                     help="JSON object of PassivitySpec fields ('{}' for the "
                          "defaults): passivity-enforce the fitted model and "
                          "print its certificate (requires --reference)")
    fit.set_defaults(handler=cmd_fit)

    batch = commands.add_parser(
        "batch", help="run a named workload grid through a BatchEngine")
    _add_workload_arguments(batch)
    _add_engine_arguments(batch)
    _add_report_arguments(batch)
    batch.set_defaults(handler=cmd_batch)

    shard = commands.add_parser(
        "shard", help="plan / run / merge / dispatch a sharded batch")
    steps = shard.add_subparsers(dest="shard_command", required=True)

    plan = steps.add_parser(
        "plan", help="assign a named workload grid to N shard manifests")
    _add_plan_arguments(plan)
    plan.set_defaults(handler=cmd_plan)

    run = steps.add_parser(
        "run", help="execute one shard manifest and write its result archive")
    run.add_argument("manifest", help="path to a shard manifest")
    _add_engine_arguments(run, with_cache=False)
    run.add_argument("--out", default=None,
                     help="shard result path (default: next to the manifest)")
    run.set_defaults(handler=cmd_run)

    merge = steps.add_parser(
        "merge", help="validate and merge shard result archives")
    merge.add_argument("shard_results", nargs="+",
                       help="shard result .npz files (all shards of one plan)")
    _add_report_arguments(merge)
    merge.set_defaults(handler=cmd_merge)

    dispatch = steps.add_parser(
        "dispatch",
        help="plan + launch shard runner subprocesses + retry + merge, one call")
    _add_plan_arguments(dispatch)
    _add_engine_arguments(dispatch, with_cache=False)
    dispatch.add_argument("--timeout", type=float, default=None,
                          help="per-shard wall-clock budget per attempt (seconds)")
    dispatch.add_argument("--max-retries", type=int, default=2,
                          help="extra attempts per shard after the first")
    dispatch.add_argument("--backoff", type=float, default=0.25,
                          help="base retry backoff in seconds (doubles per retry)")
    _add_report_arguments(dispatch)
    dispatch.set_defaults(handler=cmd_dispatch)

    serve = commands.add_parser("serve", help="start the asyncio fit service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 binds an ephemeral port)")
    serve.add_argument("--max-pending", type=int, default=32,
                       help="admission bound on in-flight computations")
    _add_engine_arguments(serve)
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    from repro.serve.dispatcher import DispatchError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ShardError, DispatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
