"""Bitwise manifest: one SHA-256 digest per label of what the workloads compute.

Two trees, executors or environments that compute the same bits write the
same manifest, so "bitwise at both commits" is one comparison instead of a
throw-away hashing script.  The manifest covers:

* ``data/<grid>/<index>/<job>`` (and ``reference/...``): the fingerprint of
  every dataset of the five :data:`~repro.experiments.workloads.WORKLOADS`
  grids;
* ``record/<grid>/<index>/<job>``: the record's model matrices ``E``, ``A``,
  ``B``, ``C``, ``D`` and every record column (status, order, both errors,
  the time-domain and passivity columns, each float as ``float.hex``);
* ``grid/<grid>``: the grid's :func:`~repro.batch.results.comparable_json`;
* ``vf/<dataset>/<poles>``: the poles, residues and ``d`` of a vector fit of
  each distinct dataset of the port-sweep and passive-macromodel grids at
  6, 12 and 20 poles (33 fits).

Build it with BLAS pinned to one thread, on any executor, and compare two::

    export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
    PYTHONPATH=src python benchmarks/bitwise_manifest.py --out serial.json
    PYTHONPATH=src python benchmarks/bitwise_manifest.py --executor process \\
        --workers 2 --out process.json
    PYTHONPATH=src python benchmarks/bitwise_manifest.py --compare serial.json process.json

``--compare`` prints every label whose digest differs or that only one
manifest has, and exits 1 when there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from repro.batch import BatchEngine
from repro.batch.results import comparable_json
from repro.experiments.workloads import WORKLOADS
from repro.vectorfitting import vector_fit

#: The grids whose distinct datasets are vector-fitted, and the pole counts.
VF_GRIDS = ("port_sweep_jobs", "passive_macromodel_jobs")
VF_POLES = (6, 12, 20)


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and the ``repr`` of anything else."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            hasher.update(f"{array.dtype.str}{array.shape}".encode())
            hasher.update(array.tobytes())
        else:
            hasher.update(repr(part).encode())
    return hasher.hexdigest()


def record_digest(record) -> str:
    """The digest of one job record: its model's matrices and every column."""
    floats = {"error_vs_data": record.error_vs_data,
              "error_vs_reference": record.error_vs_reference}
    floats.update((f"time_domain.{key}", value) for key, value in record.time_domain.items())
    floats.update((f"passivity.{key}", value) for key, value in record.passivity.items())
    columns = [record.status, record.order,
               sorted((key, float(value).hex()) for key, value in floats.items())]
    system = record.result.system if record.ok else None
    matrices = [] if system is None else [system.E, system.A, system.B, system.C, system.D]
    return digest(*matrices, columns)


def grid_manifest(grid: str, jobs, result) -> dict[str, str]:
    """The labels of one grid run: its datasets, its records and its comparable export."""
    manifest = {f"grid/{grid}": digest(comparable_json(result))}
    for index, (job, record) in enumerate(zip(jobs, result.records)):
        label = f"{grid}/{index:02d}/{job.label}"
        manifest[f"data/{label}"] = job.data.fingerprint()
        if job.reference is not None:
            manifest[f"reference/{label}"] = job.reference.fingerprint()
        manifest[f"record/{label}"] = record_digest(record)
    return manifest


def build_manifest(executor: str = "serial", workers: int | None = None) -> dict[str, str]:
    """Run every workload grid on ``executor`` and the vector fits; label -> digest."""
    engine = BatchEngine(executor=executor, max_workers=workers)
    manifest: dict[str, str] = {}
    fit_data = {}
    for grid, build in WORKLOADS.items():
        jobs = build()
        manifest.update(grid_manifest(grid, jobs, engine.run(jobs)))
        if grid in VF_GRIDS:
            for job in jobs:
                fit_data.setdefault(job.data.fingerprint(), job.data)
    for fingerprint, data in fit_data.items():
        for n_poles in VF_POLES:
            model = vector_fit(data, n_poles).model
            manifest[f"vf/{fingerprint[:16]}/{n_poles}"] = digest(
                model.poles, model.residues, model.d)
    return manifest


def differing_labels(first: dict[str, str], second: dict[str, str]) -> list[str]:
    """Labels whose digests differ or that only one of the manifests has, sorted."""
    return sorted(label for label in first.keys() | second.keys()
                  if first.get(label) != second.get(label))


def _load(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--executor", default="serial",
                        choices=("serial", "thread", "process"))
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count of the thread and process executors")
    parser.add_argument("--out", default=None, help="manifest path (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                        help="name every label two manifests disagree on")
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (_load(path) for path in args.compare)
        differing = differing_labels(first, second)
        for label in differing:
            print(f"differs: {label}")
        print(f"{len(differing)} of {len(first.keys() | second.keys())} labels differ "
              f"between {args.compare[0]} and {args.compare[1]}")
        return 1 if differing else 0

    blas = {name: os.environ.get(name) for name in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    print(f"building the manifest on the {args.executor} executor, BLAS {blas}",
          file=sys.stderr)
    text = json.dumps(build_manifest(args.executor, args.workers), indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
