"""scipy loads only where it is called, and no job path calls it.

The batch engine, the fit server, the CLI, the three Loewner front-ends,
certified jobs, vector fitting and ``validate_model`` run on numpy's LAPACK
alone: the certify path's QZ, ``systems.analysis.poles`` and vector
fitting's triangular solves call numpy's bundled OpenBLAS through
:mod:`repro.utils.blas`.  Importing ``scipy.linalg`` maps scipy's own
OpenBLAS next to numpy's and roughly doubles a fresh interpreter's resident
memory, so the paths that still call scipy import it on first use: the
trapezoidal integrator's LU (``simulate_lsim``) and the fallbacks of
:mod:`repro.utils.blas` for a numpy build without the LAPACK routine.  A
static scan of ``src/`` holds every scipy import to those sites.

A batch stays off the fit server's stack in the same way: ``repro``
resolves its public names on first use, so importing it and running a
serial job loads neither :mod:`repro.serve` nor ``asyncio`` and the
http/ssl/email modules the server and its client import.

The probes run in a fresh interpreter, because any earlier test in this
process may already have loaded scipy or the server.
"""

from __future__ import annotations

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.utils import blas

SRC = Path(__file__).resolve().parents[1] / "src"

#: The functions of ``src/`` that may import scipy, as ``(file, function)``.
SCIPY_SITES = {
    ("repro/systems/timedomain.py", "simulate_lsim"),
    ("repro/utils/blas.py", "generalized_eig"),
    ("repro/utils/blas.py", "generalized_eigvals"),
    ("repro/utils/blas.py", "solve_triangular"),
}

PROBE = """
import json
import math
import sys


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def openblas_files():
    # the distinct OpenBLAS files mapped into this process; None off Linux
    try:
        with open("/proc/self/maps") as maps:
            lines = [line for line in maps if "openblas" in line]
    except OSError:
        return None
    return sorted({line.split(maxsplit=5)[-1].strip() for line in lines})


import repro
import repro.cli
import repro.serve.app
from repro import BatchEngine, validate_model
from repro.experiments.workloads import (
    passive_macromodel_jobs,
    port_sweep_jobs,
    time_domain_jobs,
)
from repro.serve.protocol import decode_batch, encode_batch
from repro.vectorfitting import vector_fit

stages = {"import": scipy_modules()}
jobs = port_sweep_jobs(port_counts=(2,), block_sizes=(1,)) + time_domain_jobs(
    system_orders=(8,), methods=("mfti-recursive",)
)
BatchEngine().run(jobs).raise_failures()
decoded = decode_batch(json.loads(json.dumps(encode_batch(jobs))))
BatchEngine(executor="thread", max_workers=2).run(decoded).raise_failures()
stages["loewner"] = scipy_modules()

certified = [
    job
    for job in passive_macromodel_jobs(noise_levels=(1e-6,), band_factors=(1.5,))
    if job.tags["circuit"] == "mesh"
]
certified_run = BatchEngine().run(certified)
certified_run.raise_failures()
stages["certified"] = scipy_modules()

vector_fit(jobs[0].data, 6)
report = validate_model(certified_run.records[0].result.system, certified[0].reference)
stages["vector-fit and validation"] = scipy_modules()
print(json.dumps({
    "methods": sorted({job.method for job in jobs}),
    "time_domain": sum(job.time_domain is not None for job in jobs),
    "certified": len(certified),
    "abscissa_checked": math.isfinite(report.spectral_abscissa),
    "stages": stages,
    "openblas": openblas_files(),
}))
"""


#: Modules of the fit server's stack that a batch run must not load.
SERVER_STACK = ("asyncio", "ssl", "email", "http.client", "repro.api", "repro.serve")

BATCH_PROBE = """
import json
import sys

import repro
from repro import BatchEngine, FitJob
from repro.systems.random_systems import random_stable_system

system = random_stable_system(order=6, n_ports=2, seed=1)
data = repro.sample_scattering(system, repro.linear_frequencies(1e2, 1e4, 8))
BatchEngine().run([FitJob(data, reference=data)]).raise_failures()
loaded = [name for name in %r if name in sys.modules]

from repro import Client

print(json.dumps({
    "loaded": loaded,
    "client": Client is repro.serve.Client is repro.api.Client,
    "missing_from_dir": sorted(set(repro.__all__) - set(dir(repro))),
}))
""" % (SERVER_STACK,)


def _run_probe(probe: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_a_batch_run_stays_off_the_server_stack():
    report = _run_probe(BATCH_PROBE)
    assert report["loaded"] == [], f"import repro and a serial job load {report['loaded']}"
    assert report["client"], "repro.Client, repro.serve.Client and repro.api.Client differ"
    assert report["missing_from_dir"] == []


def test_every_submodule_resolves_on_first_use():
    found = {info.name for info in pkgutil.iter_modules(repro.__path__)} - {"__main__"}
    assert repro._SUBMODULES == found


def test_no_front_end_or_job_path_imports_scipy():
    report = _run_probe(PROBE)
    assert report["methods"] == ["mfti", "mfti-recursive", "vfti"]
    assert report["time_domain"] >= 1
    assert report["certified"] == 1
    assert report["abscissa_checked"]
    stages = report["stages"]
    assert stages["import"] == [], "importing repro, repro.cli or repro.serve.app loads scipy"
    assert stages["loewner"] == [], "a Loewner or time-domain job loads scipy"
    if blas._openblas(*blas._DGGEV) is None:
        pytest.skip("numpy's build exports no ?ggev, so these paths fall back to scipy")
    assert stages["certified"] == [], "a certified job loads scipy"
    assert stages["vector-fit and validation"] == [], "vector_fit or validate_model loads scipy"
    # a second OpenBLAS mapping is the memory that importing scipy costs
    if report["openblas"] is not None:
        assert len(report["openblas"]) <= 1, report["openblas"]


def _scipy_imports(node: ast.AST, function: str | None = None):
    """``(function, line)`` of every scipy import under ``node``, innermost def named."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(child, child.name)
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""] if child.level == 0 else []
        else:
            yield from _scipy_imports(child, function)
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            yield function, child.lineno


def test_scipy_is_imported_only_at_the_known_sites():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.relative_to(SRC).as_posix(), function, line)
                  for function, line in _scipy_imports(tree)]
    unexpected = [site for site in found if site[:2] not in SCIPY_SITES]
    assert found and not unexpected, f"scipy imported outside {sorted(SCIPY_SITES)}: {unexpected}"
