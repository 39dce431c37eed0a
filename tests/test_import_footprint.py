"""scipy loads only where it is called.

The batch engine, the fit server, the CLI and the three Loewner front-ends
run on numpy's LAPACK alone.  Importing ``scipy.linalg`` maps scipy's own
OpenBLAS next to numpy's and roughly doubles a fresh interpreter's resident
memory, so only the paths that call it import it, on first use: certified
jobs (``as_pole_residue``'s QZ), vector fitting, the trapezoidal integrator
and ``systems.analysis``/``balanced``.

The probe runs in a fresh interpreter, because any earlier test in this
process may already have loaded scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json
import sys


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


import repro
import repro.cli
import repro.serve.app
from repro import BatchEngine
from repro.experiments.workloads import (
    passive_macromodel_jobs,
    port_sweep_jobs,
    time_domain_jobs,
)
from repro.serve.protocol import decode_batch, encode_batch

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
BatchEngine().run(certified).raise_failures()
stages["certified"] = scipy_modules()
print(json.dumps({
    "methods": sorted({job.method for job in jobs}),
    "time_domain": sum(job.time_domain is not None for job in jobs),
    "certified": len(certified),
    "stages": stages,
}))
"""


def test_loewner_paths_never_import_scipy_and_certified_jobs_do():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["methods"] == ["mfti", "mfti-recursive", "vfti"]
    assert report["time_domain"] >= 1
    assert report["certified"] == 1
    stages = report["stages"]
    assert stages["import"] == [], "importing repro, repro.cli or repro.serve.app loads scipy"
    assert stages["loewner"] == [], "a Loewner or time-domain job loads scipy"
    # the probe sees scipy where it is called: a certified job's QZ
    assert "scipy.linalg" in stages["certified"]
