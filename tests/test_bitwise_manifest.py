"""The bitwise manifest names the job whose model moved by one ulp.

``benchmarks/bitwise_manifest.py`` is a standalone script (the
``benchmarks`` directory is not a package), so it is loaded here by file
path.  Its full build runs every workload grid; this test runs a two-job
grid through the same labelling and digests.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os

import numpy as np
import pytest

from repro.batch import BatchEngine, FitJob
from repro.systems.statespace import DescriptorSystem

_MANIFEST_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                              "benchmarks", "bitwise_manifest.py")


@pytest.fixture(scope="module")
def manifest():
    spec = importlib.util.spec_from_file_location("bitwise_manifest", _MANIFEST_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_one_ulp_change_in_a_model_is_reported_under_its_job(manifest, small_data,
                                                                dense_data):
    jobs = [FitJob(small_data, method="mfti", label="mfti", reference=dense_data),
            FitJob(small_data, method="vfti", label="vfti", reference=dense_data)]
    result = BatchEngine().run(jobs)
    before = manifest.grid_manifest("toy", jobs, result)
    assert manifest.differing_labels(before, manifest.grid_manifest("toy", jobs, result)) == []

    record = result.records[1]
    system = record.result.system
    a = system.A.copy()
    a[0, 0] = np.nextafter(a[0, 0], np.inf)
    planted = dataclasses.replace(record, result=dataclasses.replace(
        record.result, system=DescriptorSystem(system.E, a, system.B, system.C, system.D)))
    after = manifest.grid_manifest(
        "toy", jobs, dataclasses.replace(result, records=(result.records[0], planted)))
    assert manifest.differing_labels(before, after) == ["record/toy/01/vfti"]
