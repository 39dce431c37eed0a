"""Tests of the batch macromodeling engine (``repro.batch``).

Covers the engine's contract: the three executors produce identical (bitwise)
results on a seeded job grid, a raising job is recorded as failed without
aborting the batch, chunking is deterministic, and the JSON export is stable
and round-trippable.  Also covers the shared ``run_fit`` entry point the
engine dispatches through.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.batch import (
    EXECUTORS,
    BatchEngine,
    BatchResult,
    FitJob,
    numerical_differences,
    run_job,
)
from repro.core import available_methods, run_fit
from repro.core.options import MftiOptions, RecursiveOptions, VftiOptions


@pytest.fixture(scope="module")
def job_grid(small_data, noisy_data, dense_data):
    """Seeded mixed-method grid over two datasets (8 jobs, all deterministic)."""
    jobs = []
    for name, data in (("clean", small_data), ("noisy", noisy_data)):
        jobs.append(FitJob(data, method="vfti", options=VftiOptions(),
                           label=f"{name}/vfti", tags={"dataset": name},
                           reference=dense_data))
        for block in (1, 2):
            jobs.append(FitJob(
                data, method="mfti",
                options=MftiOptions(block_size=block, direction_kind="random",
                                    direction_seed=1234),
                label=f"{name}/mfti-t{block}", tags={"dataset": name, "t": block},
                reference=dense_data))
        jobs.append(FitJob(
            data, method="mfti-recursive",
            options=RecursiveOptions(block_size=2, samples_per_iteration=2,
                                     rank_method="tolerance", rank_tolerance=1e-8),
            label=f"{name}/recursive", tags={"dataset": name},
            reference=dense_data))
    return jobs


# --------------------------------------------------------------------------- #
# run_fit entry point
# --------------------------------------------------------------------------- #
class TestRunFit:
    def test_available_methods(self):
        assert available_methods() == ("mfti", "mfti-recursive", "vfti")

    def test_dispatch_matches_frontends(self, small_data):
        from repro.core import mfti, vfti

        direct = mfti(small_data, options=MftiOptions(block_size=2))
        routed = run_fit(small_data, method="mfti", options=MftiOptions(block_size=2))
        assert np.array_equal(direct.system.A, routed.system.A)

        direct = vfti(small_data)
        routed = run_fit(small_data, method="vfti")
        assert np.array_equal(direct.system.A, routed.system.A)

    def test_keyword_shortcut(self, small_data):
        result = run_fit(small_data, method="mfti", block_size=2)
        assert result.metadata["block_sizes"] == (2,) * small_data.n_samples

    def test_unknown_method(self, small_data):
        with pytest.raises(ValueError, match="unknown method"):
            run_fit(small_data, method="nope")

    def test_wrong_options_type(self, small_data):
        with pytest.raises(TypeError, match="expects MftiOptions"):
            run_fit(small_data, method="mfti", options=VftiOptions())


# --------------------------------------------------------------------------- #
# FitJob / run_job
# --------------------------------------------------------------------------- #
class TestFitJob:
    def test_default_label(self, small_data):
        job = FitJob(small_data, method="vfti")
        assert job.label == "vfti [small]"

    def test_unknown_method_rejected(self, small_data):
        with pytest.raises(ValueError, match="unknown method"):
            FitJob(small_data, method="typo")

    def test_mismatched_options_rejected(self, small_data):
        with pytest.raises(TypeError, match="expects VftiOptions"):
            FitJob(small_data, method="vfti", options=MftiOptions())

    def test_live_generator_seed_rejected(self, small_data):
        options = MftiOptions(direction_kind="random",
                              direction_seed=np.random.default_rng(0))
        with pytest.raises(TypeError, match="integer direction_seed"):
            FitJob(small_data, method="mfti", options=options)

    def test_run_job_success(self, small_data, dense_data):
        record = run_job(4, FitJob(small_data, method="mfti", reference=dense_data))
        assert record.ok and record.status == "ok"
        assert record.index == 4
        assert record.order == record.result.order
        assert record.error_vs_data < 1e-6
        assert record.error_vs_reference < 1e-6
        assert record.error_type is None

    def test_run_job_failure_captured(self, small_data):
        bad = FitJob(small_data.subset([0]), method="mfti", label="bad")
        record = run_job(0, bad)
        assert not record.ok and record.status == "failed"
        assert record.result is None and record.order is None
        assert record.error_type == "ValueError"
        assert "two sampled frequencies" in record.error_message
        assert "Traceback" in record.error_traceback
        assert np.isnan(record.error_vs_reference)

    def test_record_to_dict_is_json_safe(self, small_data):
        record = run_job(0, FitJob(small_data.subset([0]), method="mfti"))
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["status"] == "failed"
        assert payload["error"]["type"] == "ValueError"
        assert payload["error_vs_reference"] is None


# --------------------------------------------------------------------------- #
# BatchEngine
# --------------------------------------------------------------------------- #
def _assert_identical(reference: BatchResult, other: BatchResult) -> None:
    assert numerical_differences(reference, other) == []


class TestBatchEngine:
    def test_serial_runs_grid(self, job_grid):
        result = BatchEngine().run(job_grid)
        assert result.n_jobs == len(job_grid)
        assert result.n_failed == 0
        assert [r.index for r in result.records] == list(range(len(job_grid)))

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pooled_backends_match_serial_bitwise(self, job_grid, executor):
        serial = BatchEngine().run(job_grid)
        pooled = BatchEngine(executor=executor, max_workers=2).run(job_grid)
        _assert_identical(serial, pooled)

    def test_chunking_does_not_change_results(self, job_grid):
        reference = BatchEngine().run(job_grid)
        chunked = BatchEngine(chunk_size=3).run(job_grid)
        _assert_identical(reference, chunked)
        assert chunked.chunk_size == 3

    def test_failing_job_does_not_abort_batch(self, small_data, dense_data):
        jobs = [
            FitJob(small_data, method="mfti", label="good-1", reference=dense_data),
            FitJob(small_data.subset([0]), method="mfti", label="poison"),
            FitJob(small_data, method="vfti", label="good-2", reference=dense_data),
        ]
        result = BatchEngine().run(jobs)
        assert result.n_ok == 2 and result.n_failed == 1
        assert result.failures[0].label == "poison"
        assert result.records[2].label == "good-2" and result.records[2].ok

    def test_deterministic_chunk_layout(self):
        engine = BatchEngine(executor="thread", max_workers=2)
        assert engine.resolve_chunk_size(16) == 2
        assert engine.resolve_chunk_size(3) == 1
        assert BatchEngine(chunk_size=5).resolve_chunk_size(100) == 5

    def test_empty_batch(self):
        result = BatchEngine().run([])
        assert result.n_jobs == 0 and result.wall_seconds >= 0.0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError, match="executor"):
            BatchEngine(executor="gpu")
        with pytest.raises(ValueError, match="max_workers"):
            BatchEngine(max_workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            BatchEngine(chunk_size=0)
        assert set(EXECUTORS) == {"serial", "thread", "process"}


# --------------------------------------------------------------------------- #
# BatchResult
# --------------------------------------------------------------------------- #
class TestBatchResult:
    @pytest.fixture(scope="class")
    def batch(self, job_grid):
        return BatchEngine().run(job_grid)

    def test_selection_helpers(self, batch):
        assert len(batch.with_tag("dataset", "clean")) == 4
        assert len(batch.with_tag("t")) == 4
        best = batch.best()
        assert best.error_vs_reference == min(
            r.error_vs_reference for r in batch.ok_records)

    def test_raise_failures(self, batch, small_data):
        assert batch.raise_failures() is batch  # clean batch: chains through
        failed = BatchEngine().run(
            [FitJob(small_data.subset([0]), method="mfti", label="bad",
                    tags={"suite": "unit"})])
        with pytest.raises(RuntimeError) as excinfo:
            failed.raise_failures(context="sweep job")
        message = str(excinfo.value)
        assert "sweep job 'bad'" in message
        assert "{'suite': 'unit'}" in message
        assert "Traceback" in message

    def test_summary_table(self, batch):
        table = batch.summary_table()
        assert "clean/mfti-t2" in table
        assert "executor=serial" in table

    def test_json_roundtrip(self, batch, tmp_path):
        path = batch.save_json(str(tmp_path / "nested" / "batch.json"))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == 5
        assert payload["n_jobs"] == batch.n_jobs
        assert payload["n_failed"] == 0
        assert payload["n_cache_hits"] == 0  # batch ran without a cache
        assert payload["jobs"][0]["cache"] is None
        assert len(payload["jobs"]) == batch.n_jobs
        assert payload["jobs"][0]["label"] == batch.records[0].label
        assert payload["total_fit_seconds"] == pytest.approx(batch.total_fit_seconds)
