"""The sharding layer's contract, locked down differentially and by property.

Three layers of defence:

* **hypothesis property tests** of :class:`~repro.batch.sharding.ShardPlan`
  -- every job assigned exactly once for arbitrary ``(n_jobs, n_shards)``,
  assignment stable under permutation of the job list, fingerprints that
  separate different plans;
* **unit tests** of the manifest / shard-result formats -- schema
  validation, tamper detection, bitwise round-trips (failure records
  included) and every merge rejection path (mismatched plan fingerprints,
  duplicate / missing / out-of-plan jobs);
* the **differential test**: ``mixed_batch_jobs`` run unsharded vs. 2-shard
  (full subprocess round-trip through the ``python -m repro shard``
  CLI) and 3-shard (in-process, mixed executors) must produce merged
  results whose record order, numerical payloads, summary tables and JSON
  exports are *identical* to the single-process run -- including the cache
  hit/miss statuses and counters when the shards share one ``DiskStore``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchEngine,
    BatchResult,
    FitJob,
    JobRecord,
    ShardError,
    ShardPlan,
    ShardResult,
    comparable_json,
    job_fingerprint,
    load_manifest,
    merge_shard_results,
    numerical_differences,
    read_shard_result,
    run_shard,
    write_manifests,
    write_shard_result,
)
from repro.batch.sharding import manifest_name, validate_manifest
from repro.cache import FitCache
from repro.cli import cli_subprocess
from repro.core.options import MftiOptions
from repro.data import linear_frequencies, sample_scattering
from repro.experiments.workloads import mixed_batch_jobs, time_domain_jobs
from repro.metrics import TIME_DOMAIN_METRIC_KEYS
from repro.systems.random_systems import random_stable_system

#: Scaled-down mixed grid: fast enough for tier 1, same 8-job structure as
#: the full benchmark grid.
GRID_KWARGS = dict(pdn_samples=36, pdn_validation=48, line_sections=10,
                   line_samples=40, line_validation=50)


@pytest.fixture(scope="module")
def grid_jobs():
    return mixed_batch_jobs(**GRID_KWARGS)


@pytest.fixture(scope="module")
def reference_run(grid_jobs):
    """The unsharded (single-process, uncached) run every variant must match."""
    result = BatchEngine().run(grid_jobs)
    assert result.n_failed == 0, result.failures
    return result


def normalized(result: BatchResult) -> BatchResult:
    """Zero the volatile execution envelope so two runs compare exactly."""
    return BatchResult(
        records=tuple(
            dataclasses.replace(record, elapsed_seconds=0.0)
            for record in result.records
        ),
        executor="", n_workers=0, chunk_size=0, wall_seconds=0.0,
    )


def assert_identical(reference: BatchResult, merged: BatchResult) -> None:
    """The full acceptance contract: records, payloads, table and JSON."""
    assert not numerical_differences(reference, merged)
    assert [r.cache_status for r in reference.records] == \
           [r.cache_status for r in merged.records]
    assert (reference.n_cache_hits, reference.n_cache_misses) == \
           (merged.n_cache_hits, merged.n_cache_misses)
    assert comparable_json(reference) == comparable_json(merged)
    assert normalized(reference).summary_table(title="run") == \
           normalized(merged).summary_table(title="run")


# --------------------------------------------------------------------------- #
# ShardPlan properties
# --------------------------------------------------------------------------- #
job_ids = st.lists(st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
                   min_size=0, max_size=40)


class TestShardPlanProperties:
    @given(ids=job_ids, n_shards=st.integers(min_value=1, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_every_job_assigned_exactly_once(self, ids, n_shards):
        plan = ShardPlan.from_job_ids(ids, n_shards)
        assert plan.n_jobs == len(ids)
        assert len(plan.assignments) == len(ids)
        assert all(0 <= shard < n_shards for shard in plan.assignments)
        covered = [index for shard in range(n_shards)
                   for index in plan.indices_for(shard)]
        assert sorted(covered) == list(range(len(ids)))

    @given(ids=st.lists(st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
                        min_size=1, max_size=30, unique=True),
           n_shards=st.integers(min_value=1, max_value=9),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_assignment_stable_under_permutation(self, ids, n_shards, seed):
        import random

        permuted = list(ids)
        random.Random(seed).shuffle(permuted)
        original = ShardPlan.from_job_ids(ids, n_shards)
        shuffled = ShardPlan.from_job_ids(permuted, n_shards)
        assert (dict(zip(original.job_ids, original.assignments))
                == dict(zip(shuffled.job_ids, shuffled.assignments)))

    @given(ids=st.lists(st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
                        min_size=2, max_size=20, unique=True),
           n_shards=st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_fingerprint_pins_order_and_shard_count(self, ids, n_shards):
        plan = ShardPlan.from_job_ids(ids, n_shards)
        reversed_plan = ShardPlan.from_job_ids(list(reversed(ids)), n_shards)
        assert plan.fingerprint != reversed_plan.fingerprint
        more_shards = ShardPlan.from_job_ids(ids, n_shards + 1)
        assert plan.fingerprint != more_shards.fingerprint
        rebuilt = ShardPlan.from_job_ids(ids, n_shards)
        assert plan == rebuilt

    def test_rejects_invalid_shard_counts(self):
        with pytest.raises(ShardError):
            ShardPlan.from_job_ids(["aa"], 0)
        plan = ShardPlan.from_job_ids(["aa", "bb"], 2)
        with pytest.raises(ShardError):
            plan.indices_for(2)

    def test_plan_from_jobs_matches_job_fingerprints(self, grid_jobs):
        plan = ShardPlan.from_jobs(grid_jobs, 3)
        assert plan.job_ids == tuple(job_fingerprint(job) for job in grid_jobs)
        # identical rebuilt grids produce the identical plan (shardability)
        again = ShardPlan.from_jobs(mixed_batch_jobs(**GRID_KWARGS), 3)
        assert plan == again


# --------------------------------------------------------------------------- #
# merge validation (lightweight fabricated shard results)
# --------------------------------------------------------------------------- #
def fake_record(index: int) -> JobRecord:
    return JobRecord(index=index, label=f"job{index}", method="mfti",
                     tags={}, status="failed", error_type="RuntimeError",
                     error_message="fabricated", error_traceback="")


def fake_shard(indices, *, shard_index=0, n_shards=2, n_total=4,
               fingerprint="plan-a") -> ShardResult:
    return ShardResult(
        plan_fingerprint=fingerprint,
        shard_index=shard_index,
        n_shards=n_shards,
        n_jobs_total=n_total,
        result=BatchResult(records=tuple(fake_record(i) for i in indices)),
    )


class TestMergeValidation:
    def test_merges_disjoint_shards_in_any_order(self):
        merged = merge_shard_results([
            fake_shard([2, 3], shard_index=1),
            fake_shard([0, 1], shard_index=0),
        ])
        assert [record.index for record in merged.records] == [0, 1, 2, 3]
        assert merged.executor == "sharded(2)"

    def test_rejects_empty_input(self):
        with pytest.raises(ShardError, match="no shard results"):
            merge_shard_results([])

    def test_rejects_mismatched_plan_fingerprints(self):
        with pytest.raises(ShardError, match="different plans"):
            merge_shard_results([
                fake_shard([0, 1], shard_index=0, fingerprint="plan-a"),
                fake_shard([2, 3], shard_index=1, fingerprint="plan-b"),
            ])

    def test_rejects_mismatched_plan_shape(self):
        with pytest.raises(ShardError, match="plan shape"):
            merge_shard_results([
                fake_shard([0, 1], shard_index=0, n_total=4),
                fake_shard([2, 3], shard_index=1, n_total=5),
            ])

    def test_rejects_duplicate_shard_index(self):
        with pytest.raises(ShardError, match="appears twice"):
            merge_shard_results([
                fake_shard([0, 1], shard_index=0),
                fake_shard([2, 3], shard_index=0),
            ])

    def test_rejects_duplicate_job_index(self):
        with pytest.raises(ShardError, match="two shards"):
            merge_shard_results([
                fake_shard([0, 1], shard_index=0),
                fake_shard([1, 2, 3], shard_index=1),
            ])

    def test_rejects_missing_jobs(self):
        with pytest.raises(ShardError, match="missing job indices \\[3\\]"):
            merge_shard_results([
                fake_shard([0, 1], shard_index=0),
                fake_shard([2], shard_index=1),
            ])

    def test_rejects_out_of_plan_indices(self):
        with pytest.raises(ShardError, match="out-of-plan"):
            merge_shard_results([
                fake_shard([0, 1], shard_index=0),
                fake_shard([2, 3, 7], shard_index=1),
            ])


# --------------------------------------------------------------------------- #
# manifests and shard result files
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_jobs():
    """Three cheap jobs over one tiny dataset, poison job included."""
    system = random_stable_system(order=8, n_ports=2, feedthrough=0.1, seed=7)
    data = sample_scattering(system, linear_frequencies(1e2, 1e4, 10), label="tiny")
    reference = sample_scattering(system, linear_frequencies(1e2, 1e4, 20),
                                  label="tiny validation")
    return [
        FitJob(data, method="mfti", options=MftiOptions(block_size=2),
               label="ok-mfti", tags={"kind": "good"}, reference=reference),
        FitJob(data, method="vfti", label="ok-vfti", tags={"kind": "good"}),
        FitJob(data, method="mfti", options=MftiOptions(order=50),
               label="poison", tags={"kind": "poison"}),
    ]


class TestManifests:
    def test_round_trip_and_names(self, tiny_jobs, tmp_path):
        plan = ShardPlan.from_jobs(tiny_jobs, 2)
        paths = write_manifests(plan, tiny_jobs, tmp_path,
                                workload="demo", workload_kwargs={"n": 1},
                                cache_dir="/shared/cache")
        assert [os.path.basename(p) for p in paths] == \
               [manifest_name(0, 2), manifest_name(1, 2)]
        manifests = [load_manifest(path) for path in paths]
        indices = sorted(spec["index"] for m in manifests for spec in m["jobs"])
        assert indices == [0, 1, 2]
        for manifest in manifests:
            assert manifest["plan_fingerprint"] == plan.fingerprint
            assert manifest["workload"] == {"name": "demo", "kwargs": {"n": 1}}
            assert manifest["cache_dir"] == "/shared/cache"
            for spec in manifest["jobs"]:
                assert spec["job_id"] == plan.job_ids[spec["index"]]
                assert spec["options"]["items"], "canonical options missing"

    def test_write_rejects_drifted_job_list(self, tiny_jobs, tmp_path):
        plan = ShardPlan.from_jobs(tiny_jobs, 2)
        drifted = list(tiny_jobs)
        drifted[0] = dataclasses.replace(tiny_jobs[0], tags={"kind": "edited"})
        with pytest.raises(ShardError, match="does not match the plan"):
            write_manifests(plan, drifted, tmp_path)

    @pytest.mark.parametrize("mutate, match", [
        (lambda m: m.update(format="other"), "format marker"),
        (lambda m: m.update(schema_version=99), "schema 99"),
        (lambda m: m.update(schema_version=1), "schema 1"),
        (lambda m: m.pop("plan_fingerprint"), "missing required key"),
        (lambda m: m.update(shard_index=5), "out of range"),
        (lambda m: m["jobs"].append(dict(m["jobs"][0])), "twice"),
        (lambda m: m["jobs"][0].update(index=99), "out of range"),
        (lambda m: m["jobs"][0].pop("job_id"), "missing required key"),
    ])
    def test_validate_manifest_rejections(self, tiny_jobs, tmp_path, mutate, match):
        plan = ShardPlan.from_jobs(tiny_jobs, 1)
        path = write_manifests(plan, tiny_jobs, tmp_path)[0]
        manifest = load_manifest(path)
        mutate(manifest)
        with pytest.raises(ShardError, match=match):
            validate_manifest(manifest)

    def test_run_shard_rejects_tampered_job_id(self, tiny_jobs, tmp_path):
        plan = ShardPlan.from_jobs(tiny_jobs, 1)
        manifest = load_manifest(write_manifests(plan, tiny_jobs, tmp_path)[0])
        manifest["jobs"][0]["job_id"] = "0" * 64
        with pytest.raises(ShardError, match="drifted"):
            run_shard(manifest, tiny_jobs)

    def test_run_shard_rejects_wrong_batch_size(self, tiny_jobs, tmp_path):
        plan = ShardPlan.from_jobs(tiny_jobs, 1)
        manifest = load_manifest(write_manifests(plan, tiny_jobs, tmp_path)[0])
        with pytest.raises(ShardError, match="rebuilt batch has 2"):
            run_shard(manifest, tiny_jobs[:2])


class TestShardResultFiles:
    def test_bitwise_round_trip_including_failure_records(self, tiny_jobs, tmp_path):
        plan = ShardPlan.from_jobs(tiny_jobs, 1)
        manifest = load_manifest(write_manifests(plan, tiny_jobs, tmp_path)[0])
        result = run_shard(manifest, tiny_jobs)
        assert result.n_failed == 1  # the poison job travels as a record
        path = write_shard_result(tmp_path / "shard.npz", manifest, result)
        loaded = read_shard_result(path)
        assert loaded.plan_fingerprint == plan.fingerprint
        assert not numerical_differences(result, loaded.result)
        for original, restored in zip(result.records, loaded.result.records):
            assert original.elapsed_seconds == restored.elapsed_seconds
            assert original.error_type == restored.error_type
            assert original.error_message == restored.error_message
            assert original.cache_status == restored.cache_status

    def test_write_rejects_wrong_record_set(self, tiny_jobs, tmp_path):
        plan = ShardPlan.from_jobs(tiny_jobs, 2)
        paths = write_manifests(plan, tiny_jobs, tmp_path)
        manifest0 = load_manifest(paths[0])
        manifest1 = load_manifest(paths[1])
        result0 = run_shard(manifest0, tiny_jobs)
        with pytest.raises(ShardError, match="manifest plans"):
            write_shard_result(tmp_path / "wrong.npz", manifest1, result0)

    def test_read_rejects_garbage_and_foreign_files(self, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not an npz archive")
        with pytest.raises(ShardError, match="cannot read"):
            read_shard_result(garbage)
        import numpy as np

        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, data=np.arange(3))
        with pytest.raises(ShardError, match="metadata blob"):
            read_shard_result(foreign)

    def test_read_rejects_tampered_array_names(self, tmp_path):
        """A non-numeric record suffix is a ShardError, not a raw ValueError."""
        import numpy as np

        from repro.batch.sharding import SHARD_RESULT_FORMAT, SHARD_SCHEMA_VERSION
        from repro.cache import PAYLOAD_SCHEMA_VERSION

        meta = {"format": SHARD_RESULT_FORMAT,
                "schema_version": SHARD_SCHEMA_VERSION,
                "payload_schema_version": PAYLOAD_SCHEMA_VERSION,
                "plan_fingerprint": "x", "shard_index": 0, "n_shards": 1,
                "n_jobs_total": 0, "executor": "serial", "n_workers": 1,
                "chunk_size": 1, "wall_seconds": 0.0, "records": []}
        tampered = tmp_path / "tampered.npz"
        np.savez(tampered,
                 __shard_meta__=np.frombuffer(json.dumps(meta).encode(),
                                              dtype=np.uint8),
                 recordX__a=np.arange(2))
        with pytest.raises(ShardError, match="unexpected array"):
            read_shard_result(tampered)

    def test_read_refuses_schema_1_results_by_name(self, tmp_path):
        from repro.batch.sharding import SHARD_RESULT_FORMAT

        meta = {"format": SHARD_RESULT_FORMAT, "schema_version": 1, "records": []}
        old = tmp_path / "old.npz"
        np.savez(old, __shard_meta__=np.frombuffer(json.dumps(meta).encode(),
                                                   dtype=np.uint8))
        with pytest.raises(ShardError, match="schema 1"):
            read_shard_result(old)

    def test_merge_refuses_shards_run_under_different_blas_threading(self, tiny_jobs,
                                                                     tmp_path):
        plan = ShardPlan.from_jobs(tiny_jobs, 2)
        paths = []
        for manifest_path in write_manifests(plan, tiny_jobs, tmp_path):
            manifest = load_manifest(manifest_path)
            paths.append(write_shard_result(
                manifest_path.replace(".manifest.json", ".result.npz"),
                manifest, run_shard(manifest, tiny_jobs)))
        assert merge_shard_results(paths).n_jobs == len(tiny_jobs)
        # rewrite shard 1's recorded count, as a runner under another
        # OPENBLAS_NUM_THREADS would have written it
        with np.load(paths[1]) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(arrays["__shard_meta__"].tobytes().decode())
        meta["blas_threads"] = (meta["blas_threads"] or 1) + 1
        arrays["__shard_meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(paths[1], **arrays)
        with pytest.raises(ShardError, match="different BLAS threading"):
            merge_shard_results(paths)

    def test_load_manifest_missing_path_is_shard_error(self, tmp_path):
        with pytest.raises(ShardError, match="cannot read manifest"):
            load_manifest(tmp_path / "does-not-exist.manifest.json")


# --------------------------------------------------------------------------- #
# the differential acceptance test
# --------------------------------------------------------------------------- #
#: ``python -m repro shard ...`` through the one shared subprocess harness
#: (also used by the CI sharded smoke).
run_cli = functools.partial(cli_subprocess, "shard")


class TestShardedRunsMatchUnsharded:
    def test_two_shards_via_cli_subprocesses(self, reference_run, grid_jobs,
                                             tmp_path):
        """Cold + warm 2-shard CLI round trip vs. the cached unsharded run."""
        shard_dir = tmp_path / "shards"
        shared_store = tmp_path / "store-sharded"
        plan = run_cli(
            "plan", "--workload", "mixed_batch_jobs",
            "--workload-args", json.dumps(GRID_KWARGS),
            "--shards", "2", "--out-dir", str(shard_dir),
            "--cache-dir", str(shared_store),
        )
        assert plan.returncode == 0, plan.stderr
        manifests = sorted(shard_dir.glob("*.manifest.json"))
        assert len(manifests) == 2

        # the cached unsharded reference: cold run populates, warm run replays
        cache = FitCache.on_disk(tmp_path / "store-unsharded")
        cold_reference = BatchEngine(cache=cache).run(grid_jobs)
        assert cold_reference.n_cache_misses == cold_reference.n_jobs
        warm_reference = BatchEngine(cache=cache).run(grid_jobs)
        assert warm_reference.n_cache_hits == warm_reference.n_jobs

        for expectation, reference in (("cold", cold_reference),
                                       ("warm", warm_reference)):
            shard_files = []
            for manifest in manifests:
                run = run_cli("run", str(manifest))
                assert run.returncode == 0, run.stderr
                shard_files.append(
                    str(manifest).replace(".manifest.json", ".result.npz"))
            merged = merge_shard_results(shard_files)
            # both shards share one DiskStore: the cold sweep misses every
            # job, the warm sweep replays every job -- exactly like the
            # unsharded cached run, counters and statuses included
            assert_identical(reference, merged)
            if expectation == "cold":
                assert merged.n_cache_misses == merged.n_jobs
            else:
                assert merged.n_cache_hits == merged.n_jobs

        # the uncached unsharded run agrees numerically too (cache fields
        # aside): cached and uncached paths compute identical payloads
        assert not numerical_differences(reference_run, cold_reference)

    def test_three_shards_in_process_mixed_executors(self, reference_run,
                                                     grid_jobs, tmp_path):
        """3-shard in-process merge, one shard on the process executor."""
        plan = ShardPlan.from_jobs(grid_jobs, 3)
        paths = write_manifests(plan, grid_jobs, tmp_path,
                                workload="mixed_batch_jobs",
                                workload_kwargs=GRID_KWARGS)
        engines = [
            BatchEngine(),
            BatchEngine(executor="process", max_workers=2, chunk_size=1),
            BatchEngine(executor="thread", max_workers=2),
        ]
        shard_files = []
        for path, engine in zip(paths, engines):
            manifest = load_manifest(path)
            result = run_shard(manifest, grid_jobs, engine=engine)
            shard_files.append(write_shard_result(
                path.replace(".manifest.json", ".result.npz"), manifest, result))
        merged = merge_shard_results(shard_files)
        assert_identical(reference_run, merged)
        assert merged.executor == "sharded(3)"

    def test_merge_cli_exports_identical_json(self, reference_run, grid_jobs,
                                              tmp_path):
        """The merge subcommand writes the same comparable JSON export."""
        plan = ShardPlan.from_jobs(grid_jobs, 2)
        paths = write_manifests(plan, grid_jobs, tmp_path,
                                workload="mixed_batch_jobs",
                                workload_kwargs=GRID_KWARGS)
        shard_files = []
        for path in paths:
            manifest = load_manifest(path)
            result = run_shard(manifest, grid_jobs)
            shard_files.append(write_shard_result(
                path.replace(".manifest.json", ".result.npz"), manifest, result))
        out = tmp_path / "merged.json"
        merge = run_cli("merge", *shard_files, "--out", str(out))
        assert merge.returncode == 0, merge.stderr
        exported = json.loads(out.read_text())
        assert exported["n_jobs"] == reference_run.n_jobs
        assert exported["n_failed"] == 0
        reference_jobs = json.loads(comparable_json(reference_run))["jobs"]
        exported_jobs = exported["jobs"]
        for job in exported_jobs:
            # the volatile envelope comparable_dict normalises: timing, plus
            # the response-cache tally (each shard shares its own cache, so
            # the hit/miss split differs from the unsharded reference)
            job["elapsed_seconds"] = 0.0
            job["responses"] = {"hits": 0, "misses": 0}
        assert exported_jobs == reference_jobs

    def test_cli_surfaces_validation_errors(self, tmp_path):
        bad = run_cli("plan", "--workload", "no-such-grid",
                      "--shards", "2", "--out-dir", str(tmp_path))
        assert bad.returncode == 2
        assert "unknown workload" in bad.stderr
        missing = run_cli("run", str(tmp_path / "no-such.manifest.json"))
        assert missing.returncode == 2
        assert "cannot read manifest" in missing.stderr

    def test_run_rejects_invalid_engine_flags(self, grid_jobs, tmp_path):
        plan = ShardPlan.from_jobs(grid_jobs, 2)
        path = write_manifests(plan, grid_jobs, tmp_path,
                               workload="mixed_batch_jobs",
                               workload_kwargs=GRID_KWARGS)[0]
        bad = run_cli("run", str(path), "--chunk-size", "0")
        assert bad.returncode == 2
        assert bad.stderr.startswith("error: invalid engine configuration")
        assert len(bad.stderr.strip().splitlines()) == 1
        assert not os.path.exists(str(path).replace(".manifest.json", ".result.npz"))


class TestTimeDomainJobsThroughShards:
    """``time_domain_jobs`` end-to-end: BatchEngine + shard merge must carry
    the per-record ``time_domain`` metric dicts bitwise-reproducibly."""

    #: Scaled-down time-domain grid: one order, both fit methods.
    TD_KWARGS = dict(system_orders=(12,), methods=("vfti", "mfti"),
                     n_samples=40, n_validation=60, time_points=64,
                     oversample=4)

    @pytest.fixture(scope="class")
    def td_jobs(self):
        return time_domain_jobs(**self.TD_KWARGS)

    @pytest.fixture(scope="class")
    def td_reference(self, td_jobs):
        result = BatchEngine().run(td_jobs)
        assert result.n_failed == 0, result.failures
        return result

    def test_records_carry_time_domain_metrics(self, td_reference):
        for record in td_reference.records:
            assert set(record.time_domain) == set(TIME_DOMAIN_METRIC_KEYS)
            assert all(np.isfinite(v) for v in record.time_domain.values())
        table = normalized(td_reference).summary_table(title="td")
        assert "impulse L2" in table and "ringing" in table

    def test_two_shard_merge_is_bitwise_identical(self, td_reference, td_jobs,
                                                  tmp_path):
        plan = ShardPlan.from_jobs(td_jobs, 2)
        paths = write_manifests(plan, td_jobs, tmp_path,
                                workload="time_domain_jobs",
                                workload_kwargs=self.TD_KWARGS)
        shard_files = []
        for path in paths:
            manifest = load_manifest(path)
            result = run_shard(manifest, td_jobs)
            shard_files.append(write_shard_result(
                path.replace(".manifest.json", ".result.npz"), manifest, result))
        merged = merge_shard_results(shard_files)
        assert_identical(td_reference, merged)
        # the npz round trip preserved the metric dicts exactly (hex floats)
        for ref, got in zip(td_reference.records, merged.records):
            assert ref.time_domain == got.time_domain

    def test_time_domain_spec_separates_fingerprints(self, td_jobs):
        """A job with a spec must never share a fingerprint with the same
        job without one -- the cache would otherwise serve stale records."""
        with_spec = td_jobs[0]
        without_spec = dataclasses.replace(with_spec, time_domain=None)
        assert job_fingerprint(with_spec) != job_fingerprint(without_spec)
