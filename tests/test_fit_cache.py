"""Tests of the content-addressed fit cache (``repro.cache``).

Covers the subsystem bottom-up -- fingerprints, payload serialization, the
memory/disk stores (including LRU eviction and corruption safety) -- and then
the two integration contracts that make caching trustworthy:

* ``run_fit(..., cache=...)`` replays bitwise-identical results, and keyword
  shortcuts share cache entries with explicit options;
* a batch sweep run twice over one ``DiskStore`` reports 100 % hits, equal
  numerical payloads (via the engine's own ``numerical_differences``
  contract) and correct counters -- including the per-job error-capture
  path, which must never populate the cache;
* a model's sweep depends only on the model and its grid, not on earlier
  sweeps: a warm sweep builds no evaluation plan, content-identical jobs
  build one, and a fit-cache hit's metrics equal the miss's with or
  without a response cache.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.batch import BatchEngine, FitJob, numerical_differences, run_job
from repro.cache import (
    PAYLOAD_SCHEMA_VERSION,
    DiskStore,
    FitCache,
    MemoryStore,
    dataset_fingerprint,
    evaluation_key,
    fit_key,
    options_fingerprint,
    payload_to_result,
    result_to_payload,
)
from repro.core import run_fit
from repro.core.options import MftiOptions, RecursiveOptions, VftiOptions
from repro.experiments.workloads import mixed_batch_jobs
from repro.metrics.timedomain import TimeDomainSpec
from repro.systems import statespace


@pytest.fixture(scope="module")
def job_grid(small_data, noisy_data, dense_data):
    """Deterministic mixed-method grid over two datasets (6 jobs)."""
    jobs = []
    for name, data in (("clean", small_data), ("noisy", noisy_data)):
        jobs.append(FitJob(data, method="vfti", options=VftiOptions(),
                           label=f"{name}/vfti", reference=dense_data))
        jobs.append(FitJob(data, method="mfti", options=MftiOptions(block_size=2),
                           label=f"{name}/mfti-t2", reference=dense_data))
        jobs.append(FitJob(
            data, method="mfti-recursive",
            options=RecursiveOptions(block_size=2, samples_per_iteration=2,
                                     rank_method="tolerance", rank_tolerance=1e-8),
            label=f"{name}/recursive", reference=dense_data))
    return jobs


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprints:
    def test_label_and_layout_invariance(self, small_data):
        relabelled = small_data.with_samples(small_data.samples, label="renamed")
        assert dataset_fingerprint(small_data) == dataset_fingerprint(relabelled)
        fortran = small_data.with_samples(np.asfortranarray(small_data.samples))
        assert dataset_fingerprint(small_data) == dataset_fingerprint(fortran)

    def test_sensitive_to_content_kind_and_impedance(self, small_data, noisy_data):
        assert dataset_fingerprint(small_data) != dataset_fingerprint(noisy_data)
        assert (dataset_fingerprint(small_data)
                != dataset_fingerprint(small_data.converted("Z")))
        assert dataset_fingerprint(small_data) != dataset_fingerprint(
            type(small_data)(small_data.frequencies_hz, small_data.samples,
                             kind=small_data.kind, reference_impedance=75.0))

    def test_subset_changes_fingerprint(self, small_data):
        assert (dataset_fingerprint(small_data)
                != dataset_fingerprint(small_data.subset(range(4))))

    def test_dataset_fingerprint_method_delegates(self, small_data):
        assert small_data.fingerprint() == dataset_fingerprint(small_data)

    def test_rejects_non_dataset(self):
        with pytest.raises(TypeError, match="FrequencyData"):
            dataset_fingerprint(np.zeros(3))

    def test_options_fingerprint_separates_methods_and_values(self):
        base = options_fingerprint("mfti", MftiOptions())
        assert base == options_fingerprint("mfti", MftiOptions())
        assert base != options_fingerprint("vfti", VftiOptions())
        assert base != options_fingerprint("mfti", MftiOptions(block_size=2))
        # None hashes like the method defaults (what the front-ends build)
        assert base == options_fingerprint("mfti", None)
        # subclasses with identical shared fields stay distinct
        assert (options_fingerprint("mfti", MftiOptions())
                != options_fingerprint("mfti-recursive", RecursiveOptions()))

    def test_live_generator_seed_rejected(self):
        options = MftiOptions(direction_kind="random",
                              direction_seed=np.random.default_rng(0))
        with pytest.raises(TypeError, match="canonical"):
            options_fingerprint("mfti", options)

    def test_fit_and_evaluation_keys_compose(self, small_data, dense_data):
        key = fit_key(small_data, "mfti", MftiOptions())
        assert key == fit_key(small_data, "mfti", MftiOptions())
        assert key != fit_key(dense_data, "mfti", MftiOptions())
        assert evaluation_key(key, small_data) != evaluation_key(key, dense_data)


# --------------------------------------------------------------------------- #
# payload serialization
# --------------------------------------------------------------------------- #
class TestSerialization:
    @pytest.mark.parametrize("method,options", [
        ("mfti", MftiOptions(block_size=2)),
        ("vfti", VftiOptions()),
        ("mfti-recursive", RecursiveOptions(block_size=2, samples_per_iteration=2,
                                            rank_method="tolerance",
                                            rank_tolerance=1e-8)),
    ])
    def test_roundtrip_is_bitwise(self, small_data, method, options):
        fresh = run_fit(small_data, method=method, options=options)
        arrays, meta = result_to_payload(fresh)
        json.dumps(meta)  # metadata must be JSON-serializable as-is
        # schema 9: recursive fits count every sampled frequency they realize
        assert meta["schema_version"] == PAYLOAD_SCHEMA_VERSION == 9
        # the model and its realization SVD; no Fig.-1 profiles (schema 3)
        assert set(arrays) == {"E", "A", "B", "C", "D", "realization_singular_values"}
        restored = payload_to_result(arrays, meta, options=options)
        for attribute in ("E", "A", "B", "C", "D"):
            assert np.array_equal(getattr(fresh.system, attribute),
                                  getattr(restored.system, attribute))
        assert restored.method == fresh.method
        assert restored.order == fresh.order
        assert restored.n_samples_used == fresh.n_samples_used
        assert restored.realization.order == fresh.realization.order
        assert np.array_equal(restored.realization.singular_values,
                              fresh.realization.singular_values)
        # metadata round-trips with tuples/diagnostics intact; the heavy
        # tangential data is dropped by design
        assert restored.metadata == fresh.metadata
        assert restored.tangential is None

    def test_schema_mismatch_rejected(self, small_data):
        arrays, meta = result_to_payload(run_fit(small_data, method="mfti"))
        meta = dict(meta, schema_version=999)
        with pytest.raises(ValueError, match="schema"):
            payload_to_result(arrays, meta)


# --------------------------------------------------------------------------- #
# stores
# --------------------------------------------------------------------------- #
class TestMemoryStore:
    def test_lru_eviction(self):
        store = MemoryStore(max_entries=2)
        payloads = {k: ({"M": np.eye(2)}, {"k": k}) for k in "abc"}
        assert store.save("a", payloads["a"]) == 0
        assert store.save("b", payloads["b"]) == 0
        store.load("a")  # refresh "a": "b" becomes the LRU entry
        assert store.save("c", payloads["c"]) == 1
        assert "b" not in store and "a" in store and "c" in store
        assert store.load("b") is None
        assert store.clear() == 2 and len(store) == 0

    def test_metadata_only_entries_exempt_from_bound(self):
        # evaluation memos are byte-sized and must never evict the fit
        # payloads they belong to
        store = MemoryStore(max_entries=1)
        assert store.save("fit", ({"M": np.eye(2)}, {})) == 0
        for index in range(5):
            assert store.save(f"eval-{index}", ({}, {"error": float(index)})) == 0
        assert "fit" in store and len(store) == 6
        assert store.save("fit-2", ({"M": np.eye(3)}, {})) == 1  # evicts "fit"
        assert "fit" not in store and "fit-2" in store

    def test_payloads_are_copied_and_frozen(self):
        # mutating the caller's array after save (or the loaded array) must
        # not corrupt the stored entry
        store = MemoryStore()
        source = np.eye(2)
        store.save("k", ({"M": source}, {}))
        source[0, 0] = 99.0
        arrays, _ = store.load("k")
        assert arrays["M"][0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            arrays["M"][0, 0] = 42.0

    def test_invalid_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            MemoryStore(max_entries=0)


class TestDiskStore:
    def test_layout_and_roundtrip(self, tmp_path, small_data):
        store = DiskStore(tmp_path / "cache")
        key = fit_key(small_data, "mfti", MftiOptions())
        payload = result_to_payload(run_fit(small_data, method="mfti"))
        store.save(key, payload)
        assert key in store and store.keys() == [key]
        npz = tmp_path / "cache" / f"v{PAYLOAD_SCHEMA_VERSION}" / key[:2] / f"{key}.npz"
        assert npz.exists() and npz.with_suffix(".json").exists()
        arrays, meta = store.load(key)
        assert np.array_equal(arrays["A"], payload[0]["A"])
        assert meta == json.loads(json.dumps(payload[1]))

    def test_missing_and_corrupt_entries_load_as_none(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.load("0" * 64) is None
        key = "1" * 64
        store.save(key, ({"A": np.eye(2)}, {"schema_version": 1}))
        npz, sidecar = store._entry_paths(key)
        with open(npz, "wb") as handle:
            handle.write(b"not a zip archive")
        assert store.load(key) is None  # truncated npz
        with open(npz, "wb") as handle:
            handle.write(b"")
        with open(sidecar, "w", encoding="utf-8") as handle:
            handle.write("{broken json")
        assert store.load(key) is None  # invalid sidecar
        # a fresh save overwrites the corrupt entry
        store.save(key, ({"A": np.eye(2)}, {"schema_version": 1}))
        assert store.load(key) is not None
        assert store.clear() == 1

    def test_clear_empty(self, tmp_path):
        assert DiskStore(tmp_path / "nothing-here").clear() == 0

    def test_user_and_env_expansion(self, monkeypatch, tmp_path):
        # the README example points at "~/.cache/..."; a literal "~"
        # directory in the CWD would be a data-loss trap
        monkeypatch.setenv("HOME", str(tmp_path))
        assert DiskStore("~/fits").root == str(tmp_path / "fits")
        monkeypatch.setenv("REPRO_TEST_CACHE_HOME", str(tmp_path))
        assert DiskStore("$REPRO_TEST_CACHE_HOME/fits").root == str(tmp_path / "fits")


# --------------------------------------------------------------------------- #
# FitCache + run_fit integration
# --------------------------------------------------------------------------- #
class TestFitCache:
    def test_run_fit_replays_bitwise(self, small_data):
        cache = FitCache()
        first = run_fit(small_data, method="mfti", options=MftiOptions(block_size=2),
                        cache=cache)
        second = run_fit(small_data, method="mfti", options=MftiOptions(block_size=2),
                         cache=cache)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert np.array_equal(first.system.A, second.system.A)
        assert second.metadata["options"] == MftiOptions(block_size=2)

    def test_kwarg_shortcut_shares_entry_with_options(self, small_data):
        cache = FitCache()
        run_fit(small_data, method="mfti", block_size=2, cache=cache)
        run_fit(small_data, method="mfti", options=MftiOptions(block_size=2),
                cache=cache)
        assert cache.stats().hits == 1

    def test_unseeded_random_directions_never_cached(self, small_data):
        cache = FitCache()
        options = MftiOptions(direction_kind="random")
        run_fit(small_data, method="mfti", options=options, cache=cache)
        run_fit(small_data, method="mfti", options=options, cache=cache)
        stats = cache.stats()
        assert stats.hits == stats.misses == 0 and stats.skips == 2
        # a *seeded* random fit is deterministic and cacheable
        seeded = MftiOptions(direction_kind="random", direction_seed=7)
        run_fit(small_data, method="mfti", options=seeded, cache=cache)
        run_fit(small_data, method="mfti", options=seeded, cache=cache)
        assert cache.stats().hits == 1

    def test_wrong_options_type_still_raises(self, small_data):
        with pytest.raises(TypeError, match="expects MftiOptions"):
            run_fit(small_data, method="mfti", options=VftiOptions(), cache=FitCache())

    def test_eviction_counter_surfaces(self, small_data, dense_data):
        cache = FitCache(MemoryStore(max_entries=1))
        run_fit(small_data, method="mfti", cache=cache)
        run_fit(dense_data, method="mfti", cache=cache)
        assert cache.stats().evictions >= 1

    def test_stats_helpers(self):
        stats = FitCache().stats()
        assert stats.hits == stats.misses == 0
        payload = stats.to_dict()
        assert payload["hits"] == 0 and payload["eval_misses"] == 0

    def test_cache_survives_pickle(self, small_data):
        import pickle

        cache = FitCache()
        run_fit(small_data, method="mfti", cache=cache)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.stats().misses == 1
        result = run_fit(small_data, method="mfti", cache=clone)
        assert clone.stats().hits == 1 and result.order > 0


# --------------------------------------------------------------------------- #
# batch cache-hit equivalence (the acceptance contract)
# --------------------------------------------------------------------------- #
class TestBatchCacheEquivalence:
    def test_second_disk_sweep_is_all_hits_and_identical(
        self, job_grid, fit_cache_dir
    ):
        cache = FitCache.on_disk(fit_cache_dir / "equivalence")
        engine = BatchEngine(cache=cache)
        cold = engine.run(job_grid)
        warm = engine.run(job_grid)

        assert cold.n_failed == warm.n_failed == 0
        assert [r.cache_status for r in cold.records] == ["miss"] * len(job_grid)
        assert [r.cache_status for r in warm.records] == ["hit"] * len(job_grid)
        assert (cold.n_cache_hits, cold.n_cache_misses) == (0, len(job_grid))
        assert (warm.n_cache_hits, warm.n_cache_misses) == (len(job_grid), 0)
        # the engine's bitwise-equivalence contract holds across cold/warm
        assert numerical_differences(cold, warm) == []
        stats = cache.stats()
        assert stats.hits == len(job_grid) and stats.misses == len(job_grid)
        assert stats.eval_hits == 2 * len(job_grid)  # data + reference per job

    def test_counters_in_table_and_json(self, job_grid, fit_cache_dir, tmp_path):
        cache = FitCache.on_disk(fit_cache_dir / "reporting")
        warm = None
        for _ in range(2):
            warm = BatchEngine(cache=cache).run(job_grid)
        table = warm.summary_table()
        assert f"cache hits={len(job_grid)}/{len(job_grid)}" in table
        assert "hit" in table
        payload = json.loads(warm.to_json())
        assert payload["schema_version"] == 5
        assert payload["n_cache_hits"] == len(job_grid)
        assert payload["n_cache_misses"] == 0
        assert all(job["cache"] == "hit" for job in payload["jobs"])
        path = warm.save_json(str(tmp_path / "warm.json"))
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["n_cache_hits"] == len(job_grid)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pooled_backends_share_disk_cache(self, job_grid, fit_cache_dir, executor):
        cache = FitCache.on_disk(fit_cache_dir / f"pooled-{executor}")
        serial_cold = BatchEngine(cache=cache).run(job_grid)
        pooled_warm = BatchEngine(executor=executor, max_workers=2,
                                  cache=cache).run(job_grid)
        assert pooled_warm.n_cache_hits == len(job_grid)
        assert numerical_differences(serial_cold, pooled_warm) == []

    def test_error_capture_path_with_cache(self, small_data, dense_data, fit_cache_dir):
        cache = FitCache.on_disk(fit_cache_dir / "failures")
        jobs = [
            FitJob(small_data, method="mfti", label="good", reference=dense_data),
            FitJob(small_data.subset([0]), method="mfti", label="poison"),
        ]
        for sweep in range(2):
            result = BatchEngine(cache=cache).run(jobs)
            assert result.n_ok == 1 and result.n_failed == 1
            good, failure = result.records
            assert (good.label, failure.label) == ("good", "poison")
            assert failure.error_type == "ValueError"
            assert failure.cache_status is None  # failed before fit completed
            expected = "miss" if sweep == 0 else "hit"
            assert good.cache_status == expected
        # the failing fit never landed in the store: only the good fit + evals
        assert cache.stats().stores == 3

    def test_cache_off_leaves_records_unmarked(self, job_grid):
        result = BatchEngine().run(job_grid[:2])
        assert not result.used_cache
        assert all(r.cache_status is None for r in result.records)
        assert "cache" not in result.summary_table()

    def test_bounded_memory_cache_still_fully_warm(self, job_grid):
        # each job stores one fit + two evaluation memos; the memos must not
        # count toward the bound, or a "large enough" bound would still
        # never produce a warm sweep
        cache = FitCache(MemoryStore(max_entries=len(job_grid)))
        BatchEngine(cache=cache).run(job_grid)
        warm = BatchEngine(cache=cache).run(job_grid)
        assert warm.n_cache_hits == len(job_grid)
        assert cache.stats().evictions == 0

    def test_process_workers_get_empty_memory_store(self, job_grid):
        # a populated MemoryStore must not be pickled to process workers
        # (private copies cannot propagate hits back); DiskStore travels
        cache = FitCache()
        BatchEngine(cache=cache).run(job_grid[:2])  # warm the in-process store
        engine = BatchEngine(executor="process", max_workers=2, cache=cache)
        shipped = engine._worker_cache()
        assert shipped is not cache and len(shipped.store) == 0
        assert BatchEngine(cache=cache)._worker_cache() is cache
        disk_engine = BatchEngine(executor="process",
                                  cache=FitCache.on_disk("unused-dir"))
        assert disk_engine._worker_cache() is disk_engine.cache
        # end-to-end: the sweep still runs correctly, workers just start cold
        uncached = BatchEngine().run(job_grid[:2])
        pooled = engine.run(job_grid[:2])
        assert [r.cache_status for r in pooled.records] == ["miss", "miss"]
        assert numerical_differences(uncached, pooled) == []

    def test_run_job_statuses_directly(self, small_data, dense_data):
        cache = FitCache()
        record = run_job(0, FitJob(small_data, method="mfti"), cache)
        assert record.cache_status == "miss"
        record = run_job(1, FitJob(small_data, method="mfti"), cache)
        assert record.cache_status == "hit"
        assert record.to_dict()["cache"] == "hit"
        unseeded = FitJob(small_data, method="mfti",
                          options=MftiOptions(direction_kind="random"))
        assert run_job(2, unseeded, cache).cache_status == "skipped"

    def test_parallel_runs_use_distinct_dirs(self, fit_cache_dir):
        # the shared fixture must hand every consumer a path under pytest's
        # per-run numbered basetemp -- two concurrent pytest sessions
        # therefore write to different stores by construction
        assert os.path.basename(str(fit_cache_dir)).startswith("fit-cache")
        assert "pytest" in os.path.basename(os.path.dirname(str(fit_cache_dir)))


# --------------------------------------------------------------------------- #
# evaluation plans
# --------------------------------------------------------------------------- #
@pytest.fixture
def plan_builds(monkeypatch):
    """One entry per evaluation plan a ``DescriptorSystem`` sweep builds."""
    build = statespace.build_evaluation_plan
    calls = []

    def counting_build(*args):
        calls.append(None)
        return build(*args)

    monkeypatch.setattr(statespace, "build_evaluation_plan", counting_build)
    return calls


class TestEvaluationPlans:
    @pytest.mark.parametrize("method", ["mfti", "vfti"])
    @pytest.mark.parametrize("data_name", ["small_data", "noisy_data", "many_sample_data"])
    def test_sweep_does_not_depend_on_earlier_sweeps(
        self, request, dense_data, data_name, method
    ):
        # a sweep over the reference grid is the same whether or not the
        # data grid was swept first, and survives a pickle round trip
        data = request.getfixturevalue(data_name)
        model = run_fit(data, method=method).system
        fresh = model.copy().frequency_response(dense_data.frequencies_hz)
        seasoned = model.copy()
        seasoned.frequency_response(data.frequencies_hz)
        assert np.array_equal(seasoned.frequency_response(dense_data.frequencies_hz), fresh)
        clone = pickle.loads(pickle.dumps(seasoned))
        assert np.array_equal(clone.frequency_response(dense_data.frequencies_hz), fresh)

    def test_content_identical_jobs_build_one_plan(
        self, many_sample_data, dense_data, plan_builds
    ):
        # the second job's sweeps all hit the response cache, so its model
        # (a fresh fit of the same content) never needs a plan
        job = FitJob(many_sample_data, method="mfti", reference=dense_data)
        batch = BatchEngine().run([job, job])
        assert [record.ok for record in batch.records] == [True, True]
        assert len(plan_builds) == 1

    def test_warm_mixed_grid_builds_no_plan(self, plan_builds):
        jobs = mixed_batch_jobs(pdn_samples=36, pdn_validation=48, line_sections=10,
                                line_samples=40, line_validation=50)
        cache = FitCache()
        cold = BatchEngine(cache=cache).run(jobs)
        assert plan_builds
        plan_builds.clear()
        warm = BatchEngine(cache=cache).run(jobs)
        assert warm.n_cache_hits == len(jobs)
        # every error replays from the evaluation memo: nothing to sweep
        assert plan_builds == []
        assert numerical_differences(cold, warm) == []

    @pytest.mark.parametrize("method", ["mfti", "vfti"])
    def test_hit_without_response_cache_matches_the_miss(
        self, many_sample_data, dense_data, method
    ):
        # the miss sweeps the data grid before the time-domain sweep; the hit
        # replays both errors from the memo and sweeps only the reference
        job = FitJob(many_sample_data, method=method, reference=dense_data,
                     time_domain=TimeDomainSpec(t_final=1e-3))
        cache = FitCache()
        miss = run_job(0, job, cache)
        hit = run_job(1, job, cache)
        assert (miss.cache_status, hit.cache_status) == ("miss", "hit")
        assert hit.time_domain == miss.time_domain
