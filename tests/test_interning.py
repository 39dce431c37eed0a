"""Shared datasets and the response cache: bitwise identity, dedup, exact counters.

Three layers:

* **the process executor's chunk** -- a plain pickle of ``(index, FitJob)``
  pairs ships each shared dataset object once and rebuilds jobs that share
  it, the workload grids share one object per dataset content, and a
  worker's response cache outlives its chunks;
* **wire-protocol tests** -- hypothesis property tests of the batch-level
  dataset table (a bitwise round trip that dedupes equal copies, and
  distinct payloads never collide on one entry); the table decodes to jobs
  with identical fingerprints that run to ``comparable_json``-identical
  batches; tampered tables and dangling refs are rejected;
* **differential engine tests** -- serial / uncached ``run_job`` / process
  runs and a 2-shard CLI round trip (process executor) all produce
  ``comparable_json``-identical results,
  and the response-cache tallies are *exactly* what the sharing structure
  predicts.
"""

from __future__ import annotations

import json
import threading
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchEngine,
    BatchResult,
    FitJob,
    comparable_json,
    job_fingerprint,
    merge_shard_results,
    numerical_differences,
    run_job,
    write_manifests,
)
from repro.batch import engine as engine_module
from repro.batch.sharding import ShardPlan
from repro.cache import (
    ResponseCache,
    dataset_fingerprint,
    grid_fingerprint,
    system_fingerprint,
)
from repro.cache import responses as responses_module
from repro.cli import cli_subprocess
from repro.core.options import MftiOptions
from repro.data.dataset import FrequencyData
from repro.experiments.workloads import mixed_batch_jobs
from repro.metrics.timedomain import TimeDomainSpec
from repro.serve.protocol import ProtocolError, decode_batch, encode_batch

# tiny generated datasets: everything here is shape-agnostic and tier 1
# must stay fast
_DIMS = st.integers(min_value=1, max_value=3)
_COUNTS = st.integers(min_value=1, max_value=4)
_FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                    allow_infinity=False, width=64)


@st.composite
def datasets(draw) -> FrequencyData:
    """A small random-but-valid FrequencyData."""
    k, p, m = draw(_COUNTS), draw(_DIMS), draw(_DIMS)
    gaps = draw(st.lists(st.floats(min_value=0.5, max_value=10.0),
                         min_size=k, max_size=k))
    freqs = np.cumsum(np.asarray(gaps, dtype=float)) + 1.0
    real = draw(st.lists(_FINITE, min_size=k * p * m, max_size=k * p * m))
    imag = draw(st.lists(_FINITE, min_size=k * p * m, max_size=k * p * m))
    samples = (np.asarray(real) + 1j * np.asarray(imag)).reshape(k, p, m)
    kind = draw(st.sampled_from(["S", "Z", "Y", "H"]))
    return FrequencyData(freqs, samples, kind=kind, label="generated")


def bitwise_equal(a: FrequencyData, b: FrequencyData) -> bool:
    """Arrays byte-identical (dtype, shape, every bit) plus the metadata."""
    return (
        a.frequencies_hz.dtype == b.frequencies_hz.dtype
        and a.samples.dtype == b.samples.dtype
        and a.frequencies_hz.shape == b.frequencies_hz.shape
        and a.samples.shape == b.samples.shape
        and a.frequencies_hz.tobytes() == b.frequencies_hz.tobytes()
        and a.samples.tobytes() == b.samples.tobytes()
        and a.kind == b.kind
        and a.reference_impedance == b.reference_impedance
    )


# --------------------------------------------------------------------------- #
# the process executor's chunk: a plain pickle of (index, FitJob) pairs
# --------------------------------------------------------------------------- #
def test_engine_chunk_ships_each_shared_dataset_once(small_data, dense_data,
                                                     grid_jobs):
    jobs = [FitJob(small_data, method="vfti", reference=dense_data, label=f"job-{i}")
            for i in range(8)]
    chunk = list(enumerate(jobs))
    # the process executor's pipe pickles with multiprocessing's pickler
    blob = ForkingPickler.dumps(chunk)
    rebuilt = ForkingPickler.loads(blob)
    assert [index for index, _ in rebuilt] == list(range(8))
    assert [job_fingerprint(job) for _, job in rebuilt] == \
           [job_fingerprint(job) for job in jobs]
    assert bitwise_equal(rebuilt[0][1].data, small_data)
    assert bitwise_equal(rebuilt[0][1].reference, dense_data)
    # the shared datasets come back as one instance each
    assert len({id(job.data) for _, job in rebuilt}) == 1
    assert len({id(job.reference) for _, job in rebuilt}) == 1
    # each extra job costs its own fields, not another dataset copy
    one_job = len(ForkingPickler.dumps(chunk[:1]))
    assert len(blob) < one_job + 7 * 256
    # the workload grids share one object per dataset content, so pickle's
    # object identity is all the deduplication their chunks need
    datasets = [data for job in grid_jobs for data in (job.data, job.reference)
                if data is not None]
    assert len({id(data) for data in datasets}) == \
           len({dataset_fingerprint(data) for data in datasets})


def test_engine_chunk_is_smaller_than_distinct_copies(small_data, dense_data):
    chunk = [(i, FitJob(small_data, method="vfti", reference=dense_data,
                        label=f"job-{i}"))
             for i in range(8)]
    # the same jobs, each holding its own dataset copies -- what a chunk of
    # jobs built apart (say, decoded one by one) would carry
    distinct = [
        (i, FitJob(job.data.with_samples(np.array(job.data.samples, copy=True)),
                   method=job.method, label=job.label,
                   reference=job.reference.with_samples(
                       np.array(job.reference.samples, copy=True))))
        for i, job in chunk
    ]
    shared = len(ForkingPickler.dumps(chunk))
    # 16 dataset consultations ship as 2 copies instead of 16
    assert 4 * shared < len(ForkingPickler.dumps(distinct))


def test_engine_chunk_round_trips_mixed_jobs_bitwise(small_data, noisy_data,
                                                     dense_data):
    jobs = [
        FitJob(small_data, method="vfti", reference=dense_data, label="a"),
        FitJob(small_data, method="mfti", options=MftiOptions(block_size=2),
               reference=dense_data, label="b", tags={"t": 2}),
        FitJob(noisy_data, method="vfti", reference=dense_data, label="c"),
    ]
    chunk = list(enumerate(jobs))
    rebuilt = ForkingPickler.loads(ForkingPickler.dumps(chunk))
    assert [index for index, _ in rebuilt] == [0, 1, 2]
    for (_, original), (_, job) in zip(chunk, rebuilt):
        assert bitwise_equal(job.data, original.data)
        assert bitwise_equal(job.reference, original.reference)
        assert job_fingerprint(job) == job_fingerprint(original)
        assert not job.data.samples.flags.writeable
    # jobs sharing a dataset resolve to one instance per chunk, and only they do
    assert rebuilt[0][1].data is rebuilt[1][1].data
    assert rebuilt[0][1].data is not rebuilt[2][1].data
    assert rebuilt[0][1].reference is rebuilt[2][1].reference


def test_worker_response_cache_persists_across_chunks(small_data, dense_data,
                                                      monkeypatch):
    monkeypatch.setattr(engine_module, "_WORKER_STATE", {})
    engine_module._pool_initializer(None)
    assert set(engine_module._WORKER_STATE) == {"cache", "responses"}
    jobs = [FitJob(small_data, method="vfti", reference=dense_data, label="a"),
            FitJob(small_data, method="mfti", reference=dense_data, label="b")]
    # one single-job chunk each, unpickled apart as a worker receives them
    records = [record for index, job in enumerate(jobs)
               for record in engine_module._run_worker_chunk(
                   ForkingPickler.loads(ForkingPickler.dumps([(index, job)])))]
    # the second chunk's datasets are fresh objects, yet its reference norms
    # hit: the worker's response cache outlives a chunk and keys on content
    assert [(r.response_hits, r.response_misses) for r in records] == [(0, 4), (2, 2)]
    assert comparable_json(BatchResult(records=tuple(records))) == \
           comparable_json(uncached_run(jobs))


def uncached_run(jobs) -> BatchResult:
    """The jobs through ``run_job`` without a response cache (the oracle)."""
    return BatchResult(records=tuple(run_job(index, job) for index, job in enumerate(jobs)))


# --------------------------------------------------------------------------- #
# wire protocol: the batch-level dataset table
# --------------------------------------------------------------------------- #
class TestWireProtocol:
    def jobs(self, small_data, noisy_data, dense_data):
        return [
            FitJob(small_data, method="vfti", reference=dense_data, label="a"),
            FitJob(small_data, method="mfti", options=MftiOptions(block_size=2),
                   reference=dense_data, label="b"),
            FitJob(noisy_data, method="vfti", reference=dense_data, label="c"),
        ]

    def test_table_ships_each_dataset_once_and_decodes_identically(
            self, small_data, noisy_data, dense_data, monkeypatch):
        from repro.serve import protocol

        built = []
        build = protocol.encode_dataset
        monkeypatch.setattr(protocol, "encode_dataset",
                            lambda data: built.append(data) or build(data))
        jobs = self.jobs(small_data, noisy_data, dense_data)
        document = encode_batch(jobs)
        assert set(document["datasets"]) == {dataset_fingerprint(d)
                                             for d in (small_data, noisy_data, dense_data)}
        # 6 consultations, 3 unique documents actually built
        assert len(built) == 3
        # the document survives JSON and decodes to fingerprint-identical jobs
        decoded = decode_batch(json.loads(json.dumps(document)))
        assert [job_fingerprint(j) for j in decoded] == [job_fingerprint(j) for j in jobs]
        for job, original in zip(decoded, jobs):
            assert bitwise_equal(job.data, original.data)
            assert bitwise_equal(job.reference, original.reference)
        # jobs sharing a dataset resolve to one decoded instance
        assert decoded[0].data is decoded[1].data
        assert decoded[0].reference is decoded[2].reference

    @settings(max_examples=25, deadline=None)
    @given(data=datasets())
    def test_table_round_trip_is_bitwise_and_dedupes_equal_copies(self, data):
        # an equal-but-separate copy, labelled apart, shares the first's entry
        copy = FrequencyData(
            np.array(data.frequencies_hz, copy=True),
            np.array(data.samples, copy=True),
            kind=data.kind,
            reference_impedance=data.reference_impedance,
            label="another label",
        )
        document = encode_batch([FitJob(data, method="vfti"),
                                 FitJob(copy, method="mfti", reference=data)])
        assert list(document["datasets"]) == [dataset_fingerprint(data)]
        decoded = decode_batch(json.loads(json.dumps(document)))
        assert bitwise_equal(decoded[0].data, data)
        assert decoded[1].data is decoded[0].data
        assert decoded[1].reference is decoded[0].data

    @settings(max_examples=25, deadline=None)
    @given(data=datasets(), st_data=st.data())
    def test_distinct_payloads_never_collide_in_the_table(self, data, st_data):
        k = st_data.draw(st.integers(0, data.n_samples - 1), label="freq index")
        i = st_data.draw(st.integers(0, data.n_outputs - 1), label="row")
        j = st_data.draw(st.integers(0, data.n_inputs - 1), label="col")
        samples = np.array(data.samples, copy=True)
        entry = samples[k, i, j]
        samples[k, i, j] = np.nextafter(entry.real, np.inf) + 1j * entry.imag
        perturbed = data.with_samples(samples)
        document = encode_batch([FitJob(data, method="vfti", reference=perturbed)])
        assert len(document["datasets"]) == 2
        decoded = decode_batch(json.loads(json.dumps(document)))[0]
        assert bitwise_equal(decoded.data, data)
        assert bitwise_equal(decoded.reference, perturbed)

    def test_decoded_batches_run_to_identical_results(self, small_data, noisy_data,
                                                      dense_data):
        jobs = self.jobs(small_data, noisy_data, dense_data)
        engine = BatchEngine()
        reference = comparable_json(engine.run(jobs))
        assert comparable_json(engine.run(decode_batch(encode_batch(jobs)))) == reference

    def test_decode_rejects_tampered_table_and_dangling_ref(self, small_data,
                                                            dense_data):
        jobs = [FitJob(small_data, method="vfti", reference=dense_data)]
        document = encode_batch(jobs)
        wrong_key = dict(document)
        wrong_key["datasets"] = {"0" * 64: next(iter(document["datasets"].values()))}
        wrong_key["jobs"] = [dict(document["jobs"][0], data_ref="0" * 64)]
        with pytest.raises(ProtocolError):
            decode_batch(wrong_key)
        dangling = dict(document, datasets={})
        with pytest.raises(ProtocolError):
            decode_batch(dangling)


# --------------------------------------------------------------------------- #
# the cross-job response cache
# --------------------------------------------------------------------------- #
class TestResponseCache:
    def test_memoized_values_are_bitwise_and_frozen(self, small_data, small_system):
        from repro.metrics.errors import model_aggregate_error, reference_norms

        cache = ResponseCache()
        first, status_first = cache.reference_norms(small_data)
        again, status_again = cache.reference_norms(small_data)
        assert (status_first, status_again) == ("miss", "hit")
        assert again is first and not first.flags.writeable
        assert first.tobytes() == reference_norms(small_data.samples).tobytes()

        calls = []

        def compute():
            calls.append(1)
            return model_aggregate_error(small_system, small_data)

        error, s1 = cache.aggregate_error(small_system, small_data, compute)
        error2, s2 = cache.aggregate_error(small_system, small_data, compute)
        assert (s1, s2) == ("miss", "hit") and len(calls) == 1
        assert float(error).hex() == float(error2).hex() == \
               model_aggregate_error(small_system, small_data).hex()

        spec = TimeDomainSpec(t_final=1e-3)
        metrics, s3 = cache.time_domain(small_system, small_data, spec,
                                        lambda: {"impulse_l2": 0.5})
        assert s3 == "miss" and dict(metrics) == {"impulse_l2": 0.5}
        with pytest.raises(TypeError):
            metrics["impulse_l2"] = 1.0  # read-only view of the memoized metrics
        # the cache keeps scores, never an (N, p, m) sweep
        assert cache.stats() == {"norm_hits": 1, "norm_misses": 1,
                                 "sweep_hits": 1, "sweep_misses": 2,
                                 "norm_entries": 1, "score_entries": 2}

    def test_score_key_separates_models_datasets_and_specs(
            self, small_system, siso_system, small_data, noisy_data, dense_data):
        assert system_fingerprint(small_system) != system_fingerprint(siso_system)
        # noisy_data shares small_data's grid: scores key on the samples too
        assert grid_fingerprint(small_data) == grid_fingerprint(noisy_data)
        assert dataset_fingerprint(small_data) != dataset_fingerprint(noisy_data)
        cache = ResponseCache()
        cache.aggregate_error(small_system, small_data, lambda: 1.0)
        statuses = [
            cache.aggregate_error(small_system, noisy_data, lambda: 2.0)[1],
            cache.aggregate_error(small_system, dense_data, lambda: 3.0)[1],
            cache.aggregate_error(siso_system, small_data, lambda: 4.0)[1],
        ]
        assert statuses == ["miss"] * 3
        spec = TimeDomainSpec(t_final=1e-3)
        other_spec = TimeDomainSpec(t_final=1e-3, n_points=64)
        cache.time_domain(small_system, small_data, spec, lambda: {"step_l2": 1.0})
        _, status = cache.time_domain(small_system, small_data, other_spec,
                                      lambda: {"step_l2": 2.0})
        assert status == "miss"
        assert cache.aggregate_error(small_system, small_data, lambda: 9.0) == (1.0, "hit")

    def test_lru_bound_evicts_oldest(self, small_data, dense_data, monkeypatch):
        monkeypatch.setattr(responses_module, "MAX_ENTRIES", 1)
        cache = ResponseCache()
        cache.reference_norms(small_data)
        cache.reference_norms(dense_data)  # evicts small_data's norms
        _, status = cache.reference_norms(small_data)
        assert status == "miss"

    @pytest.mark.parametrize("n_threads", [2, 8])
    def test_concurrent_callers_of_one_key_compute_it_once(self, small_system,
                                                           small_data, n_threads):
        cache = ResponseCache()
        barrier = threading.Barrier(n_threads)
        calls = []
        results = [None] * n_threads

        def compute():
            calls.append(threading.get_ident())
            time.sleep(0.05)  # every other caller arrives while this one runs
            return 0.1 + 0.2

        def caller(slot):
            barrier.wait()
            results[slot] = cache.aggregate_error(small_system, small_data, compute)

        threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert {value.hex() for value, _ in results} == {(0.1 + 0.2).hex()}
        assert sorted(status for _, status in results) == \
               ["hit"] * (n_threads - 1) + ["miss"]
        stats = cache.stats()
        assert (stats["sweep_hits"], stats["sweep_misses"]) == (n_threads - 1, 1)

    def test_a_failed_computation_is_retried_by_a_waiter(self, small_system, small_data):
        cache = ResponseCache()
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        calls, outcomes = [], []

        def compute():
            calls.append(1)
            time.sleep(0.05)
            if len(calls) == 1:
                raise RuntimeError("first computation fails")
            return 7.0

        def caller():
            barrier.wait()
            try:
                outcomes.append(cache.aggregate_error(small_system, small_data, compute))
            except RuntimeError:
                outcomes.append("raised")

        threads = [threading.Thread(target=caller) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count("raised") == 1
        assert sorted(o for o in outcomes if o != "raised") == \
               [(7.0, "hit")] * (n_threads - 2) + [(7.0, "miss")]
        stats = cache.stats()
        assert (stats["sweep_hits"], stats["sweep_misses"]) == (n_threads - 2, 1)

    def test_batch_tallies_match_the_sharing_structure_exactly(self, small_data,
                                                               dense_data):
        jobs = [
            FitJob(small_data, method="vfti", reference=dense_data, label="a"),
            FitJob(small_data, method="mfti", reference=dense_data, label="b"),
            FitJob(small_data, method="vfti", reference=dense_data, label="c"),
        ]
        result = BatchEngine().run(jobs).raise_failures()
        # per job: 2 score lookups (error_vs_data + _reference); a score miss
        # also looks up its dataset's norms.  job a: cold cache, 4 misses.
        # job b: new model (2 score misses) over the already-normed datasets
        # (2 norm hits).  job c: same fit as a, same system fingerprint --
        # both scores hit, and nothing is swept or normed.
        assert [(r.response_hits, r.response_misses) for r in result.records] == \
               [(0, 4), (2, 2), (2, 0)]
        assert (result.n_response_hits, result.n_response_misses) == (4, 6)
        assert result.used_responses
        # score hits == 2 * jobs - 2 * unique systems; norm hits == the score
        # misses' norm lookups - unique datasets
        n_systems, n_datasets = 2, 2
        assert result.n_response_hits == \
               (2 * len(jobs) - 2 * n_systems) + (2 * n_systems - n_datasets)

        off = uncached_run(jobs).raise_failures()
        assert not off.used_responses
        assert comparable_json(off) == comparable_json(result)


# --------------------------------------------------------------------------- #
# engine + shard differentials
# --------------------------------------------------------------------------- #
#: Scaled-down mixed grid shared with test_sharding (fast, same structure).
GRID_KWARGS = dict(pdn_samples=36, pdn_validation=48, line_sections=10,
                   line_samples=40, line_validation=50)


@pytest.fixture(scope="module")
def grid_jobs():
    return mixed_batch_jobs(**GRID_KWARGS)


@pytest.fixture(scope="module")
def serial_reference(grid_jobs):
    result = BatchEngine().run(grid_jobs)
    assert result.n_failed == 0, result.failures
    return result


class TestEngineDifferentials:
    def test_process_executor_is_bitwise_identical(self, grid_jobs, serial_reference):
        engine = BatchEngine(executor="process", max_workers=2, chunk_size=2)
        result = engine.run(grid_jobs)
        assert not numerical_differences(serial_reference, result)
        assert comparable_json(result) == comparable_json(serial_reference)
        # unpickled models keep the read-only matrices their fingerprints rely on
        for record in result.records:
            system = record.result.system
            assert not any(matrix.flags.writeable for matrix in
                           (system.E, system.A, system.B, system.C, system.D))

    def test_response_cache_off_is_bitwise_identical(self, grid_jobs,
                                                     serial_reference):
        result = uncached_run(grid_jobs)
        assert not result.used_responses
        assert comparable_json(result) == comparable_json(serial_reference)

    def test_two_shard_cli_merge_with_interning_on(self, grid_jobs,
                                                   serial_reference, tmp_path):
        """2-shard CLI round trip, process executor per shard."""
        plan = ShardPlan.from_jobs(grid_jobs, 2)
        paths = write_manifests(plan, grid_jobs, tmp_path,
                                workload="mixed_batch_jobs",
                                workload_kwargs=GRID_KWARGS)
        shard_files = []
        for path in paths:
            run = cli_subprocess("shard", "run", str(path), "--executor", "process",
                                 "--workers", "2", "--chunk-size", "1")
            assert run.returncode == 0, run.stderr
            shard_files.append(str(path).replace(".manifest.json", ".result.npz"))
        merged = merge_shard_results(shard_files)
        assert not numerical_differences(serial_reference, merged)
        assert comparable_json(merged) == comparable_json(serial_reference)
