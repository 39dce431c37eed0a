"""The serving layer's contract: protocol, service, dispatcher, CLI.

Five layers of defence:

* **wire-format round-trips** -- datasets, jobs and records must survive the
  JSON protocol bitwise (fingerprint-verified), and every tamper path must
  fail loudly (:class:`ProtocolError` / ``ValueError``), never decode to a
  different fit;
* the **differential guarantee** -- a batch submitted over a real localhost
  socket must come back :func:`~repro.batch.results.comparable_json`-
  identical to a local single-process :meth:`BatchEngine.run` of the same
  jobs;
* **service semantics** -- N concurrent identical submissions trigger
  exactly one underlying fit (and N answers), nondeterministic jobs never
  coalesce, and a batch that would overrun the admission bound is rejected
  whole with :class:`Backpressure` while the server stays healthy;
* **held datasets** -- a client's repeat batches name the datasets the
  server already holds, a ref it no longer holds is answered 409 before any
  job starts and resent inline, and an oversized body is answered 413
  unread;
* the **dispatcher** -- an injected shard failure is retried and the merged
  result is still bit-identical to the unsharded run; an exhausted retry
  budget raises :class:`DispatchError`.

The CLI rides along: ``python -m repro shard`` is exercised as a real
subprocess.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.batch.engine import BatchEngine
from repro.batch.jobs import FitJob, JobRecord, job_fingerprint
from repro.batch.results import comparable_json
from repro.cache import FitCache, dataset_fingerprint
from repro.cli import cli_subprocess
from repro.core.options import (
    MftiOptions,
    VftiOptions,
    canonical_token,
    options_from_items,
    parse_canonical_token,
)
from repro.experiments.workloads import port_sweep_jobs
from repro.serve import protocol
from repro.serve.app import MAX_BODY_BYTES, Backpressure, FitService, ThreadedServer
from repro.serve.client import Client, ServeError
from repro.serve.dispatcher import (
    DispatchError,
    Launcher,
    SubprocessLauncher,
    dispatch_workload,
)
from repro.serve.protocol import (
    ProtocolError,
    decode_batch,
    decode_dataset,
    decode_record,
    encode_batch,
    encode_dataset,
    encode_record,
    is_deduplicatable,
    request_key,
)

#: Scaled-down port sweep: 4 jobs, small orders -- fast enough that the
#: socket/dispatcher tests stay tier-1.  The kwargs use JSON-native lists so
#: the very same dict drives the in-process builders and the CLI/manifest
#: paths without tuple/list drift.
GRID_KWARGS = dict(port_counts=[2], block_sizes=[1, 2], order=8,
                   n_samples=10, n_validation=12)


@pytest.fixture(scope="module")
def grid_jobs():
    return port_sweep_jobs(**GRID_KWARGS)


@pytest.fixture(scope="module")
def reference_run(grid_jobs):
    """The local single-process run every served answer must match."""
    result = BatchEngine().run(grid_jobs)
    assert result.n_failed == 0, result.failures
    return result


# --------------------------------------------------------------------------- #
# canonical-token round-trip layer
# --------------------------------------------------------------------------- #
class TestCanonicalRoundTrip:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -17, 3.5, float("nan"), float("inf"),
        complex(1.25, -2.5), "", "plain", "tricky,]:chars", "seq:[]",
        (), (1, 2.5, "x"), (1, (2, (3,))),
    ])
    def test_token_round_trip(self, value):
        decoded = parse_canonical_token(canonical_token(value))
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(decoded)
        else:
            assert decoded == value
            assert type(decoded) is type(value)

    @pytest.mark.parametrize("token", [
        "bool:maybe", "int:", "float:xyz", "complex:0x1p+0", "str:5:ab",
        "seq:[int:1", "int:1]", "none,extra", "wat:1",
    ])
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(ValueError):
            parse_canonical_token(token)

    def test_options_round_trip_all_types(self):
        options = MftiOptions(block_size=3, rank_method="tolerance",
                              rank_tolerance=2e-4, direction_seed=7)
        items = options.canonical_items()
        rebuilt = options_from_items("MftiOptions", items)
        assert rebuilt == options
        # JSON transports items as lists -- must decode identically
        json_items = json.loads(json.dumps([list(item) for item in items]))
        assert options_from_items("MftiOptions", json_items) == options

    def test_options_drift_guard(self):
        items = [list(item) for item in VftiOptions().canonical_items()]
        with pytest.raises(ValueError):
            options_from_items("NoSuchOptions", items)
        items[0][0] = "not_a_field"
        with pytest.raises(ValueError, match="no option field"):
            options_from_items("VftiOptions", items)


class TestEngineConfig:
    def test_round_trip(self, tmp_path):
        engine = BatchEngine(executor="thread", max_workers=3, chunk_size=2,
                             cache=FitCache.on_disk(tmp_path / "store"))
        config = engine.to_config()
        rebuilt = BatchEngine.from_config(config)
        assert rebuilt.to_config() == config
        assert (rebuilt.executor, rebuilt.max_workers, rebuilt.chunk_size) == \
               ("thread", 3, 2)
        assert rebuilt.cache.store.root == engine.cache.store.root

    def test_memory_cache_and_defaults(self):
        assert BatchEngine.from_config(None) == BatchEngine()
        rebuilt = BatchEngine.from_config({"memory_cache": True})
        assert rebuilt.cache is not None

    def test_rejects_unknown_and_conflicting_keys(self):
        with pytest.raises(ValueError, match="unknown engine config"):
            BatchEngine.from_config({"executor": "serial", "bogus": 1})
        with pytest.raises(ValueError, match="cache_dir and memory_cache"):
            BatchEngine.from_config({"cache_dir": "/tmp/x", "memory_cache": True})


# --------------------------------------------------------------------------- #
# the wire protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_dataset_bitwise_round_trip(self, grid_jobs):
        data = grid_jobs[0].data
        spec = json.loads(json.dumps(encode_dataset(data)))
        rebuilt = decode_dataset(spec)
        assert np.array_equal(rebuilt.frequencies_hz, data.frequencies_hz)
        assert np.array_equal(rebuilt.samples, data.samples)
        assert rebuilt.samples.dtype == data.samples.dtype
        assert (rebuilt.kind, rebuilt.reference_impedance, rebuilt.label) == \
               (data.kind, data.reference_impedance, data.label)

    def test_dataset_tamper_detected(self, grid_jobs):
        spec = encode_dataset(grid_jobs[0].data)
        spec["reference_impedance"] = float(75.0).hex()
        with pytest.raises(ProtocolError, match="fingerprint"):
            decode_dataset(spec)

    def test_job_round_trip_preserves_fingerprint(self, grid_jobs):
        rebuilt = decode_batch(json.loads(json.dumps(encode_batch(grid_jobs))))
        for job, decoded in zip(grid_jobs, rebuilt, strict=True):
            assert job_fingerprint(decoded) == job_fingerprint(job)
            assert decoded.tags == job.tags

    def test_job_options_tamper_detected(self, grid_jobs):
        # grid_jobs[1] is an mfti job with non-default options
        tampered = json.loads(json.dumps(encode_batch(grid_jobs[1:2])))
        for item in tampered["jobs"][0]["options"]["items"]:
            if item[0] == "block_size":
                item[1] = canonical_token(999)
        with pytest.raises(ProtocolError, match="fingerprint"):
            decode_batch(tampered)

    def test_previous_protocol_version_is_refused_by_name(self, grid_jobs):
        document = dict(encode_batch(grid_jobs[:1]), protocol_version=3)
        with pytest.raises(ProtocolError, match="protocol 3"):
            decode_batch(document)

    def test_held_datasets_travel_as_refs_only(self, grid_jobs):
        fingerprints = _fingerprints(grid_jobs)
        document = encode_batch(grid_jobs, fingerprints[:1])
        assert list(document["datasets"]) == fingerprints[1:]
        assert {job["data_ref"] for job in document["jobs"]} | \
               {job["reference_ref"] for job in document["jobs"]} == set(fingerprints)

    def test_decode_without_a_table_needs_every_dataset_inline(self, grid_jobs):
        document = json.loads(json.dumps(
            encode_batch(grid_jobs, _fingerprints(grid_jobs)[:1])))
        with pytest.raises(ProtocolError, match="unknown dataset"):
            decode_batch(document)

    def test_record_round_trip_is_exact(self):
        record = JobRecord(
            index=3, label="x", method="mfti", tags={"a": 1}, status="ok",
            order=17, elapsed_seconds=0.125,
            error_vs_data=1.2345678901234567e-7,
            error_vs_reference=float("nan"), cache_status="miss",
        )
        rebuilt = decode_record(json.loads(json.dumps(encode_record(record))))
        assert rebuilt.error_vs_data == record.error_vs_data
        assert math.isnan(rebuilt.error_vs_reference)
        assert dataclasses.replace(rebuilt, error_vs_reference=0.0) == \
               dataclasses.replace(record, result=None, error_vs_reference=0.0)

    def test_request_key_ignores_cosmetics_but_not_content(self, grid_jobs):
        job = grid_jobs[0]
        relabelled = dataclasses.replace(job, label="other", tags={"new": "tag"})
        assert request_key(relabelled) == request_key(job)
        other_method = grid_jobs[1]
        assert request_key(other_method) != request_key(job)

    def test_nondeterministic_jobs_not_deduplicatable(self, grid_jobs):
        assert is_deduplicatable(grid_jobs[0])
        random_job = FitJob(grid_jobs[0].data, method="mfti",
                            options=MftiOptions(direction_kind="random"))
        assert not is_deduplicatable(random_job)
        seeded = FitJob(grid_jobs[0].data, method="mfti",
                        options=MftiOptions(direction_kind="random",
                                            direction_seed=11))
        assert is_deduplicatable(seeded)


# --------------------------------------------------------------------------- #
# the service over a real socket
# --------------------------------------------------------------------------- #
class TestFitServer:
    def test_served_batch_matches_local_run(self, grid_jobs, reference_run):
        with ThreadedServer(FitService(BatchEngine(executor="thread",
                                                   max_workers=2))) as server:
            client = Client(server.host, server.port)
            assert client.healthz()["status"] == "ok"
            served = client.submit(grid_jobs)
            stats = client.stats()
        assert comparable_json(served) == comparable_json(reference_run)
        assert all(record.result is None for record in served.records)
        assert stats["counters"]["computed"] == len(grid_jobs)
        assert stats["queue_depth"] == 0

    def test_concurrent_identical_submissions_share_one_fit(self, grid_jobs):
        job = grid_jobs[0]
        with ThreadedServer(FitService(BatchEngine(executor="thread",
                                                   max_workers=4))) as server:
            client = Client(server.host, server.port)
            results: list = [None] * 3

            def submit_one(slot: int) -> None:
                results[slot] = client.submit([job, job, job])

            threads = [threading.Thread(target=submit_one, args=(slot,))
                       for slot in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            counters = client.stats()["counters"]
        # 3 clients x 3 identical jobs: every submission answered...
        for result in results:
            assert result is not None and result.n_jobs == 3
            assert [record.index for record in result.records] == [0, 1, 2]
            assert all(record.ok for record in result.records)
        # ...and at most a couple of underlying fits ran (exactly 1 unless a
        # batch arrived after an earlier one fully completed); never 9
        assert counters["submitted"] == 9
        assert counters["computed"] + counters["coalesced"] == 9
        assert counters["computed"] <= 3
        # within one batch dedupe is deterministic: >= 2 coalesced per batch
        assert counters["coalesced"] >= 6

    def test_dedupe_rewrites_labels_per_request(self, grid_jobs):
        job = grid_jobs[0]
        twin = dataclasses.replace(job, label="twin", tags={"who": "twin"})
        with ThreadedServer(FitService(BatchEngine())) as server:
            result = Client(server.host, server.port).submit([job, twin])
            counters = server.service.counters
        assert counters["computed"] == 1 and counters["coalesced"] == 1
        assert [record.label for record in result.records] == [job.label, "twin"]
        assert result.records[1].tags == {"who": "twin"}
        assert result.records[0].error_vs_data == result.records[1].error_vs_data

    def test_served_failures_keep_their_traceback(self, grid_jobs):
        poison = FitJob(grid_jobs[0].data, method="mfti",
                        options=MftiOptions(order=50), label="poison")
        with ThreadedServer(FitService(BatchEngine())) as server:
            result = Client(server.host, server.port).submit([poison])
        record = result.records[0]
        assert record.status == "failed"
        assert "Traceback" in record.error_traceback
        with pytest.raises(RuntimeError, match="Traceback"):
            result.raise_failures()

    def test_nondeterministic_jobs_never_coalesce(self, grid_jobs):
        job = FitJob(grid_jobs[0].data, method="mfti",
                     options=MftiOptions(direction_kind="random"))
        with ThreadedServer(FitService(BatchEngine())) as server:
            result = Client(server.host, server.port).submit([job, job])
            counters = server.service.counters
        assert counters["computed"] == 2 and counters["coalesced"] == 0
        assert result.n_jobs == 2

    def test_backpressure_rejects_whole_batch(self, grid_jobs):
        with ThreadedServer(FitService(BatchEngine(), max_pending=1)) as server:
            client = Client(server.host, server.port)
            with pytest.raises(Backpressure, match="admission queue full"):
                client.submit(grid_jobs[:3])
            stats = client.stats()
            assert stats["counters"]["rejected"] == 3
            assert stats["counters"]["computed"] == 0
            # the server stays healthy: an admissible batch still succeeds
            ok = client.submit([grid_jobs[0]])
        assert ok.n_jobs == 1 and ok.records[0].ok

    def test_malformed_submissions_rejected(self, grid_jobs):
        with ThreadedServer(FitService(BatchEngine())) as server:
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=30)
            connection.request("POST", "/submit", body=b"not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            connection.close()
            client = Client(server.host, server.port)
            with pytest.raises(ServeError, match="404"):
                client._request_json("GET", "/nonsense")
            # wrong protocol version is refused, not misinterpreted
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=30)
            connection.request("POST", "/submit", body=json.dumps(
                {"protocol_version": 999, "jobs": [{}]}).encode())
            response = connection.getresponse()
            assert response.status == 400
            assert b"protocol" in response.read()
            connection.close()


# --------------------------------------------------------------------------- #
# held datasets and request bounds
# --------------------------------------------------------------------------- #
def _fingerprints(jobs) -> list[str]:
    """The sorted fingerprints of every dataset the jobs name."""
    return sorted({dataset_fingerprint(data) for job in jobs
                   for data in (job.data, job.reference) if data is not None})


def _nbytes(jobs) -> int:
    """Array bytes of the distinct datasets the jobs name."""
    datasets = {dataset_fingerprint(data): data for job in jobs
                for data in (job.data, job.reference) if data is not None}
    return sum(data.frequencies_hz.nbytes + data.samples.nbytes
               for data in datasets.values())


def _post_submit(server, document) -> tuple[int, dict]:
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request("POST", "/submit", body=json.dumps(document).encode(),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHeldDatasets:
    def test_stats_tally_inline_resolved_and_missing_datasets(
            self, grid_jobs, reference_run, monkeypatch):
        other = port_sweep_jobs(port_counts=[3], block_sizes=[1], order=8,
                                n_samples=10, n_validation=12)[:1]
        grid_bytes, other_bytes = _nbytes(grid_jobs), _nbytes(other)
        expected = comparable_json(reference_run)
        with ThreadedServer(FitService(BatchEngine())) as server:
            client = Client(server.host, server.port)
            first = client.submit(grid_jobs)
            after_first = client.stats()["datasets"]
            repeat = client.submit(grid_jobs)
            after_repeat = client.stats()["datasets"]
            # a bound that holds only the other batch's datasets evicts the grid's
            monkeypatch.setattr(protocol, "MAX_HELD_BYTES", other_bytes)
            Client(server.host, server.port).submit(other)
            after_eviction = client.stats()["datasets"]
            # the client still names the grid's datasets: 409, then inline
            monkeypatch.setattr(protocol, "MAX_HELD_BYTES", grid_bytes)
            resent = client.submit(grid_jobs)
            stats = client.stats()
        assert after_first == {"entries": 2, "bytes": grid_bytes,
                               "inline": 2, "resolved": 0, "missing": 0}
        assert after_repeat == {"entries": 2, "bytes": grid_bytes,
                                "inline": 2, "resolved": 2, "missing": 0}
        assert after_eviction == {"entries": 2, "bytes": other_bytes,
                                  "inline": 4, "resolved": 2, "missing": 0}
        assert stats["datasets"] == {"entries": 2, "bytes": grid_bytes,
                                     "inline": 6, "resolved": 2, "missing": 2}
        # the 409 admitted nothing: 3 grid batches and the other job ran
        assert stats["counters"]["submitted"] == 3 * len(grid_jobs) + 1
        assert stats["counters"]["computed"] == 3 * len(grid_jobs) + 1
        for result in (first, repeat, resent):
            assert comparable_json(result) == expected

    def test_missing_dataset_is_409_and_starts_nothing(self, grid_jobs):
        fingerprints = _fingerprints(grid_jobs)
        with ThreadedServer(FitService(BatchEngine())) as server:
            status, answer = _post_submit(server, encode_batch(grid_jobs, fingerprints))
            stats = Client(server.host, server.port).stats()
        assert status == 409
        assert answer["missing"] == fingerprints
        assert set(stats["counters"].values()) == {0}
        assert stats["queue_depth"] == 0 and stats["inflight_keys"] == 0
        assert stats["datasets"] == {"entries": 0, "bytes": 0, "inline": 0,
                                     "resolved": 0, "missing": 2}

    def test_tampered_inline_dataset_is_400_and_never_held(self, grid_jobs):
        document = json.loads(json.dumps(encode_batch(grid_jobs)))
        tampered = dataset_fingerprint(grid_jobs[0].reference)
        document["datasets"][tampered]["reference_impedance"] = float(75.0).hex()
        with ThreadedServer(FitService(BatchEngine())) as server:
            status, answer = _post_submit(server, document)
            client = Client(server.host, server.port)
            held_after_tamper = client.stats()["datasets"]
            # the honest batch then ships both datasets inline
            client.submit(grid_jobs)
            stats = client.stats()
        assert status == 400 and "fingerprint" in answer["error"]
        assert held_after_tamper == {"entries": 0, "bytes": 0, "inline": 0,
                                     "resolved": 0, "missing": 0}
        assert stats["datasets"]["inline"] == 2
        assert stats["counters"]["submitted"] == len(grid_jobs)

    def test_one_client_shared_by_eight_threads(self, grid_jobs, reference_run):
        expected = comparable_json(reference_run)
        with ThreadedServer(FitService(BatchEngine(executor="thread",
                                                   max_workers=2))) as server:
            client = Client(server.host, server.port)
            results: list = []
            errors: list = []

            def submit_twice() -> None:
                try:
                    results.extend(client.submit(grid_jobs) for _ in range(2))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=submit_twice) for _ in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # interleave the threads' updates of the client
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
            finally:
                sys.setswitchinterval(interval)
            datasets = client.stats()["datasets"]
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == 16
        assert all(comparable_json(result) == expected for result in results)
        # every batch's 2 datasets travelled once: inline or as a ref; each
        # thread's second batch named both datasets the first one shipped
        assert datasets["inline"] + datasets["resolved"] == 16 * 2
        assert datasets["resolved"] >= 8 * 2
        assert datasets["missing"] == 0

    def test_oversized_body_is_413_before_it_is_read(self, grid_jobs, reference_run):
        head = (f"POST /submit HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n")
        with ThreadedServer(FitService(BatchEngine())) as server:
            with socket.create_connection((server.host, server.port), timeout=10) as sock:
                sock.sendall(head.encode("latin-1"))
                answer = b""
                while chunk := sock.recv(65536):
                    answer += chunk
            served = Client(server.host, server.port).submit(grid_jobs)
        assert answer.startswith(b"HTTP/1.1 413")
        assert b"exceeds" in answer
        assert comparable_json(served) == comparable_json(reference_run)


# --------------------------------------------------------------------------- #
# the dispatcher
# --------------------------------------------------------------------------- #
class FlakyLauncher(SubprocessLauncher):
    """Kills the first attempt of shard 0; every other launch is real."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.injected = 0

    def launch(self, shard_index, manifest_path, result_path, *, timeout=None):
        if shard_index == 0 and self.injected == 0:
            self.injected += 1
            return "failed", "injected shard failure"
        return super().launch(shard_index, manifest_path, result_path,
                              timeout=timeout)


class AlwaysLostLauncher(Launcher):
    """Claims success but never writes a result (a vanished machine)."""

    def __init__(self):
        self.calls = 0

    def launch(self, shard_index, manifest_path, result_path, *, timeout=None):
        self.calls += 1
        return "ok", ""


class SleepyPoolLauncher(SubprocessLauncher):
    """Runner that forks a worker child and hangs -- a stuck process pool.

    Mimics a ``--executor process`` shard runner mid-fit: the direct child
    spawns a worker subprocess, records both PIDs, and sleeps forever.  Only
    the kill path of :meth:`SubprocessLauncher.launch` is under test, so the
    manifest/result arguments are never touched.
    """

    def __init__(self, pid_file):
        super().__init__()
        self.pid_file = str(pid_file)

    def _argv(self, manifest_path, result_path):
        script = (
            "import os, subprocess, sys, time\n"
            "worker = subprocess.Popen(\n"
            "    [sys.executable, '-c', 'import time; time.sleep(120)'])\n"
            f"with open({self.pid_file!r}, 'w') as handle:\n"
            "    handle.write(f'{os.getpid()} {worker.pid}')\n"
            "time.sleep(120)\n"
        )
        return [sys.executable, "-c", script]


def _process_running(pid: int) -> bool:
    """True while ``pid`` is alive and not a zombie awaiting reap."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except OSError:
        return False
    # field 3 (after the parenthesised comm) is the state letter
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestDispatcher:
    def test_retry_after_killed_shard_is_bit_identical(self, tmp_path,
                                                       reference_run):
        launcher = FlakyLauncher()
        merged = dispatch_workload(
            "port_sweep_jobs", 2, tmp_path,
            workload_kwargs=GRID_KWARGS, launcher=launcher,
            max_retries=1, backoff_seconds=0.01,
        )
        assert launcher.injected == 1
        assert comparable_json(merged) == comparable_json(reference_run)
        assert merged.executor == "sharded(2)"

    def test_exhausted_retry_budget_raises(self, tmp_path, grid_jobs):
        launcher = AlwaysLostLauncher()
        with pytest.raises(DispatchError, match="failed after 2 attempt"):
            dispatch_workload(
                "port_sweep_jobs", 1, tmp_path,
                workload_kwargs=GRID_KWARGS, launcher=launcher,
                max_retries=1, backoff_seconds=0.01,
            )
        assert launcher.calls == 2

    @pytest.mark.parametrize("retry,message", [
        ({"max_retries": -1}, "max_retries must be >= 0"),
        ({"backoff_seconds": -0.5}, "backoff_seconds must be >= 0"),
        ({"timeout": 0}, "timeout must be > 0"),
    ], ids=["max_retries", "backoff_seconds", "timeout"])
    def test_negative_retry_settings_raise_before_anything_is_written(self, tmp_path,
                                                                      retry, message):
        # checked up front: a negative backoff would otherwise fail only at
        # the first retry, as time.sleep's error inside a pool thread, and a
        # zero timeout would kill every attempt of every shard
        out_dir = tmp_path / "shards"
        launcher = AlwaysLostLauncher()
        with pytest.raises(ValueError, match=message):
            dispatch_workload("port_sweep_jobs", 1, out_dir, workload_kwargs=GRID_KWARGS,
                              launcher=launcher, **retry)
        assert launcher.calls == 0
        assert not out_dir.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="process-group kill asserted via /proc")
    def test_timeout_kill_leaves_no_orphaned_workers(self, tmp_path):
        # regression: launch() used to kill only the direct child, so a
        # runner's --executor process worker pool survived a timeout-kill
        pid_file = tmp_path / "pids.txt"
        launcher = SleepyPoolLauncher(pid_file)
        started = time.monotonic()
        status, detail = launcher.launch(
            0, "unused-manifest", str(tmp_path / "unused.npz"), timeout=2.0)
        assert status == "timeout"
        assert "killed" in detail
        # a surviving worker would hold the runner's stdout/stderr pipes
        # open and stall the post-kill communicate() far past the timeout
        assert time.monotonic() - started < 30.0
        runner_pid, worker_pid = (int(p) for p in
                                  pid_file.read_text().split())
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and (
                _process_running(runner_pid) or _process_running(worker_pid)):
            time.sleep(0.05)
        assert not _process_running(runner_pid)
        assert not _process_running(worker_pid)


# --------------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------------- #
class TestCli:
    @pytest.mark.parametrize("flags,message", [
        (("--max-retries", "-1"), "invalid dispatch request: max_retries must be >= 0"),
        (("--backoff", "-1"), "invalid dispatch request: backoff_seconds must be >= 0"),
        (("--timeout", "0"), "invalid dispatch request: timeout must be > 0"),
        (("--workload-args", '{"bogus": 1}'),
         "invalid dispatch request: port_sweep_jobs() got an unexpected keyword "
         "argument 'bogus'"),
        (("--workload", "no-such-grid"),
         "invalid dispatch request: unknown workload 'no-such-grid'"),
        (("--shards", "0"), "n_shards must be >= 1, got 0"),
    ], ids=["max-retries", "backoff", "timeout", "workload-args", "workload", "shards"])
    def test_invalid_dispatch_flags_exit_2_with_one_error_line(self, tmp_path, flags,
                                                               message):
        # each case's flags come last, so they override the valid defaults
        out_dir = tmp_path / "shards"
        completed = cli_subprocess(
            "shard", "dispatch", "--workload", "port_sweep_jobs",
            "--workload-args", json.dumps(GRID_KWARGS),
            "--shards", "2", "--out-dir", str(out_dir), *flags, timeout=120,
        )
        assert completed.returncode == 2, completed.stderr
        assert completed.stderr.startswith(f"error: {message}")
        assert len(completed.stderr.strip().splitlines()) == 1
        assert completed.stdout == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags,message", [
        (("--max-pending", "0"), "invalid service configuration: max_pending must be >= 1"),
        (("--workers", "0"),
         "invalid engine configuration: max_workers must be >= 1 when given"),
    ], ids=["max-pending", "workers"])
    def test_invalid_serve_flags_exit_2_before_serving(self, flags, message):
        completed = cli_subprocess("serve", "--port", "0", *flags, timeout=60)
        assert completed.returncode == 2, completed.stderr
        assert completed.stderr == f"error: {message}\n"
        assert completed.stdout == ""

    def test_umbrella_shard_plan(self, tmp_path):
        completed = cli_subprocess(
            "shard", "plan", "--workload", "port_sweep_jobs",
            "--workload-args", json.dumps(GRID_KWARGS),
            "--shards", "2", "--out-dir", str(tmp_path),
        )
        assert completed.returncode == 0, completed.stderr
        assert len(list(tmp_path.glob("*.manifest.json"))) == 2
