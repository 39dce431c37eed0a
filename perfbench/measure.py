"""The three workloads: how each is set up, timed, checked and traced.

Every workload is closed loop.  A run makes a fixed number of passes,
``max(MIN_PASSES, round(seconds / pass_budget_s))``, so every run with the
same ``--seconds`` pools the same number of per-job samples and the tail
percentile always ranks the same job mix.  With 7 or 8 passes of the same
jobs the tail (10 samples beyond it) falls inside the samples of the
second-slowest job or request, a robust statistic; an extreme of a few
samples would not be.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from perfbench import checks, grids, layers
from perfbench.provenance import ROOT
from perfbench.stats import median, tail
from perfbench.tracer import Tracer

#: End-to-end metrics with their units, in report order.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "failed_frac": "ratio", "worst_error_vs_reference": "ratio", "peak_rss_mb": "MB",
}

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_PASSES = 7
OVERHEAD_PAIRS = 3
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")


@dataclass
class Outcome:
    """What one run measured, checked and wants to print."""

    metrics: dict = field(default_factory=dict)  # name -> value
    units: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    attempted: int = 0
    problems: list = field(default_factory=list)

    def check(self, checked: int, problems: list) -> None:
        self.attempted += checked
        self.problems.extend(problems)


def _timed(function: Callable, *args, **kwargs):
    started = time.perf_counter()
    value = function(*args, **kwargs)
    return time.perf_counter() - started, value


def _repeat_setup(build: Callable, *args) -> tuple[list, object]:
    """Time ``build`` at least ``SETUP_REPEATS`` times and for at least
    ``SETUP_MIN_S`` seconds in all, so a fast set-up still has a steady
    median; returns the times and the last build."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        elapsed, built = _timed(build, *args)
        times.append(elapsed)
    return times, built


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trace_path(name: str, seed: int, part: str) -> str:
    os.makedirs(TRACE_DIR, exist_ok=True)
    return os.path.join(TRACE_DIR, f"{name}-seed{seed}-{part}.jsonl")


def _data_metrics(spans) -> dict:
    """Only the data layer counts from set-up; other layers are timed in passes."""
    return {name: value for name, value in layers.span_metrics(spans).items()
            if name.startswith("data.")}


def _finish(outcome: Outcome, *, setup_s: float, walls: list, latencies: list,
            worst_error: float, peak_rss_mb: float, what: str) -> None:
    """``latencies`` holds one list of per-job latencies per pass.

    ``job_p50_s`` is the median over passes of each pass's median, so it
    never averages the two jobs either side of the middle of one pooled
    sample; the tail ranks the pooled samples.
    """
    job_tail = tail([latency for one_pass in latencies for latency in one_pass])
    failed = len(outcome.problems)
    outcome.metrics.update({
        "setup_s": setup_s,
        "wall_s": median(walls),
        "job_p50_s": median([median(one_pass) for one_pass in latencies]),
        "job_tail_s": job_tail.value,
        "failed_frac": failed / outcome.attempted if outcome.attempted else 1.0,
        "worst_error_vs_reference": worst_error,
        "peak_rss_mb": peak_rss_mb,
    })
    outcome.units.update(END_TO_END)
    outcome.notes.append(f"wall_s: median of {len(walls)} passes: "
                         + " ".join(f"{wall:.3f}" for wall in walls))
    outcome.notes.append(f"job_p50_s: median over passes of the pass median; "
                         f"job_tail_s: pooled; both of {what}; job_tail_s is "
                         f"{job_tail.describe()}")


def _overhead(untraced: Callable[[], float], traced: Callable[[], float]) -> tuple[float, str]:
    """``trace.overhead_frac`` and a note giving its spread.

    Times ``OVERHEAD_PAIRS`` pairs of one untraced and one traced pass and
    takes the median over pairs of traced / untraced − 1.  Which pass of a
    pair runs first alternates, so a steady drift of the host cancels.
    """
    fractions = []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            traced_s = traced()
            untraced_s = untraced()
        else:
            untraced_s = untraced()
            traced_s = traced()
        fractions.append(traced_s / untraced_s - 1.0)
    return median(fractions), (
        f"trace.overhead_frac: median of {len(fractions)} interleaved untraced/traced "
        f"pairs: " + " ".join(f"{fraction:+.3f}" for fraction in fractions)
        + f" (spread {max(fractions) - min(fractions):.3f})")


# --------------------------------------------------------------------------- #
# batch workloads
# --------------------------------------------------------------------------- #
def _serial_engine():
    """The batch workloads' engine: serial, default config (response cache on)."""
    from repro.batch.engine import BatchEngine

    return BatchEngine()


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    builders: tuple
    pass_budget_s: float  # share of --seconds budgeted per pass
    expected: str  # expected-table name
    certify: bool = False

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / self.pass_budget_s))

    def build(self, seed: int, data_seed: Optional[int]) -> list:
        jobs = grids.build(self.builders, data_seed)
        return grids.submission_order(jobs, seed, _serial_engine().resolve_chunk_size(len(jobs)))

    def _check(self, outcome: Outcome, result, data_seed, first=None) -> None:
        from repro.batch.results import numerical_differences

        expected = checks.load_expected(self.expected) if data_seed is None else None
        outcome.check(*checks.check_records(result.records, certify=self.certify,
                                            expected=expected))
        if first is not None:
            outcome.problems.extend(f"pass differs from the first: {difference}"
                                    for difference in numerical_differences(first, result))

    def measure(self, seed: int, seconds: float, data_seed: Optional[int]) -> Outcome:
        outcome = Outcome()
        setup, jobs = _repeat_setup(self.build, seed, data_seed)
        engine = _serial_engine()
        walls, latencies, first = [], [], None
        for _ in range(self.passes(seconds)):
            wall, result = _timed(engine.run, jobs)
            walls.append(wall)
            latencies.append([record.elapsed_seconds for record in result.records])
            self._check(outcome, result, data_seed, first)
            first = first or result
        worst = max((record.error_vs_reference for record in first.records if record.ok),
                    default=math.inf)
        _finish(outcome, setup_s=median(setup), walls=walls, latencies=latencies,
                worst_error=worst, peak_rss_mb=_peak_rss_mb(),
                what=f"JobRecord.elapsed_seconds of {len(jobs)} jobs x {len(walls)} passes")
        outcome.notes.append(f"setup_s: median of {len(setup)} builds")
        return outcome

    def trace(self, seed: int, data_seed: Optional[int]) -> Outcome:
        outcome = Outcome()
        tracer = Tracer()
        patch = layers.install(tracer)
        try:
            jobs = self.build(seed, data_seed)
        finally:
            patch.restore()
        setup = _data_metrics(tracer.spans)
        tracer.dump(_trace_path(self.name, seed, "setup"))

        engine = _serial_engine()
        engine.run(jobs)  # first-call costs stay out of every timed pass
        passes = []

        def untraced() -> float:
            return _timed(engine.run, jobs)[0]

        def traced() -> float:
            tracer = Tracer()
            patch = layers.install(tracer)
            try:
                wall, result = _timed(engine.run, jobs)
            finally:
                patch.restore()
            self._check(outcome, result, data_seed)
            tracer.dump(_trace_path(self.name, seed, f"pass{len(passes)}"))
            passes.append(layers.combine(
                layers.without(layers.span_metrics(tracer.spans), "batch.job_s"),
                layers.record_metrics(result, jobs)))
            return wall

        overhead, note = _overhead(untraced, traced)
        outcome.metrics = layers.combine(setup, layers.median_each(passes))
        outcome.metrics["trace.overhead_frac"] = overhead
        outcome.units = dict(layers.LAYER_METRICS)
        outcome.notes.append(note)
        return outcome


# --------------------------------------------------------------------------- #
# the served workload
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServedWorkload:
    name: str
    pass_budget_s: float  # share of --seconds budgeted per pass
    expected: str

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / self.pass_budget_s))

    @staticmethod
    def build(data_seed: Optional[int]) -> list[list]:
        return [grids.build(builders, data_seed) for builders in grids.SERVED_POOLS]

    def _oracle(self, outcome: Outcome, pools, data_seed) -> dict:
        """Local serial records of every pool job, keyed by pool label."""
        from repro.batch.engine import BatchEngine

        jobs = [job for pool in pools for job in pool]
        result = BatchEngine().run(jobs)
        expected = checks.load_expected(self.expected) if data_seed is None else None
        outcome.check(*checks.check_records(result.records, certify=False,
                                            expected=expected))
        return {record.label: record for record in result.records}

    @staticmethod
    def _check_answers(outcome: Outcome, answers, local: dict) -> list[float]:
        latencies = []
        for answer in answers:
            latencies.append(answer.latency)
            jobs = list(answer.request.jobs)
            if answer.error is not None:
                outcome.check(len(jobs), [f"{answer.request.rid}: {answer.error}"] * len(jobs))
                continue
            records = [local[origin] for origin in answer.request.origins]
            outcome.check(len(jobs), checks.served_problems(answer.result, jobs, records))
        return latencies

    def measure(self, seed: int, seconds: float, data_seed: Optional[int]) -> Outcome:
        from perfbench.served import ServerProcess, build_schedule, run_schedule

        outcome = Outcome()
        builds, pools = _repeat_setup(self.build, data_seed)
        schedule = build_schedule(pools, seed)
        local = self._oracle(outcome, pools, data_seed)
        warm_up = grids.served_warm_up_jobs()
        starts, walls, latencies, rss, worst = [], [], [], [], -math.inf
        # pass 0 is not timed: the load process's first pass runs ~35% slower
        for index in range(self.passes(seconds) + 1):
            with ServerProcess() as server:
                start = server.start()
                server.submit(warm_up)
                wall, answers = run_schedule(server.port, schedule)
                peak = server.peak_rss_mb()
                server.stop()
            request_latencies = self._check_answers(outcome, answers, local)
            worst = max([worst] + [record.error_vs_reference for answer in answers
                                   if answer.result is not None
                                   for record in answer.result.records if record.ok])
            if index:
                starts.append(start)
                walls.append(wall)
                latencies.append(request_latencies)
                rss.append(peak)
        n_requests = sum(len(requests) for requests in schedule)
        _finish(outcome, setup_s=median(builds) + median(starts), walls=walls,
                latencies=latencies, worst_error=worst, peak_rss_mb=median(rss),
                what=f"client round trip of {n_requests} requests x {len(walls)} passes")
        outcome.notes.append(f"setup_s: median build {median(builds):.4f} s of "
                             f"{len(builds)} + median server start {median(starts):.4f} s of "
                             f"{len(starts)}; peak_rss_mb is the server's")
        return outcome

    def trace(self, seed: int, data_seed: Optional[int]) -> Outcome:
        from perfbench.served import ServerProcess, build_schedule, run_schedule

        outcome = Outcome()
        tracer = Tracer()
        patch = layers.install(tracer)
        try:
            pools = self.build(data_seed)
        finally:
            patch.restore()
        setup = _data_metrics(tracer.spans)
        tracer.dump(_trace_path(self.name, seed, "setup"))
        schedule = build_schedule(pools, seed)
        local = self._oracle(outcome, pools, data_seed)
        passes = []

        def untraced() -> float:
            with ServerProcess() as server:
                server.start()
                wall, answers = run_schedule(server.port, schedule)
                server.stop()
            self._check_answers(outcome, answers, local)
            return wall

        def traced() -> float:
            client = Tracer()
            part = f"pass{len(passes)}"
            with ServerProcess(traced=True,
                               trace_out=_trace_path(self.name, seed, f"server-{part}")) as server:
                server.start()
                patch = layers.install(client)
                try:
                    wall, answers = run_schedule(server.port, schedule)
                finally:
                    patch.restore()
                stats = server.stats()
                server_metrics = server.stop()
            self._check_answers(outcome, answers, local)
            client.dump(_trace_path(self.name, seed, f"client-{part}"))
            counters, cache, responses = stats["counters"], stats["cache"], stats["responses"]
            from_stats = {
                "cache.fit_hits": cache["hits"], "cache.fit_misses": cache["misses"],
                "cache.response_hits": responses["norm_hits"] + responses["sweep_hits"],
                "cache.response_misses": responses["norm_misses"] + responses["sweep_misses"],
                "serve.computed": counters["computed"], "serve.coalesced": counters["coalesced"],
            }
            client_serve = {name: value
                            for name, value in layers.span_metrics(client.spans).items()
                            if name.startswith("serve.")}
            passes.append(layers.combine(server_metrics, client_serve, from_stats))
            return wall

        untraced()  # the load process's first pass pays one-time costs
        overhead, note = _overhead(untraced, traced)
        outcome.metrics = layers.combine(setup, layers.median_each(passes))
        outcome.metrics["trace.overhead_frac"] = overhead
        outcome.units = dict(layers.LAYER_METRICS)
        outcome.notes.append(note)
        return outcome


#: Pass budgets give 7 passes at 15 s, except ``served_repeat``: its passes
#: spread ~10% (two processes and four busy threads on the cores), so it
#: takes 8 for a steady median.
WORKLOADS = {
    "loewner_grid": BatchWorkload("loewner_grid", grids.LOEWNER_GRID,
                                  pass_budget_s=2.2, expected="loewner_grid"),
    "certify_zoo": BatchWorkload("certify_zoo", grids.CERTIFY_ZOO,
                                 pass_budget_s=2.2, expected="certify_zoo", certify=True),
    "served_repeat": ServedWorkload("served_repeat", pass_budget_s=1.9,
                                    expected="loewner_grid"),
}
