"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from perfbench.provenance import pin_blas_env, use_checkout_sources

pin_blas_env()
use_checkout_sources()

from perfbench import checks, layers  # noqa: E402
from perfbench.served import build_schedule  # noqa: E402
from perfbench.stats import tail  # noqa: E402
from perfbench.tracer import Patch, SpanIndex, Tracer, covered_length  # noqa: E402


# --------------------------------------------------------------------------- #
# the tail-percentile rule
# --------------------------------------------------------------------------- #
def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    result = tail(values)
    assert result.value == 90
    assert sum(1 for value in values if value > result.value) == 10
    assert result.percentile == pytest.approx(90.0)
    assert (result.n, result.beyond) == (100, 10)


def test_tail_of_eleven_samples_is_the_smallest():
    result = tail([5.0] + [9.0] * 10)
    assert result.value == 5.0
    assert result.percentile == pytest.approx(100.0 / 11)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# --------------------------------------------------------------------------- #
# self time of nested spans
# --------------------------------------------------------------------------- #
def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], (0, 10)) == 6
    assert covered_length([], (0, 10)) == 0
    assert covered_length([(11, 12)], (0, 10)) == 0


def test_self_time_subtracts_what_children_cover():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")       # 0
    child = tracer.open("child")       # 1
    grandchild = tracer.open("leaf")   # 2
    tracer.close(grandchild)           # 4
    tracer.close(child)                # 5
    second = tracer.open("child")      # 6
    tracer.close(second)               # 9
    tracer.close(outer)                # 10
    index = SpanIndex(tracer.spans)
    assert grandchild.parent_id == child.span_id
    assert second.parent_id == outer.span_id
    assert index.self_time(outer) == pytest.approx(10 - (4 + 3))
    assert index.self_time(child) == pytest.approx(4 - 2)
    assert index.self_time(grandchild) == pytest.approx(2)
    assert [span.name for span in index.outermost(lambda s: s.name == "child")] == \
        ["child", "child"]


def test_spans_inherit_the_context_of_their_parent():
    tracer = Tracer()
    outer = tracer.open("job", context="job-7")
    inner = tracer.open("fit")
    tracer.close(inner)
    tracer.close(outer)
    assert inner.context == "job-7"


# --------------------------------------------------------------------------- #
# the output check
# --------------------------------------------------------------------------- #
def _record(**overrides):
    from repro.batch.jobs import JobRecord

    fields = dict(index=0, label="grid/job", method="mfti", tags={}, status="ok",
                  order=12, error_vs_reference=1e-3)
    fields.update(overrides)
    return JobRecord(**fields)


def _table(**row):
    entry = {"order": 12, "max_error_vs_reference": 1.1e-3}
    entry.update(row)
    return {"grid/job": entry}


def test_check_accepts_matching_record():
    assert checks.check_records([_record()], certify=False, expected=_table()) == (1, [])


def test_check_rejects_perturbed_order():
    checked, problems = checks.check_records([_record()], certify=False,
                                             expected=_table(order=13))
    assert checked == 1 and len(problems) == 1 and "grid/job" in problems[0]


def test_check_rejects_error_above_bound():
    checked, problems = checks.check_records([_record()], certify=False,
                                             expected=_table(max_error_vs_reference=0.9e-3))
    assert len(problems) == 1 and "above bound" in problems[0]


def test_check_rejects_uncertified_and_failed_jobs():
    _, problems = checks.check_records([_record()], certify=True,
                                       expected=_table(certified=True))
    assert len(problems) == 1  # one failed operation, however many reasons
    failed = _record(status="failed", order=None, error_type="EnforcementFailed",
                     error_message="no margin")
    _, problems = checks.check_records([failed], certify=True, expected=None)
    assert problems == ["grid/job: failed with EnforcementFailed: no margin"]


def test_served_check_rejects_a_changed_record():
    from repro.batch.results import BatchResult

    jobs = [type("Job", (), {"label": "r0.0/grid/job", "tags": {"request": "r0"}})()]
    local = [_record()]
    served = BatchResult(records=(dataclasses.replace(
        _record(), label="r0.0/grid/job", tags={"request": "r0"}, cache_status="hit"),))
    assert checks.served_problems(served, jobs, local) == []
    changed = BatchResult(records=(dataclasses.replace(
        served.records[0], error_vs_reference=2e-3),))
    assert checks.served_problems(changed, jobs, local) == [
        "r0.0/grid/job: served record differs from local"]


# --------------------------------------------------------------------------- #
# wrappers restore the originals
# --------------------------------------------------------------------------- #
def _bindings() -> dict:
    import numpy.linalg

    from repro import backends
    from repro.batch.engine import BatchEngine
    from repro.core import _pipeline
    from repro.core.loewner import LoewnerPencil
    from repro.serve.app import FitService

    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repro"):
            for attribute, value in vars(module).items():
                if callable(value):
                    snapshot[(name, attribute)] = value
    for op in layers.LINALG_OPS:
        snapshot[("numpy.linalg", op)] = getattr(numpy.linalg, op)
    for owner, attribute in ((BatchEngine, "run"), (LoewnerPencil, "singular_values"),
                             (FitService, "submit_batch")):
        snapshot[(owner.__name__, attribute)] = owner.__dict__[attribute]
    snapshot["backend"] = backends.get_backend("numpy")
    for name, spec in _pipeline._FRONTENDS.items():
        snapshot[("frontend", name)] = spec
    return snapshot


@pytest.mark.parametrize("scope", ["full", "server"])
def test_wrappers_restore_every_binding(scope):
    layers.install(Tracer(), scope=scope).restore()  # import everything first
    before = _bindings()
    tracer = Tracer()
    patch = layers.install(tracer, scope=scope)
    during = _bindings()
    assert any(during[key] is not before[key] for key in before)
    patch.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_untraced_calls_record_nothing_after_restore():
    import numpy as np

    from repro.utils import linalg

    tracer = Tracer()
    patch = layers.install(tracer)
    linalg.economic_svd(np.eye(3))
    traced = len(tracer.spans)
    patch.restore()
    linalg.economic_svd(np.eye(3))
    np.linalg.svd(np.eye(3))
    assert traced >= 2  # the wrapper span and the numpy.linalg.svd inside it
    assert len(tracer.spans) == traced


def test_overhead_alternates_which_pass_runs_first():
    from perfbench import measure

    order = []

    def untraced():
        order.append("untraced")
        return 2.0

    def traced():
        order.append("traced")
        return 2.2

    value, note = measure._overhead(untraced, traced)
    assert order[:4] == ["untraced", "traced", "traced", "untraced"]
    assert len(order) == 2 * measure.OVERHEAD_PAIRS
    assert value == pytest.approx(0.1)
    assert "spread 0.000" in note


def test_patch_restores_attributes_it_added():
    class Owner:
        pass

    patch = Patch()
    patch.set(Owner, "extra", 1)
    assert Owner.extra == 1
    patch.restore()
    assert not hasattr(Owner, "extra")


# --------------------------------------------------------------------------- #
# the served schedule
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class _Job:
    data: object
    label: str
    tags: dict


def _pools():
    datasets = [object() for _ in range(5)]
    first = [_Job(datasets[i // 2], f"a{i}", {}) for i in range(6)]
    second = [_Job(datasets[3 + i // 3], f"b{i}", {}) for i in range(6)]
    return [first, second]


def test_schedule_is_a_function_of_the_seed():
    pools = _pools()
    assert build_schedule(pools, 3) == build_schedule(pools, 3)
    assert build_schedule(pools, 3) != build_schedule(pools, 4)


def test_schedule_work_does_not_depend_on_the_seed():
    def shape(schedule):
        return [(sorted(len(request.jobs) for request in requests),
                 sorted(origin for request in requests for origin in request.origins))
                for requests in schedule]

    pools = _pools()
    assert shape(build_schedule(pools, 1)) == shape(build_schedule(pools, 2))


def test_schedule_introduces_each_dataset_alone_and_covers_every_job():
    pools = _pools()
    for pool, requests in zip(pools, build_schedule(pools, 11)):
        data_of = {job.label: id(job.data) for job in pool}
        seen_data = set()
        for request in requests:
            data = {data_of[origin] for origin in request.origins}
            assert len(data) == 1  # one dataset per request
            assert 1 <= len(request.jobs) <= 4
            if not data <= seen_data:
                assert len(request.jobs) == 1
            seen_data |= data
        assert {origin for request in requests for origin in request.origins} == \
            set(data_of)


def test_schedule_repeats_half_of_the_jobs_it_sends():
    pools = _pools()
    for pool, requests in zip(pools, build_schedule(pools, 5)):
        origins = [origin for request in requests for origin in request.origins]
        assert len(origins) == 2 * len(pool)
        duplicated = [request for request in requests
                      if len(set(request.origins)) < len(request.origins)]
        assert duplicated  # the coalescing path is exercised
