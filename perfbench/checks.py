"""Output checks: every mismatch is one failed operation, printed with its label.

* **Expected table** (default inputs only): the committed per-workload table
  maps each job label to its model order, an ``error_vs_reference`` bound
  and, for certified jobs, ``"certified": true``.
* **Invariants** (every input): the job succeeded, its order is positive,
  its reference error is finite, and a certified job's hold-out-verified
  passivity margin is non-negative.
* **Served == local**: a served batch equals the serial engine's
  :func:`~repro.batch.results.comparable_dict` of the same jobs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Iterable, Optional

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

#: Headroom of the committed error bound over the measured error.
ERROR_HEADROOM = 1.1


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)["jobs"]


def expected_entry(record) -> dict:
    """The expected-table row a record would produce (used to write the table)."""
    entry = {"order": record.order,
             "max_error_vs_reference": record.error_vs_reference * ERROR_HEADROOM}
    if record.passivity:
        entry["certified"] = True
    return entry


def invariant_problems(record, *, certify: bool) -> list[str]:
    if not record.ok:
        return [f"{record.label}: failed with {record.error_type}: {record.error_message}"]
    problems = []
    if not record.order or record.order < 1:
        problems.append(f"{record.label}: model order {record.order}")
    if not math.isfinite(record.error_vs_reference):
        problems.append(f"{record.label}: error_vs_reference {record.error_vs_reference}")
    if certify:
        margin = record.passivity.get("worst_margin", float("nan"))
        if not margin >= 0.0:
            problems.append(f"{record.label}: hold-out passivity margin {margin}")
    return problems


def table_problems(record, expected: dict) -> list[str]:
    row = expected.get(record.label)
    if row is None:
        return [f"{record.label}: not in the expected table"]
    problems = []
    if record.order != row["order"]:
        problems.append(f"{record.label}: order {record.order}, expected {row['order']}")
    if not record.error_vs_reference <= row["max_error_vs_reference"]:
        problems.append(f"{record.label}: error_vs_reference {record.error_vs_reference!r} "
                        f"above bound {row['max_error_vs_reference']!r}")
    if row.get("certified") and not record.passivity:
        problems.append(f"{record.label}: not certified")
    return problems


def check_records(records: Iterable, *, certify: bool,
                  expected: Optional[dict]) -> tuple[int, list[str]]:
    """``(records checked, problems)``; a record with any problem is one failure."""
    checked, problems = 0, []
    for record in records:
        checked += 1
        found = invariant_problems(record, certify=certify)
        if expected is not None and record.ok:
            found += table_problems(record, expected)
        if found:
            problems.append("; ".join(found))
    return checked, problems


def _without_cache_provenance(document: dict) -> dict:
    """comparable_dict minus fit-cache statuses: the server runs a FitCache,
    the local serial reference does not, so hit/miss differs by design."""
    document = dict(document, n_cache_hits=0, n_cache_misses=0)
    document["jobs"] = [dict(job, cache=None) for job in document["jobs"]]
    return document


def served_problems(served, jobs: list, local_records: list) -> list[str]:
    """Compare one served batch with the local records of the same jobs.

    ``local_records[i]`` is the record a local serial run produced for the
    content of ``jobs[i]``; re-addressed to this request's index, label and
    tags, those records form the local batch the served one must equal.
    """
    from repro.batch.results import BatchResult, comparable_dict

    local = BatchResult(records=tuple(
        dataclasses.replace(record, index=index, label=job.label, tags=dict(job.tags))
        for index, (job, record) in enumerate(zip(jobs, local_records))))
    served_doc = _without_cache_provenance(comparable_dict(served))
    local_doc = _without_cache_provenance(comparable_dict(local))
    if served_doc == local_doc:
        return []
    problems = []
    served_jobs, local_jobs = served_doc.pop("jobs"), local_doc.pop("jobs")
    if served_doc != local_doc:
        problems.append(f"batch envelope differs: {served_doc} vs {local_doc}")
    for served_job, local_job in zip(served_jobs, local_jobs):
        if served_job != local_job:
            problems.append(f"{served_job.get('label')}: served record differs from local")
    if len(served_jobs) != len(local_jobs):
        problems.append(f"{len(served_jobs)} served records for {len(local_jobs)} jobs")
    return problems
