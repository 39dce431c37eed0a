"""The batch workloads: job grids built from the repro workload builders.

``--seed`` permutes the order of the engine's job chunks; the datasets stay at
the builders' default base seeds, because redrawing them moved the serial
wall time by up to 29% and the worst reference error by 5.6x (see README),
which no regression bound could absorb.  ``--data-seed`` offsets every
builder's ``base_seed`` to explore other draws; those runs check the
invariants only, since the committed expected tables are for the defaults.
"""

from __future__ import annotations

import inspect
import random
from typing import Optional

LOEWNER_GRID = ("mixed_batch_jobs", "monte_carlo_jobs", "port_sweep_jobs", "time_domain_jobs")
CERTIFY_ZOO = ("passive_macromodel_jobs",)
SERVED_POOLS = (("monte_carlo_jobs",), ("port_sweep_jobs", "time_domain_jobs"))


def build(builders, data_seed: Optional[int] = None) -> list:
    """Jobs of the named builders, in builder order."""
    from repro.experiments.workloads import WORKLOADS

    jobs = []
    for name in builders:
        builder = WORKLOADS[name]
        kwargs = {}
        base_seed = inspect.signature(builder).parameters.get("base_seed")
        if data_seed is not None and base_seed is not None:
            kwargs["base_seed"] = base_seed.default + data_seed
        jobs.extend(builder(**kwargs))
    return jobs


def submission_order(jobs: list, seed: int, chunk_size: int) -> list:
    """The jobs with their engine chunks in a seeded order.

    Chunks are the contiguous runs of ``chunk_size`` jobs the engine would
    cut from the builder order; keeping their contents lets the seed change
    the order work arrives in without changing what each chunk holds.
    """
    chunks = [jobs[start:start + chunk_size] for start in range(0, len(jobs), chunk_size)]
    random.Random(seed).shuffle(chunks)
    return [job for chunk in chunks for job in chunk]


def served_warm_up_jobs() -> list:
    """Two small jobs, outside every pool, that finish a fresh server's lazy
    set-up (imports, first calls) before a timed pass starts."""
    from repro.experiments.workloads import time_domain_jobs

    return time_domain_jobs(system_orders=(8,), base_seed=9000)
