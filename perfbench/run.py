"""One end-to-end benchmark for the MFTI fit system.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload loewner_grid --seed 0 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric; ``--trace 1`` makes a traced run and prints every per-layer metric.
Both check the outputs.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# BLAS reads its thread count when numpy loads: pin it before anything imports numpy.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
from perfbench.provenance import (  # noqa: E402  (stdlib-only module)
    EnvironmentRefused,
    pin_blas_env,
    provenance,
    require_single_thread,
    use_checkout_sources,
)

pin_blas_env()

#: Metrics the machine-readable result line carries, per mode.  ``failed_frac``
#: is printed but left out of the result line: it is 0 on every good run,
#: and the line's own ``failed``/``attempted`` carry it.
RESULT_END_TO_END = ("setup_s", "wall_s", "job_p50_s", "job_tail_s",
                     "worst_error_vs_reference", "peak_rss_mb")


def parse_args(argv):
    from perfbench.measure import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes submission order / draws the served schedule")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time; sets the fixed pass count of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="offset every builder's base_seed (invariant checks only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        use_checkout_sources()
        info = provenance()
        require_single_thread(info)
    except EnvironmentRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from perfbench.measure import WORKLOADS

    print("provenance: " + json.dumps(info, sort_keys=True))
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            outcome = workload.trace(args.seed, args.data_seed)
            reported = list(outcome.units)
        else:
            outcome = workload.measure(args.seed, args.seconds, args.data_seed)
            reported = list(RESULT_END_TO_END)
    except EnvironmentRefused as exc:  # e.g. the fit server's BLAS is not pinned
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    for note in outcome.notes:
        print(f"note: {note}")
    for name, value in outcome.metrics.items():
        print(f"{args.workload} {name} = {value!r} {outcome.units[name]}")
    failed = len(outcome.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": outcome.units[name]}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
