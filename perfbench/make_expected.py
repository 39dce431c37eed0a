"""Regenerate the committed expected tables from one serial run of the defaults.

Usage (from the root of a checkout)::

    python3 perfbench/make_expected.py

Only rerun this when a change is meant to alter model orders or errors, and
say so in that change: the tables are what the benchmark's output check
holds every run to.
"""

from __future__ import annotations

import json
import os
import sys

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
from perfbench.provenance import (  # noqa: E402  (stdlib-only module)
    pin_blas_env,
    provenance,
    require_single_thread,
    use_checkout_sources,
)


def main() -> int:
    pin_blas_env()
    use_checkout_sources()
    info = provenance()
    require_single_thread(info)
    from perfbench import checks, grids
    from repro.batch.engine import BatchEngine

    tables = {"loewner_grid": grids.LOEWNER_GRID, "certify_zoo": grids.CERTIFY_ZOO}
    for name, builders in tables.items():
        result = BatchEngine().run(grids.build(builders))
        result.raise_failures(context=name)
        document = {
            "about": "job label -> model order and error_vs_reference bound "
                     f"({checks.ERROR_HEADROOM}x the measured error) at the builders' "
                     "default seeds; written by perfbench/make_expected.py",
            "provenance": info,
            "jobs": {record.label: checks.expected_entry(record) for record in result.records},
        }
        path = os.path.join(checks.EXPECTED_DIR, f"{name}.json")
        os.makedirs(checks.EXPECTED_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}: {len(result.records)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
