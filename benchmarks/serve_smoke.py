"""CI serve-smoke: real server subprocess -> Table-1 grid -> bitwise equal.

The end-to-end acceptance walk of the serving stack, exactly as an operator
would run it -- no in-process shortcuts:

1. fit the (scaled-down) Table-1 Loewner grid locally with a
   :class:`~repro.batch.engine.BatchEngine` (the reference),
2. start a **real** ``python -m repro serve`` subprocess on an ephemeral
   port and wait for its announce line,
3. submit the same grid over HTTP through :class:`repro.Client`,
4. assert the served result is string-identical to the reference through
   :func:`~repro.batch.results.comparable_json` (the same bitwise contract
   the sharded smoke enforces),
5. submit the grid again through the same client, which now names the
   datasets the server holds instead of shipping them, and require the
   same identity,
6. ``POST /shutdown`` and require a clean exit code.

Run from the repository root::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

from repro.batch import BatchEngine, comparable_json
from repro.circuits.pdn import PdnConfiguration
from repro.experiments.example2 import (
    Example2Config,
    build_pdn_datasets,
    loewner_table1_jobs,
)
from repro.serve import Client

#: Scaled-down Table-1 configuration (same shape as the full Example-2 grid:
#: VFTI + two MFTI block sizes + recursive MFTI on the noisy PDN sweep).
CONFIG = Example2Config(
    pdn=PdnConfiguration(n_ports=6, grid_rows=4, grid_cols=5,
                         n_decaps=5, n_bulk_caps=1),
    n_samples=40,
    n_validation=60,
)

ANNOUNCE = re.compile(r"serving on http://([\d.]+):(\d+)")


def main() -> int:
    test1, _, validation = build_pdn_datasets(CONFIG)
    jobs = loewner_table1_jobs(CONFIG, "test1", test1, validation)

    reference = BatchEngine().run(jobs)
    assert reference.n_failed == 0, reference.failures
    print(f"local reference: {reference.n_ok}/{reference.n_jobs} ok")

    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        path for path in ("src", environment.get("PYTHONPATH", "")) if path)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--executor", "thread", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=environment,
    )
    try:
        announce = server.stdout.readline()
        match = ANNOUNCE.search(announce)
        assert match, f"server did not announce a port: {announce!r}"
        host, port = match.group(1), int(match.group(2))
        print(announce.strip())

        client = Client(host, port)
        assert client.healthz()["status"] == "ok"
        served = client.submit(jobs)
        assert served.n_failed == 0, served.failures
        assert comparable_json(served) == comparable_json(reference), (
            "served result differs from the local reference")
        print(f"served result: {served.n_ok}/{served.n_jobs} ok, "
              "comparable JSON identical to the local reference")

        repeat = client.submit(jobs)
        assert comparable_json(repeat) == comparable_json(reference), (
            "repeat served result differs from the local reference")
        datasets = client.stats()["datasets"]
        print(f"repeat result: comparable JSON identical; server datasets: "
              f"{datasets['inline']} inline, {datasets['resolved']} resolved")

        client.shutdown()
        returncode = server.wait(timeout=30)
        assert returncode == 0, f"server exited with {returncode}"
        print("clean shutdown: serve smoke ok")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
