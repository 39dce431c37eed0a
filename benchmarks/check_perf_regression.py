"""CI perf-regression gate: diff ``BENCH_*.json`` exports against baselines.

Generalisation of the original ``check_cache_speedup.py`` (which only knew
the fit-cache export): any machine-readable benchmark export can now be
gated by a committed baseline under ``benchmarks/baselines/<name>.json``.
A baseline names the benchmark it applies to and a set of *rules* over
(dotted-path) fields of the export::

    {
      "benchmark": "fit_cache",
      "rules": {
        "speedup_warm_vs_cold": {"min": 5.0},
        "warm_cache_misses":    {"max": 0},
        "warm_cache_hits":      {"equals_field": "n_jobs"},
        "cold_wall_seconds":    {"baseline": 3.0, "rtol": 2.0, "direction": "lower"}
      }
    }

Rule semantics (any combination may appear in one rule):

``min`` / ``max``
    Hard bounds on the measured value.
``equals_field``
    The measured value must equal another (dotted-path) field of the same
    export -- e.g. *every* warm job must have hit the cache.
``baseline`` + ``rtol`` + ``direction``
    Tolerance band around a committed reference measurement.
    ``direction: "lower"`` means lower-is-better (timings): fail when the
    value exceeds ``baseline * (1 + rtol)``.  ``direction: "higher"`` means
    higher-is-better (speedups): fail when the value drops below
    ``baseline * (1 - rtol)``.  Generous ``rtol`` values absorb CI-runner
    noise while still catching order-of-magnitude regressions.

Usage::

    python benchmarks/check_perf_regression.py benchmarks/results
    python benchmarks/check_perf_regression.py benchmarks/results/BENCH_fit_cache.json
    python benchmarks/check_perf_regression.py benchmarks/results --report results/PERF_DIFF.json

With a directory argument every baseline is checked against its matching
``BENCH_<benchmark>.json`` (a missing report fails unless
``--allow-missing``); exports without a baseline fail with the baseline
path that would gate them (``--allow-unchecked`` downgrades that to a
note), and a baseline file without a ``benchmark`` key is reported by path
instead of crashing the gate.
The machine-readable diff (``--report``, default ``PERF_DIFF.json`` next to
the exports) records every rule with its measured value and verdict and is
uploaded as a CI artifact alongside the raw ``BENCH_*.json`` files.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any

DEFAULT_BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")

_RULE_KEYS = {"min", "max", "equals_field", "baseline", "rtol", "direction"}


def resolve_field(payload: dict, path: str):
    """Resolve a dotted path (``workloads.pdn.speedup_cold``) in an export.

    Integer segments index into lists (``rows.3.error`` is the ``error``
    field of the fourth row), which is how baselines gate the row-structured
    exports (Table 1, the ablations) whose row order is deterministic.
    """
    value: Any = payload
    for part in path.split("."):
        if isinstance(value, list):
            try:
                index = int(part)
            except ValueError:
                return None
            if not -len(value) <= index < len(value):
                return None
            value = value[index]
        elif isinstance(value, dict) and part in value:
            value = value[part]
        else:
            return None
    return value


def check_rule(payload: dict, field: str, rule: dict) -> list[dict]:
    """Evaluate one baseline rule; returns the individual check records."""
    unknown = set(rule) - _RULE_KEYS
    if unknown:
        return [{"field": field, "check": "rule", "ok": False,
                 "detail": f"unknown rule keys {sorted(unknown)}"}]
    if not set(rule) & {"min", "max", "equals_field", "baseline"}:
        # a rule of only rtol/direction would produce zero checks and pass
        # vacuously -- a silently inert gate is itself a failure
        return [{"field": field, "check": "rule", "ok": False,
                 "detail": "rule enforces nothing: needs at least one of "
                           "min/max/equals_field/baseline"}]
    if ("rtol" in rule or "direction" in rule) and "baseline" not in rule:
        return [{"field": field, "check": "rule", "ok": False,
                 "detail": "rtol/direction only apply to a baseline band; "
                           "add the baseline value"}]
    value = resolve_field(payload, field)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return [{"field": field, "check": "present", "ok": False,
                 "detail": f"missing or non-numeric field (got {value!r})"}]
    records = []
    if "min" in rule:
        ok = value >= rule["min"]
        records.append({"field": field, "check": "min", "limit": rule["min"],
                        "value": value, "ok": ok})
    if "max" in rule:
        ok = value <= rule["max"]
        records.append({"field": field, "check": "max", "limit": rule["max"],
                        "value": value, "ok": ok})
    if "equals_field" in rule:
        other = resolve_field(payload, rule["equals_field"])
        ok = other is not None and value == other
        records.append({"field": field, "check": "equals_field",
                        "limit": rule["equals_field"], "value": value,
                        "other_value": other, "ok": ok})
    if "baseline" in rule:
        rtol = float(rule.get("rtol", 0.0))
        direction = rule.get("direction", "lower")
        if direction not in ("lower", "higher"):
            records.append({"field": field, "check": "baseline", "ok": False,
                            "detail": f"direction must be lower/higher, got {direction!r}"})
        elif direction == "lower":
            limit = rule["baseline"] * (1.0 + rtol)
            records.append({"field": field, "check": "baseline(lower)",
                            "limit": limit, "value": value, "ok": value <= limit})
        else:
            limit = rule["baseline"] * (1.0 - rtol)
            records.append({"field": field, "check": "baseline(higher)",
                            "limit": limit, "value": value, "ok": value >= limit})
    return records


def check_export(payload: dict, baseline: dict) -> list[dict]:
    """All rule records of one baseline applied to one export payload."""
    records = []
    for field, rule in baseline.get("rules", {}).items():
        records.extend(check_rule(payload, field, rule))
    return records


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run(results: str, baseline_dir: str, *, allow_missing: bool = False,
        allow_unchecked: bool = False) -> dict:
    """Check every applicable baseline; returns the diff-report document."""
    if os.path.isdir(results):
        exports = {}
        for path in sorted(glob.glob(os.path.join(results, "BENCH_*.json"))):
            payload = load_json(path)
            exports[payload.get("benchmark", os.path.basename(path))] = (path, payload)
    else:
        payload = load_json(results)
        exports = {payload.get("benchmark", os.path.basename(results)): (results, payload)}

    checked, problems = [], []
    baselines = {}
    for path in sorted(glob.glob(os.path.join(baseline_dir, "*.json"))):
        baseline = load_json(path)
        name = baseline.get("benchmark")
        if not name:
            # a KeyError here used to crash the whole gate; name the file so
            # the broken baseline is fixable without reading a traceback
            problems.append(f"baseline {path} names no benchmark "
                            "(missing the 'benchmark' key)")
            continue
        baselines[name] = (path, baseline)

    for name, (baseline_path, baseline) in baselines.items():
        if name not in exports:
            if os.path.isdir(results) and not allow_missing:
                problems.append(f"baseline {baseline_path} has no BENCH_{name}.json export")
            continue
        export_path, payload = exports[name]
        records = check_export(payload, baseline)
        checked.append({"benchmark": name, "export": export_path,
                        "baseline": baseline_path, "checks": records})
        for record in records:
            if not record["ok"]:
                detail = record.get(
                    "detail",
                    f"{record['field']} {record.get('value')} violates "
                    f"{record['check']} {record.get('limit')}",
                )
                problems.append(f"{name}: {detail}")
    unchecked = sorted(set(exports) - set(baselines))
    if not allow_unchecked:
        # an export nobody gates is a silently inert benchmark: fail it with
        # the exact baseline path that would wire it up
        for name in unchecked:
            problems.append(
                f"export {name!r} has no baseline: add "
                f"{os.path.join(baseline_dir, name + '.json')} or pass "
                "--allow-unchecked"
            )
    return {
        "checked": checked,
        "unchecked_exports": unchecked,
        "problems": problems,
        "ok": not problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results",
                        help="BENCH_*.json file or a directory of exports")
    parser.add_argument("--baselines", default=DEFAULT_BASELINE_DIR,
                        help="directory of committed baseline rule files "
                             "(default: benchmarks/baselines)")
    parser.add_argument("--report", default=None,
                        help="where to write the machine-readable diff "
                             "(default: PERF_DIFF.json next to the exports)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline has no matching export")
    parser.add_argument("--allow-unchecked", action="store_true",
                        help="do not fail when an export has no baseline")
    args = parser.parse_args(argv)

    report = run(args.results, args.baselines, allow_missing=args.allow_missing,
                 allow_unchecked=args.allow_unchecked)
    report_path = args.report or os.path.join(
        args.results if os.path.isdir(args.results) else os.path.dirname(args.results),
        "PERF_DIFF.json",
    )
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for entry in report["checked"]:
        passed = sum(1 for c in entry["checks"] if c["ok"])
        print(f"{entry['benchmark']}: {passed}/{len(entry['checks'])} checks ok "
              f"(baseline {os.path.basename(entry['baseline'])})")
    for name in report["unchecked_exports"]:
        print(f"note: export {name!r} has no baseline (unchecked)")
    if report["problems"]:
        for problem in report["problems"]:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"ok: perf gates passed ({report_path})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
