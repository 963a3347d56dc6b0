#!/usr/bin/env python
"""Gate the tracing benchmark's invariants (CI job ``obs``).

Reads a benchmark results file (``BENCH_results.json`` layout), takes
the latest run containing a ``trace`` suite and asserts:

1. **Byte-identity.**  The chaos epoch's exported JSONL was
   byte-identical with tenant sessions at workers {1, 2, auto} and
   across a same-seed replay
   (``trace_identical_across_workers_and_replay``).
2. **Perfetto loadability.**  The Chrome trace-event export round-trips
   through ``json`` with well-formed events (``perfetto_loadable``).
3. **Critical paths.**  Every completed query's critical path named its
   binding resource (``critical_paths_bound``).
4. **Tracing-off overhead.**  With tracing disabled the TPC-H suite ran
   at most ``--max-overhead-pct`` (default 2%) slower than the traced
   interleaved control (``tracing_off_overhead_pct``) — i.e. the
   instrumentation costs nothing when off, beyond measurement noise.
5. **Coverage.**  The chaos epoch actually exercised the lifecycle:
   failovers, retries and preemptions all occurred, and the event log
   carries the corresponding kinds.

Exits non-zero with a diagnostic on any violation.

Usage::

    python tools/check_trace.py --bench /tmp/BENCH_ci.json \
        --max-overhead-pct 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent

_REQUIRED_EVENTS = ("submit", "admit", "dispatch", "complete",
                    "failover", "retry", "preempt", "device_health")


def _latest_run_with(history: dict, suite: str) -> dict | None:
    for run in reversed(history.get("runs", [])):
        if suite in run.get("suites", {}):
            return run
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=Path,
                        default=_REPO / "BENCH_results.json",
                        help="results file holding the trace run to check")
    parser.add_argument("--max-overhead-pct", type=float, default=2.0,
                        help="allowed tracing-off slowdown vs the traced "
                             "control, in percent")
    args = parser.parse_args(argv)

    history = json.loads(args.bench.read_text())
    run = _latest_run_with(history, "trace")
    if run is None:
        print(f"FAIL: no trace suite recorded in {args.bench}")
        return 1
    record = run["suites"]["trace"]

    failures: list[str] = []
    if not record.get("trace_identical_across_workers_and_replay", False):
        failures.append(
            "chaos epoch trace was not byte-identical across workers "
            "{1, 2, auto} and replay")
    if not record.get("perfetto_loadable", False):
        failures.append("Chrome trace export is not Perfetto-loadable "
                        "(round-trip or event-shape check failed)")
    if not record.get("critical_paths_bound", False):
        failures.append(
            "at least one completed query's critical path failed to name "
            "its binding resource")
    overhead = record.get("tracing_off_overhead_pct")
    if overhead is None:
        failures.append("trace suite recorded no tracing_off_overhead_pct")
    elif overhead > args.max_overhead_pct:
        failures.append(
            f"tracing-off path ran {overhead:.2f}% slower than the traced "
            f"control (allowed {args.max_overhead_pct:.2f}%)")
    kinds = set(record.get("event_kinds", ()))
    missing = [kind for kind in _REQUIRED_EVENTS if kind not in kinds]
    if missing:
        failures.append(
            f"chaos epoch event log is missing kinds: {', '.join(missing)}")
    for counter in ("failovers", "retries", "preemptions"):
        if not record.get(counter, 0):
            failures.append(
                f"chaos epoch exercised no {counter} — the determinism "
                "claim would not cover them")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"trace suite ok: {record['trace_lines']} JSONL lines "
          f"byte-identical across workers and replay, Perfetto-loadable, "
          f"{len(record.get('critical_paths', {}))} critical paths bound, "
          f"tracing-off overhead {overhead:.2f}% "
          f"(allowed {args.max_overhead_pct:.2f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
