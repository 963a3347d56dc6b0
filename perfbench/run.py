"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload adhoc_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` reports the per-layer metrics instead: it sets up once with
the layer wrappers of :mod:`tracer` installed, runs the timed loop once
untraced (the baseline for the tracing overhead) and once traced, and
writes the spans to ``perfbench/out/``.  Either way every result is
checked against :mod:`oracle` after the timed loop, and the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
A line before it, starting with ``details:``, holds per-class medians,
workload properties, the simulated-seconds digest and run metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed, slowdown

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Host-speed samples taken right before and right after each set-up.
SPEED_SAMPLES_AROUND_SETUP = 5
#: Largest share of the traced loop's wall time the layer spans may leave
#: unattributed before the report flags a blind spot.
BLIND_SPOT_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

#: Per-layer metrics that describe one traced set-up (totals).
SETUP_SCOPED = ("storage.tpch.generate_s", "storage.datagen.generate_s",
                "storage.catalog.register_s", "storage.catalog.register_calls",
                "stats.collect_s")
#: Per-layer metrics: wall seconds and call counts are per operation of the
#: traced loop, unless listed in SETUP_SCOPED.
PER_LAYER_UNITS = {
    "storage.tpch.generate_s": "s",
    "storage.datagen.generate_s": "s",
    "storage.catalog.register_s": "s",
    "storage.catalog.register_calls": "count",
    "storage.catalog.loop_register_s": "s/op",
    "storage.morsel.morsels": "count/op",
    "stats.collect_s": "s",
    "stats.loop_collect_s": "s/op",
    "stats.estimate_s": "s/op",
    "stats.median_q_error": "ratio",
    "engine.optimizer.optimize_s": "s/op",
    "engine.optimizer.calls": "count/op",
    "engine.session.self_s": "s/op",
    "engine.executor.self_s": "s/op",
    "engine.querycache.lookup_s": "s/op",
    "engine.querycache.lookups": "count/op",
    "engine.querycache.hit_ratio": "ratio",
    "engine.querycache.evicted": "count/op",
    "engine.querycache.bytes_used": "bytes",
    "engine.workers.map_s": "s/op",
    "engine.workers.tasks": "count/op",
    "relational.keys.fold_s": "s/op",
    "relational.keys.fold_calls": "count/op",
    "relational.keys.build_s": "s/op",
    "relational.keys.probe_s": "s/op",
    "relational.keys.probe_calls": "count/op",
    "operators.hashjoin.self_s": "s/op",
    "operators.filterproject.self_s": "s/op",
    "operators.filterproject.rows_in": "count/op",
    "operators.filterproject.rows_out": "count/op",
    "operators.aggregate.self_s": "s/op",
    "operators.exchange.self_s": "s/op",
    "operators.radix.partition_s": "s/op",
    "operators.radix.join_s": "s/op",
    "operators.gpujoin.self_s": "s/op",
    "operators.coprocess.self_s": "s/op",
    "hardware.cost_s": "s/op",
    "hardware.cost_calls": "count/op",
    "server.self_s": "s/op",
    "server.sharedcache.self_s": "s/op",
    "server.tickets": "count",
    "server.sharedcache.hit_ratio": "ratio",
    "server.sharedcache.invalidated": "count",
    "trace.ops": "count",
    "trace.unattributed_s": "s/op",
    "trace.overhead_pct": "%",
}


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    there is no such percentile and the maximum is returned.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, count
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


def _timed_loop(workload, rng, seconds: float, rec) -> float:
    """Run whole passes for ``seconds`` of workload time.

    Returns the loop's wall time without ``rec.excluded_s`` (result checks
    and host-speed samples), which counts toward neither the deadline nor
    the returned wall.
    """
    started = perf_counter()
    while True:
        workload.run_pass(rng, rec)
        rec.passes += 1
        wall = perf_counter() - started - rec.excluded_s
        if wall >= seconds:
            return wall


def _sample_host_speed(rec, speed: HostSpeed, tracer=None) -> None:
    """Take a host-speed sample at request starts, and number requests."""

    def on_request() -> None:
        if tracer is not None:
            tracer.request += 1
        rec.excluded_s += speed.due()

    rec.on_request = on_request


def _timed_setup(workloads, args, speed: HostSpeed) -> tuple[object, float,
                                                              float]:
    """Set the workload up once; returns it, its wall and the host slowdown."""
    before = [speed.measure() for _ in range(SPEED_SAMPLES_AROUND_SETUP)]
    workload = workloads.make(args.workload, args.seed)
    started = perf_counter()
    workload.setup()
    wall = perf_counter() - started
    after = [speed.measure() for _ in range(SPEED_SAMPLES_AROUND_SETUP)]
    return workload, wall, slowdown(before + after)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_revision(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` files (no git process is started)."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _metadata(root: Path, repro_workers: str | None) -> dict:
    import numpy

    src_lines = sum(len(path.read_bytes().splitlines())
                    for path in (root / "src").rglob("*.py"))
    return {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_revision": _git_revision(root),
            "REPRO_WORKERS": repro_workers, "src_lines": src_lines}


def _end_to_end(setups, wall, rec, loop_slowdown) -> tuple[dict, dict]:
    """End-to-end metrics, scaled to the calibration host's speed."""
    tail, percentile, count = _tail(rec.tail)
    medians = {cls: statistics.median(v) for cls, v in rec.classes.items()}
    raw = {
        "setup_s": statistics.median(w for w, _ in setups),
        "throughput_ops_s": rec.ops / wall,
        "latency_p50_ms": 1e3 * (statistics.geometric_mean(medians.values())
                                 if medians else 0.0),
        "latency_tail_ms": 1e3 * tail,
    }
    values = {
        "setup_s": statistics.median(w / s for w, s in setups),
        "throughput_ops_s": raw["throughput_ops_s"] * loop_slowdown,
        "latency_p50_ms": raw["latency_p50_ms"] / loop_slowdown,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "unscaled": raw, "loop_slowdown": loop_slowdown,
        "setups": [{"wall_s": w, "slowdown": s} for w, s in setups],
        "loop_wall_s": wall, "ops": rec.ops, "passes": rec.passes,
        "classes": {cls: {"median_ms": 1e3 * medians[cls], "n": len(v)}
                    for cls, v in sorted(rec.classes.items())},
        # Reported, not gated: its run-to-run spread on a shared host is
        # too wide for any bound the benchmark may set.
        "latency_tail": {"ms": raw["latency_tail_ms"] / loop_slowdown,
                         "percentile": percentile, "n": count},
    }
    return values, details


def _per_layer(tracer, workload, rec, wall, loop_slowdown, base_rec,
               base_wall, base_slowdown, setup_slowdown) -> tuple[dict, dict]:
    """Per-layer metrics of the traced run; seconds are scaled like
    the end-to-end metrics, by the slowdown of their own phase."""
    ops = max(rec.ops, 1)
    loop = tracer.self_seconds("loop")
    setup = tracer.self_seconds("setup")
    counts = tracer.counts_for("loop")
    setup_counts = tracer.counts_for("setup")
    values = {}
    for name in PER_LAYER_UNITS:
        if name in SETUP_SCOPED:
            values[name] = setup.get(name, setup_counts.get(name, 0.0))
        elif name in loop:
            values[name] = loop[name] / ops
        elif name in counts:
            values[name] = counts[name] / ops
        else:
            values[name] = 0.0
    fields = rec.fields
    shared_lookups = fields.get("shared_lookups", 0)
    lookups = fields.get("cache_lookups", 0) + shared_lookups
    hits = fields.get("cache_hits", 0) + fields.get("shared_hits", 0)
    serving = shared_lookups > 0 or "epoch" in rec.classes
    unattributed = wall - tracer.main_thread_self_seconds("loop")
    traced_per_op = wall / ops / loop_slowdown
    base_per_op = base_wall / max(base_rec.ops, 1) / base_slowdown
    values.update({
        "storage.catalog.loop_register_s":
            loop.get("storage.catalog.register_s", 0.0) / ops,
        "stats.loop_collect_s": loop.get("stats.collect_s", 0.0) / ops,
        "storage.morsel.morsels": fields.get("morsels", 0) / ops,
        "stats.median_q_error": (statistics.median(rec.q_errors)
                                 if rec.q_errors else 0.0),
        "engine.querycache.lookups": lookups / ops,
        "engine.querycache.hit_ratio": hits / lookups if lookups else 0.0,
        "engine.querycache.evicted": fields.get("cache_evicted", 0) / ops,
        "engine.querycache.bytes_used": workload.cache_bytes(),
        "server.tickets": rec.ops if serving else 0,
        "server.sharedcache.hit_ratio": (
            fields.get("shared_hits", 0) / shared_lookups
            if shared_lookups else 0.0),
        "server.sharedcache.invalidated": (
            fields.get("invalidated", 0) / fields["refreshes"]
            if fields.get("refreshes") else 0.0),
        "trace.ops": rec.ops,
        "trace.unattributed_s": unattributed / ops,
        "trace.overhead_pct": 100.0 * (traced_per_op / base_per_op - 1.0),
    })
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "s/op"):
            values[name] /= (setup_slowdown if name in SETUP_SCOPED
                             else loop_slowdown)
    unattributed_share = unattributed / wall
    details = {
        "loop_wall_s": wall, "loop_slowdown": loop_slowdown,
        "untraced_loop_wall_s": base_wall, "untraced_ops": base_rec.ops,
        "untraced_loop_slowdown": base_slowdown,
        "setup_slowdown": setup_slowdown,
        "unattributed_share": unattributed_share,
        "blind_spot": unattributed_share > BLIND_SPOT_TOLERANCE,
        "blind_spot_tolerance": BLIND_SPOT_TOLERANCE,
        "spans": len(tracer.spans),
        "missing_targets": tracer.missing,
    }
    return values, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    # Every knob stays at its default, including the worker count the
    # environment would otherwise select.
    repro_workers = os.environ.pop("REPRO_WORKERS", None)
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    speed = HostSpeed()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            workload, _, setup_slowdown = _timed_setup(workloads, args, speed)
        finally:
            tracer.uninstall()
        workload.prepare()
        base_rec = workloads.Recorder()
        base_speed = HostSpeed()
        _sample_host_speed(base_rec, base_speed)
        base_wall = _timed_loop(workload, rng, args.seconds, base_rec)
        base_slowdown = slowdown(base_speed.samples)
        rec = workloads.Recorder()
        loop_speed = HostSpeed()
        _sample_host_speed(rec, loop_speed, tracer)
        tracer.phase = "loop"
        tracer.install()
        try:
            wall = _timed_loop(workload, rng, args.seconds, rec)
        finally:
            tracer.uninstall()
        rec.merge(base_rec)
        metrics, details = _per_layer(
            tracer, workload, rec, wall, slowdown(loop_speed.samples),
            base_rec, base_wall, base_slowdown, setup_slowdown)
        units = PER_LAYER_UNITS
        out_dir = root / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.export(trace_path)
        details["trace_file"] = str(trace_path.relative_to(root))
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            # Drop the previous set-up first, so set-ups never overlap.
            workload = None
            gc.collect()
            workload, wall, setup_slowdown = _timed_setup(workloads, args,
                                                          speed)
            setups.append((wall, setup_slowdown))
        workload.prepare()
        rec = workloads.Recorder()
        loop_speed = HostSpeed()
        _sample_host_speed(rec, loop_speed)
        wall = _timed_loop(workload, rng, args.seconds, rec)
        metrics, details = _end_to_end(setups, wall, rec,
                                       slowdown(loop_speed.samples))
        units = END_TO_END_UNITS

    checked = workload.check(rec)
    if not args.trace:
        metrics["success_rate"] = 1.0 - rec.failed / max(rec.attempted, 1)
    details.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "simulated_seconds_digest": workloads.digest_map(
            checked["simulated_seconds"]),
        "simulated_seconds": checked["simulated_seconds"],
        "properties": checked["properties"],
        "failures": rec.messages,
        "metadata": _metadata(root, repro_workers),
    })
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
