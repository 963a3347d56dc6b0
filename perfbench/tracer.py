"""Outside-in wall-clock tracing of the engine's layers.

The tracer wraps public functions and methods of each layer from outside:
a function is replaced under every name a ``repro`` module binds it to
(``from … import`` copies the reference, so patching only the defining
module would miss callers), a method is replaced on its class.  The
program's code is not changed, and :meth:`Tracer.uninstall` restores every
original.

Each wrapped call records one span: target, start, end, parent span,
request id, phase and thread.  Every thread keeps its own span stack.  A
span's *self time* is its duration minus the durations of its direct
children; the child spans of one thread never overlap, so this is the
time the span's own layer spent.  Spans stay in memory until
:meth:`Tracer.export` writes them once, as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _rows(columns) -> int:
    for values in columns.values():
        return len(values)
    return 0


def _count_filter_rows(args, kwargs, result) -> dict[str, int]:
    columns = args[0] if args else kwargs["columns"]
    return {"operators.filterproject.rows_in": _rows(columns),
            "operators.filterproject.rows_out": _rows(result)}


def _count_tasks(args, kwargs, result) -> dict[str, int]:
    return {"engine.workers.tasks": len(result)}


@dataclass(frozen=True)
class Target:
    """One patch point: ``module`` + ``attr`` (``"Class.method"`` or a name)."""

    module: str
    attr: str
    #: Per-layer metric the span's self time is added to.
    time_metric: str
    #: Metric that counts calls, if any.
    calls_metric: str | None = None
    #: Extra counts taken from arguments and result.
    counter: Callable | None = None

    @property
    def layer(self) -> str:
        return self.time_metric.rsplit(".", 1)[0]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


_COST_MODEL_METHODS = ("seq_scan", "seq_write", "materialize", "random_access",
                       "tlb_miss_cost", "atomic_ops", "kernel_launch",
                       "partition_pass", "hash_build", "hash_probe")
_COST_FUNCTIONS = (
    ("repro.operators.filterproject", ("estimate_filter_project",
                                       "scan_cost")),
    ("repro.operators.hashjoin", ("estimate_non_partitioned_join",)),
    ("repro.operators.radix", ("estimate_radix_partition",
                               "estimate_partition_run",
                               "estimate_cpu_radix_join")),
    ("repro.operators.gpujoin", ("estimate_gpu_partitioned_join",
                                 "probe_phase_cost")),
    ("repro.operators.aggregate", ("estimate_hash_aggregate",
                                   "estimate_merge_partials")),
    ("repro.operators.exchange", ("device_crossing_cost",)),
)


def _targets() -> list[Target]:
    t = Target
    targets = [
        t("repro.storage.tpch", "generate_tpch", "storage.tpch.generate_s"),
        t("repro.storage.datagen", "make_join_pair",
          "storage.datagen.generate_s"),
        t("repro.storage.catalog", "Catalog.register",
          "storage.catalog.register_s", "storage.catalog.register_calls"),
        t("repro.stats.statistics", "collect_table_statistics",
          "stats.collect_s"),
        t("repro.stats.cardinality", "CardinalityEstimator.estimate",
          "stats.estimate_s"),
        t("repro.stats.cardinality", "CardinalityEstimator.estimate_rows",
          "stats.estimate_s"),
        t("repro.stats.cardinality", "CardinalityEstimator.estimate_physical",
          "stats.estimate_s"),
        t("repro.stats.cardinality", "CardinalityEstimator.working_set",
          "stats.estimate_s"),
        t("repro.engine.optimizer", "Optimizer.optimize",
          "engine.optimizer.optimize_s", "engine.optimizer.calls"),
        t("repro.engine.optimizer", "Optimizer.choose_mode",
          "engine.optimizer.optimize_s"),
        t("repro.engine.session", "HAPEEngine.execute",
          "engine.session.self_s"),
        t("repro.engine.executor", "Executor.execute",
          "engine.executor.self_s"),
        t("repro.engine.querycache", "QueryCache.get",
          "engine.querycache.lookup_s"),
        t("repro.engine.workers", "WorkerPool.map_ordered",
          "engine.workers.map_s", None, _count_tasks),
        t("repro.relational.keys", "fold_keys", "relational.keys.fold_s",
          "relational.keys.fold_calls"),
        t("repro.relational.keys", "JoinBuildIndex.__init__",
          "relational.keys.build_s"),
        t("repro.relational.keys", "JoinBuildIndex.probe",
          "relational.keys.probe_s", "relational.keys.probe_calls"),
        t("repro.operators.hashjoin", "hash_join_kernel",
          "operators.hashjoin.self_s"),
        t("repro.operators.hashjoin", "non_partitioned_join",
          "operators.hashjoin.self_s"),
        t("repro.operators.hashjoin", "HashJoinBuild.__init__",
          "operators.hashjoin.self_s"),
        t("repro.operators.hashjoin", "HashJoinBuild.probe",
          "operators.hashjoin.self_s"),
        t("repro.operators.filterproject", "filter_project_kernel",
          "operators.filterproject.self_s"),
        t("repro.operators.filterproject", "filter_project_morsel",
          "operators.filterproject.self_s", None, _count_filter_rows),
        t("repro.operators.aggregate", "hash_aggregate_kernel",
          "operators.aggregate.self_s"),
        t("repro.operators.aggregate", "merge_partials_kernel",
          "operators.aggregate.self_s"),
        t("repro.operators.exchange", "Router.route",
          "operators.exchange.self_s"),
        t("repro.operators.exchange", "zip_partitions",
          "operators.exchange.self_s"),
        t("repro.operators.exchange", "mem_move",
          "operators.exchange.self_s"),
        t("repro.operators.exchange", "broadcast",
          "operators.exchange.self_s"),
        # The executor carries out the exchange operators of a TPC-H plan
        # (router, mem-move, device crossing) in these methods.
        t("repro.engine.executor", "Executor._charge_router",
          "operators.exchange.self_s"),
        t("repro.engine.executor", "Executor._charge_memmove",
          "operators.exchange.self_s"),
        t("repro.engine.executor", "Executor._charge_crossing",
          "operators.exchange.self_s"),
        t("repro.operators.radix", "radix_partition_kernel",
          "operators.radix.partition_s"),
        t("repro.operators.radix", "partition_by_plan_kernel",
          "operators.radix.partition_s"),
        t("repro.operators.radix", "cpu_radix_join_kernel",
          "operators.radix.join_s"),
        t("repro.operators.radix", "cpu_radix_join", "operators.radix.join_s"),
        t("repro.operators.gpujoin", "gpu_partitioned_join_kernel",
          "operators.gpujoin.self_s"),
        t("repro.operators.gpujoin", "gpu_partitioned_join",
          "operators.gpujoin.self_s"),
        t("repro.operators.coprocess", "coprocessed_radix_join",
          "operators.coprocess.self_s"),
        t("repro.server.server", "QueryServer.run", "server.self_s"),
        t("repro.server.server", "QueryServer.submit", "server.self_s"),
        t("repro.server.server", "QueryServer.register_table",
          "server.self_s"),
        t("repro.server.sharedcache", "SharedQueryCache.get",
          "server.sharedcache.self_s"),
        t("repro.server.sharedcache", "SharedQueryCache.commit",
          "server.sharedcache.self_s"),
    ]
    for module, names in _COST_FUNCTIONS:
        targets.extend(t(module, name, "hardware.cost_s", "hardware.cost_calls")
                       for name in names)
    targets.extend(t("repro.hardware.costmodel", f"CostModel.{name}",
                     "hardware.cost_s", "hardware.cost_calls")
                   for name in _COST_MODEL_METHODS)
    return targets


TARGETS = _targets()


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._patches: list[tuple[object, str, object]] = []
        self.origin = perf_counter()
        #: (id, target index, start, end, parent id, request, phase,
        #: thread, self seconds) per finished span.
        self.spans: list[tuple] = []
        #: (phase, metric) -> count.
        self.counts: dict[tuple[str, str], float] = {}
        self.request = 0
        self.phase = "setup"
        self.main_thread = threading.get_ident()
        #: Targets not found in the program (renamed or removed).
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, metric: str, value: float) -> None:
        key = (self.phase, metric)
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, index: int, fn: Callable) -> Callable:
        target = TARGETS[index]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((
                    frame[0], index, start, end,
                    parent[0] if parent is not None else 0, tracer.request,
                    tracer.phase, threading.get_ident(),
                    duration - frame[1]))
            if target.calls_metric is not None:
                tracer._count(target.calls_metric, 1)
            if target.counter is not None:
                for metric, value in target.counter(args, kwargs,
                                                    result).items():
                    tracer._count(metric, value)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists in the program."""
        self.missing = []
        for index, target in enumerate(TARGETS):
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(target.name)
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = (owner.__dict__.get(attr)
                            if owner is not None else None)
                if not callable(original):
                    self.missing.append(target.name)
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(index, original)
            for name, loaded in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, binding, original))
                        setattr(loaded, binding, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------
    def self_seconds(self, phase: str) -> dict[str, float]:
        """Self seconds per time metric, over every thread."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span[6] == phase:
                metric = TARGETS[span[1]].time_metric
                totals[metric] = totals.get(metric, 0.0) + span[8]
        return totals

    def main_thread_self_seconds(self, phase: str) -> float:
        """Self seconds of the spans on the thread that drives the loop."""
        return sum(span[8] for span in self.spans
                   if span[6] == phase and span[7] == self.main_thread)

    def counts_for(self, phase: str) -> dict[str, float]:
        return {metric: value for (p, metric), value in self.counts.items()
                if p == phase}

    def export(self, path) -> None:
        """Write every span as one JSON line (times relative to start)."""
        with open(path, "w", encoding="utf-8") as out:
            for (span_id, index, start, end, parent, request, phase, thread,
                 self_s) in self.spans:
                target = TARGETS[index]
                out.write(json.dumps({
                    "id": span_id, "name": target.name, "layer": target.layer,
                    "start": start - self.origin, "end": end - self.origin,
                    "parent": parent, "request": request, "phase": phase,
                    "thread": thread, "self_s": self_s}) + "\n")
