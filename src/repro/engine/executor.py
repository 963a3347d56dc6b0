"""Executor: runs physical plans on the simulated heterogeneous server.

The executor interprets the trait-annotated physical DAG produced by the
optimizer.  Functional results are computed with the executable operator
*kernels* of :mod:`repro.operators` — exactly once per plan node — while the
per-device ``estimate_*`` cost functions price the same work on every
device kind that participates; simulated time is produced by
list-scheduling those costs onto the clocks of the devices the traits (and
the routers feeding an operator) designate, and every cross-device byte is
charged to the interconnect link it crosses.  The makespan of the resulting
timeline is the "execution time" the evaluation figures report.

Because kernels are device-invariant, their results are additionally
memoized by the structural key of the subplan that produced them — and the
memo lives for the whole *session*, not one query: the executor owns a
:class:`~repro.engine.querycache.QueryCache` that retains kernel results
across :meth:`Executor.execute` calls, keyed by catalog-versioned
structural keys, bounded by an LRU byte budget
(``ExecutorOptions.cache_budget_bytes``) and invalidated exactly when the
catalog replaces or drops a table an entry read.  A repeated subplan (the
same dimension scan or build side appearing under several operators, or
the same build recurring across a dashboard's queries) is evaluated
functionally once while warm, while its cost is still charged per
occurrence per query — simulated timings are bit-identical whether a query
runs cold or warm.  A per-query overlay on top of the session cache keeps
within-plan repeats single-evaluated even when the session cache is
disabled (``cache_budget_bytes=0``) or an entry does not fit the budget.

Morsel-driven batching
----------------------

Kernels do not consume whole-column packets in one gulp: the
:class:`MorselScheduler` grants every kernel evaluation a *morsel*
granularity (``ExecutorOptions.morsel_rows``, surfaced as the
``morsel_rows`` knob on :class:`~repro.engine.session.HAPEEngine`), and the
operators process their inputs in bounded row-count slices — streaming for
filter/project and join probes, build-then-probe for joins and aggregates.
Morsel granularity is *wall-clock only*: kernel outputs, stats records and
therefore every simulated second are bit-identical for every setting, and
the per-subplan kernel memo keyed by structural keys works unchanged
because memo entries hold fully reassembled batches, never partial streams.

Pipeline-fused streaming
------------------------

Morsels do not materialize a full batch at every plan node: maximal chains
of streaming operators (scan source -> filter/project -> exchange routing
-> non-partitioned join probes, identified by
:func:`~repro.codegen.pipeline.fused_chain`) are driven end to end — each
source morsel flows through the *whole* chain before the next one is
carved, and only the chain's boundary batch (the input of the breaker that
consumes it) is ever reassembled.  Intermediate filter/project and join
outputs exist one morsel at a time.  This is the engine's only execution
configuration, matching the paper's JIT engine, which compiles every
pipeline into one fused kernel.

Fusion requires *memo-aware deferral*: an operator whose output is never
materialized cannot be memoized (or session-cached) as a standalone batch.
The executor therefore keys fused evaluations at **fusion-boundary
granularity** — one memo/cache entry per chain, keyed by the structural
key of the chain's top operator with a fused-chain tuning marker, storing
the boundary batch *plus* the per-stage stats records needed to replay
every stage's cost on warm runs.  Subplans that occur more than once in a
plan are sharing points and are never deferred (:meth:`Executor._defer_ok`
cuts the chain there); they, the plan root, swapped and partitioned joins
and aggregates run through the standalone per-node path, which preserves
single evaluation.  Because cost charging is replayed per stage from the
recorded stats in exactly the per-node order, simulated seconds, device
busy times and link bytes are bit-identical to per-node execution, warm or
cold (``tests/test_invariants.py`` pins them).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..codegen.pipeline import chain_source, fused_chain
from ..errors import ExecutionError, OutOfDeviceMemoryError
from ..hardware.device import Device
from ..hardware.specs import DeviceKind
from ..hardware.topology import Topology
from ..obs.trace import QueryTrace, Span
from ..operators.aggregate import (
    estimate_hash_aggregate,
    estimate_merge_partials,
    hash_aggregate_kernel,
    merge_partials_kernel,
)
from ..operators.base import (
    ArrayMap,
    OpCost,
    columns_nbytes,
    columns_num_rows,
    record_kernel_invocation,
)
from ..operators.coprocess import coprocessed_radix_join
from ..operators.filterproject import (
    FilterProjectStats,
    estimate_filter_project,
    filter_project_kernel,
    filter_project_morsel,
    referenced_columns,
    touched_bytes,
)
from ..operators.gpujoin import (
    ensure_gpu_join_fits,
    estimate_gpu_partitioned_join,
    gpu_partitioned_join_kernel,
)
from ..operators.hashjoin import (
    HashJoinBuild,
    JoinStats,
    build_table_bytes,
    estimate_non_partitioned_join,
    hash_join_kernel,
)
from ..operators.radix import (
    cpu_radix_join_kernel,
    estimate_cpu_radix_join,
    max_fanout,
    target_partition_bytes,
)
from ..relational.physical import (
    DeviceCrossing,
    JoinAlgorithm,
    MemMove,
    PAggregate,
    PFilterProject,
    PhysicalOp,
    PJoin,
    PScan,
    PSort,
    Router,
    referenced_tables,
    structural_key,
)
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.morsel import (
    DEFAULT_MORSEL_ROWS,
    concat_columns,
    iter_morsels,
    morsel_count,
)
from ..storage.table import Table
from .querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    QueryCache,
    result_nbytes,
)
from .workers import WorkerPool, resolve_workers

_KernelResult = TypeVar("_KernelResult")


def plan_slots(plan: PhysicalOp) -> dict[int, int]:
    """Map a plan's global node ids to plan-local ordinals (walk order).

    Node ids come from a process-global counter, so two optimizations of
    the same query number their nodes differently; traces and span joins
    use these stable ordinals instead.
    """
    return {node.node_id: slot for slot, node in enumerate(plan.walk())}


@dataclass(frozen=True)
class ExecutorOptions:
    """Execution knobs of one executor (and of the session around it)."""

    #: Extra fractional cost charged when a pipeline spans CPUs and GPUs,
    #: covering packet routing, pinned staging buffers and synchronization.
    hybrid_overhead: float = 0.10
    #: Extra overhead for hybrid pipelines that shuffle join state.
    hybrid_join_overhead: float = 0.30
    #: Enforce GPU memory capacity when placing join hash tables.
    enforce_gpu_memory: bool = True
    #: Rows per morsel for kernel evaluation, a positive int.
    #: Wall-clock/working-set only — simulated seconds are identical for
    #: every setting.
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    #: Byte budget of the session-lifetime cross-query kernel cache
    #: (:mod:`repro.engine.querycache`): ``0`` disables cross-query
    #: caching, ``None`` lifts the bound.  Wall-clock only — cost is
    #: charged per occurrence regardless of cache hits, so simulated
    #: seconds are identical for every setting.
    cache_budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES
    #: Worker threads driving fused-chain morsel streams and radix
    #: partition passes: ``1`` = run inline (the exact single-threaded
    #: path), ``"auto"`` = the machine's CPU count, ``None`` = defer to
    #: the ``REPRO_WORKERS`` environment variable (else 1).  Wall-clock
    #: only — the ordered-merge contract of
    #: :class:`~repro.engine.workers.WorkerPool` keeps outputs, stats and
    #: simulated seconds bit-identical at every worker count.
    workers: int | str | None = None
    #: Record operator-level spans (:class:`~repro.obs.trace.QueryTrace`
    #: on :attr:`ExecutionResult.trace`).  Spans are appended on the query
    #: thread at the cost-charging points — canonical plan order — so a
    #: trace is byte-identical at every worker count; results, simulated
    #: seconds and all counters are bit-identical with tracing on or off.
    tracing: bool = False


@dataclass
class MorselScheduler:
    """Grants morsel granularity to kernel evaluations and accounts for it.

    The scheduler is the engine-side half of the morsel contract: for each
    plan node whose kernel is about to run, :meth:`grant` decides the
    morsel size the operator must honor and records how many morsels the
    node's input batches will be carved into.  The per-morsel loops live in
    the operator kernels and :meth:`Executor._run_fused_chain` (they own
    the data path); the scheduler owns the granularity and the bookkeeping
    that :attr:`ExecutionResult.morsels_dispatched` reports.

    The scheduler hands out sizes, not threads: the executor's
    :class:`~repro.engine.workers.WorkerPool` runs the morsels.  Neither is
    visible to the cost model — "parallel workers" on the simulated devices
    are priced by ``estimate_*``, so morsels bound the *real* working set
    of kernel evaluation and simulated seconds never observe them.
    """

    #: Rows per morsel granted to kernels.
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    #: Morsels carved across all kernel evaluations since the last reset.
    morsels_dispatched: int = 0

    def reset(self) -> None:
        """Zero the per-query counters (one :meth:`Executor.execute`)."""
        self.morsels_dispatched = 0

    def grant(self, *batch_rows: int) -> int:
        """Morsel size for a kernel over the given input batch sizes.

        Call once per actual kernel evaluation (inside the memo, so cached
        subplans grant nothing) with the row count of every input batch the
        kernel will carve: one for a unary operator, build and probe for a
        join.
        """
        for num_rows in batch_rows:
            self.morsels_dispatched += morsel_count(num_rows, self.morsel_rows)
        return self.morsel_rows


@dataclass
class NodeResult:
    """Result of executing one physical operator."""

    columns: ArrayMap
    ready: float
    location: str
    devices: list[Device] = field(default_factory=list)
    #: Device-spec-derived tuning knobs baked into the row order of this
    #: subtree's columns (partition plans of radix joins).  Parents fold the
    #: tag into their kernel memo key so two structurally equal subplans
    #: only share an evaluation when their row order provably matches.
    kernel_tag: tuple = ()

    @property
    def nbytes(self) -> int:
        return columns_nbytes(self.columns)

    @property
    def num_rows(self) -> int:
        return columns_num_rows(self.columns)


@dataclass
class _StageMeta:
    """Placement/timing metadata at one point of a (fused) operator chain.

    The fused execution path separates an operator's *functional* work
    (streamed, inside the kernel memo) from its *cost charging* (replayed
    per stage from recorded stats).  ``_StageMeta`` is everything the
    charging code needs about a stage's input that a materialized
    :class:`NodeResult` would normally provide — minus the columns, which
    a fused chain never materializes for intermediate stages.
    """

    ready: float
    location: str
    devices: list[Device]
    kernel_tag: tuple
    nbytes: int


def _stage_meta(result: NodeResult) -> _StageMeta:
    return _StageMeta(ready=result.ready, location=result.location,
                      devices=result.devices, kernel_tag=result.kernel_tag,
                      nbytes=result.nbytes)


def _read_only_view(values: np.ndarray) -> np.ndarray:
    """A view of ``values`` that refuses writes; ``values`` keeps its flags."""
    view = values.view()
    view.flags.writeable = False
    return view


class _PassthroughStage:
    """Exchange stage of a fused chain: forwards each morsel untouched.

    Routers, mem-moves and device crossings never inspect tuple payloads,
    so the stream flows straight through; the stage only exists so the
    replay can charge the exchange's control/transfer cost at exactly the
    position the per-node path would.
    """

    __slots__ = ("node",)

    def __init__(self, node: PhysicalOp) -> None:
        self.node = node

    def place(self, executor: "Executor",
              devices: list[Device]) -> list[Device]:
        if isinstance(self.node, Router) and self.node.consumers:
            return [executor.topology.device(name)
                    for name in self.node.consumers]
        if isinstance(self.node, DeviceCrossing):
            return [device for device in executor.topology.devices
                    if device.kind is self.node.target_kind
                    and device.is_available]
        return devices

    def begin(self, executor: "Executor") -> None:
        pass

    def transform(self, batch: ArrayMap) -> tuple[ArrayMap, object]:
        return batch, None

    def absorb(self, contribution: object) -> None:
        pass

    def finish(self) -> object:
        return None

    def tag_through(self, tag: tuple) -> tuple:
        return tag

    def replay(self, executor: "Executor", meta: _StageMeta,
               record: object) -> _StageMeta:
        if isinstance(self.node, Router):
            return executor._charge_router(self.node, meta)
        if isinstance(self.node, MemMove):
            return executor._charge_memmove(self.node, meta)
        return executor._charge_crossing(self.node, meta)


class _FilterProjectStage:
    """Streaming filter/project stage of a fused chain.

    Transforms one morsel at a time with the exact per-morsel body the
    standalone kernel uses (:func:`filter_project_morsel`) while accumulating
    the whole-batch :class:`FilterProjectStats` — input rows and touched
    bytes are additive over morsels, so the record (and therefore the
    replayed cost) is bit-identical to a standalone kernel evaluation.

    ``transform`` is pure (no stage state touched) so worker threads can
    run morsels concurrently; the integer contributions are absorbed on
    the query thread in morsel order, making the accumulated stats
    independent of completion order.
    """

    __slots__ = ("node", "referenced", "in_rows", "touched", "out_nbytes",
                 "out_rows")

    def __init__(self, node: PFilterProject) -> None:
        self.node = node
        self.referenced = referenced_columns(node.predicate, node.projections)
        self.in_rows = 0
        self.touched = 0
        self.out_nbytes = 0
        self.out_rows = 0

    def place(self, executor: "Executor",
              devices: list[Device]) -> list[Device]:
        return devices or executor._default_devices()

    def begin(self, executor: "Executor") -> None:
        record_kernel_invocation("filter_project")
        self.in_rows = self.touched = self.out_nbytes = self.out_rows = 0

    def transform(self, batch: ArrayMap) -> tuple[ArrayMap, object]:
        in_rows = columns_num_rows(batch)
        touched = touched_bytes(batch, self.referenced)
        out = filter_project_morsel(batch, predicate=self.node.predicate,
                                    projections=self.node.projections)
        return out, (in_rows, touched, columns_nbytes(out),
                     columns_num_rows(out))

    def absorb(self, contribution: object) -> None:
        in_rows, touched, out_nbytes, out_rows = contribution  # type: ignore[misc]
        self.in_rows += in_rows
        self.touched += touched
        self.out_nbytes += out_nbytes
        self.out_rows += out_rows

    def finish(self) -> object:
        return (FilterProjectStats(num_rows=self.in_rows,
                                   touched_bytes=self.touched),
                self.out_nbytes, self.out_rows)

    def tag_through(self, tag: tuple) -> tuple:
        return tag

    def replay(self, executor: "Executor", meta: _StageMeta,
               record: object) -> _StageMeta:
        stats, out_nbytes, out_rows = record  # type: ignore[misc]
        executor._note_rows(self.node, out_rows)
        meta = executor._charge_filter_project(self.node, meta, stats)
        meta.nbytes = out_nbytes
        return meta


class _HashJoinProbeStage:
    """Non-partitioned join probe stage of a fused chain.

    The build side is a breaker and was executed (materialized) when the
    chain was assembled; cold runs build the join index once in
    :meth:`begin` and then match one probe morsel at a time.  Because the
    match list is ordered by probe position, the streamed outputs
    concatenate to exactly the whole-column join, and the accumulated
    :class:`JoinStats` equals the standalone kernel's record.

    After :meth:`begin`, the join index is read-only: ``transform``
    (probe) is safe to run from multiple worker threads, and the byte
    contributions are absorbed on the query thread in morsel order.
    """

    __slots__ = ("node", "build", "builder", "devices", "probe_rows",
                 "probe_nbytes", "out_nbytes", "out_rows")

    def __init__(self, node: PJoin, build: NodeResult) -> None:
        self.node = node
        self.build = build
        self.builder: HashJoinBuild | None = None
        self.devices: list[Device] = []
        self.probe_rows = 0
        self.probe_nbytes = 0
        self.out_nbytes = 0
        self.out_rows = 0

    def place(self, executor: "Executor",
              devices: list[Device]) -> list[Device]:
        self.devices = devices or executor._default_devices()
        return self.devices

    def begin(self, executor: "Executor") -> None:
        record_kernel_invocation("hash_join")
        self.probe_rows = self.probe_nbytes = self.out_nbytes = 0
        self.out_rows = 0
        # GPU capacity is checked *before* any streaming work, exactly
        # like the per-node path checks before evaluating the kernel: an
        # oversized build (the Q9 failure mode) raises without
        # materializing — or caching — the boundary batch.  The replay
        # repeats the check (it charges no clock and peaks no higher), so
        # warm runs enforce it identically to per-node warm runs.
        if executor.options.enforce_gpu_memory:
            for kind in {device.kind for device in self.devices}:
                representative = executor._representative(self.devices, kind)
                if representative is not None and representative.is_gpu:
                    representative.allocate(
                        build_table_bytes(self.build.num_rows),
                        label="join hash table").free()
        morsel_rows = executor.scheduler.grant(self.build.num_rows)
        self.builder = HashJoinBuild.from_morsels(
            iter_morsels(self.build.columns, morsel_rows),
            build_keys=self.node.build_keys)

    def transform(self, batch: ArrayMap) -> tuple[ArrayMap, object]:
        assert self.builder is not None
        probe_rows = columns_num_rows(batch)
        probe_nbytes = columns_nbytes(batch)
        out = self.builder.probe(batch, probe_keys=self.node.probe_keys)
        return out, (probe_rows, probe_nbytes, columns_nbytes(out),
                     columns_num_rows(out))

    def absorb(self, contribution: object) -> None:
        probe_rows, probe_nbytes, out_nbytes, out_rows = contribution  # type: ignore[misc]
        self.probe_rows += probe_rows
        self.probe_nbytes += probe_nbytes
        self.out_nbytes += out_nbytes
        self.out_rows += out_rows

    def finish(self) -> object:
        assert self.builder is not None
        stats = JoinStats(
            build_rows=self.builder.num_rows,
            probe_rows=self.probe_rows,
            build_nbytes=self.builder.nbytes,
            probe_nbytes=self.probe_nbytes,
            output_nbytes=self.out_nbytes,
        )
        self.builder = None  # the index dies with the streamed run
        return stats, self.out_rows

    def tag_through(self, tag: tuple) -> tuple:
        return self.build.kernel_tag + tag

    def replay(self, executor: "Executor", meta: _StageMeta,
               record: object) -> _StageMeta:
        stats, out_rows = record  # type: ignore[misc]
        executor._note_rows(self.node, out_rows)
        earliest = max(self.build.ready, meta.ready)
        devices = meta.devices or executor._default_devices()
        ready_build = executor._prepare_hash_join(self.build, devices,
                                                  earliest)
        ready = executor._charge_hash_join(self.node, devices, stats, meta,
                                           earliest=earliest,
                                           ready_build=ready_build)
        return _StageMeta(ready=ready, location=meta.location,
                          devices=devices,
                          kernel_tag=self.build.kernel_tag + meta.kernel_tag,
                          nbytes=stats.output_nbytes)


@dataclass
class ExecutionResult:
    """What :class:`Executor.execute` returns."""

    table: Table
    simulated_seconds: float
    device_busy: dict[str, float]
    link_bytes: dict[str, int]
    plan: PhysicalOp
    #: Morsels the scheduler dispatched to kernels for this query: one per
    #: input batch that fits a single morsel, more when batches stream,
    #: zero for kernel evaluations the session cache served.
    morsels_dispatched: int = 0
    #: Session-cache activity attributable to this query: hits/misses of
    #: distinct subplans, evictions during the query, plus invalidations
    #: since the previous query (catalog changes happen between executes).
    cache: CacheCounters = field(default_factory=CacheCounters)
    #: Bytes of the largest intermediate batch the query materialized (the
    #: widest single operator output; base-table scans excluded).  A
    #: wall-clock/working-set diagnostic — never part of simulated time.
    peak_intermediate_bytes: int = 0
    #: Actual output rows per plan ``node_id`` for the relational
    #: operators (scans, filter/projects, joins, aggregates, sorts;
    #: exchanges forward batches and are excluded).  Identical warm and
    #: cold: warm runs recover the counts from the cached stats records.
    operator_rows: dict[int, int] = field(default_factory=dict)
    #: Operator spans plus raw task slices (``ExecutorOptions.tracing``);
    #: ``None`` when tracing is off.
    trace: QueryTrace | None = None

    def utilization(self, resource: str) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.device_busy.get(resource, 0.0) / self.simulated_seconds


class Executor:
    """Interprets physical plans over the simulated topology."""

    def __init__(self, topology: Topology, catalog: Catalog,
                 options: ExecutorOptions | None = None, *,
                 query_cache: QueryCache | None = None) -> None:
        self.topology = topology
        self.catalog = catalog
        self.options = options or ExecutorOptions()
        self.scheduler = MorselScheduler()
        # Routes through the validating knobs so an invalid morsel_rows or
        # cache_budget_bytes in the options fails here, not mid-query.
        self.configure_morsels(self.options.morsel_rows)
        self.configure_workers(self.options.workers)
        if query_cache is not None:
            # A server-owned shared cache (multi-tenant serving): its owner
            # wires catalog invalidation exactly once and owns the budget
            # knob; the options mirror its setting.
            self.query_cache = query_cache
            self._owns_cache = False
            self.options = replace(
                self.options, cache_budget_bytes=query_cache.budget_bytes)
        else:
            #: Session-lifetime cross-query kernel cache; subscribes to the
            #: catalog so table replacement/drop invalidates exactly the
            #: entries that read the changed table.
            self.query_cache = QueryCache(budget_bytes=None)
            self._owns_cache = True
            self.configure_cache(self.options.cache_budget_bytes)
            catalog.subscribe(self.query_cache.invalidate_table)
        self._cache_mark = self.query_cache.counters()
        #: Largest intermediate batch (bytes of one operator's output
        #: columns, base-table scans excluded) materialized by the current
        #: query — a wall-clock/working-set diagnostic for serving reports.
        self._peak_intermediate = 0
        # Per-query state: an overlay memo over the session cache (keeps
        # within-plan repeats single-evaluated regardless of cache budget),
        # the structural-key id-cache for the current plan, and the
        # remaining-occurrence counts that bound the overlay's footprint.
        self._query_memo: dict[tuple, dict[object, object]] = {}
        self._key_cache: dict[int, tuple] = {}
        self._key_refs: dict[tuple, int] = {}
        #: Immutable snapshot of the per-plan occurrence counts: the
        #: memo-aware deferral predicate (:meth:`_defer_ok`) must see the
        #: *initial* counts, not the ones :meth:`_memoized_kernel` decays.
        self._plan_refs: dict[tuple, int] = {}
        self._table_versions: dict[str, int] = {}
        # Tracing state: a span list while the current query traces
        # (``None`` = off — the single check every trace point makes) and
        # the per-node cache status / morsel counts recorded inside the
        # kernel memo (session-owned caches only; see _memoized_kernel).
        self._trace_spans: list[Span] | None = None
        self._trace_kernel: dict[int, tuple[str, int]] = {}

    def configure_morsels(self, morsel_rows: int) -> None:
        """Re-tune the morsel granularity (the ``morsel_rows`` knob).

        ``morsel_rows`` must be a positive int; anything else (a bool, a
        float, a string, ``None``) raises ``ValueError``.
        """
        if isinstance(morsel_rows, bool) or not isinstance(morsel_rows, int):
            raise ValueError(
                f"morsel_rows must be a positive int, got {morsel_rows!r}")
        if morsel_rows < 1:
            raise ValueError(f"morsel_rows must be >= 1, got {morsel_rows}")
        self.options = replace(self.options, morsel_rows=morsel_rows)
        self.scheduler.morsel_rows = morsel_rows

    def configure_workers(self, workers: int | str | None) -> None:
        """Re-tune the worker count (the ``workers`` knob).

        ``1`` runs everything inline on the calling thread (the exact
        pre-pool code path); ``"auto"`` resolves to the machine's CPU
        count; ``None`` defers to the ``REPRO_WORKERS`` environment
        variable (else 1).  Wall-clock only: worker threads execute pure
        morsel transforms and partition passes, while all merging, stat
        accumulation and simulated-time charging stays on the query
        thread in canonical plan order — so results, simulated seconds,
        device busy times and cache counters are bit-identical at every
        worker count.
        """
        count = resolve_workers(workers)
        self.options = replace(self.options, workers=count)
        self.pool = WorkerPool(count)

    def configure_cache(self, cache_budget_bytes: int | None) -> None:
        """Re-tune the session cache budget (``cache_budget_bytes`` knob).

        Shrinking evicts entries down to the new budget immediately;
        ``0`` disables cross-query caching, ``None`` lifts the bound.
        Sessions sharing a server-owned cache cannot re-tune it here —
        the budget belongs to the server.
        """
        self._require_cache_ownership()
        self.query_cache.set_budget(cache_budget_bytes)
        self.options = replace(self.options,
                               cache_budget_bytes=self.query_cache.budget_bytes)

    def configure_tracing(self, enabled: bool) -> None:
        """Re-tune operator-span tracing (the ``tracing`` knob).

        Takes effect for the next :meth:`execute`.  Tracing is purely
        additive: results, simulated seconds, device busy times, link
        bytes and cache counters are bit-identical with tracing on or
        off — the spans only *record* what the cost charging already
        computes, on the query thread, in canonical plan order.
        """
        if not isinstance(enabled, bool):
            raise ValueError("tracing must be a bool")
        self.options = replace(self.options, tracing=enabled)

    def _require_cache_ownership(self) -> None:
        if not getattr(self, "_owns_cache", True):
            raise ValueError(
                "this session shares a server-owned query cache; tune its "
                "budget on the owning QueryServer")

    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalOp) -> ExecutionResult:
        """Run a physical plan and report result plus simulated timing."""
        self.topology.reset()
        self.scheduler.reset()
        self._peak_intermediate = 0
        self._node_rows: dict[int, int] = {}
        self._trace_spans = [] if self.options.tracing else None
        self._trace_kernel = {}
        self._query_memo = {}
        self._key_cache = {}
        # Snapshot the catalog versions once: the catalog cannot change
        # mid-query, and cached structural keys embed these versions.
        self._table_versions = self.catalog.table_versions
        self._key_refs = self._count_kernel_occurrences(plan)
        self._plan_refs = dict(self._key_refs)
        try:
            result = self._execute(plan)
        finally:
            # Overlay entries are evicted after their last structural
            # occurrence; clear the rest so only the budget-bounded
            # session cache (self.query_cache) outlives the query.
            self._query_memo = {}
            self._key_cache = {}
            self._key_refs = {}
            self._plan_refs = {}
            # Advance the counter mark even on failure, so an aborted
            # query's cache activity is not misattributed to the next
            # query's per-query delta.
            counters = self.query_cache.counters()
            cache_delta = counters.since(self._cache_mark)
            self._cache_mark = counters
        timeline = self.topology.timeline()
        makespan = max(timeline.makespan, result.ready)
        link_bytes = {link.name: link.bytes_moved
                      for link in self.topology.links}
        trace = self._assemble_trace(plan, timeline, makespan, link_bytes)
        table = Table("result", [Column(name, values)
                                 for name, values in result.columns.items()]) \
            if result.columns else Table.from_arrays("result", {"empty": np.asarray([0])[:0]})
        return ExecutionResult(
            table=table,
            simulated_seconds=makespan,
            device_busy={clock.resource: clock.busy_time for clock in timeline},
            link_bytes=link_bytes,
            plan=plan,
            morsels_dispatched=self.scheduler.morsels_dispatched,
            cache=cache_delta,
            peak_intermediate_bytes=self._peak_intermediate,
            operator_rows=dict(self._node_rows),
            trace=trace,
        )

    def _assemble_trace(self, plan: PhysicalOp, timeline, makespan: float,
                        link_bytes: dict[str, int]) -> QueryTrace | None:
        """Join the recorded spans with rows/cache info into a QueryTrace."""
        spans = self._trace_spans
        if spans is None:
            return None
        self._trace_spans = None
        # Plan node ids come from a global counter, so two optimizations
        # of the same query number their nodes differently.  Traces use
        # plan-local ordinals (walk order) instead, making the JSONL of
        # identical plans byte-identical across re-plans and sessions.
        slots = plan_slots(plan)
        for span in spans:
            rows = self._node_rows.get(span.node_id)
            if rows is not None:
                span.rows = rows
            kernel = self._trace_kernel.get(span.node_id)
            if kernel is not None:
                span.cache, span.morsels = kernel
            span.node_id = slots.get(span.node_id, span.node_id)
        self._trace_kernel = {}
        return QueryTrace(
            spans=spans, tasks=tuple(timeline.records()), makespan=makespan,
            link_bytes=dict(link_bytes),
            morsels_dispatched=self.scheduler.morsels_dispatched)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _structural(self, node: PhysicalOp) -> tuple:
        """Catalog-versioned structural key of a subtree (per-plan cached)."""
        return structural_key(node, self._key_cache,
                              table_versions=self._table_versions)

    def _memoized_kernel(self, node: PhysicalOp,
                         run: Callable[[], _KernelResult],
                         tuning: object = None, *,
                         zero_copy: bool = False) -> _KernelResult:
        """Evaluate a functional kernel at most once per distinct subplan.

        Keyed by the catalog-versioned structural key of the subtree rooted
        at ``node``.  Lookups go through two layers: the per-query overlay
        first (within-plan repeats, not counted as cache traffic), then the
        session-lifetime :class:`QueryCache` (cross-query reuse, counted as
        hits/misses per distinct subplan).  Misses evaluate the kernel and
        retain the result in both layers; costing happens outside this
        cache, per occurrence, so simulated seconds never observe it.

        ``tuning`` must identify any device-spec-derived knobs the kernel
        bakes into its result or inherits from its inputs (partition plans
        of the radix joins, via :attr:`NodeResult.kernel_tag`): two
        occurrences only share an evaluation when their tuning matches,
        keeping per-occurrence cost replays and row orders exact.

        ``zero_copy`` marks results whose columns are views over
        catalog-resident arrays (base-table scans): they are retained at a
        byte cost of 0 since they pin no memory beyond the catalog.

        An overlay entry is evicted right after its *last* structural
        occurrence in the plan, so the per-query layer only pins
        intermediates that can still be reused within this plan; what
        outlives the query is governed solely by the session cache's LRU
        byte budget.
        """
        key = self._structural(node)
        variants = self._query_memo.get(key)
        result = None if variants is None else variants.get(tuning)
        status = "overlay"
        morsel_delta = 0
        if result is None:
            session_key = (key, tuning)
            if self.query_cache.enabled:
                result = self.query_cache.get(session_key)
            if result is None:
                status = "miss"
                morsels_before = self.scheduler.morsels_dispatched
                result = run()
                morsel_delta = (self.scheduler.morsels_dispatched
                                - morsels_before)
                if self.query_cache.enabled:
                    self.query_cache.put(
                        session_key, result,
                        nbytes=0 if zero_copy else result_nbytes(result),
                        tables=referenced_tables(node))
            else:
                status = "hit"
            self._query_memo.setdefault(key, {})[tuning] = result
        if self._trace_spans is not None and self._owns_cache:
            # Cache warmth is a per-span diagnostic only for session-owned
            # caches: a lookup against a server-shared cache depends on
            # other tenants' traffic, so served traces attribute cache
            # activity per attempt instead (the server's "complete"
            # event).  VOLATILE_SPAN_KEYS strips these for the
            # warm-vs-cold timing contract.
            self._trace_kernel[node.node_id] = (status, morsel_delta)
        remaining = self._key_refs.get(key, 0) - 1
        if remaining <= 0:
            self._query_memo.pop(key, None)
            self._key_refs.pop(key, None)
        else:
            self._key_refs[key] = remaining
        return result  # type: ignore[return-value]

    def _count_kernel_occurrences(self, plan: PhysicalOp) -> dict[tuple, int]:
        """Occurrences per structural key of every node the memo serves."""
        refs: dict[tuple, int] = {}
        for node in plan.walk():
            if isinstance(node, (PScan, PFilterProject, PAggregate)) or (
                    isinstance(node, PJoin)
                    and node.algorithm is not JoinAlgorithm.COPROCESSED_RADIX):
                key = self._structural(node)
                refs[key] = refs.get(key, 0) + 1
        return refs

    # ------------------------------------------------------------------
    # Pipeline-fused streaming
    # ------------------------------------------------------------------
    def _defer_ok(self, node: PhysicalOp) -> bool:
        """May ``node``'s output be deferred (streamed, not materialized)?

        Memo-aware deferral: a subplan that occurs more than once in the
        current plan is a sharing point — its single evaluation must be
        materialized so other occurrences can reuse it — so only
        single-occurrence subplans join a fused chain.
        """
        return self._plan_refs.get(self._structural(node), 0) == 1

    def _execute_chain(self, node: PhysicalOp) -> NodeResult:
        """Execute a breaker's input, fusing the streaming chain below it.

        Drop-in replacement for :meth:`_execute` at every point where an
        operator consumes a child batch.  When ``node`` starts no fusable
        chain this *is* ``_execute``; otherwise the maximal chain below
        ``node`` runs as one streamed evaluation:

        1. chain assembly walks top-down, executing the build side of
           every fused join (and finally the chain's source) exactly where
           the per-node recursion would — so all their charges land on the
           simulated clocks in the per-node order;
        2. the functional stream runs inside the kernel memo, keyed at
           fusion-boundary granularity: the chain top's structural key
           plus a fused-chain tuning marker, storing the boundary batch
           and the per-stage stats records (warm runs skip the stream and
           reuse both);
        3. the per-stage costs are replayed bottom-up from the stats —
           identical charges, in the identical order, as per-node
           execution.
        """
        chain = fused_chain(node, self._defer_ok)
        if not chain:
            return self._execute(node)
        stages: list = []
        for op in chain:  # top-down: fused joins build before probing
            if isinstance(op, PJoin):
                stages.append(_HashJoinProbeStage(
                    op, self._execute_chain(op.build)))
            elif isinstance(op, PFilterProject):
                stages.append(_FilterProjectStage(op))
            else:
                stages.append(_PassthroughStage(op))
        source = self._execute(chain_source(chain))
        stages.reverse()  # bottom-up: the order morsels flow
        # Devices-only placement pass: mirrors how the charge replay will
        # thread device placement through the chain, so stages that must
        # enforce placement-dependent limits *before* streaming (the join
        # stage's GPU capacity check) know their devices up front.
        devices = source.devices
        for stage in stages:
            devices = stage.place(self, devices)
        tag = source.kernel_tag
        for stage in stages:
            tag = stage.tag_through(tag)
        # The tuning marker keeps fused entries apart from standalone ones
        # for the same key: their values have different shapes (boundary
        # batch + per-stage stats vs. (columns, stats)), and the chain
        # depth pins which stats records the entry must carry.
        tuning = (tag, ("fused-chain", len(chain)))
        columns, records = self._memoized_kernel(
            chain[0], lambda: self._run_fused_chain(stages, source),
            tuning=tuning)
        meta = _stage_meta(source)
        for stage, record in zip(stages, records):
            meta = stage.replay(self, meta, record)
        result = NodeResult(columns=columns, ready=meta.ready,
                            location=meta.location, devices=meta.devices,
                            kernel_tag=meta.kernel_tag)
        self._peak_intermediate = max(self._peak_intermediate, result.nbytes)
        return result

    def _run_fused_chain(self, stages: Sequence, source: NodeResult,
                         ) -> tuple[ArrayMap, tuple]:
        """Stream the source batch through every stage, morsel by morsel.

        Each morsel flows through the *entire* chain before the next one
        is carved, so intermediate stage outputs only ever exist one
        morsel at a time; the boundary batch is reassembled with the
        consuming concatenation to keep the materialization spike near the
        output's own size.  Returns the boundary columns plus the
        per-stage stats records the cost replay (and warm runs) need.

        With ``workers > 1`` the morsel stream is split into at most
        ``workers`` contiguous chunks and each chunk flows through the
        (pure) stage transforms on a pool thread.  Determinism contract:
        chunk results come back in morsel order, stage contributions are
        absorbed on this thread in morsel order, and everything a stage
        does besides transforming — kernel bookkeeping in ``begin``, the
        morsel grant, GPU capacity checks — already happened here.  The
        boundary batch and the per-stage records are therefore
        bit-identical at every worker count.
        """
        for stage in stages:
            stage.begin(self)
        morsel_rows = self.scheduler.grant(source.num_rows)
        morsels = [dict(morsel.columns)
                   for morsel in iter_morsels(source.columns, morsel_rows)]

        def run_span(span: range) -> tuple[list[ArrayMap], list[list]]:
            outs: list[ArrayMap] = []
            contributions: list[list] = []
            for index in span:
                batch = morsels[index]
                per_stage = []
                for stage in stages:
                    batch, contribution = stage.transform(batch)
                    per_stage.append(contribution)
                outs.append(batch)
                contributions.append(per_stage)
            return outs, contributions

        parts: list[ArrayMap] = []
        for outs, contributions in self.pool.map_ordered(
                run_span, self.pool.chunks(len(morsels))):
            parts.extend(outs)
            for per_stage in contributions:
                for stage, contribution in zip(stages, per_stage):
                    stage.absorb(contribution)
        columns = concat_columns(parts, consume=True)
        return columns, tuple(stage.finish() for stage in stages)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _trace_span(self, node: PhysicalOp, op: str, *, start: float,
                    end: float, devices: Sequence[Device], location: str,
                    input_bytes: int, **attrs: object) -> None:
        """Record one operator span (no-op unless this query traces).

        Called exclusively from the cost-charging methods — which run on
        the query thread in canonical plan order for both the per-node
        path and the fused chains' replay — so the span list is
        byte-identical at every worker count.
        """
        if self._trace_spans is None:
            return
        self._trace_spans.append(Span(
            node_id=node.node_id, op=op, start=start, end=end,
            devices=tuple(device.name for device in devices),
            location=location, input_bytes=int(input_bytes), attrs=attrs))

    # ------------------------------------------------------------------
    # Per-operator cost charging (shared by the per-node execution path
    # and the fused chains' replay — one code path, identical clocks)
    # ------------------------------------------------------------------
    def _charge_router(self, node: Router, child: _StageMeta) -> _StageMeta:
        if node.consumers:
            devices = [self.topology.device(name) for name in node.consumers]
        else:
            devices = child.devices
        # Routing decisions are packet-metadata only; charge a token
        # control cost on the CPU that hosts the router.
        cpu = self._anchor_cpu()
        record = cpu.charge(1e-6 * max(len(devices), 1),
                            earliest=child.ready, label="router")
        self._trace_span(node, "router", start=child.ready, end=record.end,
                         devices=devices, location=child.location,
                         input_bytes=child.nbytes)
        return replace(child, ready=record.end, devices=devices)

    def _charge_memmove(self, node: MemMove, child: _StageMeta) -> _StageMeta:
        destinations = [name.strip() for name in node.destination.split(",")
                        if name.strip()]
        if not destinations:
            raise ExecutionError("mem-move needs at least one destination")
        nbytes = child.nbytes
        ready = child.ready
        share = nbytes // len(destinations) if destinations else nbytes
        for destination in destinations:
            if destination == child.location:
                continue
            device = self.topology.device(destination)
            payload = nbytes if node.broadcast else share
            if self.options.enforce_gpu_memory and device.is_gpu:
                device.allocate(payload, label="mem-move staging").free()
            route = self.topology.route(child.location, destination)
            ready = max(ready, route.transfer(payload, earliest=child.ready,
                                              label="mem-move"))
        location = (destinations[0] if len(destinations) == 1
                    else "distributed:" + ",".join(destinations))
        self._trace_span(node, "mem-move", start=child.ready, end=ready,
                         devices=child.devices, location=child.location,
                         input_bytes=nbytes, destination=location,
                         broadcast=node.broadcast)
        return replace(child, ready=ready, location=location)

    def _charge_crossing(self, node: DeviceCrossing,
                         child: _StageMeta) -> _StageMeta:
        targets = [device for device in self.topology.devices
                   if device.kind is node.target_kind and device.is_available]
        if not targets:
            raise ExecutionError(
                f"no available devices of kind {node.target_kind.value} "
                "in the topology")
        ready = child.ready
        for device in targets:
            record = device.charge(device.cost.kernel_launch() or 1e-6,
                                   earliest=child.ready,
                                   label="device-crossing")
            ready = max(ready, record.end)
        self._trace_span(node, "device-crossing", start=child.ready, end=ready,
                         devices=targets, location=child.location,
                         input_bytes=child.nbytes,
                         target_kind=node.target_kind.value)
        return replace(child, ready=ready, devices=targets)

    def _charge_filter_project(self, node: PFilterProject, child: _StageMeta,
                               stats: FilterProjectStats) -> _StageMeta:
        devices = child.devices or self._default_devices()
        cost_by_kind: dict[DeviceKind, OpCost] = {
            kind: estimate_filter_project(
                stats, self._representative(devices, kind),
                predicate=node.predicate, projections=node.projections)
            for kind in {device.kind for device in devices}
        }
        fractions = self._split_fractions(devices, child.location)
        ready = self._charge_parallel(
            devices, cost_by_kind, fractions, earliest=child.ready,
            input_bytes=child.nbytes, data_location=child.location,
            label="filter-project")
        self._trace_span(node, "filter-project", start=child.ready, end=ready,
                         devices=devices, location=child.location,
                         input_bytes=child.nbytes)
        return replace(child, ready=ready, devices=devices)

    def _prepare_hash_join(self, build, devices: Sequence[Device],
                           earliest: float) -> float:
        """Broadcast the build side and check GPU capacity; returns ready.

        ``build`` is the materialized build-side result (a
        :class:`NodeResult`); the capacity check sizes the global hash
        table an oversized build would allocate (the Q9 failure mode).
        """
        ready_build = self._broadcast_build(
            build, [device for device in devices if device.is_gpu], earliest)
        for kind in {device.kind for device in devices}:
            representative = self._representative(devices, kind)
            if representative.is_gpu and self.options.enforce_gpu_memory:
                table_bytes = build_table_bytes(build.num_rows)
                allocation = representative.allocate(table_bytes,
                                                     label="join hash table")
                allocation.free()
        return ready_build

    def _charge_hash_join(self, node: PJoin, devices: Sequence[Device],
                          stats: JoinStats, probe: _StageMeta, *,
                          earliest: float, ready_build: float) -> float:
        cost_by_kind: dict[DeviceKind, OpCost] = {
            kind: estimate_non_partitioned_join(
                stats, self._representative(devices, kind))
            for kind in {device.kind for device in devices}
        }
        fractions = self._split_fractions(devices, probe.location)
        ready = self._charge_parallel(
            devices, cost_by_kind, fractions,
            earliest=max(earliest, ready_build),
            input_bytes=probe.nbytes, data_location=probe.location,
            label="hash-join", join_shuffle=True)
        self._trace_span(node, "hash-join", start=earliest, end=ready,
                         devices=devices, location=probe.location,
                         input_bytes=probe.nbytes,
                         build_rows=stats.build_rows,
                         probe_rows=stats.probe_rows)
        return ready

    @staticmethod
    def _partition_tuning(spec) -> tuple:
        """The spec values that shape a partitioned join's pass structure.

        Two same-model devices share these values (and therefore kernel
        evaluations) even though their spec objects differ.
        """
        return (spec.kind.value, max_fanout(spec), target_partition_bytes(spec))

    def _anchor_cpu(self) -> Device:
        """The CPU that hosts routers, final merges and sorts.

        The first *available* CPU socket; with every device healthy this
        is exactly ``cpus()[0]``, preserving bit-identical placement and
        timing for fault-free runs.  The structural fallback keeps
        non-serving callers working even if someone fails every CPU by
        hand (the optimizer rejects such plans before execution).
        """
        available = self.topology.available_cpus()
        return available[0] if available else self.topology.cpus()[0]

    def _default_devices(self) -> list[Device]:
        return [self._anchor_cpu()]

    def _device_weight(self, device: Device, data_location: str) -> float:
        """Relative throughput of a device for CPU-resident input data."""
        if device.is_cpu:
            return device.spec.memory_bandwidth_gib_s
        if data_location.startswith("gpu") or data_location.startswith("distributed"):
            return device.spec.memory_bandwidth_gib_s
        route = self.topology.route(data_location, device.name)
        return route.bottleneck_bandwidth_gib_s

    def _split_fractions(self, devices: Sequence[Device],
                         data_location: str) -> dict[str, float]:
        weights = {device.name: self._device_weight(device, data_location)
                   for device in devices}
        total = sum(weights.values())
        return {name: weight / total for name, weight in weights.items()}

    def _is_hybrid(self, devices: Sequence[Device]) -> bool:
        kinds = {device.kind for device in devices}
        return len(kinds) > 1

    def _representative(self, devices: Sequence[Device],
                        kind: DeviceKind) -> Device | None:
        for device in devices:
            if device.kind is kind:
                return device
        return None

    def _charge_parallel(self, devices: Sequence[Device],
                         cost_by_kind: dict[DeviceKind, OpCost],
                         fractions: dict[str, float], *, earliest: float,
                         input_bytes: int, data_location: str,
                         label: str, join_shuffle: bool = False) -> float:
        """Charge a parallel operator across its devices; return ready time."""
        overhead = 0.0
        if self._is_hybrid(devices):
            overhead = (self.options.hybrid_join_overhead if join_shuffle
                        else self.options.hybrid_overhead)
        ready = earliest
        for device in devices:
            fraction = fractions[device.name]
            seconds = cost_by_kind[device.kind].seconds * fraction
            seconds *= 1.0 + overhead
            start = earliest
            if device.is_gpu and not data_location.startswith(("gpu", "distributed")):
                # The GPU's share of the input crosses its PCIe link first.
                route = self.topology.route(data_location, device.name)
                arrival = route.transfer(int(input_bytes * fraction),
                                         earliest=earliest,
                                         label=f"{label}:h2d")
                start = arrival
            record = device.charge(seconds, earliest=start, label=label)
            ready = max(ready, record.end)
        return ready

    # ------------------------------------------------------------------
    # Node dispatch
    # ------------------------------------------------------------------
    def _execute(self, node: PhysicalOp) -> NodeResult:
        if isinstance(node, PScan):
            result = self._execute_scan(node)
            self._note_rows(node, result.num_rows)
            return result
        if isinstance(node, Router):
            result = self._execute_router(node)
        elif isinstance(node, MemMove):
            result = self._execute_memmove(node)
        elif isinstance(node, DeviceCrossing):
            result = self._execute_crossing(node)
        elif isinstance(node, PFilterProject):
            result = self._execute_filter_project(node)
        elif isinstance(node, PAggregate):
            result = self._execute_aggregate(node)
        elif isinstance(node, PJoin):
            result = self._execute_join(node)
        elif isinstance(node, PSort):
            result = self._execute_sort(node)
        else:
            raise ExecutionError(f"executor cannot run {type(node).__name__}")
        # Exchange operators forward their child's columns, so counting
        # them re-measures the same batch — harmless for a running max.
        self._peak_intermediate = max(self._peak_intermediate, result.nbytes)
        if isinstance(node, (PFilterProject, PAggregate, PJoin, PSort)):
            self._note_rows(node, result.num_rows)
        return result

    def _note_rows(self, node: PhysicalOp, rows: int) -> None:
        """Record an operator's actual output rows (q-error accounting)."""
        self._node_rows[node.node_id] = int(rows)

    def _execute_scan(self, node: PScan) -> NodeResult:
        table = self.catalog.table(node.table)
        names = node.columns if node.columns else table.column_names
        # Scan results are zero-copy views over catalog-resident arrays:
        # cached at byte cost 0, they never compete with derived results
        # for the session cache budget.  The views are read-only, cached or
        # not, so no result can write into the catalog; the catalog's own
        # arrays keep their flags.
        columns = self._memoized_kernel(
            node, lambda: {name: _read_only_view(table.array(name))
                           for name in names},
            zero_copy=True)
        result = NodeResult(columns=columns, ready=0.0,
                            location=table.location,
                            devices=self._default_devices())
        self._trace_span(node, "scan", start=0.0, end=0.0,
                         devices=result.devices, location=table.location,
                         input_bytes=result.nbytes, table=node.table)
        return result

    def _execute_router(self, node: Router) -> NodeResult:
        child = self._execute_chain(node.child)
        meta = self._charge_router(node, _stage_meta(child))
        return NodeResult(columns=child.columns, ready=meta.ready,
                          location=meta.location, devices=meta.devices,
                          kernel_tag=child.kernel_tag)

    def _execute_memmove(self, node: MemMove) -> NodeResult:
        child = self._execute_chain(node.child)
        meta = self._charge_memmove(node, _stage_meta(child))
        return NodeResult(columns=child.columns, ready=meta.ready,
                          location=meta.location, devices=child.devices,
                          kernel_tag=child.kernel_tag)

    def _execute_crossing(self, node: DeviceCrossing) -> NodeResult:
        child = self._execute_chain(node.child)
        meta = self._charge_crossing(node, _stage_meta(child))
        return NodeResult(columns=child.columns, ready=meta.ready,
                          location=meta.location, devices=meta.devices,
                          kernel_tag=child.kernel_tag)

    def _execute_filter_project(self, node: PFilterProject) -> NodeResult:
        child = self._execute_chain(node.child)
        # The functional kernel is device-invariant: run it once and price
        # the identical work per participating device kind.
        columns, stats = self._memoized_kernel(
            node, lambda: filter_project_kernel(
                child.columns, predicate=node.predicate,
                projections=node.projections,
                morsel_rows=self.scheduler.grant(child.num_rows)),
            tuning=child.kernel_tag)
        meta = self._charge_filter_project(node, _stage_meta(child), stats)
        return NodeResult(columns=columns, ready=meta.ready,
                          location=meta.location, devices=meta.devices,
                          kernel_tag=child.kernel_tag)

    def _execute_aggregate(self, node: PAggregate) -> NodeResult:
        child = self._execute_chain(node.child)
        if node.phase == "partial":
            devices = child.devices or self._default_devices()
            columns, stats = self._memoized_kernel(
                node, lambda: hash_aggregate_kernel(
                    child.columns, group_by=node.group_by,
                    aggregates=node.aggregates, phase="partial",
                    morsel_rows=self.scheduler.grant(child.num_rows)),
                tuning=child.kernel_tag)
            cost_by_kind: dict[DeviceKind, OpCost] = {
                kind: estimate_hash_aggregate(
                    stats, self._representative(devices, kind),
                    aggregates=node.aggregates)
                for kind in {device.kind for device in devices}
            }
            fractions = self._split_fractions(devices, child.location)
            ready = self._charge_parallel(
                devices, cost_by_kind, fractions, earliest=child.ready,
                input_bytes=child.nbytes, data_location=child.location,
                label="aggregate-partial")
            self._trace_span(node, "aggregate", start=child.ready, end=ready,
                             devices=devices, location=child.location,
                             input_bytes=child.nbytes, phase=node.phase)
            return NodeResult(columns=columns, ready=ready,
                              location=child.location, devices=devices,
                              kernel_tag=child.kernel_tag)
        # Final (or complete) aggregation runs on the anchor CPU.
        cpu = self._anchor_cpu()
        if node.phase == "final":
            columns, merged_nbytes = self._memoized_kernel(
                node, lambda: merge_partials_kernel(
                    [child.columns], group_by=node.group_by,
                    aggregates=node.aggregates),
                tuning=child.kernel_tag)
            cost = estimate_merge_partials(merged_nbytes, cpu)
        else:
            columns, stats = self._memoized_kernel(
                node, lambda: hash_aggregate_kernel(
                    child.columns, group_by=node.group_by,
                    aggregates=node.aggregates, phase="complete",
                    morsel_rows=self.scheduler.grant(child.num_rows)),
                tuning=child.kernel_tag)
            cost = estimate_hash_aggregate(stats, cpu,
                                           aggregates=node.aggregates)
        record = cpu.charge(cost.seconds, earliest=child.ready,
                            label=f"aggregate-{node.phase}")
        self._trace_span(node, "aggregate", start=child.ready, end=record.end,
                         devices=[cpu], location=child.location,
                         input_bytes=child.nbytes, phase=node.phase)
        return NodeResult(columns=columns, ready=record.end,
                          location=cpu.name, devices=[cpu],
                          kernel_tag=child.kernel_tag)

    def _execute_sort(self, node: PSort) -> NodeResult:
        child = self._execute_chain(node.child)
        cpu = self._anchor_cpu()
        order = np.lexsort([np.asarray(child.columns[key])
                            for key in reversed(node.keys)])
        columns = {name: np.asarray(values)[order]
                   for name, values in child.columns.items()}
        record = cpu.charge(cpu.cost.seq_scan(child.nbytes) * 2,
                            earliest=child.ready, label="sort")
        self._trace_span(node, "sort", start=child.ready, end=record.end,
                         devices=[cpu], location=child.location,
                         input_bytes=child.nbytes)
        return NodeResult(columns=columns, ready=record.end,
                          location=cpu.name, devices=[cpu],
                          kernel_tag=child.kernel_tag)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    @staticmethod
    def _join_order(node: PJoin) -> str:
        """Canonical output order of a join node.

        Every join emits rows in the reference executor's order — by
        logical-right position, ties by logical-left position.  That is
        probe-major when the probe side is the logical right input and
        build-major when the optimizer swapped the sides.
        """
        return "build" if node.swapped else "probe"

    def _execute_join(self, node: PJoin) -> NodeResult:
        build = self._execute_chain(node.build)
        probe = self._execute_chain(node.probe)
        earliest = max(build.ready, probe.ready)
        devices = probe.devices or self._default_devices()

        if node.algorithm is JoinAlgorithm.COPROCESSED_RADIX:
            return self._execute_coprocessed_join(node, build, probe, earliest)

        if node.algorithm is JoinAlgorithm.RADIX_CPU:
            cpus = [device for device in devices if device.is_cpu] \
                or list(self.topology.available_cpus()) \
                or list(self.topology.cpus())
            tuning = self._partition_tuning(cpus[0].spec)
            tag = build.kernel_tag + probe.kernel_tag + (("radix", tuning),)
            columns, stats = self._memoized_kernel(
                node, lambda: cpu_radix_join_kernel(
                    build.columns, probe.columns,
                    build_keys=node.build_keys, probe_keys=node.probe_keys,
                    spec=cpus[0].spec,
                    morsel_rows=self.scheduler.grant(build.num_rows,
                                                     probe.num_rows),
                    output_order=self._join_order(node), pool=self.pool),
                tuning=tag)
            cost = estimate_cpu_radix_join(stats, cpus[0])
            ready = self._charge_parallel(
                cpus, {DeviceKind.CPU: cost},
                self._split_fractions(cpus, probe.location),
                earliest=earliest, input_bytes=probe.nbytes,
                data_location=probe.location, label="radix-join-cpu")
            self._trace_span(node, "radix-join-cpu", start=earliest,
                             end=ready, devices=cpus,
                             location=probe.location,
                             input_bytes=probe.nbytes,
                             build_rows=build.num_rows,
                             probe_rows=probe.num_rows)
            return NodeResult(columns=columns, ready=ready,
                              location=cpus[0].name, devices=cpus,
                              kernel_tag=tag)

        if node.algorithm is JoinAlgorithm.RADIX_GPU:
            gpus = [device for device in devices if device.is_gpu] \
                or list(self.topology.available_gpus()) \
                or list(self.topology.gpus())
            ready_build = self._broadcast_build(build, gpus, earliest)
            if self.options.enforce_gpu_memory:
                ensure_gpu_join_fits(build.columns, probe.columns, gpus[0])
            tuning = self._partition_tuning(gpus[0].spec)
            tag = build.kernel_tag + probe.kernel_tag + (("radix", tuning),)
            columns, stats = self._memoized_kernel(
                node, lambda: gpu_partitioned_join_kernel(
                    build.columns, probe.columns,
                    build_keys=node.build_keys, probe_keys=node.probe_keys,
                    spec=gpus[0].spec,
                    morsel_rows=self.scheduler.grant(build.num_rows,
                                                     probe.num_rows),
                    output_order=self._join_order(node), pool=self.pool),
                tuning=tag)
            cost = estimate_gpu_partitioned_join(stats, gpus[0])
            ready = self._charge_parallel(
                gpus, {DeviceKind.GPU: cost},
                self._split_fractions(gpus, probe.location),
                earliest=ready_build, input_bytes=probe.nbytes,
                data_location=probe.location, label="radix-join-gpu")
            self._trace_span(node, "radix-join-gpu", start=earliest,
                             end=ready, devices=gpus,
                             location=probe.location,
                             input_bytes=probe.nbytes,
                             build_rows=build.num_rows,
                             probe_rows=probe.num_rows)
            return NodeResult(columns=columns, ready=ready,
                              location=gpus[0].name, devices=devices,
                              kernel_tag=tag)

        # Non-partitioned hash join on whatever devices the probe pipeline
        # uses: one functional evaluation, one cost estimate per device
        # kind.  Broadcast + GPU capacity check happen before evaluating
        # the join, so an oversized build (the Q9 failure mode) raises
        # without materializing the full result first.
        ready_build = self._prepare_hash_join(build, devices, earliest)
        join_tag = build.kernel_tag + probe.kernel_tag
        columns, stats = self._memoized_kernel(
            node, lambda: hash_join_kernel(
                build.columns, probe.columns,
                build_keys=node.build_keys, probe_keys=node.probe_keys,
                morsel_rows=self.scheduler.grant(build.num_rows,
                                                 probe.num_rows),
                output_order=self._join_order(node)),
            tuning=join_tag)
        ready = self._charge_hash_join(node, devices, stats,
                                       _stage_meta(probe), earliest=earliest,
                                       ready_build=ready_build)
        return NodeResult(columns=columns, ready=ready,
                          location=probe.location, devices=devices,
                          kernel_tag=join_tag)

    def _broadcast_build(self, build, gpus: Sequence[Device],
                         earliest: float) -> float:
        """Send the build-side data to every GPU participating in the probe.

        A ``distributed:a,b`` location (from a multi-destination mem-move)
        marks the build as already living across the member devices, so no
        transfer is charged to members; non-members receive it from the
        first member.  In the plans this optimizer emits, distributed
        builds only occur for the partitioned GPU join in GPU-only mode —
        where each member working on its *share* of co-partitioned data is
        exactly the partitioned-join model, and GPU capacity is enforced
        separately (``ensure_gpu_join_fits``).  Non-partitioned joins
        always receive CPU-resident builds and take the transfer path.
        """
        members: list[str] = []
        if build.location.startswith("distributed:"):
            members = build.location.split(":", 1)[1].split(",")
        source = members[0] if members else build.location
        ready = earliest
        for gpu in gpus:
            if gpu.name == build.location or gpu.name in members:
                continue
            if self.options.enforce_gpu_memory:
                gpu.allocate(build.nbytes, label="broadcast build side").free()
            route = self.topology.route(source, gpu.name)
            ready = max(ready, route.transfer(build.nbytes, earliest=earliest,
                                              label="broadcast-build"))
        return ready

    def _execute_coprocessed_join(self, node: PJoin, build: NodeResult,
                                  probe: NodeResult, earliest: float) -> NodeResult:
        cpu = self._anchor_cpu()
        gpus = list(self.topology.available_gpus())
        if not gpus:
            raise ExecutionError("co-processed join requires GPUs")
        result = coprocessed_radix_join(
            build.columns, probe.columns, self.topology,
            build_keys=node.build_keys, probe_keys=node.probe_keys,
            cpu=cpu, gpus=gpus, output_order=self._join_order(node))
        ready = max(earliest,
                    max(device.clock.available_at for device in [cpu, *gpus]))
        coproc_tag = build.kernel_tag + probe.kernel_tag + (
            ("coprocessed",
             tuple(self._partition_tuning(gpu.spec) for gpu in gpus),
             tuple(gpu.spec.memory_capacity_bytes for gpu in gpus)),)
        self._trace_span(node, "coprocessed-join", start=earliest, end=ready,
                         devices=[cpu, *gpus], location=probe.location,
                         input_bytes=probe.nbytes,
                         build_rows=build.num_rows,
                         probe_rows=probe.num_rows)
        return NodeResult(columns=result.columns, ready=ready,
                          location=cpu.name, devices=[cpu, *gpus],
                          kernel_tag=coproc_tag)
