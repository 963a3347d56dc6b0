"""The HAPE engine facade (the user-facing *session*).

:class:`HAPEEngine` ties the pieces together: a simulated server topology, a
catalog of registered tables, the heterogeneity-aware optimizer, the JIT
pipeline extraction and the executor.  A query is submitted as a logical
plan; the result bundles the actual output table with the simulated timing
information the evaluation figures are built from.

One engine instance is one session: it owns the catalog, the
session-lifetime cross-query kernel cache
(:mod:`repro.engine.querycache`) and the execution knobs that hold across
queries — most prominently :attr:`HAPEEngine.morsel_rows`, the granularity
of the morsel-driven batched execution, and
:attr:`HAPEEngine.cache_budget_bytes`, the retention budget of the query
cache.  Repeated dashboard-style workloads therefore get warmer with every
query: kernel results computed once (a dimension scan, a filtered build
side) are reused functionally by later queries until the catalog
invalidates them or the LRU budget evicts them.  The :data:`Session` alias
exists for callers who think in session terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.pipeline import Pipeline, break_into_pipelines
from ..hardware.topology import Topology, default_server
from ..obs.trace import QueryTrace
from ..relational.logical import LogicalPlan
from ..relational.physical import PhysicalOp
from ..stats.cardinality import CardinalityReport, build_report
from ..storage.catalog import Catalog
from ..storage.table import Table
from .executor import ExecutionResult, Executor, ExecutorOptions, plan_slots
from .modes import ExecutionMode
from .optimizer import Optimizer, OptimizerOptions
from .querycache import CacheCounters, QueryCacheStats

#: Sentinel distinguishing "not passed" from an explicit ``None`` (which
#: means "unlimited" for ``cache_budget_bytes`` and "read the
#: ``REPRO_WORKERS`` environment variable" for ``workers``).
_UNSET = object()


@dataclass
class QueryResult:
    """Everything a query run produces.

    The functional output lives in :attr:`table`; :attr:`simulated_seconds`
    and :attr:`device_busy` are what the paper's evaluation figures plot.
    :attr:`morsels_dispatched` reports how many morsels the executor's
    scheduler carved for this query and :attr:`cache` reports the session
    cache's hit/miss/evicted/invalidated activity attributable to it —
    both are wall-clock/working-set diagnostics that never influence the
    simulated timings (warm and cold runs report bit-identical simulated
    seconds).
    """

    table: Table
    simulated_seconds: float
    device_busy: dict[str, float]
    link_bytes: dict[str, int]
    mode: ExecutionMode
    physical_plan: PhysicalOp
    pipelines: list[Pipeline]
    morsels_dispatched: int = 0
    #: Cross-query kernel-cache counters for this query: hits/misses count
    #: distinct subplans, ``invalidated`` covers catalog changes since the
    #: previous query of the session.
    cache: CacheCounters = field(default_factory=CacheCounters)
    #: Bytes of the widest single intermediate batch the query
    #: materialized (scans excluded) — the per-query working-set figure
    #: multi-tenant serving reports account against memory budgets.
    peak_intermediate_bytes: int = 0
    #: Estimated vs. actual output rows per executed operator, with
    #: q-errors — the estimation-quality accounting the ``stats`` bench
    #: suite tracks over time.  Purely diagnostic: estimates influence
    #: plan *choice* only, never what a chosen plan computes.
    cardinality: CardinalityReport = field(default_factory=CardinalityReport)
    #: Operator spans, raw task slices and critical-path analysis for this
    #: query (the session's ``tracing`` knob); ``None`` when tracing is
    #: off.  Purely additive — every other field is bit-identical with
    #: tracing on or off.
    trace: QueryTrace | None = None

    @property
    def makespan_ms(self) -> float:
        return self.simulated_seconds * 1e3

    def busy_fraction(self, resource: str) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.device_busy.get(resource, 0.0) / self.simulated_seconds

    def describe(self) -> str:
        lines = [
            f"mode={self.mode.value} simulated_time={self.simulated_seconds * 1e3:.3f} ms",
            f"result rows={self.table.num_rows}",
        ]
        if self.cache.lookups or self.cache.evicted or self.cache.invalidated:
            lines.append(f"  cache: {self.cache.describe()}")
        if self.cardinality.operators:
            lines.append(f"  cardinality: median q-error "
                         f"{self.cardinality.median_q_error:.2f} "
                         f"(max {self.cardinality.max_q_error:.2f})")
        for resource, busy in sorted(self.device_busy.items()):
            if busy > 0:
                lines.append(f"  {resource:>8}: busy {busy * 1e3:.3f} ms "
                             f"({100 * self.busy_fraction(resource):.0f}%)")
        return "\n".join(lines)


class HAPEEngine:
    """Heterogeneity-conscious Analytical query Processing Engine.

    The engine facade doubles as the *session* object: construct it once,
    register tables, then submit any number of logical plans.  Kernel
    results are cached across queries (see
    :mod:`repro.engine.querycache`), so repeated plans get functionally
    cheaper while reporting unchanged simulated timings.

    Parameters
    ----------
    topology:
        The simulated server to run on; defaults to the paper's testbed
        (2 CPU sockets + 2 GPUs, :func:`~repro.hardware.default_server`).
    optimizer_options / executor_options:
        Fine-grained knob records; usually left at their defaults.
    morsel_rows:
        Granularity of morsel-driven batched execution: operator kernels
        consume their inputs in slices of at most this many rows, which
        bounds the working set of kernel evaluation.  A positive int;
        anything else raises ``ValueError``.  Simulated seconds are
        identical for every setting; only real wall-clock/memory behavior
        changes.  Overrides ``executor_options.morsel_rows`` when both are
        given.
    cache_budget_bytes:
        Retention budget of the session's cross-query kernel cache, in
        bytes of pinned result columns (LRU eviction).  ``0`` disables
        cross-query caching, ``None`` lifts the bound.  Like
        ``morsel_rows`` this is wall-clock only — simulated seconds are
        identical for every setting.  Overrides
        ``executor_options.cache_budget_bytes`` when both are given.
    workers:
        Worker threads driving fused-chain morsel streams and radix
        partition passes (:mod:`repro.engine.workers`): ``1`` runs
        everything inline (the exact single-threaded path), ``"auto"``
        uses the machine's CPU count, and when the knob is not passed the
        ``REPRO_WORKERS`` environment variable decides (else 1).
        Wall-clock only — results, simulated seconds, device busy times
        and cache counters are bit-identical at every worker count.
        Overrides ``executor_options.workers`` when both are given.
    tracing:
        Record a :class:`~repro.obs.QueryTrace` on every
        :attr:`QueryResult.trace`: operator spans (placement, timing,
        bytes, rows, estimated-vs-actual rows, cache status), the raw
        device/link task slices and a critical-path analysis.  Off by
        default; purely additive — results, simulated seconds and all
        counters are bit-identical with tracing on or off, and traces
        are byte-identical at every worker count (see
        ``docs/OBSERVABILITY.md``).  Overrides
        ``executor_options.tracing`` when both are given.
    catalog / query_cache:
        Normally omitted — the session owns a private catalog and cache.
        A :class:`~repro.server.QueryServer` passes its *shared* catalog
        and :class:`~repro.server.SharedQueryCache` here so tenant
        sessions see one table registry and reuse each other's warm
        kernel results; such sessions cannot re-tune the cache budget
        (it belongs to the server).
    """

    def __init__(self, topology: Topology | None = None, *,
                 optimizer_options: OptimizerOptions | None = None,
                 executor_options: ExecutorOptions | None = None,
                 morsel_rows: int = _UNSET,  # type: ignore[assignment]
                 cache_budget_bytes: int | None = _UNSET,  # type: ignore[assignment]
                 workers: int | str | None = _UNSET,  # type: ignore[assignment]
                 tracing: bool = _UNSET,  # type: ignore[assignment]
                 catalog: Catalog | None = None,
                 query_cache=None,
                 ) -> None:
        if query_cache is not None and catalog is None:
            # A shared cache is keyed by (and invalidated through) the
            # catalog it was built against; pairing it with a private
            # catalog would collide version counters across sessions and
            # silently serve one catalog's rows for another's tables.
            raise ValueError(
                "query_cache requires the shared catalog it is keyed "
                "against; pass both (a QueryServer does)")
        self.topology = topology if topology is not None else default_server()
        self.catalog = catalog if catalog is not None else Catalog()
        self.optimizer = Optimizer(self.topology, self.catalog,
                                   optimizer_options)
        self.executor = Executor(self.topology, self.catalog, executor_options,
                                 query_cache=query_cache)
        if morsel_rows is not _UNSET:
            self.executor.configure_morsels(morsel_rows)
        if cache_budget_bytes is not _UNSET:
            self.executor.configure_cache(cache_budget_bytes)
        if workers is not _UNSET:
            self.executor.configure_workers(workers)
        if tracing is not _UNSET:
            self.executor.configure_tracing(tracing)

    # ------------------------------------------------------------------
    # Session knobs
    # ------------------------------------------------------------------
    @property
    def morsel_rows(self) -> int:
        """Rows per morsel for kernel evaluation (a positive int).

        Assigning re-tunes the executor in place, so the knob can be swept
        within one session; results and simulated timings are unaffected.
        Cached kernel results stay valid across re-tunes — outputs are
        bit-identical for every morsel granularity, so the cache key
        deliberately ignores this knob.
        """
        return self.executor.options.morsel_rows

    @morsel_rows.setter
    def morsel_rows(self, value: int) -> None:
        self.executor.configure_morsels(value)

    @property
    def cache_budget_bytes(self) -> int | None:
        """Byte budget of the cross-query kernel cache.

        Assigning re-tunes the cache in place: shrinking evicts LRU
        entries down to the new budget immediately, ``0`` disables
        cross-query caching, ``None`` lifts the bound.  Results and
        simulated timings are unaffected by any setting.
        """
        return self.executor.options.cache_budget_bytes

    @cache_budget_bytes.setter
    def cache_budget_bytes(self, value: int | None) -> None:
        self.executor.configure_cache(value)

    @property
    def workers(self) -> int:
        """Worker threads for data-parallel execution (default 1).

        The resolved concrete count: assigning ``"auto"`` reads back as
        the machine's CPU count.  ``1`` runs everything inline on the
        calling thread — the exact single-threaded code path.  Assigning
        re-tunes the executor in place, so the knob can be swept within
        one session; results, simulated timings, device busy times and
        cache counters are bit-identical at every setting (see
        :mod:`repro.engine.workers` for the determinism contract).
        """
        return self.executor.options.workers

    @workers.setter
    def workers(self, value: int | str | None) -> None:
        self.executor.configure_workers(value)

    @property
    def tracing(self) -> bool:
        """Whether queries record operator-span traces (default off).

        Assigning re-tunes the executor in place, so tracing can be
        toggled per query within one session.  Purely additive: the
        functional result, simulated seconds and every counter are
        bit-identical with tracing on or off — a traced query only
        *additionally* carries :attr:`QueryResult.trace`.
        """
        return self.executor.options.tracing

    @tracing.setter
    def tracing(self, value: bool) -> None:
        self.executor.configure_tracing(value)

    @property
    def cache_stats(self) -> QueryCacheStats:
        """Session-lifetime snapshot of the query cache (counters + size)."""
        return self.executor.query_cache.stats()

    def clear_query_cache(self) -> None:
        """Drop every cached kernel result (a session cache reset).

        Subsequent queries run cold again.  Unlike catalog invalidation
        this is not an observable cache event: counters are untouched.
        """
        self.executor.query_cache.clear()

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def register_table(self, table: Table, *, replace: bool = False) -> None:
        """Register a table so plans can scan it.

        Re-registering an existing name requires ``replace=True`` and
        invalidates exactly the cached kernel results that read the
        replaced table (see :meth:`repro.storage.catalog.Catalog.register`
        for the invalidation contract); cached results over other tables
        stay warm.
        """
        self.catalog.register(table, replace=replace)

    def register_dataset(self, tables: dict[str, Table], *,
                         replace: bool = False) -> None:
        """Register a whole dataset (e.g. the TPC-H tables) at once."""
        for table in tables.values():
            self.register_table(table, replace=replace)

    def drop_table(self, name: str) -> None:
        """Drop a table; cached results that read it are invalidated."""
        self.catalog.drop(name)

    # ------------------------------------------------------------------
    # Planning and execution
    # ------------------------------------------------------------------
    def resolve_mode(self, logical: LogicalPlan,
                     mode: ExecutionMode | str) -> ExecutionMode:
        """Parse a mode request, resolving ``"auto"`` from estimated work.

        ``"auto"`` asks the optimizer to pick cpu/gpu/hybrid from the
        statistics-backed working-set estimate of the plan
        (:meth:`repro.engine.optimizer.Optimizer.choose_mode`); every
        other spelling parses as usual.
        """
        if isinstance(mode, str) and mode.lower() == "auto":
            return self.optimizer.choose_mode(logical)
        return ExecutionMode.parse(mode)

    def plan(self, logical: LogicalPlan,
             mode: ExecutionMode | str = ExecutionMode.HYBRID) -> PhysicalOp:
        """Lower a logical plan without executing it."""
        return self.optimizer.optimize(logical,
                                       self.resolve_mode(logical, mode))

    def explain(self, logical: LogicalPlan,
                mode: ExecutionMode | str = ExecutionMode.HYBRID) -> str:
        """Human-readable physical plan plus its pipelines."""
        physical = self.plan(logical, mode)
        pipelines = break_into_pipelines(physical)
        lines = [physical.pretty(), "", "pipelines:"]
        lines.extend("  " + pipeline.describe() for pipeline in pipelines)
        return "\n".join(lines)

    def execute(self, logical: LogicalPlan,
                mode: ExecutionMode | str = ExecutionMode.HYBRID) -> QueryResult:
        """Optimize, generate and execute a query on the simulated server.

        Runs the full stack: heterogeneity-aware optimization for ``mode``
        (``"cpu"``, ``"gpu"`` or ``"hybrid"``), pipeline extraction, and
        morsel-driven execution on the simulated topology — with kernel
        evaluations served from the session's cross-query cache when a
        structurally identical subplan already ran against the same
        catalog state.  The returned :class:`QueryResult` carries the
        functional answer, the simulated timing/utilization breakdown and
        the cache counters for this query.
        """
        mode = self.resolve_mode(logical, mode)
        physical = self.plan(logical, mode)
        pipelines = break_into_pipelines(physical)
        result: ExecutionResult = self.executor.execute(physical)
        cardinality = build_report(
            self.optimizer.estimator.estimate_physical(physical),
            result.operator_rows)
        if result.trace is not None:
            result.trace.mode = mode.value
            # Join the optimizer's estimates (and the resulting q-errors)
            # onto the operator spans — the spans then carry the
            # estimated-vs-actual story the stats suite aggregates.  Span
            # node ids were normalized to plan-local ordinals, so the
            # cardinality report's global ids go through the same map.
            slots = plan_slots(physical)
            by_slot = {slots[op.node_id]: op for op in cardinality.operators
                       if op.node_id in slots}
            for span in result.trace.spans:
                op = by_slot.get(span.node_id)
                if op is not None:
                    span.est_rows = op.estimated_rows
                    span.q_error = op.q_error
        return QueryResult(
            table=result.table,
            simulated_seconds=result.simulated_seconds,
            device_busy=result.device_busy,
            link_bytes=result.link_bytes,
            mode=mode,
            physical_plan=physical,
            pipelines=pipelines,
            morsels_dispatched=result.morsels_dispatched,
            cache=result.cache,
            peak_intermediate_bytes=result.peak_intermediate_bytes,
            cardinality=cardinality,
            trace=result.trace,
        )


#: Session-centric alias: one :class:`HAPEEngine` instance is one session
#: (own catalog, own query cache, own execution knobs such as
#: ``morsel_rows`` and ``cache_budget_bytes``).
Session = HAPEEngine
