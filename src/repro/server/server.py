"""The multi-tenant query server.

:class:`QueryServer` is the serving facade over the single-session engine:
many named tenants submit logical plans, an admission controller
(:mod:`repro.server.admission`) queues and budgets them, and a
device-aware scheduler (:mod:`repro.server.scheduler`) lays the admitted
queries out on the topology's server-time occupancy board so queries using
disjoint hardware overlap.  All tenant sessions share the server's catalog
and its :class:`~repro.server.sharedcache.SharedQueryCache`, so one
tenant's cold kernel evaluation warms every other tenant's structurally
identical subplans.

Two invariants carry over unchanged from the single-session engine:

* **Per-query timing neutrality.**  A query's simulated seconds, device
  busy times and link bytes are bit-identical to running it alone in a
  private session — concurrency only adds *queue wait* and changes server
  wall-clock, never a query's own simulated execution.
* **Functional determinism.**  The serving loop is event-driven over
  simulated server time and coordinated from one thread, so interleaved
  multi-tenant runs return exactly the tables a serial run returns, in a
  reproducible order.  Admitted queries execute one at a time, in
  admission pick order, on the thread that calls :meth:`QueryServer.run`;
  the overlap of queries on disjoint hardware lives on the occupancy
  board, not on concurrent threads.

The server is also *fault tolerant*: a :class:`~repro.faults.FaultPlan`
(or an organic failure such as
:class:`~repro.errors.OutOfDeviceMemoryError` — the paper's Q9-on-GPU
failure, Section 6.4) no longer aborts the drain.  Failed attempts are
isolated to their ticket, device-scoped failures walk the mode-degradation
ladder (gpu → hybrid → cpu), transient failures are retried under the
tenant's :class:`~repro.server.admission.RetryPolicy` with simulated
backoff charged as queue wait, per-query deadlines bound the whole dance,
and a :class:`~repro.faults.CircuitBreaker` takes chronically failing
devices out of rotation.  Wasted simulated seconds from failed attempts
are accounted separately; the successful attempt itself remains
bit-identical to a solo fault-free run in its final mode, and with an
empty fault plan the server's behaviour is bit-identical to the
fault-free serving layer.

:meth:`QueryServer.run` drains the queues and returns a
:class:`ServerReport` with per-query and per-tenant accounting: queue
wait, device busy seconds, cache hits, peak intermediate bytes, retries,
failovers, wasted seconds, latency percentiles, and the throughput
speedup over serial submission.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from ..engine.querycache import CacheCounters, QueryCacheStats
from ..engine.session import HAPEEngine, QueryResult
from ..errors import (
    AdmissionError,
    DeviceUnavailableError,
    FaultError,
    OptimizerError,
    OutOfDeviceMemoryError,
    ReproError,
    RetryExhaustedError,
    ServingError,
    UnknownTenantError,
)
from ..faults import CircuitBreaker, FaultInjector, FaultPlan, InjectedFault
from ..faults.breaker import validate_breaker
from ..hardware.specs import DeviceKind
from ..hardware.topology import Topology, default_server
from ..obs.trace import EpochTrace, TracedQuery
from ..obs.tracer import Tracer
from ..relational.logical import LogicalPlan
from ..stats.cardinality import CardinalityEstimator
from ..storage.catalog import Catalog
from ..storage.table import Table
from .admission import AdmissionController, RetryPolicy, TenantPolicy
from .arrivals import Arrival, ArrivalSource
from .metrics import MetricsSnapshot
from .scheduler import DeviceScheduler, Placement
from .sharedcache import SharedQueryCache

#: Mode-degradation ladder for device-scoped failures: a query that cannot
#: run in its mode is re-planned one rung down.  CPU-only has no rung left.
MODE_DEGRADATION = {"gpu": "hybrid", "hybrid": "cpu"}


@dataclass
class QueryTicket:
    """One submission's lifecycle: queued → completed/failed/timed_out.

    Times are simulated *server* seconds.  ``queue_wait`` spans submission
    to (final-attempt) execution start — admission blocking, device
    contention and retry backoff; ``latency`` additionally includes the
    query's own simulated makespan.  The functional answer is reachable
    through :attr:`result`.  ``wasted_seconds`` sums the simulated time
    burned by attempts that a fault killed; the successful attempt's
    :attr:`simulated_seconds` never includes waste.
    """

    ticket_id: int
    tenant: str
    label: str
    plan: LogicalPlan
    mode: str
    submit_time: float
    estimated_bytes: int
    #: "queued" | "rejected" | "running" | "completed" | "failed" |
    #: "timed_out"
    status: str = "queued"
    start_time: float = 0.0
    finish_time: float = 0.0
    reserved: tuple[str, ...] = ()
    result: QueryResult | None = None
    cache: CacheCounters = field(default_factory=CacheCounters)
    #: Execution mode of the current/most recent attempt (the failover
    #: ladder rewrites this; :attr:`mode` keeps the requested mode).
    current_mode: str = ""
    deadline_seconds: float | None = None
    attempts: int = 0
    retries: int = 0
    failovers: int = 0
    preemptions: int = 0
    wasted_seconds: float = 0.0
    error: str | None = None

    def __post_init__(self) -> None:
        if not self.current_mode:
            self.current_mode = self.mode

    @property
    def queue_wait(self) -> float:
        return self.start_time - self.submit_time

    @property
    def latency(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def simulated_seconds(self) -> float:
        return self.result.simulated_seconds if self.result else 0.0

    @property
    def final_mode(self) -> str:
        """The mode of the last attempt (post-failover)."""
        return self.current_mode

    @property
    def deadline_time(self) -> float | None:
        """Absolute server time of the deadline (None = unbounded)."""
        if self.deadline_seconds is None:
            return None
        return self.submit_time + self.deadline_seconds


@dataclass
class _Attempt:
    """One in-flight execution attempt on the completions heap."""

    ticket: QueryTicket
    kind: str  # "success" | "fault" | "timeout"
    start: float
    finish: float
    result: QueryResult
    cache_delta: CacheCounters
    reserved: tuple[str, ...]
    placement: Placement | None = None
    fault: InjectedFault | None = None
    cancelled: bool = False


@dataclass
class TenantReport:
    """Aggregated accounting for one tenant over one serving run."""

    completed: int = 0
    rejected: int = 0
    failed: int = 0
    timed_out: int = 0
    retries: int = 0
    failovers: int = 0
    preemptions: int = 0
    wasted_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    simulated_seconds: float = 0.0
    #: Cost-model busy seconds summed per resource over the tenant's
    #: completed queries (devices and links).
    busy_seconds: dict[str, float] = field(default_factory=dict)
    cache: CacheCounters = field(default_factory=CacheCounters)
    peak_intermediate_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    #: The tenant policy's latency objective, copied onto the report so
    #: SLO grading travels with the numbers it grades.
    slo_p99_seconds: float | None = None

    def percentile_latency(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    @property
    def slo_met(self) -> bool | None:
        """Pass/fail against the tenant's p99 objective.

        ``None`` when the tenant declared no SLO.  A tenant with an SLO
        but no completed queries fails it — an objective over queries
        that never finished is not met.
        """
        if self.slo_p99_seconds is None:
            return None
        if not self.latencies:
            return False
        return self.percentile_latency(99) <= self.slo_p99_seconds


@dataclass
class ServerReport:
    """What one :meth:`QueryServer.run` drain produced."""

    tickets: list[QueryTicket]
    tenants: dict[str, TenantReport]
    #: Server time at which the last query finished.
    makespan: float
    #: Sum of per-query simulated seconds — the serial-submission baseline
    #: (each query's simulated time is bit-identical either way).
    serial_seconds: float
    cache: QueryCacheStats

    @property
    def completed(self) -> int:
        return sum(1 for t in self.tickets if t.status == "completed")

    @property
    def rejected(self) -> int:
        return sum(1 for t in self.tickets if t.status == "rejected")

    @property
    def failed(self) -> int:
        return sum(1 for t in self.tickets if t.status == "failed")

    @property
    def timed_out(self) -> int:
        return sum(1 for t in self.tickets if t.status == "timed_out")

    @property
    def retries(self) -> int:
        return sum(t.retries for t in self.tickets)

    @property
    def failovers(self) -> int:
        return sum(t.failovers for t in self.tickets)

    @property
    def wasted_seconds(self) -> float:
        return sum(t.wasted_seconds for t in self.tickets)

    @property
    def preemptions(self) -> int:
        return sum(t.preemptions for t in self.tickets)

    @property
    def slos_met(self) -> bool:
        """True when every tenant that declared an SLO met it."""
        return all(tenant.slo_met is not False
                   for tenant in self.tenants.values())

    @property
    def throughput_qps(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.completed / self.makespan

    @property
    def speedup_vs_serial(self) -> float:
        """Throughput gain over submitting the same queries serially."""
        if self.makespan <= 0:
            return 1.0
        return self.serial_seconds / self.makespan

    def percentile_latency(self, q: float) -> float:
        latencies = [t.latency for t in self.tickets
                     if t.status == "completed"]
        if not latencies:
            return 0.0
        return float(np.percentile(np.asarray(latencies), q))

    def describe(self) -> str:
        lines = [
            f"served {self.completed} queries ({self.rejected} rejected) "
            f"in {self.makespan * 1e3:.3f} ms of server time",
            f"  serial submission would take {self.serial_seconds * 1e3:.3f}"
            f" ms -> {self.speedup_vs_serial:.2f}x throughput",
            f"  latency p50={self.percentile_latency(50) * 1e3:.3f} ms "
            f"p99={self.percentile_latency(99) * 1e3:.3f} ms",
            f"  shared cache: {self.cache.describe()}",
        ]
        if (self.failed or self.timed_out or self.retries or self.failovers
                or self.preemptions):
            lines.append(
                f"  faults: {self.failed} failed, {self.timed_out} timed "
                f"out, {self.retries} retries, {self.failovers} failovers, "
                f"{self.preemptions} preemptions, "
                f"{self.wasted_seconds * 1e3:.3f} ms wasted")
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            line = (
                f"  {name}: {tenant.completed} ok / {tenant.rejected} "
                f"rejected, wait {tenant.queue_wait_seconds * 1e3:.3f} ms, "
                f"cache {tenant.cache.hits}/{tenant.cache.lookups} hits, "
                f"peak {tenant.peak_intermediate_bytes / 1e6:.1f} MB")
            if tenant.failed or tenant.timed_out or tenant.wasted_seconds:
                line += (f", {tenant.failed} failed/{tenant.timed_out} "
                         f"timed out, "
                         f"{tenant.wasted_seconds * 1e3:.3f} ms wasted")
            if tenant.slo_met is not None:
                line += (f", p99 {tenant.percentile_latency(99) * 1e3:.3f} "
                         f"ms SLO "
                         f"{'met' if tenant.slo_met else 'MISSED'}")
            lines.append(line)
        return "\n".join(lines)


class QueryServer:
    """Concurrent multi-tenant serving over one simulated server.

    Construct it with (or let it build) a topology, register tables once —
    the catalog is shared by every tenant — open sessions with per-tenant
    policies, ``submit`` any number of plans, then ``run()`` to drain the
    queues deterministically and collect the :class:`ServerReport`.

    Parameters
    ----------
    topology:
        The simulated hardware every tenant shares; defaults to the
        paper's testbed.
    cache_budget_bytes:
        Retention budget of the server-owned :class:`SharedQueryCache`
        (LRU eviction).  Tenant sessions cannot re-tune it.
    occupancy_threshold:
        The scheduler's negligible-work cutoff: resources busy for less
        than this fraction of a query's makespan are not reserved.
    fault_plan:
        Optional deterministic chaos schedule replayed by a
        :class:`~repro.faults.FaultInjector` during :meth:`run`.  Injected
        faults are epoch-scoped: the topology is restored when the drain
        ends.  An empty/absent plan leaves serving bit-identical to the
        fault-free server.
    retry_policy:
        Server-wide default :class:`RetryPolicy`; ``open_session`` can
        override it per tenant.
    breaker_threshold / breaker_cooldown_seconds:
        Circuit-breaker tuning: a device failing this many consecutive
        attempts is marked failed and probed for recovery after the
        cooldown elapses in server time.
    preemption:
        When ``True``, an interactive arrival that would otherwise wait
        may kill a running batch-priority attempt at its next morsel
        boundary: the victim's partial busy time stays on the occupancy
        board (the ``dispatch(fraction=)`` accounting), the tail of its
        reservation is released at the kill instant, and the victim
        re-queues to run again — its eventual result bit-identical to an
        undisturbed run.  Off by default: drain-style epochs are
        bit-identical to the pre-preemption server.
    aging_seconds:
        Starvation guard for ``preemption`` and for sustained
        high-priority floods: a queued query's effective priority climbs
        one class per ``aging_seconds`` of simulated wait, and a batch
        query that has waited two full steps can no longer be chosen as
        a preemption victim.  ``None`` (default) disables aging.
    tracing:
        Record a deterministic epoch trace (:attr:`last_trace`, an
        :class:`~repro.obs.EpochTrace`): every lifecycle event
        (submit/admit/dispatch, preemptions, retries, failovers, breaker
        and fault transitions, SLO grading) on the simulated server
        clock, plus per-query operator traces (tenant sessions open with
        session tracing on) and the occupancy board's busy slices.  All
        events are recorded in admission pick order, so the trace is
        byte-identical at every tenant-session worker count and across
        replays.  Off by default with near-zero overhead (one flag check
        per lifecycle point); serving results, reports and metrics are
        bit-identical with tracing on or off.
    """

    def __init__(self, topology: Topology | None = None, *,
                 cache_budget_bytes: int | None = None,
                 occupancy_threshold: float = 0.10,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown_seconds: float = 1.0,
                 preemption: bool = False,
                 aging_seconds: float | None = None,
                 tracing: bool = False) -> None:
        self.topology = topology if topology is not None else default_server()
        self.catalog = Catalog()
        if cache_budget_bytes is None:
            self.query_cache = SharedQueryCache()
        else:
            self.query_cache = SharedQueryCache(cache_budget_bytes)
        # The one invalidation subscription for the whole server: tenant
        # sessions share this cache and must not subscribe it again.
        self.catalog.subscribe(self.query_cache.invalidate_table)
        if not isinstance(preemption, bool):
            raise ValueError("preemption must be a bool")
        self.preemption = preemption
        self.admission = AdmissionController(aging_seconds=aging_seconds)
        self.scheduler = DeviceScheduler(
            self.topology, occupancy_threshold=occupancy_threshold)
        #: Statistics-backed cardinality estimator over the shared
        #: catalog: admission working-set estimates and auto-mode
        #: placement read it.
        self.estimator = CardinalityEstimator(self.catalog)
        self.fault_plan = fault_plan or FaultPlan()
        self.retry_policy = retry_policy or RetryPolicy()
        # Validated here, not at run(): a bad value must fail before any
        # ticket is queued.
        self.breaker_threshold, self.breaker_cooldown_seconds = (
            validate_breaker(breaker_threshold, breaker_cooldown_seconds))
        self._retry_policies: dict[str, RetryPolicy] = {}
        self._sessions: dict[str, HAPEEngine] = {}
        self._ticket_ids = itertools.count(1)
        self._event_seq = itertools.count()
        #: Tickets awaiting (or rejected since) the next ``run()`` drain.
        self._epoch_tickets: list[QueryTicket] = []
        #: Open-loop arrival streams pumped by the next ``run()`` drain.
        self._arrival_sources: list[ArrivalSource] = []
        #: The most recent epoch's report — what ``metrics()`` exports.
        self.last_report: ServerReport | None = None
        self._injector: FaultInjector | None = None
        self._breaker: CircuitBreaker | None = None
        if not isinstance(tracing, bool):
            raise ValueError("tracing must be a bool")
        self.tracing = tracing
        #: Lifecycle-event recorder (no-op unless ``tracing=True``); events
        #: are appended in canonical (admission pick) order.
        self.tracer = Tracer(enabled=tracing)
        #: The most recent epoch's :class:`~repro.obs.EpochTrace`
        #: (``None`` before the first traced ``run()`` or when off).
        self.last_trace: EpochTrace | None = None
        #: Device-health baseline for transition events (diffed against
        #: ``topology.health_report()`` at every fault/breaker step).
        self._last_health: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Shared catalog
    # ------------------------------------------------------------------
    def register_table(self, table: Table, *, replace: bool = False) -> None:
        """Register a table for every tenant (shared catalog).

        ``replace=True`` over an existing name invalidates exactly the
        shared-cache entries that read the replaced table, for all
        tenants at once — the single-session invalidation contract, at
        server scope.
        """
        before = (self.query_cache.stats().invalidated
                  if self.tracer.enabled else 0)
        self.catalog.register(table, replace=replace)
        if self.tracer.enabled:
            entries = self.query_cache.stats().invalidated - before
            if replace or entries:
                # Catalog changes happen between epochs; the event sits at
                # time zero of the epoch that first observes it.
                self.tracer.event(0.0, "cache_invalidation",
                                  table=table.name, entries=entries)

    def register_dataset(self, tables: dict[str, Table], *,
                         replace: bool = False) -> None:
        """Register a whole dataset (e.g. the TPC-H tables) at once."""
        for table in tables.values():
            self.register_table(table, replace=replace)

    def drop_table(self, name: str) -> None:
        """Drop a table; shared-cache entries that read it are discarded."""
        before = (self.query_cache.stats().invalidated
                  if self.tracer.enabled else 0)
        self.catalog.drop(name)
        if self.tracer.enabled:
            self.tracer.event(
                0.0, "cache_invalidation", table=name,
                entries=self.query_cache.stats().invalidated - before)

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------
    def open_session(self, tenant: str, *, priority: str = "normal",
                     max_concurrency: int = 1, max_queue_depth: int = 32,
                     memory_budget_bytes: int | None = None,
                     slo_p99_seconds: float | None = None,
                     retry: RetryPolicy | None = None) -> HAPEEngine:
        """Open a tenant session with its admission policy.

        The session is a full :class:`HAPEEngine` sharing the server's
        topology, catalog and cache; it can also be used directly for
        immediate (non-queued) execution.  ``retry`` overrides the
        server-wide :class:`RetryPolicy` for this tenant;
        ``slo_p99_seconds`` sets the latency objective the epoch report
        grades the tenant against.
        """
        policy = TenantPolicy(priority=priority,
                              max_concurrency=max_concurrency,
                              max_queue_depth=max_queue_depth,
                              memory_budget_bytes=memory_budget_bytes,
                              slo_p99_seconds=slo_p99_seconds)
        self.admission.open_tenant(tenant, policy)
        if retry is not None:
            self._retry_policies[tenant] = retry
        session = HAPEEngine(self.topology, catalog=self.catalog,
                             query_cache=self.query_cache,
                             tracing=self.tracing)
        self._sessions[tenant] = session
        return session

    def session(self, tenant: str) -> HAPEEngine:
        try:
            return self._sessions[tenant]
        except KeyError as exc:
            raise UnknownTenantError(f"unknown tenant {tenant!r}") from exc

    def tenant_retry_policy(self, tenant: str) -> RetryPolicy:
        """The retry policy in force for one tenant."""
        return self._retry_policies.get(tenant, self.retry_policy)

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, tenant: str, plan: LogicalPlan,
               mode: str = "hybrid", *, label: str | None = None,
               at: float = 0.0,
               deadline: float | None = None) -> QueryTicket:
        """Queue one query for ``tenant``; may raise :class:`AdmissionError`.

        ``mode`` may be ``"auto"``: the server resolves it at dispatch
        time — cpu/gpu when only one kind survives, hybrid when the
        statistics-backed working set overflows GPU memory (or is
        unbacked), otherwise whichever device kind the occupancy board
        reports least loaded (see :meth:`_resolve_auto_mode`).

        ``at`` is the simulated submission time (seconds of server time;
        queries of one tenant dispatch FIFO).  ``deadline`` (seconds after
        submission) bounds the query end-to-end — retries, failovers and
        queueing included; it defaults to the tenant retry policy's
        ``deadline_seconds``.  A tenant without an open session gets one
        with the default policy.  Rejected submissions raise — and still
        appear in the next report, counted against the tenant.

        Submission is legal while :meth:`run` is draining: the serving
        loop is open-loop, and registered arrival sources (see
        :meth:`add_arrivals`) call straight into this method as server
        time reaches each arrival.
        """
        if not self.admission.has_tenant(tenant):
            self.open_session(tenant)
        if deadline is None:
            deadline = self.tenant_retry_policy(tenant).deadline_seconds
        ticket = QueryTicket(
            ticket_id=next(self._ticket_ids), tenant=tenant,
            label=label or f"q{len(self._epoch_tickets) + 1}", plan=plan,
            mode=mode, submit_time=float(at),
            estimated_bytes=self._estimate_bytes(plan),
            deadline_seconds=deadline)
        self._epoch_tickets.append(ticket)
        self.tracer.event(ticket.submit_time, "submit", tenant=tenant,
                          query=ticket.label, ticket=ticket.ticket_id,
                          mode=mode)
        try:
            self.admission.submit(tenant, ticket,
                                  estimated_bytes=ticket.estimated_bytes,
                                  at=ticket.submit_time)
        except AdmissionError as exc:
            ticket.status = "rejected"
            self.tracer.event(ticket.submit_time, "reject", tenant=tenant,
                              query=ticket.label, ticket=ticket.ticket_id,
                              reason=str(exc))
            raise
        return ticket

    def _estimate_bytes(self, plan: LogicalPlan) -> int:
        """Admission-time working-set estimate for memory budgeting.

        Statistics-backed when every referenced table has catalog
        statistics and every predicate resolved: the estimator's working
        set — peak estimated intermediate bytes plus pinned join build
        hash tables — so a highly selective query over a huge table
        charges only what it materializes, not the table it streams.
        Falls back to the conservative legacy estimate (the full bytes of
        every referenced table) when the estimate is unbacked.
        """
        working_set = self.estimator.working_set(plan)
        if working_set.backed:
            return int(working_set.total_bytes)
        return int(sum(self.catalog.stats(name).nbytes
                       for name in plan.referenced_tables()
                       if name in self.catalog))

    def _resolve_auto_mode(self, ticket: QueryTicket) -> str:
        """Pick a concrete mode for a mode-unconstrained submission.

        Resolved at dispatch bookkeeping time (not submit time) so the
        decision sees the breaker/fault state of the devices and the
        occupancy the epoch has accumulated so far: no surviving GPUs
        forces cpu, no surviving CPUs forces gpu, an unbacked or
        GPU-oversized working set co-processes (hybrid), and otherwise
        the query lands on whichever device kind the occupancy board
        says is least loaded.  The resolved mode then walks the normal
        failover ladder like any explicit mode.
        """
        gpus = self.topology.available_gpus()
        if not gpus:
            return "cpu"
        if not self.topology.available_cpus():
            return "gpu"
        working_set = self.estimator.working_set(ticket.plan)
        gpu_capacity = min(gpu.spec.memory_capacity_bytes for gpu in gpus)
        if (not working_set.backed
                or working_set.largest_build_bytes * 4 >= gpu_capacity
                or working_set.total_bytes * 2 >= gpu_capacity):
            return "hybrid"
        kind = self.scheduler.least_loaded_kind()
        return "cpu" if kind is DeviceKind.CPU else "gpu"

    # ------------------------------------------------------------------
    # Open-loop arrivals
    # ------------------------------------------------------------------
    def add_arrivals(self, source, *, name: str | None = None
                     ) -> ArrivalSource:
        """Register an arrival stream for the next :meth:`run` epoch.

        ``source`` is an :class:`ArrivalSource` or any iterable of
        :class:`Arrival` entries (a generator is drained eagerly, so the
        stream is plain data before the drain starts).  The serving loop
        submits each arrival at exactly its ``at`` time on the simulated
        server clock; arrivals the admission controller rejects
        (backpressure) are recorded as rejected tickets, not raised.
        Sources are consumed by one epoch and cleared when it ends.
        """
        if not isinstance(source, ArrivalSource):
            source = ArrivalSource(
                name or f"arrivals-{len(self._arrival_sources) + 1}", source)
        source.rewind()
        self._arrival_sources.append(source)
        return source

    def _pump_arrivals(self, now: float) -> None:
        """Submit every registered arrival due at or before ``now``.

        Sources are pumped in registration order, each in stream order —
        the deterministic submit order the epoch replays run after run.
        """
        for source in self._arrival_sources:
            for arrival in source.pop_due(now):
                try:
                    self.submit(arrival.tenant, arrival.resolve_plan(),
                                arrival.mode, label=arrival.label,
                                at=arrival.at, deadline=arrival.deadline)
                except AdmissionError:
                    # Open-loop clients do not stop arriving because the
                    # server pushed back; the rejection is on the report.
                    pass

    def _next_arrival_time(self) -> float | None:
        """Earliest undelivered arrival across all sources (if any)."""
        heads = [source.peek().at for source in self._arrival_sources
                 if not source.exhausted]
        return min(heads) if heads else None

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def run(self) -> ServerReport:
        """Drain every queued submission; deterministic and single-threaded.

        Server time starts at zero (a fresh occupancy epoch) and advances
        event by event: admit everything dispatchable now, else jump to
        the next completion, future submission, scheduled fault or breaker
        probe.  Functional execution happens at dispatch — one query at a
        time, against the shared cache — while the scheduler lays the
        measured busy seconds onto the occupancy board, which is where
        concurrency (and therefore throughput) lives.

        The drain is exception-safe: per-query failures are isolated to
        their ticket; anything else (a programming error escaping the
        engine) unwinds the epoch — queued and running tickets are
        finalized as failed, admission state is released, injected faults
        are healed — and re-raises as :class:`ServingError` carrying the
        coherent partial report on its ``report`` attribute.  The server
        remains usable for the next epoch either way.
        """
        injector = FaultInjector(self.fault_plan, self.topology)
        breaker = CircuitBreaker(
            self.topology, threshold=self.breaker_threshold,
            cooldown_seconds=self.breaker_cooldown_seconds)
        self._injector, self._breaker = injector, breaker
        self.topology.reset_occupancy()
        if self.tracer.enabled:
            self._last_health = dict(self.topology.health_report())
        completions: list[tuple[float, int, _Attempt]] = []
        try:
            self._drain(completions)
        except Exception as exc:
            report = self._abort_epoch(completions, exc)
            if isinstance(exc, ServingError):
                exc.report = report
                raise
            error = ServingError(f"serving epoch aborted: {exc}")
            error.report = report
            raise error from exc
        finally:
            injector.restore_all()
            breaker.restore_all()
            self._injector = self._breaker = None
            self._arrival_sources = []
        report = self._build_report()
        self.last_report = report
        self.last_trace = self._build_epoch_trace(report)
        self._epoch_tickets = []
        return report

    def _drain(self, completions: list) -> None:
        now = 0.0
        self._apply_faults(now, completions)
        self._pump_arrivals(now)
        while True:
            self._dispatch_admissible(now, completions)
            events = []
            while completions and completions[0][2].cancelled:
                heapq.heappop(completions)
            if completions:
                events.append(completions[0][0])
            future_submit = self.admission.earliest_future_submit(now)
            if future_submit is not None:
                events.append(future_submit)
            arrival_at = self._next_arrival_time()
            if arrival_at is not None:
                # Open-loop: undelivered arrivals extend the epoch — the
                # server idles forward to the next arrival if it must.
                events.append(max(arrival_at, now))
            if not events:
                if self.admission.has_queued():  # pragma: no cover
                    raise ServingError(
                        "admission deadlock: queued work but no runnable "
                        "query and no pending completion")
                break
            # Scheduled faults and breaker probes only matter while work
            # remains; they never extend the epoch on their own.
            fault_at = self._injector.next_event_time(now)
            if fault_at is not None:
                events.append(fault_at)
            probe_at = self._breaker.next_probe_time(now)
            if probe_at is not None:
                events.append(probe_at)
            now = min(events)
            while completions and completions[0][0] <= now:
                _, _, attempt = heapq.heappop(completions)
                if not attempt.cancelled:
                    self._finish_attempt(attempt, attempt.finish)
            self._apply_faults(now, completions)
            self._pump_arrivals(now)

    def _apply_faults(self, now: float, completions: list) -> None:
        """Apply scheduled faults/probes due at ``now``; kill stranded work."""
        newly_failed = self._injector.advance(now)
        self._breaker.advance(now)
        self._trace_health(now, "schedule")
        if not newly_failed:
            return
        for _, _, attempt in completions:
            if attempt.cancelled or attempt.finish <= now:
                continue
            if not any(name in attempt.reserved for name in newly_failed):
                continue
            attempt.cancelled = True
            ticket = attempt.ticket
            ticket.wasted_seconds += max(now - attempt.start, 0.0)
            # Release the tail of the killed attempt's reservation: the
            # hardware was only occupied until the strike, and a follow-on
            # query on a freed resource must start at the kill instant,
            # not at the attempt's originally reserved end.
            if attempt.placement is not None:
                self.scheduler.release(
                    attempt.placement,
                    fraction=self._elapsed_fraction(attempt, now))
            self.admission.on_finish(ticket.tenant, ticket.estimated_bytes)
            lost = next(name for name in newly_failed
                        if name in attempt.reserved)
            self._failover_or_fail(
                ticket, now,
                DeviceUnavailableError(
                    self.topology.device(lost).kind.value,
                    f"device {lost!r} failed mid-query"))

    def _trace_health(self, now: float, cause: str) -> None:
        """Emit a ``device_health`` event per device whose state changed.

        Runs at deterministic simulated times (fault-schedule and
        breaker edges), so the events land in the trace in the same order
        on every replay.
        """
        if not self.tracer.enabled:
            return
        health = self.topology.health_report()
        for name in sorted(health):
            state = health[name]
            if self._last_health.get(name) != state:
                self.tracer.event(now, "device_health", device=name,
                                  state=state, cause=cause)
        self._last_health = dict(health)

    # ------------------------------------------------------------------
    # Dispatch: one execution attempt
    # ------------------------------------------------------------------
    def _execute_attempt(self, tenant: str, ticket: QueryTicket) -> tuple[
            QueryResult | None, CacheCounters, ReproError | None]:
        """Functionally execute one attempt in the tenant's session.

        Touches only the session, the shared cache and the catalog; no
        admission, occupancy or ticket bookkeeping happens here.  Returns
        the result (or the error) and the hit/miss counters of the
        attempt's lookups — failed attempts included, since the lookups
        they made before failing are real traffic.
        """
        session = self.session(tenant)
        with self.query_cache.tenant(tenant) as bracket:
            try:
                result = session.execute(ticket.plan, ticket.current_mode)
            except ReproError as error:
                return None, bracket.counters, error
        return result, bracket.counters, None

    def _enqueue_attempt(self, tenant: str, ticket: QueryTicket, now: float,
                         completions: list, result: QueryResult,
                         cache_delta: CacheCounters) -> None:
        """Reserve a successfully executed attempt on the occupancy board.

        Must run in canonical pick order — occupancy reservations are
        order-sensitive (list scheduling).
        """
        deadline = ticket.deadline_time
        reservations = self.scheduler.reservations(result)
        # An interactive arrival that would wait behind running batch work
        # may evict it first (at a morsel boundary), so preemption happens
        # before the start estimate and the reservation.
        if (self.preemption
                and self.admission.policy(tenant).rank == 0
                and self.topology.occupancy.available_at(
                    tuple(reservations)) > now):
            self._preempt_for(tuple(reservations), now, completions)
        # Decide — before reserving — whether this attempt survives: an
        # injected fault may kill it mid-run, and the deadline may cut it
        # short.  The start estimate reproduces the occupancy board's own
        # rule (max of availability and now), so the reservation below
        # lands at exactly this start.
        start = max(self.topology.occupancy.available_at(tuple(reservations)),
                    now)
        sim = result.simulated_seconds
        fault = self._injector.attempt_fault(tenant, ticket.label,
                                             ticket.attempts)
        kind, dies_at = "success", start + sim
        if fault is not None:
            kind, dies_at = "fault", start + fault.fraction * sim
        if deadline is not None and dies_at > deadline:
            kind, dies_at, fault = "timeout", deadline, None
        fraction = 1.0
        if kind != "success" and sim > 0.0:
            fraction = min(max((dies_at - start) / sim, 0.0), 1.0)
        placement = self.scheduler.dispatch(
            result, earliest=now, label=f"{tenant}:{ticket.label}",
            fraction=fraction)
        attempt = _Attempt(ticket=ticket, kind=kind, start=placement.start,
                           finish=placement.finish, result=result,
                           cache_delta=cache_delta,
                           reserved=placement.resources, placement=placement,
                           fault=fault)
        self.tracer.event(now, "dispatch", tenant=tenant, query=ticket.label,
                          ticket=ticket.ticket_id, mode=ticket.current_mode,
                          start=placement.start, finish=placement.finish,
                          resources=",".join(placement.resources))
        heapq.heappush(completions,
                       (placement.finish, next(self._event_seq), attempt))

    # ------------------------------------------------------------------
    # Preemption: interactive arrivals evict running batch work
    # ------------------------------------------------------------------
    @staticmethod
    def _elapsed_fraction(attempt: _Attempt, at: float) -> float:
        """How far through its reserved span an attempt is at ``at``."""
        span = attempt.finish - attempt.start
        if span <= 0.0:
            return 0.0
        return min(max((at - attempt.start) / span, 0.0), 1.0)

    def _morsel_boundary(self, attempt: _Attempt, now: float) -> float:
        """Earliest morsel boundary of ``attempt`` at or after ``now``.

        The attempt's span divides evenly over the morsels its execution
        dispatched — preemption is cooperative, a victim yields between
        morsels, never mid-kernel.  A cache-served attempt dispatched no
        morsels and is treated as one indivisible unit.
        """
        span = attempt.finish - attempt.start
        if span <= 0.0:
            return attempt.start
        steps = max(attempt.result.morsels_dispatched, 1)
        delta = span / steps
        index = max(math.ceil((now - attempt.start) / delta - 1e-12), 0)
        return min(attempt.start + index * delta, attempt.finish)

    def _preempt_for(self, needed: tuple[str, ...], now: float,
                     completions: list) -> bool:
        """Evict running batch attempts holding resources in ``needed``.

        Victims are considered in completion order (earliest reserved
        finish first — the canonical deterministic order): a victim must
        be an uncancelled, still-running successful attempt of a
        batch-priority tenant whose *aged* rank is still below
        interactive — a batch query that has waited long enough to age to
        the top class is starvation-protected and cannot be evicted
        again.  Each victim is killed at its next morsel boundary; its
        reservation tail is released there and the query re-queues to run
        again.  Stops as soon as every needed resource is free.
        """
        preempted = False
        for _, _, attempt in sorted(completions, key=lambda e: (e[0], e[1])):
            if self.topology.occupancy.available_at(needed) <= now:
                break
            if attempt.cancelled or attempt.kind != "success":
                continue
            if attempt.finish <= now or attempt.placement is None:
                continue
            ticket = attempt.ticket
            policy = self.admission.policy(ticket.tenant)
            if policy.priority != "batch":
                continue
            if self.admission.aged_rank(
                    policy.rank, now - ticket.submit_time) == 0:
                continue
            if not set(attempt.reserved) & set(needed):
                continue
            kill = self._morsel_boundary(attempt, now)
            if kill >= attempt.finish:
                continue
            self._preempt_attempt(attempt, kill)
            preempted = True
        return preempted

    def _preempt_attempt(self, attempt: _Attempt, kill: float) -> None:
        """Kill one running attempt at ``kill`` and re-queue its ticket.

        The busy time up to the kill stays charged on the occupancy board
        (exactly what ``dispatch(fraction=)`` would have reserved) and on
        the ticket as wasted seconds; the reservation tail is released at
        the kill instant.  Preemption is the server's choice, not the
        query's failure, so the attempt does not count against the retry
        budget — the ticket re-queues at the kill time and its eventual
        re-execution returns a bit-identical result.
        """
        ticket = attempt.ticket
        assert attempt.placement is not None
        self.scheduler.release(attempt.placement,
                               fraction=self._elapsed_fraction(attempt, kill))
        attempt.cancelled = True
        self.tracer.event(kill, "preempt", tenant=ticket.tenant,
                          query=ticket.label, ticket=ticket.ticket_id)
        ticket.wasted_seconds += max(kill - attempt.start, 0.0)
        ticket.preemptions += 1
        ticket.attempts -= 1
        ticket.status = "queued"
        self.admission.on_finish(ticket.tenant, ticket.estimated_bytes)
        self.admission.requeue(ticket.tenant, ticket,
                               estimated_bytes=ticket.estimated_bytes,
                               at=kill)

    def _dispatch_admissible(self, now: float, completions: list) -> None:
        """Drain every currently admissible pick, in pick order.

        Per batch, repeated until nothing is admissible: bookkeeping
        (deadline checks, attempt counting, auto-mode resolution) of
        every pick, then the execution of every pick, then each pick's
        occupancy reservation (or failure routing) — each phase in pick
        order.  All picks of a batch dispatch at the same instant, so all
        execute before any failure is routed: routing can trip the
        circuit breaker, and a later pick of the batch must not see a
        device fail that was healthy when it was dispatched.
        """
        while True:
            picks = []
            while True:
                pick = self.admission.next_admissible(now)
                if pick is None:
                    break
                tenant, ticket, _ = pick
                picks.append((tenant, ticket))
            if not picks:
                return
            runnable = []
            for tenant, ticket in picks:
                deadline = ticket.deadline_time
                if deadline is not None and now >= deadline:
                    self.admission.on_finish(tenant, ticket.estimated_bytes)
                    self._finalize_timeout(ticket, now)
                    continue
                if ticket.current_mode == "auto":
                    ticket.current_mode = self._resolve_auto_mode(ticket)
                ticket.attempts += 1
                ticket.status = "running"
                self.tracer.event(now, "admit", tenant=tenant,
                                  query=ticket.label,
                                  ticket=ticket.ticket_id,
                                  attempt=ticket.attempts,
                                  mode=ticket.current_mode)
                runnable.append((tenant, ticket))
            outcomes = [self._execute_attempt(tenant, ticket)
                        for tenant, ticket in runnable]
            for (tenant, ticket), (result, cache_delta, error) in zip(
                    runnable, outcomes):
                if error is not None:
                    self.admission.on_finish(tenant, ticket.estimated_bytes)
                    self._route_failure(ticket, now, error)
                else:
                    self._enqueue_attempt(tenant, ticket, now, completions,
                                          result, cache_delta)

    def _finish_attempt(self, attempt: _Attempt, now: float) -> None:
        """An attempt reached its end (success, injected fault, deadline)."""
        ticket = attempt.ticket
        self.admission.on_finish(ticket.tenant, ticket.estimated_bytes)
        if attempt.kind == "success":
            ticket.status = "completed"
            ticket.start_time = attempt.start
            ticket.finish_time = attempt.finish
            ticket.reserved = attempt.reserved
            ticket.result = attempt.result
            ticket.cache = attempt.cache_delta
            ticket.error = None
            self._breaker.record_success(attempt.reserved)
            self._trace_health(now, "breaker")
            # Cache attribution on the event comes from the attempt's
            # bracket counters, not raw per-span lookups — see
            # docs/OBSERVABILITY.md.
            self.tracer.event(attempt.finish, "complete",
                              tenant=ticket.tenant, query=ticket.label,
                              ticket=ticket.ticket_id,
                              simulated_seconds=attempt.result.simulated_seconds,
                              cache_hits=attempt.cache_delta.hits,
                              cache_misses=attempt.cache_delta.misses)
            return
        # The attempt died part-way: account the simulated time it burned.
        ticket.wasted_seconds += max(attempt.finish - attempt.start, 0.0)
        if attempt.kind == "timeout":
            self._finalize_timeout(ticket, now)
            return
        fault = attempt.fault
        assert fault is not None
        if fault.kind == "device" and fault.device is not None:
            self._breaker.record_failure(fault.device, now)
            self._trace_health(now, "breaker")
            self._failover_or_fail(
                ticket, now,
                DeviceUnavailableError(
                    self.topology.device(fault.device).kind.value,
                    fault.message))
        else:
            self._retry_or_fail(ticket, now, FaultError(fault.message))

    # ------------------------------------------------------------------
    # Failure routing: failover ladder, retries, deadlines
    # ------------------------------------------------------------------
    def _route_failure(self, ticket: QueryTicket, now: float,
                       error: ReproError) -> None:
        """Classify a synchronous execution failure and route it."""
        if isinstance(error, OutOfDeviceMemoryError):
            # Organic device-scoped failure (the paper's Q9-on-GPU case):
            # the breaker learns about the device, the ticket fails over.
            self._breaker.record_failure(error.device, now)
            self._trace_health(now, "breaker")
            self._failover_or_fail(ticket, now, error)
        elif isinstance(error, (DeviceUnavailableError, OptimizerError)):
            # The mode cannot run on the surviving devices at all; no
            # single device to blame, straight to the ladder.
            self._failover_or_fail(ticket, now, error)
        else:
            self._retry_or_fail(ticket, now, error)

    def _failover_or_fail(self, ticket: QueryTicket, now: float,
                          error: Exception) -> None:
        """Walk the mode-degradation ladder; fail when it is exhausted.

        Failovers do not consume retry attempts: changing mode is the
        server adapting placement (the paper's core premise), not the
        query being flaky.
        """
        next_mode = MODE_DEGRADATION.get(ticket.current_mode)
        if next_mode is None:
            self._finalize_failure(ticket, now, error)
            return
        self.tracer.event(now, "failover", tenant=ticket.tenant,
                          query=ticket.label, ticket=ticket.ticket_id,
                          from_mode=ticket.current_mode, to_mode=next_mode,
                          error=type(error).__name__)
        ticket.failovers += 1
        ticket.current_mode = next_mode
        ticket.status = "queued"
        self.admission.requeue(ticket.tenant, ticket,
                               estimated_bytes=ticket.estimated_bytes,
                               at=now)

    def _retry_or_fail(self, ticket: QueryTicket, now: float,
                       error: Exception) -> None:
        """Retry under the tenant policy; exhausted retries fail cleanly."""
        policy = self.tenant_retry_policy(ticket.tenant)
        if ticket.attempts >= policy.max_attempts:
            self._finalize_failure(
                ticket, now,
                RetryExhaustedError(ticket.label, ticket.attempts, error))
            return
        ticket.retries += 1
        ticket.status = "queued"
        resume_at = now + policy.backoff(ticket.attempts)
        self.tracer.event(now, "retry", tenant=ticket.tenant,
                          query=ticket.label, ticket=ticket.ticket_id,
                          attempt=ticket.attempts, resume_at=resume_at,
                          error=type(error).__name__)
        # Simulated backoff: the ticket sits out the wait in its queue, so
        # the backoff surfaces as queue wait, never as device time.
        self.admission.requeue(ticket.tenant, ticket,
                               estimated_bytes=ticket.estimated_bytes,
                               at=resume_at)

    def _finalize_failure(self, ticket: QueryTicket, now: float,
                          error: Exception) -> None:
        ticket.status = "failed"
        ticket.finish_time = now
        ticket.result = None
        ticket.error = str(error)
        self.tracer.event(now, "failed", tenant=ticket.tenant,
                          query=ticket.label, ticket=ticket.ticket_id,
                          error=str(error))

    def _finalize_timeout(self, ticket: QueryTicket, now: float) -> None:
        deadline = ticket.deadline_time
        assert deadline is not None
        ticket.status = "timed_out"
        ticket.finish_time = max(now, deadline)
        ticket.result = None
        ticket.error = (f"query {ticket.label!r} exceeded its "
                        f"{ticket.deadline_seconds:.6f}s deadline")
        self.tracer.event(ticket.finish_time, "timeout",
                          tenant=ticket.tenant, query=ticket.label,
                          ticket=ticket.ticket_id,
                          deadline_seconds=ticket.deadline_seconds)

    # ------------------------------------------------------------------
    # Epoch unwind (exception safety)
    # ------------------------------------------------------------------
    def _abort_epoch(self, completions: list, cause: Exception
                     ) -> ServerReport:
        """Finalize a partially drained epoch into a coherent report.

        In-flight and queued tickets become failed, admission queues and
        accounting are released, and the ticket buffer resets so the
        server can serve the next epoch.
        """
        for _, _, attempt in completions:
            attempt.cancelled = True
        for ticket in self._epoch_tickets:
            if ticket.status in ("queued", "running"):
                ticket.status = "failed"
                ticket.result = None
                ticket.error = f"epoch aborted: {cause}"
        self.admission.abort_epoch()
        report = self._build_report()
        self.last_report = report
        self.last_trace = self._build_epoch_trace(report)
        self._epoch_tickets = []
        return report

    # ------------------------------------------------------------------
    def _build_report(self) -> ServerReport:
        tenants: dict[str, TenantReport] = {}
        makespan = 0.0
        serial = 0.0
        for ticket in self._epoch_tickets:
            report = tenants.setdefault(ticket.tenant, TenantReport())
            report.retries += ticket.retries
            report.failovers += ticket.failovers
            report.preemptions += ticket.preemptions
            report.wasted_seconds += ticket.wasted_seconds
            if ticket.wasted_seconds > 0.0 or ticket.status in (
                    "failed", "timed_out"):
                makespan = max(makespan, ticket.finish_time)
            if ticket.status == "rejected":
                report.rejected += 1
                continue
            if ticket.status == "failed":
                report.failed += 1
                continue
            if ticket.status == "timed_out":
                report.timed_out += 1
                continue
            if ticket.status != "completed":  # pragma: no cover - drained
                continue
            assert ticket.result is not None
            report.completed += 1
            report.queue_wait_seconds += ticket.queue_wait
            report.simulated_seconds += ticket.result.simulated_seconds
            for resource, busy in ticket.result.device_busy.items():
                if busy > 0:
                    report.busy_seconds[resource] = (
                        report.busy_seconds.get(resource, 0.0) + busy)
            report.cache = CacheCounters(
                hits=report.cache.hits + ticket.cache.hits,
                misses=report.cache.misses + ticket.cache.misses,
                evicted=report.cache.evicted + ticket.cache.evicted,
                invalidated=(report.cache.invalidated
                             + ticket.cache.invalidated))
            report.peak_intermediate_bytes = max(
                report.peak_intermediate_bytes,
                ticket.result.peak_intermediate_bytes)
            report.latencies.append(ticket.latency)
            makespan = max(makespan, ticket.finish_time)
            serial += ticket.result.simulated_seconds
        for name, report in tenants.items():
            if self.admission.has_tenant(name):
                report.slo_p99_seconds = (
                    self.admission.policy(name).slo_p99_seconds)
        return ServerReport(tickets=list(self._epoch_tickets),
                            tenants=tenants, makespan=makespan,
                            serial_seconds=serial,
                            cache=self.query_cache.stats())

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _build_epoch_trace(self, report: ServerReport) -> EpochTrace | None:
        """Assemble the epoch's trace from the tracer's committed events.

        Called once per epoch after the report is built: SLO grades are appended (sorted by tenant), per-query
        traces are collected in submission (ticket) order and the shared
        occupancy board is snapshotted.  Draining the tracer here also
        guarantees an aborted epoch cannot leak events into the next one.
        """
        if not self.tracer.enabled:
            return None
        for name in sorted(report.tenants):
            tenant = report.tenants[name]
            if tenant.slo_p99_seconds is None:
                continue
            self.tracer.event(report.makespan, "slo", tenant=name,
                              met=bool(tenant.slo_met),
                              p99=tenant.percentile_latency(99),
                              objective=tenant.slo_p99_seconds)
        queries = []
        for ticket in report.tickets:
            result = ticket.result
            queries.append(TracedQuery(
                ticket=ticket.ticket_id, tenant=ticket.tenant,
                label=ticket.label, status=ticket.status,
                mode=ticket.mode, final_mode=ticket.current_mode,
                submit=ticket.submit_time, start=ticket.start_time,
                finish=ticket.finish_time,
                simulated_seconds=(result.simulated_seconds
                                   if result is not None else 0.0),
                trace=result.trace if result is not None else None))
        return EpochTrace(makespan=report.makespan,
                          events=self.tracer.drain(),
                          queries=queries,
                          occupancy=list(self.topology.occupancy.records()))

    def metrics(self) -> MetricsSnapshot:
        """A scrapeable snapshot of the last epoch plus live server state.

        Combines the most recent :class:`ServerReport` (zeros before the
        first ``run()``), the shared cache's live counters (global and
        per-tenant attribution) and the topology's device health into one
        :class:`MetricsSnapshot` that renders as Prometheus exposition
        text or JSON, plus derived gauges: the epoch's median operator
        q-error and per-device occupancy (busy / makespan).
        """
        return MetricsSnapshot.collect(
            report=self.last_report, cache=self.query_cache.stats(),
            device_health=self.topology.health_report(),
            tenant_cache=self.query_cache.tenant_counters(),
            extra=self._metrics_extra())

    def _metrics_extra(self) -> dict[str, float]:
        """Derived per-epoch gauges for :attr:`MetricsSnapshot.extra`."""
        report = self.last_report
        if report is None:
            return {}
        extra: dict[str, float] = {}
        errors = [op.q_error for ticket in report.tickets
                  if ticket.status == "completed"
                  and ticket.result is not None
                  for op in ticket.result.cardinality.operators]
        if errors:
            extra["epoch_median_q_error"] = float(median(errors))
        if report.makespan > 0.0:
            busy: dict[str, float] = {}
            for tenant in report.tenants.values():
                for resource, seconds in tenant.busy_seconds.items():
                    busy[resource] = busy.get(resource, 0.0) + seconds
            for resource in sorted(busy):
                extra[f'device_occupancy{{device="{resource}"}}'] = (
                    busy[resource] / report.makespan)
        return extra

    def health(self) -> dict:
        """Liveness/readiness view: overall status plus per-device health."""
        devices = self.topology.health_report()
        degraded = sorted(name for name, state in devices.items()
                          if state != "healthy")
        return {"status": "degraded" if degraded else "ok",
                "degraded_devices": degraded, "devices": devices,
                "tenants": sorted(self._sessions)}
