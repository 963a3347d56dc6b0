"""The four benchmark workloads, each a closed loop driven through the public API.

A workload object is built from the seed, then:

* :meth:`setup` builds everything the timed loop needs (data, engine or
  server, registration with statistics, and any warm-up pass); the runner
  times it;
* :meth:`run_pass` runs one pass of the workload's mix in an order
  shuffled by the seeded ``rng`` and records every operation in a
  :class:`Recorder`; the runner repeats whole passes until time is up;
* :meth:`check` compares everything the passes produced against the
  oracle and the invariants; it runs after the timed loop.

Every tuning knob of the engine (``morsel_rows``, ``workers``,
``pipeline_fusion``, ``cache_eviction``) is left at its default.  The repro
modules are looked up as module attributes at call time, so a traced run
can swap in wrappers.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter
from typing import Callable

import oracle
from repro import engine as repro_engine
from repro import hardware, operators, server as repro_server, storage
from repro import workloads as repro_workloads

SCALE_FACTOR = 0.2
QUERIES = ("Q1", "Q5", "Q6", "Q9")
MODES = ("cpu", "hybrid", "gpu")
JOIN_ROWS = 1_000_000
TENANT_MODES = ("cpu", "gpu", "hybrid", "auto")
#: At most this many failure messages are kept for the report.
MAX_MESSAGES = 10


@dataclass
class Recorder:
    """What the timed loop observed: latencies, operation counts, failures."""

    #: Wall seconds per operation class (the classes ``latency_p50_ms``
    #: spans).
    classes: dict[str, list[float]] = field(default_factory=dict)
    #: Wall seconds of the operations the latency tail is taken over.
    tail: list[float] = field(default_factory=list)
    #: Operations counted by ``throughput_ops_s``.
    ops: int = 0
    passes: int = 0
    #: Seconds the loop spent on the benchmark's own work (checking and
    #: fingerprinting results, host-speed samples); the runner takes them
    #: out of the loop's wall time.
    excluded_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    #: Sums of public result fields (morsels, cache counters, ...).
    fields: dict[str, float] = field(default_factory=dict)
    #: Each result's median cardinality q-error.
    q_errors: list[float] = field(default_factory=list)
    #: Called when a client-visible request starts: the runner samples the
    #: host speed there, and a traced run numbers its spans by request.
    on_request: Callable[[], None] | None = None

    def request(self) -> None:
        if self.on_request is not None:
            self.on_request()

    def add(self, name: str, value: float) -> None:
        self.fields[name] = self.fields.get(name, 0) + value

    def merge(self, other: "Recorder") -> None:
        """Count another recorder's attempts and failures (not its timings)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[:MAX_MESSAGES])

    def sample(self, cls: str, seconds: float, *, tail: bool = True) -> None:
        self.classes.setdefault(cls, []).append(seconds)
        if tail:
            self.tail.append(seconds)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def _fingerprint(table) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for column in table.columns:
        digest.update(column.name.encode())
        digest.update(column.values.tobytes())
    return digest.hexdigest()


def _join_algorithms(physical_plan) -> list[str]:
    return [str(node.algorithm.value) for node in physical_plan.walk()
            if hasattr(node, "algorithm")]


def digest_map(values: dict[str, float]) -> str:
    """A short digest of a simulated-seconds map (exact ``repr`` values)."""
    text = ";".join(f"{key}={values[key]!r}" for key in sorted(values))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Answers:
    """Results seen per (query, mode), checked against the oracle later.

    Recording one fingerprint per call is cheap; each distinct result
    table is decoded and compared once, after the timed loop.
    """

    def __init__(self) -> None:
        self.tables: dict[tuple[str, str], object] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.simulated: dict[str, set[float]] = {}
        self.algorithms: dict[str, list[str]] = {}

    def note(self, query: str, mode: str, result) -> None:
        key = (query, _fingerprint(result.table))
        self.tables.setdefault(key, result.table)
        self.calls[key] = self.calls.get(key, 0) + 1
        label = f"{query}/{mode}"
        self.simulated.setdefault(label, set()).add(result.simulated_seconds)
        if label not in self.algorithms:
            self.algorithms[label] = _join_algorithms(result.physical_plan)

    def check(self, rec: Recorder, dataset_tables) -> dict[str, float]:
        """Oracle and invariant checks; returns the simulated-seconds map."""
        want = oracle.tpch_answers(dataset_tables)
        for (query, fingerprint), table in self.tables.items():
            got = oracle.decode_result(query, table, dataset_tables)
            if not oracle.answers_match(got, want[query]):
                calls = self.calls[(query, fingerprint)]
                rec.failed += calls - 1
                rec.fail(f"{query}: answer differs from the oracle "
                         f"({calls} calls)")
        sim = {}
        for label, values in self.simulated.items():
            if len(values) != 1:
                rec.fail(f"{label}: simulated seconds vary across calls: "
                         f"{sorted(values)}")
            sim[label] = min(values)
        return sim


class TpchSession:
    """``adhoc_cold`` and ``dashboard_warm``: one session, 12 (query, mode) pairs."""

    def __init__(self, seed: int, *, warm: bool) -> None:
        self.seed = seed
        self.warm = warm
        self.answers = _Answers()
        self.pairs = list(product(QUERIES, MODES))

    def setup(self) -> None:
        self.dataset = storage.generate_tpch(SCALE_FACTOR, seed=self.seed)
        if self.warm:
            self.engine = repro_engine.HAPEEngine()
        else:
            self.engine = repro_engine.HAPEEngine(cache_budget_bytes=0)
        self.engine.register_dataset(self.dataset.tables)
        self.plans = {query: repro_workloads.build_query(query,
                                                         self.dataset).plan
                      for query in QUERIES}
        if self.warm:
            self.warmup = Recorder()
            for query, mode in self.pairs:
                self._call(query, mode, self.warmup)

    def _call(self, query: str, mode: str, rec: Recorder) -> None:
        rec.request()
        rec.attempted += 1
        started = perf_counter()
        try:
            result = self.engine.execute(self.plans[query], mode)
        except Exception as error:  # a failed call is counted, not fatal
            rec.fail(f"{query}/{mode}: {type(error).__name__}: {error}")
            return
        finished = perf_counter()
        rec.sample(query, finished - started, tail=not self.warm)
        rec.ops += 1
        self.answers.note(query, mode, result)
        rec.excluded_s += perf_counter() - finished
        rec.add("morsels", result.morsels_dispatched)
        rec.add("cache_hits", result.cache.hits)
        rec.add("cache_lookups", result.cache.lookups)
        rec.add("cache_evicted", result.cache.evicted)
        rec.q_errors.append(result.cardinality.median_q_error)

    def prepare(self) -> None:
        """Oracle work done before the loop (none: answers are checked after)."""

    def cache_bytes(self) -> int:
        return self.engine.cache_stats.bytes_used

    def run_pass(self, rng, rec: Recorder) -> None:
        pairs = list(self.pairs)
        rng.shuffle(pairs)
        started, excluded_before = perf_counter(), rec.excluded_s
        for query, mode in pairs:
            self._call(query, mode, rec)
        if self.warm:
            # A dashboard user waits for the whole refresh: the latency
            # tail is taken over passes, not single queries.
            rec.tail.append(perf_counter() - started
                            - (rec.excluded_s - excluded_before))

    def check(self, rec: Recorder) -> dict:
        if self.warm:
            rec.merge(self.warmup)
        sim = self.answers.check(rec, self.dataset.tables)
        self._check_modes_agree(rec)
        lineitem_rows = self.dataset.table("lineitem").num_rows
        props = {
            "lineitem_rows": lineitem_rows,
            "morsel_rows": self.engine.morsel_rows,
            "morsels_per_lineitem_chain": storage.morsel_count(
                lineitem_rows, self.engine.morsel_rows),
            "workers": self.engine.workers,
            "join_algorithms": self.answers.algorithms,
        }
        stats = self.engine.cache_stats
        props["cache"] = {"budget_bytes": stats.budget_bytes,
                          "bytes_used": stats.bytes_used,
                          "entries": stats.entries,
                          "hits": stats.hits, "misses": stats.misses,
                          "evicted": stats.evicted}
        return {"simulated_seconds": sim, "properties": props}

    def _check_modes_agree(self, rec: Recorder) -> None:
        tables = self.dataset.tables
        by_query: dict[str, list] = {}
        for (query, _), table in self.answers.tables.items():
            by_query.setdefault(query, []).append(
                oracle.decode_result(query, table, tables))
        for query, answers in by_query.items():
            if not all(oracle.answers_match(a, answers[0]) for a in answers):
                rec.fail(f"{query}: cpu, hybrid and gpu answers differ")


class ServeRefresh:
    """``serve_refresh``: four closed-loop tenants and a refreshed table."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.answers = _Answers()
        self.invalidated: list[int] = []

    def setup(self) -> None:
        self.dataset = storage.generate_tpch(SCALE_FACTOR, seed=self.seed)
        self.server = repro_server.QueryServer()
        self.server.register_dataset(self.dataset.tables)
        for mode in TENANT_MODES:
            self.server.open_session(mode, max_concurrency=1)
        self.plans = {query: repro_workloads.build_query(query,
                                                         self.dataset).plan
                      for query in QUERIES}
        self.warmup = Recorder()
        self._epoch(None, self.warmup)

    def _epoch(self, rng, rec: Recorder) -> None:
        submissions = list(product(TENANT_MODES, QUERIES))
        if rng is not None:
            rng.shuffle(submissions)
        tickets = []
        rec.request()
        started = perf_counter()
        for tenant, query in submissions:
            rec.attempted += 1
            try:
                tickets.append((query, self.server.submit(
                    tenant, self.plans[query], tenant, label=query)))
            except Exception as error:
                rec.fail(f"submit {tenant}/{query}: {error}")
        try:
            self.server.run()
        except Exception as error:
            rec.fail(f"run: {type(error).__name__}: {error}")
            return
        finished = perf_counter()
        rec.sample("epoch", finished - started)
        for query, ticket in tickets:
            if ticket.status != "completed" or ticket.result is None:
                rec.fail(f"{ticket.tenant}/{query}: ticket {ticket.status}")
                continue
            rec.ops += 1
            self.answers.note(query, ticket.final_mode, ticket.result)
            rec.add("morsels", ticket.result.morsels_dispatched)
            rec.add("shared_hits", ticket.cache.hits)
            rec.add("shared_lookups", ticket.cache.lookups)
            rec.add("cache_evicted", ticket.cache.evicted)
            rec.q_errors.append(ticket.result.cardinality.median_q_error)
        rec.excluded_s += perf_counter() - finished

    def refresh(self, rec: Recorder) -> None:
        customer = self.dataset.table("customer")
        table = storage.Table(customer.name, list(customer.columns),
                              location=customer.location)
        before = self.server.query_cache.stats().invalidated
        rec.request()
        rec.attempted += 1
        started = perf_counter()
        try:
            self.server.register_table(table, replace=True)
        except Exception as error:
            rec.fail(f"refresh: {type(error).__name__}: {error}")
            return
        rec.sample("refresh", perf_counter() - started, tail=False)
        invalidated = self.server.query_cache.stats().invalidated - before
        self.invalidated.append(invalidated)
        rec.add("invalidated", invalidated)
        rec.add("refreshes", 1)

    def prepare(self) -> None:
        """Oracle work done before the loop (none: answers are checked after)."""

    def cache_bytes(self) -> int:
        return self.server.query_cache.stats().bytes_used

    def run_pass(self, rng, rec: Recorder) -> None:
        self.refresh(rec)
        self._epoch(rng, rec)

    def check(self, rec: Recorder) -> dict:
        rec.merge(self.warmup)
        served = self.answers.check(rec, self.dataset.tables)
        # Solo reference: a private session must charge every (query, mode)
        # the same simulated seconds the served tickets were charged.
        solo_engine = repro_engine.HAPEEngine()
        solo_engine.register_dataset(self.dataset.tables)
        solo = {}
        for query, mode in product(QUERIES, MODES):
            try:
                solo[f"{query}/{mode}"] = solo_engine.execute(
                    self.plans[query], mode).simulated_seconds
            except Exception as error:
                rec.fail(f"solo {query}/{mode}: {type(error).__name__}: "
                         f"{error}")
        for label, seconds in served.items():
            if solo.get(label) != seconds:
                rec.fail(f"{label}: served simulated seconds {seconds!r} "
                         f"!= solo {solo.get(label)!r}")
        stats = self.server.query_cache.stats()
        lookups = rec.fields.get("shared_lookups", 0)
        props = {
            "tickets_per_epoch": len(TENANT_MODES) * len(QUERIES),
            "invalidated_per_refresh": (statistics.median(self.invalidated)
                                        if self.invalidated else 0),
            "shared_cache_hit_ratio": (rec.fields.get("shared_hits", 0)
                                       / max(lookups, 1)),
            "shared_cache_lookups": lookups,
            "cache": {"budget_bytes": stats.budget_bytes,
                      "bytes_used": stats.bytes_used,
                      "entries": stats.entries},
            "join_algorithms": self.answers.algorithms,
        }
        return {"simulated_seconds": solo, "properties": props}


class JoinSweep:
    """``join_sweep``: every join implementation on one 1M x 1M key pair."""

    #: Variant -> (``repro.operators`` function, device or GPU count).
    VARIANTS = {
        "non_partitioned_cpu": ("non_partitioned_join", "cpu"),
        "non_partitioned_gpu": ("non_partitioned_join", "gpu"),
        "radix_cpu": ("cpu_radix_join", "cpu"),
        "partitioned_gpu": ("gpu_partitioned_join", "gpu"),
        "coprocessed_1gpu": ("coprocessed_radix_join", 1),
        "coprocessed_2gpu": ("coprocessed_radix_join", 2),
    }

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.simulated: dict[str, set[float]] = {}

    def setup(self) -> None:
        pair = storage.make_join_pair(JOIN_ROWS, seed=self.seed)
        # Distinct column names on the two sides keep both payloads in the
        # output, so the check can verify how rows were paired.
        self.build = {"key": pair.build.array("key"),
                      "b_payload": pair.build.array("payload")}
        self.probe = {"p_key": pair.probe.array("key"),
                      "payload": pair.probe.array("payload")}
        self.topology = hardware.default_server()

    def prepare(self) -> None:
        """Derive the expected join output from the inputs (oracle work)."""
        self.expected = oracle.JoinCheck(self.build, self.probe)

    def cache_bytes(self) -> int:
        return 0

    def _join(self, variant: str):
        """Run one variant; returns its output and simulated seconds."""
        function, target = self.VARIANTS[variant]
        join = getattr(operators, function)
        topology = self.topology
        keys = dict(build_keys=["key"], probe_keys=["p_key"])
        gpus = list(topology.gpus())
        topology.reset()
        if function == "coprocessed_radix_join":
            out = join(self.build, self.probe, topology, gpus=gpus[:target],
                       config=operators.GpuJoinConfig(), **keys)
            return out, topology.timeline().makespan
        device = topology.cpus()[0] if target == "cpu" else gpus[0]
        out = join(self.build, self.probe, device, **keys)
        return out, out.cost.seconds

    def run_pass(self, rng, rec: Recorder) -> None:
        variants = list(self.VARIANTS)
        rng.shuffle(variants)
        for variant in variants:
            rec.request()
            rec.attempted += 1
            started = perf_counter()
            try:
                out, simulated = self._join(variant)
            except Exception as error:
                rec.fail(f"{variant}: {type(error).__name__}: {error}")
                continue
            finished = perf_counter()
            rec.sample(variant, finished - started)
            rec.ops += 1
            self.simulated.setdefault(variant, set()).add(simulated)
            if not self.expected.matches(out.columns):
                rec.fail(f"{variant}: join output fails the input checksums")
            rec.excluded_s += perf_counter() - finished

    def check(self, rec: Recorder) -> dict:
        sim = {}
        for variant, values in self.simulated.items():
            if len(values) != 1:
                rec.fail(f"{variant}: simulated seconds vary: {sorted(values)}")
            sim[variant] = min(values)
        props = {"rows_per_side": JOIN_ROWS,
                 "join_algorithms": {variant: f"{function}({target})"
                                     for variant, (function, target)
                                     in self.VARIANTS.items()}}
        return {"simulated_seconds": sim, "properties": props}


def make(name: str, seed: int):
    if name == "adhoc_cold":
        return TpchSession(seed, warm=False)
    if name == "dashboard_warm":
        return TpchSession(seed, warm=True)
    if name == "serve_refresh":
        return ServeRefresh(seed)
    if name == "join_sweep":
        return JoinSweep(seed)
    raise KeyError(name)


WORKLOADS = ("adhoc_cold", "dashboard_warm", "serve_refresh", "join_sweep")

