"""Worker-pool semantics and race-stress tests for the shared subsystems.

The determinism contract (outputs bit-identical at every worker count) is
pinned by ``test_invariants.py`` / ``test_fuzz_plans.py``; this module
covers the rest: the ``workers`` knob surface, the ordered-merge pool
itself, that pool tasks never charge the hardware ledgers (clocks, link
bytes, memory pools), and — under genuine thread contention — that
the lock-protected shared state (:class:`QueryCache`,
:class:`SharedQueryCache`, :class:`OccupancyBoard`, :class:`Catalog`)
never loses or double-counts an update: counters reconcile exactly
against what the threads actually did.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.engine import HAPEEngine, QueryCache, WorkerPool
from repro.engine.workers import (
    WORKERS_ENV,
    available_cpus,
    default_workers,
    resolve_workers,
)
from repro.hardware import default_server
from repro.server.sharedcache import SharedQueryCache
from repro.storage import Table

#: Threads used by the race-stress tests.  More threads than cores is the
#: point: preemption inside compound cache/board operations is what these
#: tests are hunting.
STRESS_THREADS = 8
#: Operations per thread; enough to interleave, small enough to stay fast.
STRESS_OPS = 300


def _hammer(worker, threads: int = STRESS_THREADS) -> None:
    """Run ``worker(thread_index)`` on N threads through a start barrier."""
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(index,))
            for index in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------
# The knob
# ----------------------------------------------------------------------
class TestWorkersKnob:
    def test_resolve_accepts_ints_strings_and_auto(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        assert resolve_workers("3") == 3
        assert resolve_workers("auto") == available_cpus()

    @pytest.mark.parametrize("bad", [0, -2, True, False, 1.5, "fast", ""])
    def test_resolve_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)

    def test_default_is_one_without_environment(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1
        assert HAPEEngine(default_server()).workers == 1

    def test_environment_supplies_the_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3
        assert HAPEEngine(default_server()).workers == 3
        # An explicit knob always beats the environment.
        assert HAPEEngine(default_server(), workers=2).workers == 2

    def test_knob_is_retunable_and_validated(self):
        engine = HAPEEngine(default_server(), workers=2)
        assert engine.workers == 2
        assert engine.executor.pool.parallel
        engine.workers = 1
        assert engine.workers == 1
        assert not engine.executor.pool.parallel
        engine.workers = "auto"
        assert engine.workers == available_cpus()
        with pytest.raises(ValueError):
            engine.workers = 0
        with pytest.raises(ValueError):
            HAPEEngine(default_server(), workers="plenty")


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_single_worker_runs_inline(self):
        pool = WorkerPool(1)
        seen = []
        pool.map_ordered(lambda i: seen.append(threading.get_ident()),
                         range(4))
        assert seen == [threading.get_ident()] * 4

    def test_map_ordered_returns_submission_order(self):
        pool = WorkerPool(4)
        # Earlier items sleep longer: completion order is the reverse of
        # submission order, results must still come back in item order.
        delays = [0.03, 0.02, 0.01, 0.0]

        def work(index: int) -> int:
            time.sleep(delays[index])
            return index * 10

        assert pool.map_ordered(work, range(4)) == [0, 10, 20, 30]

    def test_map_ordered_propagates_exceptions(self):
        pool = WorkerPool(2)

        def work(index: int) -> int:
            if index == 1:
                raise RuntimeError("boom")
            return index

        with pytest.raises(RuntimeError, match="boom"):
            pool.map_ordered(work, range(3))

    @pytest.mark.parametrize("count,workers", [
        (0, 4), (1, 4), (3, 4), (4, 4), (5, 4), (97, 4), (10, 1),
    ])
    def test_chunks_partition_the_range_exactly(self, count, workers):
        chunks = WorkerPool(max(workers, 1)).chunks(count)
        assert len(chunks) <= max(workers, 1)
        flattened = [index for chunk in chunks for index in chunk]
        assert flattened == list(range(count))


# ----------------------------------------------------------------------
# Race stress: the session cache
# ----------------------------------------------------------------------
class TestQueryCacheRaces:
    def test_mixed_put_get_invalidate_reconciles_exactly(self):
        cache = QueryCache(budget_bytes=None)
        invalidated = [0] * STRESS_THREADS
        gets = [0] * STRESS_THREADS

        def worker(index: int) -> None:
            rng = np.random.default_rng(index)
            for op in range(STRESS_OPS):
                key = ("k", int(rng.integers(0, 24)))
                kind = op % 3
                if kind == 0:
                    value = {"x": np.arange(4, dtype=np.int64)}
                    cache.put(key, value, nbytes=32,
                              tables=frozenset({f"t{key[1] % 4}"}))
                elif kind == 1:
                    cache.get(key)
                    gets[index] += 1
                else:
                    invalidated[index] += cache.invalidate_table(
                        f"t{int(rng.integers(0, 4))}")

        _hammer(worker)
        counters = cache.counters()
        # Every get counted exactly one hit or miss; nothing was lost to a
        # torn counter update.
        assert counters.lookups == counters.hits + counters.misses
        assert counters.lookups == sum(gets)
        # Every invalidation a thread was told about is in the counter —
        # and nothing more.
        assert counters.invalidated == sum(invalidated)
        # No budget, no evictions: the counter cannot drift.
        assert counters.evicted == 0
        # The byte ledger matches the live entries exactly.
        assert cache.bytes_used == sum(
            entry.nbytes for entry in cache._entries.values())
        assert len(cache) == len(cache._entries)

    def test_eviction_ledger_survives_contention(self):
        # Budget of 4 entries' worth: concurrent puts force constant
        # eviction; the byte ledger must never go negative or leak.
        cache = QueryCache(budget_bytes=128)

        def worker(index: int) -> None:
            for op in range(STRESS_OPS):
                key = (index, op % 40)
                cache.put(key, {"x": np.arange(4, dtype=np.int64)},
                          nbytes=32)
                cache.get(key)

        _hammer(worker)
        assert 0 <= cache.bytes_used <= 128
        assert cache.bytes_used == sum(
            entry.nbytes for entry in cache._entries.values())

    def test_cached_arrays_stay_frozen_under_concurrent_gets(self):
        cache = QueryCache(budget_bytes=None)
        cache.put("k", {"x": np.arange(8, dtype=np.int64)}, nbytes=64)

        def worker(index: int) -> None:
            for _ in range(STRESS_OPS):
                value = cache.get("k")
                assert value is not None
                array = value["x"]
                assert array.flags.writeable is False
                with pytest.raises(ValueError):
                    array[0] = 99

        _hammer(worker)
        assert int(cache.get("k")["x"][0]) == 0


# ----------------------------------------------------------------------
# Race stress: the shared (multi-tenant) cache
# ----------------------------------------------------------------------
class TestSharedQueryCacheRaces:
    def test_unbracketed_traffic_is_not_attributed(self):
        cache = SharedQueryCache(budget_bytes=None)

        def worker(index: int) -> None:
            for op in range(STRESS_OPS):
                cache.get(("anon", index, op))

        _hammer(worker)
        assert cache.tenant_counters() == {}
        assert cache.counters().misses == STRESS_THREADS * STRESS_OPS


# ----------------------------------------------------------------------
# The hardware ledgers are charged on the query thread only
# ----------------------------------------------------------------------
class TestLedgersStayOnTheQueryThread:
    """Pool tasks transform data; only the query thread charges hardware.

    This is what lets device clocks, link byte counters and memory pools
    be plain attributes: a pool task that reserved clock time, moved
    link bytes or checked and allocated device memory would race the
    query thread on the same ledger.
    """

    @pytest.mark.parametrize("mode", ["hybrid", "gpu"])
    @pytest.mark.parametrize("query", ["Q5", "Q9"])
    def test_pool_tasks_never_charge_hardware(self, tpch_dataset,
                                              monkeypatch, query, mode):
        from repro.engine.optimizer import OptimizerOptions
        from repro.hardware.clock import SimClock
        from repro.hardware.interconnect import Link
        from repro.hardware.memory import MemoryPool
        from repro.relational.physical import JoinAlgorithm, PJoin
        from repro.workloads import build_query

        charged: list[tuple[str, int]] = []
        pool_threads: list[int] = []

        def recording(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                charged.append((name, threading.get_ident()))
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        recording(SimClock, "reserve")
        recording(Link, "transfer")
        recording(MemoryPool, "allocate")
        recording(MemoryPool, "can_fit")
        map_ordered = WorkerPool.map_ordered

        def traced_map(self, fn, items):
            def task(item):
                pool_threads.append(threading.get_ident())
                return fn(item)
            return map_ordered(self, task, items)
        monkeypatch.setattr(WorkerPool, "map_ordered", traced_map)

        # Small builds are partitioned, so radix and GPU-partitioned
        # passes run on the pool alongside the fused morsel streams.
        engine = HAPEEngine(default_server(), workers=2, morsel_rows=997,
                            cache_budget_bytes=0,
                            optimizer_options=OptimizerOptions(
                                small_build_rows=2))
        engine.register_dataset(tpch_dataset.tables)
        plan = build_query(query, tpch_dataset).plan
        physical = engine.plan(plan, mode)
        algorithms = {node.algorithm for node in physical.walk()
                      if isinstance(node, PJoin)}
        assert algorithms & {JoinAlgorithm.RADIX_GPU,
                             JoinAlgorithm.COPROCESSED_RADIX}
        engine.execute(plan, mode)

        query_thread = threading.get_ident()
        assert set(pool_threads) - {query_thread}, (
            "no pool task ran off the query thread")
        names = {name for name, _ in charged}
        assert {"reserve", "transfer"} <= names
        assert names & {"allocate", "can_fit"}
        off_thread = {name for name, ident in charged
                      if ident != query_thread}
        assert not off_thread, f"charged from a pool thread: {off_thread}"


# ----------------------------------------------------------------------
# Race stress: the occupancy board
# ----------------------------------------------------------------------
class TestOccupancyBoardRaces:
    def test_reservations_are_atomic_and_lossless(self):
        board = default_server().occupancy
        duration = 0.001

        def worker(index: int) -> None:
            for op in range(STRESS_OPS):
                # Two-resource reservations: atomicity means both
                # resources are always booked together at a common start.
                resources = (("cpu0", "gpu0") if (index + op) % 2
                             else ("cpu1", "gpu1"))
                board.reserve({name: duration for name in resources},
                              label=f"t{index}")

        _hammer(worker)
        total = STRESS_THREADS * STRESS_OPS
        expected = (total // 2) * duration
        for pair in (("cpu0", "gpu0"), ("cpu1", "gpu1")):
            for name in pair:
                # No reservation was lost or double-booked: busy time is
                # exactly ops x duration (floats: sums of equal addends).
                assert board.busy_time(name) == pytest.approx(
                    expected, rel=1e-9)
            # Atomic co-booking: both resources of a pair always moved
            # together, so their ledgers agree exactly.
            assert board.busy_time(pair[0]) == board.busy_time(pair[1])
            assert (board.clock(pair[0]).available_at
                    == board.clock(pair[1]).available_at)


# ----------------------------------------------------------------------
# Race stress: catalog invalidation delivery (regression)
# ----------------------------------------------------------------------
def _table(name: str, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_arrays(name, {
        "k": rng.integers(0, 8, 16, dtype=np.int64)})


class TestCatalogConcurrency:
    def test_concurrent_registrations_get_unique_versions(self):
        from repro.storage.catalog import Catalog
        catalog = Catalog()

        def worker(index: int) -> None:
            for op in range(50):
                catalog.register(_table(f"t{index}_{op}", seed=index))

        _hammer(worker)
        versions = list(catalog.table_versions.values())
        # The version bump is atomic: no two registrations ever observed
        # the same counter value.
        assert len(versions) == STRESS_THREADS * 50
        assert len(set(versions)) == len(versions)

    def test_invalidation_delivery_is_monotonic_under_replacement(self):
        """Regression: ``subscribe`` delivery races with ``register``.

        Before the catalog lock, a replace could bump the version while
        another thread's notification was still in flight, letting a
        subscriber observe versions out of order (and caches invalidate
        against the wrong generation).  Delivery is now atomic with the
        bump, so the versions a subscriber observes are strictly
        increasing.
        """
        from repro.storage.catalog import Catalog
        catalog = Catalog()
        catalog.register(_table("shared"))
        observed: list[int] = []
        catalog.subscribe(
            lambda name: observed.append(catalog.version(name)))

        def worker(index: int) -> None:
            for op in range(100):
                catalog.register(_table("shared", seed=index * 100 + op),
                                 replace=True)

        _hammer(worker)
        assert len(observed) == STRESS_THREADS * 100
        assert observed == sorted(observed)
        assert len(set(observed)) == len(observed)

    def test_sessions_observe_versions_monotonically(self):
        """Concurrent readers never see the version counter move backwards."""
        from repro.storage.catalog import Catalog
        catalog = Catalog()
        catalog.register(_table("shared"))
        stop = threading.Event()
        histories: dict[int, list[int]] = {}

        def worker(index: int) -> None:
            if index == 0:
                for op in range(200):
                    catalog.register(_table("shared", seed=op),
                                     replace=True)
                stop.set()
                return
            history: list[int] = []
            while not stop.is_set():
                history.append(catalog.version("shared"))
            histories[index] = history

        _hammer(worker, threads=4)
        for index, history in histories.items():
            assert history == sorted(history), (
                f"reader {index} observed versions out of order")
