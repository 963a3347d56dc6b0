"""Engine-wide invariant matrix: (workers × morsel × warm/cold).

One parametrized grid replaces the ad-hoc identity checks that used to be
scattered across ``test_morsels.py`` (morsel invariance over TPC-H) and
``test_query_cache.py`` (warm-vs-cold TPC-H timings): for **every** TPC-H
workload query in **every** device mode, every configuration of

    workers ∈ {1, 2, "auto"}
  × morsel_rows ∈ {977, engine default}
  × cache {cold, warm}

must report bit-identical outputs, bit-identical simulated seconds and
bit-identical execution stats records (per-device busy seconds and
per-link bytes) to the canonical baseline — the shipping configuration
(default morsels, one worker), cold.  These knobs tune the *real*
wall-clock/working-set behavior of the engine; nothing the paper's
figures plot may move.  The worker axis is the parallel-execution
determinism contract: worker threads run only pure kernel work, all
merging/accounting happens on the query thread in canonical plan order.

The baseline's cost side is itself pinned to :data:`PINNED_COSTS`, which
were recorded from per-node execution (every operator materializing its
own output, whole-column packets).  That pin is what keeps fused-chain
cost replay charging exactly what per-node execution charges.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import HAPEEngine
from repro.hardware import default_server
from repro.relational import execute_logical
from repro.storage import DEFAULT_MORSEL_ROWS
from repro.workloads import EVALUATED_QUERIES, build_query

MODES = ("cpu", "gpu", "hybrid")
#: A non-divisor morsel size and the default.
MORSEL_SETTINGS = (977, DEFAULT_MORSEL_ROWS)
#: Serial, genuinely threaded, and whatever the host resolves "auto" to.
WORKER_SETTINGS = (1, 2, "auto")

CONFIGS = [
    pytest.param(morsel_rows, workers,
                 id=f"morsel={morsel_rows}-workers={workers}")
    for morsel_rows in MORSEL_SETTINGS
    for workers in WORKER_SETTINGS
]

#: Per-(query, mode) cost of the TPC-H suite at SF 0.005 (seed 7), as
#: ``(simulated_seconds.hex(), sha256(repr(cost))[:16])`` where ``cost``
#: is :func:`_cost`.  Recorded from per-node execution — every operator
#: materializing its output, whole-column packets, one worker, cold.
PINNED_COSTS = {
    ("Q1", "cpu"): ("0x1.26632a99f64fap-15", "85ca9b3e1221d19c"),
    ("Q1", "gpu"): ("0x1.adc54db1d9866p-14", "047f33e1be9ebdef"),
    ("Q1", "hybrid"): ("0x1.bb9ac7b3b3893p-15", "43345501e38c0e07"),
    ("Q5", "cpu"): ("0x1.843cbb0f43782p-15", "4d7b6ef33e7d8b14"),
    ("Q5", "gpu"): ("0x1.fcdfa85f7e87dp-14", "47ac2628d59e923d"),
    ("Q5", "hybrid"): ("0x1.bb0bb0934e010p-14", "0561c65ccd881362"),
    ("Q6", "cpu"): ("0x1.871b0ea5c381ep-16", "2010535aee9cd241"),
    ("Q6", "gpu"): ("0x1.37fd12e55ddccp-14", "eb08572ccec5889a"),
    ("Q6", "hybrid"): ("0x1.26f9089d0fdd4p-15", "a916638c056e6b81"),
    ("Q9", "cpu"): ("0x1.67a2937d1d095p-13", "5a2634f2cfc7d8e4"),
    ("Q9", "gpu"): ("0x1.916da15fa3e2bp-13", "2070b028e75d217d"),
    ("Q9", "hybrid"): ("0x1.106f9fca4f81dp-12", "50307c8d194aea68"),
}


def _cost(result) -> tuple:
    """The cost side of a run: simulated seconds, busy times, link bytes."""
    return (
        result.simulated_seconds,
        tuple(sorted(result.device_busy.items())),
        tuple(sorted(result.link_bytes.items())),
    )


def _record(result) -> tuple:
    """Everything a configuration must reproduce bit for bit."""
    return (
        result.simulated_seconds,
        tuple(sorted((name, result.table.array(name).tobytes(),
                      str(result.table.array(name).dtype))
                     for name in result.table.column_names)),
        tuple(sorted(result.device_busy.items())),
        tuple(sorted(result.link_bytes.items())),
    )


@pytest.fixture(scope="module")
def baseline(tpch_dataset):
    """Canonical per-(query, mode) records: shipping configuration, cold."""
    engine = HAPEEngine(default_server(), workers=1, cache_budget_bytes=0)
    engine.register_dataset(tpch_dataset.tables)
    records = {}
    references = {}
    costs = {}
    for query_name in EVALUATED_QUERIES:
        query = build_query(query_name, tpch_dataset)
        references[query_name] = execute_logical(query.plan, engine.catalog)
        for mode in MODES:
            result = engine.execute(query.plan, mode)
            records[(query_name, mode)] = _record(result)
            costs[(query_name, mode)] = (
                result.simulated_seconds.hex(),
                hashlib.sha256(repr(_cost(result)).encode()).hexdigest()[:16])
    return records, references, costs


def test_baseline_costs_match_per_node_execution(baseline):
    _, _, costs = baseline
    assert costs == PINNED_COSTS


@pytest.mark.parametrize("morsel_rows,workers", CONFIGS)
def test_tpch_grid_is_bit_identical(tpch_dataset, baseline, morsel_rows,
                                    workers):
    records, references, _ = baseline
    engine = HAPEEngine(default_server(), morsel_rows=morsel_rows,
                        workers=workers)
    engine.register_dataset(tpch_dataset.tables)
    for query_name in EVALUATED_QUERIES:
        query = build_query(query_name, tpch_dataset)
        for mode in MODES:
            context = (f"{query_name}/{mode} morsel_rows={morsel_rows} "
                       f"workers={workers} (resolved={engine.workers})")
            cold = engine.execute(query.plan, mode)
            assert _record(cold) == records[(query_name, mode)], (
                f"{context}: cold run diverged from the canonical baseline")
            warm = engine.execute(query.plan, mode)
            assert _record(warm) == records[(query_name, mode)], (
                f"{context}: warm run diverged from the canonical baseline")
            # Warm runs are functionally served by the session cache:
            # no kernel ran, so no morsels were dispatched — while the
            # records above prove the timings never notice.
            assert warm.morsels_dispatched == 0, (
                f"{context}: warm run dispatched morsels")
            # The engine output also matches the reference oracle row for
            # row — the canonical join output order makes engine results
            # order-identical to the reference, not just set-identical.
            assert cold.table.equals(references[query_name],
                                     check_order=True), (
                f"{context}: engine output diverged from the reference")


# ----------------------------------------------------------------------
# Serving-layer invariance: arrival pattern × tenant-session workers
# ----------------------------------------------------------------------
#: How the same 12 (query, mode) submissions reach the server: all before
#: run() (the PR 5 drain), as a seeded Poisson stream, or as a recorded
#: trace — open-loop arrivals may only add queue wait, never change what
#: any single query computes or charges.
ARRIVAL_PATTERNS = ("drain", "poisson", "trace")
SERVE_WORKERS = (1, 2)

SERVE_CONFIGS = [
    pytest.param(pattern, workers, id=f"arrivals={pattern}-workers={workers}")
    for pattern in ARRIVAL_PATTERNS
    for workers in SERVE_WORKERS
]


@pytest.mark.parametrize("pattern,workers", SERVE_CONFIGS)
def test_served_grid_is_bit_identical(tpch_dataset, baseline, pattern,
                                      workers):
    """Every served query's record matches the canonical solo baseline,
    however it arrived and however many pool workers each tenant
    session ran."""
    from repro.server import Arrival, QueryServer, trace_arrivals

    records, _, _ = baseline
    server = QueryServer(default_server(),
                         preemption=True, aging_seconds=2e-4)
    server.register_dataset(tpch_dataset.tables)
    tenants = ("inter", "norm", "batch")
    server.open_session("inter", priority="interactive", max_concurrency=2)
    server.open_session("norm", priority="normal", max_concurrency=2)
    server.open_session("batch", priority="batch", max_concurrency=2)
    for tenant in tenants:
        server.session(tenant).workers = workers
    jobs = []
    for index, query_name in enumerate(EVALUATED_QUERIES):
        plan = build_query(query_name, tpch_dataset).plan
        for offset, mode in enumerate(MODES):
            tenant = tenants[(index + offset) % len(tenants)]
            label = f"{query_name}/{mode}"
            jobs.append((tenant, plan, mode, label, (query_name, mode)))

    if pattern == "drain":
        for tenant, plan, mode, label, _ in jobs:
            server.submit(tenant, plan, mode, label=label)
    elif pattern == "poisson":
        rng = np.random.default_rng(20260808)
        arrivals: dict[str, list] = {tenant: [] for tenant in tenants}
        at = 0.0
        for tenant, plan, mode, label, _ in jobs:
            at += float(rng.exponential(3e-5))
            arrivals[tenant].append(Arrival(at=at, tenant=tenant, plan=plan,
                                            mode=mode, label=label))
        for tenant in tenants:
            server.add_arrivals(arrivals[tenant])
    else:
        for tenant in tenants:
            trace = [(index * 2e-5, plan, mode)
                     for index, (job_tenant, plan, mode, _, _)
                     in enumerate(jobs) if job_tenant == tenant]
            server.add_arrivals(trace_arrivals(tenant, trace))

    report = server.run()
    assert report.completed == len(jobs)
    for ticket in report.tickets:
        if pattern == "trace":
            # trace_arrivals assigns its own tenant-indexed labels; map
            # the ticket back through its plan and mode instead.
            key = next((query_name, mode)
                       for _, plan, mode, _, (query_name, _) in jobs
                       if plan is ticket.plan and mode == ticket.mode)
        else:
            key = next(job_key for _, _, _, label, job_key in jobs
                       if label == ticket.label)
        context = (f"{key[0]}/{key[1]} arrivals={pattern} workers={workers} "
                   f"tenant={ticket.tenant}")
        assert _record(ticket.result) == records[key], (
            f"{context}: served record diverged from the solo baseline")
        assert ticket.start_time >= ticket.submit_time, (
            f"{context}: query started before it arrived")
