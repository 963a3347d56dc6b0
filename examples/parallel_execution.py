#!/usr/bin/env python
"""Parallel execution: the ``workers`` knob and its determinism contract.

Runs the TPC-H suite on the simulated heterogeneous server at several
worker counts and shows the contract the engine guarantees: worker
threads only ever run pure kernel work (fused morsel chains, radix
partition passes), while every merge and every simulated-time charge
stays on the query thread in canonical plan order.  Result tables,
simulated seconds and device busy times are therefore **bit-identical
at every worker count** — threads buy wall-clock time, never different
answers.  The script ends with a ``QueryServer`` drain whose tenant
sessions run at two workers: per-ticket simulated seconds match the
single-worker drain exactly.
"""

from __future__ import annotations

import time

from repro.engine import HAPEEngine, available_cpus
from repro.hardware import default_server
from repro.server import QueryServer
from repro.storage import generate_tpch
from repro.workloads import all_queries

WORKER_COUNTS = (1, 2, "auto")


def run_suite(workers: int | str, dataset) -> tuple[dict, float]:
    """Run every TPC-H query in hybrid mode; return sims and wall-clock."""
    engine = HAPEEngine(default_server(), cache_budget_bytes=0,
                        workers=workers)
    engine.register_dataset(dataset.tables)
    start = time.perf_counter()
    sims = {}
    for name, query in all_queries(dataset).items():
        result = engine.execute(query.plan, "hybrid")
        sims[name] = (result.simulated_seconds,
                      tuple(sorted(result.device_busy.items())))
    wall = time.perf_counter() - start
    return sims, wall


def main() -> None:
    dataset = generate_tpch(scale_factor=0.02, seed=2019)
    print(f"host CPUs: {available_cpus()}\n")

    baseline = None
    for workers in WORKER_COUNTS:
        engine = HAPEEngine(default_server(), workers=workers)
        sims, wall = run_suite(workers, dataset)
        print(f"workers={workers!r:>6} (resolved {engine.workers}): "
              f"suite wall-clock {wall * 1e3:7.1f} ms")
        if baseline is None:
            baseline = sims
        else:
            assert sims == baseline, "sims must not depend on worker count"
    print("simulated seconds + device busy bit-identical "
          f"at workers in {WORKER_COUNTS}\n")

    # The knob is retunable mid-session: later queries pick up the new
    # worker count, and because merging stays canonical the results and
    # simulated times still match the single-worker run exactly.
    engine = HAPEEngine(default_server(), workers=1)
    engine.register_dataset(dataset.tables)
    q6 = all_queries(dataset)["Q6"].plan
    solo = engine.execute(q6, "hybrid").simulated_seconds
    engine.workers = 2
    assert engine.execute(q6, "hybrid").simulated_seconds == solo
    print(f"retuned engine.workers=2 mid-session: Q6 sim {solo:.6f} s "
          "(unchanged)\n")

    # Serving: the server executes admitted queries one at a time (the
    # overlap between tenants lives on its occupancy board); each tenant
    # session takes the workers knob for its own kernels, and per-ticket
    # simulated seconds stay bit-identical.
    def serve(workers: int) -> dict[int, float]:
        server = QueryServer(default_server())
        server.register_dataset(dataset.tables)
        for tenant in ("analytics", "reporting"):
            server.open_session(tenant, max_concurrency=2).workers = workers
        tickets = [server.submit(tenant, query.plan, mode="hybrid")
                   for tenant in ("analytics", "reporting")
                   for query in all_queries(dataset).values()]
        server.run()
        return {t.ticket_id: t.result.simulated_seconds for t in tickets}

    serial, parallel = serve(1), serve(2)
    assert serial == parallel
    print(f"QueryServer drain: {len(serial)} tickets across 2 tenants, "
          "per-ticket sims bit-identical with tenant sessions at "
          "workers=1 and workers=2")


if __name__ == "__main__":
    main()
