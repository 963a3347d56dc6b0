"""Integration tests: the HAPE engine on the paper's TPC-H queries.

Every query of Section 6.4 (Q1, Q5, Q6, Q9*) is executed in all three
configurations (CPU-only, GPU-only, hybrid) and the functional results are
checked against the reference executor.
"""

from __future__ import annotations

import pytest

from repro.engine import ExecutionMode, HAPEEngine
from repro.errors import OptimizerError
from repro.hardware import cpu_only_server, default_server
from repro.relational import (
    JoinAlgorithm,
    agg_sum,
    col,
    count_operators,
    execute_logical,
    lit,
    scan,
)
from repro.storage import generate_tpch
from repro.workloads import EVALUATED_QUERIES, all_queries, build_query

MODES = ("cpu", "gpu", "hybrid")


class TestTPCHCorrectness:
    @pytest.mark.parametrize("query_name", EVALUATED_QUERIES)
    @pytest.mark.parametrize("mode", MODES)
    def test_query_matches_reference(self, engine, tpch_dataset, query_name, mode):
        query = build_query(query_name, tpch_dataset)
        reference = execute_logical(query.plan, engine.catalog)
        result = engine.execute(query.plan, mode)
        assert result.table.equals(reference, check_order=False)
        assert result.simulated_seconds > 0.0

    def test_q1_has_four_groups(self, engine, tpch_dataset):
        query = build_query("Q1", tpch_dataset)
        result = engine.execute(query.plan, "hybrid")
        assert 3 <= result.table.num_rows <= 4
        assert "sum_disc_price" in result.table.column_names

    def test_q6_returns_single_revenue_value(self, engine, tpch_dataset):
        query = build_query("Q6", tpch_dataset)
        result = engine.execute(query.plan, "cpu")
        assert result.table.num_rows == 1
        assert float(result.table.array("revenue")[0]) > 0.0

    def test_q5_groups_are_asian_nations(self, engine, tpch_dataset):
        query = build_query("Q5", tpch_dataset)
        result = engine.execute(query.plan, "hybrid")
        asia_nations = {
            code for code, (name, region) in enumerate(
                zip(tpch_dataset.table("nation").column("n_name").decoded(),
                    [r for _, r in __import__("repro.storage.tpch",
                                              fromlist=["NATIONS"]).NATIONS]))
            if region == "ASIA"
        }
        # All reported nation codes must map to nations in ASIA.
        dictionary = tpch_dataset.table("nation").column("n_name").dictionary
        names = tpch_dataset.table("nation").column("n_name").decoded()
        regions = [r for _, r in __import__("repro.storage.tpch",
                                            fromlist=["NATIONS"]).NATIONS]
        asia_codes = {dictionary.code(name) for name, region
                      in zip(names, regions) if region == "ASIA"}
        assert set(result.table.array("n_name").tolist()) <= asia_codes

    def test_q9_groups_by_nation_and_year(self, engine, tpch_dataset):
        query = build_query("Q9", tpch_dataset)
        result = engine.execute(query.plan, "cpu")
        assert "o_year" in result.table.column_names
        years = set(result.table.array("o_year").tolist())
        assert years <= set(range(1992, 1999))

    def test_q9_partsupp_build_takes_the_hash_tier(self, monkeypatch):
        """Q9's folded ``(ps_partkey, ps_suppkey)`` build is unique but far
        too sparse for the direct-address table: it must hash, not sort."""
        from repro.operators import hashjoin

        dataset = generate_tpch(scale_factor=0.01, seed=7)
        engine = HAPEEngine(default_server(), cache_budget_bytes=0)
        engine.register_dataset(dataset.tables)
        tiers: dict[tuple[str, ...], str] = {}
        build = hashjoin.HashJoinBuild.__init__

        def spy(self, columns, *, build_keys):
            build(self, columns, build_keys=build_keys)
            tiers[tuple(build_keys)] = self.index.tier

        monkeypatch.setattr(hashjoin.HashJoinBuild, "__init__", spy)
        query = build_query("Q9", dataset)
        result = engine.execute(query.plan, "cpu")
        assert tiers[("ps_partkey", "ps_suppkey")] == "hash"
        assert result.table.equals(execute_logical(query.plan, engine.catalog),
                                   check_order=False)


class TestModesAndTiming:
    def test_all_queries_run_in_all_modes(self, engine, tpch_dataset):
        for query in all_queries(tpch_dataset).values():
            times = {mode: engine.execute(query.plan, mode).simulated_seconds
                     for mode in MODES}
            assert all(seconds > 0 for seconds in times.values())

    def test_gpu_mode_moves_bytes_over_pcie(self, engine, tpch_dataset):
        query = build_query("Q6", tpch_dataset)
        result = engine.execute(query.plan, "gpu")
        assert sum(result.link_bytes.values()) > 0

    def test_cpu_mode_uses_no_gpu_time(self, engine, tpch_dataset):
        query = build_query("Q6", tpch_dataset)
        result = engine.execute(query.plan, "cpu")
        assert result.device_busy.get("gpu0", 0.0) == 0.0
        assert result.device_busy.get("cpu0", 0.0) > 0.0

    def test_hybrid_uses_both_device_kinds(self, engine, tpch_dataset):
        query = build_query("Q1", tpch_dataset)
        result = engine.execute(query.plan, "hybrid")
        assert result.device_busy.get("cpu0", 0.0) > 0.0
        assert result.device_busy.get("gpu0", 0.0) > 0.0

    def test_query_result_describe(self, engine, tpch_dataset):
        result = engine.execute(build_query("Q6", tpch_dataset).plan, "hybrid")
        text = result.describe()
        assert "mode=hybrid" in text
        assert "rows=1" in text

    def test_explain_lists_exchange_operators(self, engine, tpch_dataset):
        text = engine.explain(build_query("Q6", tpch_dataset).plan, "gpu")
        assert "Router" in text
        assert "MemMove" in text
        assert "pipeline#" in text


class TestOptimizerDecisions:
    def test_mode_parsing(self):
        assert ExecutionMode.parse("cpu") is ExecutionMode.CPU_ONLY
        assert ExecutionMode.parse(ExecutionMode.HYBRID) is ExecutionMode.HYBRID
        with pytest.raises(ValueError):
            ExecutionMode.parse("tpu")

    def test_gpu_mode_requires_gpus(self, tpch_dataset):
        engine = HAPEEngine(cpu_only_server())
        engine.register_dataset(tpch_dataset.tables)
        query = build_query("Q6", tpch_dataset)
        with pytest.raises(OptimizerError):
            engine.execute(query.plan, "gpu")
        # CPU-only still works without accelerators.
        assert engine.execute(query.plan, "cpu").table.num_rows == 1

    def test_join_algorithm_selection_respects_build_size(self, tpch_dataset):
        """Large build sides trigger partitioned / co-processed joins."""
        from repro.engine import OptimizerOptions
        engine = HAPEEngine(
            default_server(),
            optimizer_options=OptimizerOptions(small_build_rows=10))
        engine.register_dataset(tpch_dataset.tables)
        plan = scan("orders").join(
            scan("lineitem", ["l_orderkey", "l_extendedprice"]),
            ["o_orderkey"], ["l_orderkey"]).aggregate(
                [], [agg_sum(col("l_extendedprice"), "s")])
        cpu_plan = engine.plan(plan, "cpu")
        algorithms = {node.algorithm for node in cpu_plan.walk()
                      if hasattr(node, "algorithm")}
        assert JoinAlgorithm.RADIX_CPU in algorithms
        hybrid_plan = engine.plan(plan, "hybrid")
        algorithms = {node.algorithm for node in hybrid_plan.walk()
                      if hasattr(node, "algorithm")}
        assert JoinAlgorithm.COPROCESSED_RADIX in algorithms

    def test_small_builds_use_non_partitioned_joins(self, engine, tpch_dataset):
        physical = engine.plan(build_query("Q5", tpch_dataset).plan, "cpu")
        algorithms = [node.algorithm for node in physical.walk()
                      if hasattr(node, "algorithm")]
        assert JoinAlgorithm.NON_PARTITIONED in algorithms

    def test_physical_plan_contains_routers_per_scan(self, engine, tpch_dataset):
        physical = engine.plan(build_query("Q5", tpch_dataset).plan, "hybrid")
        ops = count_operators(physical)
        assert ops["Router"] >= ops["PScan"]
        assert ops["PAggregate"] >= 2  # partial + final
