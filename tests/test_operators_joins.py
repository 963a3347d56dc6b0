"""Tests for every join algorithm against the semantic reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.operators import (
    GpuJoinConfig,
    HashJoinBuild,
    coprocessed_radix_join,
    cpu_radix_join,
    gpu_partitioned_join,
    join_match_indices,
    max_fanout,
    non_partitioned_join,
    plan_partition_passes,
    probe_phase_cost,
    radix_partition,
)
from repro.operators.hashjoin import _materialize_join
from repro.relational import join_indices
from repro.storage import make_join_pair, make_partial_match_pair


def _sorted_pairs(build_idx, probe_idx):
    return sorted(zip(build_idx.tolist(), probe_idx.tolist()))


class TestJoinMatchIndices:
    def test_matches_reference_on_duplicates(self):
        build = np.asarray([1, 2, 2, 3, 5])
        probe = np.asarray([2, 2, 3, 4, 1, 1])
        got = join_match_indices(build, probe)
        expected = join_indices([build], [probe])
        assert _sorted_pairs(*got) == _sorted_pairs(*expected)

    def test_empty_inputs(self):
        build_idx, probe_idx = join_match_indices(np.asarray([]), np.asarray([1, 2]))
        assert len(build_idx) == 0 and len(probe_idx) == 0

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=60),
           st.lists(st.integers(min_value=0, max_value=20), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_property(self, build, probe):
        build = np.asarray(build, dtype=np.int64)
        probe = np.asarray(probe, dtype=np.int64)
        got = join_match_indices(build, probe)
        expected = join_indices([build], [probe])
        assert _sorted_pairs(*got) == _sorted_pairs(*expected)


class TestProbePassthrough:
    """``HashJoinBuild.probe`` skips the probe-side gather exactly when
    every probe row matches once."""

    @staticmethod
    def _expected(build, probe):
        return _materialize_join(build, probe, *join_match_indices(
            build["bk"], probe["pk"]))

    @pytest.mark.parametrize("tier, keys", [
        ("direct", np.arange(500, dtype=np.int64)),
        ("hash", np.arange(500, dtype=np.int64) ** 3 * 7919 - 10**9)])
    def test_full_match_over_unique_keys_shares_probe_memory(self, tier,
                                                             keys):
        rng = np.random.default_rng(5)
        build = {"bk": rng.permutation(keys), "bv": rng.normal(size=500),
                 "x": np.arange(500)}
        probe = {"x": rng.normal(size=2000),
                 "pk": keys[rng.integers(0, 500, 2000)],
                 "pv": rng.integers(0, 9, 2000)}
        builder = HashJoinBuild(build, build_keys=["bk"])
        assert builder.index.tier == tier and builder.index.unique_keys
        out = builder.probe(probe, probe_keys=["pk"])
        expected = self._expected(build, probe)
        assert list(out) == list(expected)
        for name, values in expected.items():
            np.testing.assert_array_equal(out[name], values)
        for name in probe:
            assert out[name] is probe[name]
        assert not np.shares_memory(out["bv"], build["bv"])

    def test_full_count_over_duplicate_keys_gathers(self):
        build = {"bk": np.asarray([5, 5, 7]), "bv": np.asarray([1, 2, 3])}
        probe = {"pk": np.asarray([5, 7, 9]), "pv": np.asarray([10, 20, 30])}
        out = HashJoinBuild(build, build_keys=["bk"]).probe(
            probe, probe_keys=["pk"])
        assert len(out["pk"]) == len(probe["pk"])
        assert not np.shares_memory(out["pv"], probe["pv"])
        assert out["pk"].tolist() == [5, 5, 7]
        assert out["pv"].tolist() == [10, 10, 20]
        assert out["bv"].tolist() == [1, 2, 3]


class TestPartitioning:
    def test_radix_partition_preserves_rows(self, cpu):
        workload = make_join_pair(3_000, seed=5)
        parts, cost = radix_partition(workload.build.arrays(), cpu,
                                      key="key", fanout=16)
        assert len(parts) == 16
        assert sum(len(part["key"]) for part in parts) == 3_000
        assert cost.seconds > 0
        # Every tuple landed in the partition its key maps to.
        for index, part in enumerate(parts):
            if len(part["key"]):
                assert set(np.asarray(part["key"]) % 16) == {index}

    def test_partition_plan_respects_device_limits(self, cpu, gpu):
        cpu_plan = plan_partition_passes(100_000_000, 16, cpu.spec)
        gpu_plan = plan_partition_passes(100_000_000, 16, gpu.spec)
        assert all(f <= max_fanout(cpu.spec) for f in cpu_plan.fanout_per_pass)
        assert all(f <= max_fanout(gpu.spec) for f in gpu_plan.fanout_per_pass)
        # The final partitions fit in the target memory of each device.
        assert cpu_plan.final_partition_tuples * 16 * 2 \
            <= cpu.spec.cache("L2").capacity_bytes * 1.01
        assert gpu_plan.final_partition_tuples * 16 * 2 \
            <= gpu.spec.scratchpad.capacity_bytes * 1.01

    def test_multi_pass_needed_for_large_inputs(self, cpu):
        small = plan_partition_passes(100_000, 16, cpu.spec)
        large = plan_partition_passes(1_000_000_000, 16, cpu.spec)
        assert large.num_passes >= small.num_passes
        assert large.num_passes >= 2

    def test_invalid_inputs(self, cpu):
        with pytest.raises(ValueError):
            plan_partition_passes(0, 16, cpu.spec)
        with pytest.raises(ValueError):
            radix_partition({"key": np.arange(5)}, cpu, key="key", fanout=0)


class TestJoinAlgorithms:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_join_pair(8_000, seed=13)

    def _reference_rows(self, workload):
        return workload.expected_matches

    def test_non_partitioned_join(self, workload, cpu):
        result = non_partitioned_join(workload.build.arrays(),
                                      workload.probe.arrays(), cpu,
                                      build_keys=["key"], probe_keys=["key"])
        assert result.num_rows == self._reference_rows(workload)
        assert result.cost.seconds > 0

    def test_cpu_radix_join_matches_non_partitioned(self, workload, cpu):
        radix = cpu_radix_join(workload.build.arrays(), workload.probe.arrays(),
                               cpu, build_keys=["key"], probe_keys=["key"])
        plain = non_partitioned_join(workload.build.arrays(),
                                     workload.probe.arrays(), cpu,
                                     build_keys=["key"], probe_keys=["key"])
        assert radix.num_rows == plain.num_rows
        assert (np.sort(radix.columns["payload"])
                == np.sort(plain.columns["payload"])).all()

    def test_gpu_partitioned_join(self, workload, gpu):
        result = gpu_partitioned_join(workload.build.arrays(),
                                      workload.probe.arrays(), gpu,
                                      build_keys=["key"], probe_keys=["key"])
        assert result.num_rows == self._reference_rows(workload)

    def test_join_algorithms_validate_device_kind(self, workload, cpu, gpu):
        with pytest.raises(ValueError):
            gpu_partitioned_join(workload.build.arrays(),
                                 workload.probe.arrays(), cpu,
                                 build_keys=["key"], probe_keys=["key"])
        with pytest.raises(ValueError):
            cpu_radix_join(workload.build.arrays(), workload.probe.arrays(),
                           gpu, build_keys=["key"], probe_keys=["key"])

    def test_gpu_join_memory_enforcement(self, workload, topology):
        gpu = topology.device("gpu0")
        gpu.allocate(gpu.memory.free_bytes - 1024)  # nearly fill the GPU
        with pytest.raises(ExecutionError):
            gpu_partitioned_join(workload.build.arrays(),
                                 workload.probe.arrays(), gpu,
                                 build_keys=["key"], probe_keys=["key"])

    def test_partial_match_join(self, cpu):
        workload = make_partial_match_pair(2_000, 1_500, match_fraction=0.4,
                                           seed=21)
        result = non_partitioned_join(workload.build.arrays(),
                                      workload.probe.arrays(), cpu,
                                      build_keys=["key"], probe_keys=["key"])
        assert result.num_rows == workload.expected_matches

    def test_coprocessed_join(self, workload, topology):
        result = coprocessed_radix_join(
            workload.build.arrays(), workload.probe.arrays(), topology,
            build_keys=["key"], probe_keys=["key"])
        assert result.num_rows == self._reference_rows(workload)
        # PCIe links were actually used.
        moved = sum(link.bytes_moved for link in topology.links)
        assert moved > 0

    def test_coprocessed_join_requires_gpu(self, workload):
        from repro.hardware import cpu_only_server
        with pytest.raises(ExecutionError):
            coprocessed_radix_join(
                workload.build.arrays(), workload.probe.arrays(),
                cpu_only_server(), build_keys=["key"], probe_keys=["key"])

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_all_algorithms_agree_property(self, build_rows, probe_rows):
        """Property: every join algorithm returns the same multiset of rows."""
        from repro.hardware import default_server
        topology = default_server()
        cpu, gpu = topology.device("cpu0"), topology.device("gpu0")
        workload = make_partial_match_pair(build_rows, probe_rows,
                                           match_fraction=0.5, seed=1)
        build, probe = workload.build.arrays(), workload.probe.arrays()
        keys = dict(build_keys=["key"], probe_keys=["key"])
        results = [
            non_partitioned_join(build, probe, cpu, **keys),
            cpu_radix_join(build, probe, cpu, **keys),
            gpu_partitioned_join(build, probe, gpu, **keys),
        ]
        row_counts = {result.num_rows for result in results}
        assert len(row_counts) == 1


class TestProbePhaseCost:
    def test_scratchpad_beats_l1(self, gpu):
        for partition in (512, 1024, 4096):
            sm = probe_phase_cost(gpu, 32_000_000, partition, variant="SM")
            l1 = probe_phase_cost(gpu, 32_000_000, partition, variant="L1")
            assert sm.seconds < l1.seconds

    def test_invalid_variant(self, gpu):
        with pytest.raises(ValueError):
            probe_phase_cost(gpu, 1000, 128, variant="L2")
        with pytest.raises(ValueError):
            GpuJoinConfig(probe_variant="bogus")

    def test_requires_gpu(self, cpu):
        with pytest.raises(ValueError):
            probe_phase_cost(cpu, 1000, 128, variant="SM")


class TestCanonicalJoinOutputOrder:
    """Every join kernel emits the documented canonical row order.

    ``output_order="probe"`` (the default) orders matches by probe
    position with ties by ascending build position — exactly the order of
    :func:`repro.relational.join_indices` — so the partitioned joins,
    whose passes shuffle rows bucket-major, must agree row for row with
    the non-partitioned hash join.  ``"build"`` is the mirrored order the
    executor requests when the optimizer made the logical *right* input
    the build side.
    """

    @staticmethod
    def _inputs(seed: int = 11, rows: int = 400):
        rng = np.random.default_rng(seed)
        build = {"bk": rng.integers(0, 40, rows, dtype=np.int64),
                 "bv": rng.normal(size=rows)}
        probe = {"pk": rng.integers(0, 40, rows + 77, dtype=np.int64),
                 "pv": rng.normal(size=rows + 77)}
        return build, probe

    def _expected(self, build, probe, *, order: str):
        build_idx, probe_idx = join_indices([build["bk"]], [probe["pk"]])
        if order == "build":
            perm = np.lexsort((probe_idx, build_idx))
            build_idx, probe_idx = build_idx[perm], probe_idx[perm]
        return {"bk": build["bk"][build_idx], "bv": build["bv"][build_idx],
                "pk": probe["pk"][probe_idx], "pv": probe["pv"][probe_idx]}

    @pytest.mark.parametrize("order", ["probe", "build"])
    @pytest.mark.parametrize("morsel_rows", [None, 37])
    def test_hash_join_kernel_orders(self, order, morsel_rows):
        from repro.operators import hash_join_kernel
        build, probe = self._inputs()
        columns, stats = hash_join_kernel(
            build, probe, build_keys=["bk"], probe_keys=["pk"],
            morsel_rows=morsel_rows, output_order=order)
        expected = self._expected(build, probe, order=order)
        for name in expected:
            np.testing.assert_array_equal(columns[name], expected[name])
        assert stats.output_nbytes == sum(v.nbytes
                                          for v in expected.values())

    @pytest.mark.parametrize("order", ["probe", "build"])
    def test_partitioned_kernels_match_reference_order(self, cpu, gpu,
                                                       order):
        from repro.operators import (cpu_radix_join_kernel,
                                     gpu_partitioned_join_kernel)
        build, probe = self._inputs()
        expected = self._expected(build, probe, order=order)
        for kernel, spec in ((cpu_radix_join_kernel, cpu.spec),
                             (gpu_partitioned_join_kernel, gpu.spec)):
            columns, _ = kernel(build, probe, build_keys=["bk"],
                                probe_keys=["pk"], spec=spec,
                                output_order=order)
            assert not any(name.startswith("__ord") for name in columns)
            for name in expected:
                np.testing.assert_array_equal(
                    columns[name], expected[name],
                    err_msg=f"{kernel.__name__} order={order} col={name}")

    def test_coprocessed_join_matches_reference_order(self, topology):
        build, probe = self._inputs(rows=3000)
        expected = self._expected(build, probe, order="probe")
        output = coprocessed_radix_join(
            build, probe, topology, build_keys=["bk"], probe_keys=["pk"])
        for name in expected:
            np.testing.assert_array_equal(output.columns[name],
                                          expected[name])

    def test_order_never_changes_stats_or_costs(self, cpu):
        from repro.operators import cpu_radix_join_kernel
        build, probe = self._inputs()
        stats = {}
        for order in ("probe", "build", None):
            _, stats[order] = cpu_radix_join_kernel(
                build, probe, build_keys=["bk"], probe_keys=["pk"],
                spec=cpu.spec, output_order=order)
        assert stats["probe"] == stats["build"] == stats[None]

    def test_invalid_output_order_rejected(self, cpu):
        from repro.operators import cpu_radix_join_kernel, hash_join_kernel
        build, probe = self._inputs(rows=8)
        with pytest.raises(ValueError, match="output_order"):
            hash_join_kernel(build, probe, build_keys=["bk"],
                             probe_keys=["pk"], output_order="bucket")
        with pytest.raises(ValueError, match="output_order"):
            cpu_radix_join_kernel(build, probe, build_keys=["bk"],
                                  probe_keys=["pk"], spec=cpu.spec,
                                  output_order="bucket")

    def test_optimizer_sets_swapped_flag(self, tpch_dataset):
        """The smaller side builds; ``swapped`` marks a logical-right probe
        ... i.e. a logical-left probe (build = logical right)."""
        from repro.engine import HAPEEngine
        from repro.hardware import default_server
        from repro.relational import scan
        from repro.relational.physical import PJoin

        engine = HAPEEngine(default_server())
        engine.register_dataset(tpch_dataset.tables)
        small_left = scan("region").join(scan("nation"),
                                         ["r_regionkey"], ["n_regionkey"])
        big_left = scan("nation").join(scan("region"),
                                       ["n_regionkey"], ["r_regionkey"])
        for plan, swapped in ((small_left, False), (big_left, True)):
            physical = engine.plan(plan, "cpu")
            joins = [node for node in physical.walk()
                     if isinstance(node, PJoin)]
            assert len(joins) == 1
            assert joins[0].swapped is swapped
