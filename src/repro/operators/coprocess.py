"""Intra-operator co-processing: the out-of-GPU radix join of Section 5.

The algorithm combines, without modification, the CPU partitioning pass and
the in-GPU partitioned join:

1. both inputs are co-partitioned *in CPU memory* with a low fan-out chosen
   so that every co-partition pair fits in GPU memory,
2. a ``zip`` matches the partitions into co-partitions, which are routed
   round-robin over the available GPUs,
3. each co-partition crosses the PCIe link of its GPU exactly once
   (``mem-move`` + ``device-crossing``),
4. the GPU runs the scratchpad-conscious partitioned join on the pair,
5. (aggregated) results return to the CPU.

Because the GPU-side throughput exceeds the PCIe bandwidth and the CPU-side
low-fan-out partitioning sustains near-DRAM bandwidth, the end-to-end time
is bottlenecked by the interconnect — and adding a second GPU on its own
PCIe bus nearly doubles throughput (Figure 7's 1.7x).

This operator is inherently multi-device, so unlike the single-device
operators it schedules itself directly onto the topology's clocks and
returns the interval it occupied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ExecutionError
from ..hardware.device import Device
from ..hardware.topology import Topology
from ..storage.block import Block
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    columns_num_rows,
    payload_nbytes,
    record_kernel_invocation,
)
from .exchange import Router, zip_partitions
from .gpujoin import (
    GpuJoinConfig,
    estimate_gpu_partitioned_join,
    gpu_partitioned_join_kernel,
)
from .hashjoin import HASH_ENTRY_BYTES
from .radix import (
    _validate_output_order,
    attach_order_columns,
    estimate_radix_partition,
    partition_tuple_bytes,
    radix_partition_kernel,
    restore_canonical_order,
    with_join_key,
)
from ..relational.physical import RoutingPolicy


@dataclass(frozen=True)
class CoProcessingPlan:
    """Tuning of the co-processed join."""

    fanout: int
    gpu_budget_bytes: int

    @property
    def num_copartitions(self) -> int:
        return self.fanout


def plan_coprocessing(build_rows: int, probe_rows: int, tuple_bytes: int,
                      gpus: Sequence[Device], *,
                      safety_factor: float = 0.4) -> CoProcessingPlan:
    """Choose the CPU-side fan-out so each co-partition pair fits in GPU memory.

    ``safety_factor`` leaves room for the GPU-side partitions and hash
    tables next to the raw co-partition pair.
    """
    if not gpus:
        raise ExecutionError("co-processing requires at least one GPU")
    budget = int(min(gpu.spec.memory_capacity_bytes for gpu in gpus)
                 * safety_factor)
    pair_bytes = (build_rows + probe_rows) * tuple_bytes
    fanout = max(int(np.ceil(pair_bytes / budget)), len(gpus))
    return CoProcessingPlan(fanout=fanout, gpu_budget_bytes=budget)


def coprocessed_radix_join(build: Mapping[str, np.ndarray],
                           probe: Mapping[str, np.ndarray],
                           topology: Topology, *,
                           build_keys: Sequence[str],
                           probe_keys: Sequence[str],
                           cpu: Device | None = None,
                           gpus: Sequence[Device] | None = None,
                           config: GpuJoinConfig | None = None,
                           output_order: str | None = "probe") -> OpOutput:
    """Execute the CPU+GPU co-processed radix join and schedule its timeline.

    ``output_order`` restores the canonical join output order over the
    merged per-co-partition results (``"probe"``-major by default,
    ``"build"``-major for joins whose build side is the logical right
    input, ``None`` for the raw partition-major order).  The bookkeeping
    columns it requires are excluded from every transfer size and cost
    stat, so the simulated timeline is identical for every setting.
    """
    cpu = cpu or topology.cpus()[0]
    gpus = list(gpus if gpus is not None else topology.gpus())
    if not gpus:
        raise ExecutionError("co-processing requires at least one GPU")
    config = config or GpuJoinConfig()
    _validate_output_order(output_order)
    record_kernel_invocation("coprocessed_radix_join")

    build = with_join_key(build, build_keys)
    probe = with_join_key(probe, probe_keys)
    build_rows = columns_num_rows(build)
    probe_rows = columns_num_rows(probe)
    tuple_bytes = partition_tuple_bytes(build)
    probe_tuple_bytes = partition_tuple_bytes(probe)
    if output_order is not None:
        attach_order_columns(build, probe, build_rows, probe_rows)

    plan = plan_coprocessing(max(build_rows, 1), max(probe_rows, 1),
                             HASH_ENTRY_BYTES, gpus)

    # 1. CPU-side low-fan-out co-partitioning, local to the input data.
    # The functional kernel runs once; the CPU cost is estimated separately
    # from the pass shape (the single-evaluation operator contract).
    build_parts = radix_partition_kernel(build, key="__key",
                                         fanout=plan.fanout)
    probe_parts = radix_partition_kernel(probe, key="__key",
                                         fanout=plan.fanout)
    build_cost = estimate_radix_partition(build_rows, tuple_bytes,
                                          plan.fanout, cpu)
    probe_cost = estimate_radix_partition(probe_rows, probe_tuple_bytes,
                                          plan.fanout, cpu)
    partition_record = cpu.charge(build_cost.seconds + probe_cost.seconds,
                                  label="cpu-copartition")
    total_cost = OpCost().merge(build_cost).merge(probe_cost)

    # 2. zip into co-partitions, tag packets with their partition id.
    build_blocks = [Block(part, location=cpu.name, partition=index)
                    for index, part in enumerate(build_parts)]
    probe_blocks = [Block(part, location=cpu.name, partition=index)
                    for index, part in enumerate(probe_parts)]
    pairs = zip_partitions(build_blocks, probe_blocks)

    # 3-4. route each co-partition to a GPU, transfer once over PCIe and
    # run the in-GPU partitioned join; transfers and kernels of distinct
    # GPUs overlap because every GPU sits on its own PCIe link.
    router = Router(gpus, RoutingPolicy.ROUND_ROBIN)
    outputs: list[ArrayMap] = []
    for build_block, probe_block in pairs:
        gpu = router.route(build_block)
        route = topology.route(cpu.name, gpu.name)
        # The order-bookkeeping columns never cross PCIe in a real
        # execution — only payload bytes are charged to the link.
        pair_bytes = (payload_nbytes(build_block.columns)
                      + payload_nbytes(probe_block.columns))
        if not gpu.fits_in_memory(pair_bytes):
            raise ExecutionError(
                f"co-partition of {pair_bytes} bytes exceeds {gpu.name} memory; "
                "increase the CPU-side fan-out"
            )
        ready = route.transfer(pair_bytes, earliest=partition_record.end,
                               label=f"copartition->{gpu.name}")
        total_cost.add("pcie-transfer", route.transfer_time(pair_bytes))
        result_columns, join_stats = gpu_partitioned_join_kernel(
            build_block.columns, probe_block.columns,
            build_keys=["__key"], probe_keys=["__key"], spec=gpu.spec,
            output_order=None)
        join_cost = estimate_gpu_partitioned_join(join_stats, gpu,
                                                  config=config)
        gpu.charge(join_cost.seconds, earliest=ready,
                   label=f"gpu-join[p{build_block.partition}]")
        total_cost.merge(join_cost)
        outputs.append(result_columns)

    # 5. results (already reduced in size) return to CPU memory.
    if outputs:
        merged = {name: np.concatenate([part[name] for part in outputs])
                  for name in outputs[0]}
    else:
        merged = {name: np.asarray(values)[:0]
                  for name, values in build.items() if name != "__key"}
        merged.update({name: np.asarray(values)[:0]
                       for name, values in probe.items() if name != "__key"})
    if output_order is not None:
        merged = restore_canonical_order(merged, output_order=output_order)
    return OpOutput(columns=merged, cost=total_cost)
