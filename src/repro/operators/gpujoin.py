"""The GPU hardware-conscious (partitioned) hash join of Section 4.1.

The join partitions both inputs with store-consolidating passes (Figure 4)
until each co-partition fits in the streaming multiprocessor's scratchpad,
then builds the per-partition hash table in the scratchpad with atomics and
probes it with the matching partition (Figure 3).

Three placements of the per-partition intermediate structures are modelled,
matching the variants of Figure 5:

* ``"SM"``      — hash table entirely in the scratchpad (the paper's choice),
* ``"L1"``      — hash table in L1-backed global memory (the straightforward
  port of the CPU design),
* ``"SM+L1"``   — bucket heads in the scratchpad, entries in L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ExecutionError
from ..hardware.costmodel import AccessProfile
from ..hardware.device import Device
from ..hardware.specs import DeviceSpec
from ..storage.morsel import MorselSink, iter_morsels
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    columns_num_rows,
    payload_nbytes,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec
from .hashjoin import HASH_ENTRY_BYTES
from .radix import (
    PartitionPlan,
    PartitionRunStats,
    _join_copartitions,
    _validate_output_order,
    attach_order_columns,
    estimate_partition_run,
    partition_by_plan_kernel,
    plan_partition_passes,
    restore_canonical_order,
    with_join_key,
)

PROBE_VARIANTS = ("SM", "L1", "SM+L1")

#: Fixed bytes of bucket-array metadata a partition allocates when its hash
#: table lives in (L1-backed) global memory.  The scratchpad variant keeps
#: this metadata in the scratchpad, so it pays no global-memory traffic for
#: it.  This fixed per-partition overhead is what makes the L1 variants
#: degrade as partitions shrink (Figure 5).
L1_BUCKET_ARRAY_BYTES = 16 * 1024

#: Scalar ops per tuple of the in-scratchpad build/probe phase.
_OPS_PER_JOIN_STEP = 6.0


@dataclass(frozen=True)
class GpuJoinConfig:
    """Tuning of the in-GPU partitioned join."""

    probe_variant: str = "SM"
    partition_tuples: int | None = None

    def __post_init__(self) -> None:
        if self.probe_variant not in PROBE_VARIANTS:
            raise ValueError(
                f"unknown probe variant {self.probe_variant!r}; "
                f"expected one of {PROBE_VARIANTS}"
            )


def probe_phase_cost(device: Device, tuples_per_side: int,
                     partition_tuples: int, *, variant: str = "SM") -> OpCost:
    """Cost of the build & probe phase for a given partition granularity.

    This is the quantity Figure 5 sweeps: the input size stays constant
    (``tuples_per_side`` per table) while the partition size (and therefore
    the number of per-block co-partitions) varies.
    """
    if variant not in PROBE_VARIANTS:
        raise ValueError(f"unknown probe variant {variant!r}")
    if partition_tuples <= 0:
        raise ValueError("partition_tuples must be positive")
    if not device.is_gpu:
        raise ValueError("the GPU join probe phase must run on a GPU device")
    cost = OpCost()
    num_partitions = max(int(np.ceil(tuples_per_side / partition_tuples)), 1)
    table_bytes = partition_tuples * HASH_ENTRY_BYTES

    # Streaming both co-partitions from GPU memory into the SM.
    cost.add("stream-copartitions",
             device.cost.seq_scan(2 * tuples_per_side * 8))
    # Per-block fixed work: kernel/block scheduling and, for the L1-backed
    # variants, initializing the per-partition bucket array in global memory.
    cost.add("block-overhead",
             device.cost.kernel_launch(1)
             + num_partitions * 1e-8)
    if variant in ("L1", "SM+L1"):
        bucket_bytes = (L1_BUCKET_ARRAY_BYTES if variant == "L1"
                        else L1_BUCKET_ARRAY_BYTES // 2)
        cost.add("bucket-array-init",
                 device.cost.seq_write(num_partitions * bucket_bytes))

    build_profile = AccessProfile(tuples_per_side, HASH_ENTRY_BYTES,
                                  table_bytes, write_fraction=1.0)
    probe_profile = AccessProfile(tuples_per_side, HASH_ENTRY_BYTES, table_bytes)
    if variant == "SM":
        cost.add("build", device.cost.random_access(build_profile,
                                                    target="scratchpad"))
        cost.add("probe", device.cost.random_access(probe_profile,
                                                    target="scratchpad"))
    elif variant == "L1":
        # All accesses go through L1, which is shared by the blocks resident
        # on the SM and polluted by the streaming of the co-partitions.
        pollution = AccessProfile(
            tuples_per_side, HASH_ENTRY_BYTES,
            working_set_bytes=table_bytes * 3 + L1_BUCKET_ARRAY_BYTES,
            write_fraction=0.5)
        cost.add("build", device.cost.random_access(pollution, target="L1"))
        cost.add("probe", device.cost.random_access(pollution, target="L1"))
    else:  # SM+L1
        heads = AccessProfile(tuples_per_side, 4, partition_tuples * 4)
        rest = AccessProfile(
            tuples_per_side, HASH_ENTRY_BYTES,
            working_set_bytes=table_bytes * 4,
            write_fraction=0.5)
        cost.add("build",
                 device.cost.random_access(heads, target="scratchpad")
                 + device.cost.random_access(rest, target="L1"))
        cost.add("probe",
                 device.cost.random_access(heads, target="scratchpad")
                 + device.cost.random_access(rest, target="L1") * 0.6)
    cost.add("atomics", device.cost.atomic_ops(tuples_per_side))
    cost.add("compute", 2 * tuples_per_side * _OPS_PER_JOIN_STEP
             / compute_ops_per_sec(device))
    # Very small partitions under-utilize the SMs: too little useful work is
    # available to overlap latencies (the 512-element dip of Figure 5).
    if partition_tuples < 1024:
        cost.add("underutilization",
                 cost.seconds * 0.1 * (1024 / max(partition_tuples, 1) - 1.0))
    return cost


@dataclass(frozen=True)
class GpuJoinStats:
    """Data-derived quantities the GPU-join cost estimator needs."""

    build_rows: int
    probe_rows: int
    input_nbytes: int
    plan: PartitionPlan
    build_run: PartitionRunStats
    probe_run: PartitionRunStats
    output_nbytes: int


def gpu_partitioned_join_kernel(
        build: Mapping[str, np.ndarray],
        probe: Mapping[str, np.ndarray], *,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        spec: DeviceSpec,
        morsel_rows: int | None = None,
        output_order: str | None = "probe",
        pool=None,
) -> tuple[ArrayMap, GpuJoinStats]:
    """Evaluate the in-GPU partitioned join once.

    ``spec`` only supplies the scratchpad-derived tuning knobs; the data
    path itself is device-invariant.

    Like the CPU radix join, this is a pipeline breaker on both sides:
    with ``morsel_rows`` set, each input is consumed as a morsel stream
    (zero-copy sinks for resident batches) before partitioning, keeping
    results and pass shapes bit-identical for every morsel size.

    ``output_order`` restores the canonical join output order exactly like
    :func:`repro.operators.radix.cpu_radix_join_kernel`; the co-processed
    join passes ``None`` (it canonicalizes the merged result itself) and
    every byte-based stat ignores the bookkeeping columns either way.

    ``pool`` parallelizes the partition passes (see
    :func:`repro.operators.radix.partition_by_plan_kernel`); results are
    bit-identical at every worker count.
    """
    record_kernel_invocation("gpu_partitioned_join")
    _validate_output_order(output_order)
    if morsel_rows is not None:
        build = MorselSink().extend(iter_morsels(build, morsel_rows)).finish()
        probe = MorselSink().extend(iter_morsels(probe, morsel_rows)).finish()
    build = with_join_key(build, build_keys)
    probe = with_join_key(probe, probe_keys)
    build_rows = columns_num_rows(build)
    probe_rows = columns_num_rows(probe)
    input_bytes = payload_nbytes(build) + payload_nbytes(probe)
    if output_order is not None:
        attach_order_columns(build, probe, build_rows, probe_rows)

    plan = plan_partition_passes(max(build_rows, 1), HASH_ENTRY_BYTES, spec)
    build_parts, build_run = partition_by_plan_kernel(build, key="__key",
                                                      plan=plan, pool=pool)
    probe_plan = PartitionPlan(
        device_kind=plan.device_kind, tuple_bytes=plan.tuple_bytes,
        input_tuples=max(probe_rows, 1),
        fanout_per_pass=plan.fanout_per_pass,
        target_partition_tuples=plan.target_partition_tuples)
    probe_parts, probe_run = partition_by_plan_kernel(probe, key="__key",
                                                      plan=probe_plan,
                                                      pool=pool)

    columns = _join_copartitions(build_parts, probe_parts, build, probe)
    if output_order is not None:
        columns = restore_canonical_order(columns, output_order=output_order)
    stats = GpuJoinStats(
        build_rows=build_rows, probe_rows=probe_rows,
        input_nbytes=input_bytes, plan=plan,
        build_run=build_run, probe_run=probe_run,
        output_nbytes=payload_nbytes(columns),
    )
    return columns, stats


def ensure_gpu_join_fits(build: Mapping[str, np.ndarray],
                         probe: Mapping[str, np.ndarray],
                         device: Device) -> None:
    """Raise before any join work when the inputs cannot fit in GPU memory.

    The budget covers both inputs, their folded ``__key`` columns (8 bytes
    per row and side) and a 2.5x allowance for partitions and hash tables.
    """
    input_bytes = int(
        sum(np.asarray(v).nbytes for v in build.values())
        + sum(np.asarray(v).nbytes for v in probe.values())
        + 8 * (columns_num_rows(build) + columns_num_rows(probe)))
    if not device.fits_in_memory(int(input_bytes * 2.5)):
        raise ExecutionError(
            f"GPU join inputs ({input_bytes} bytes plus intermediates) exceed "
            f"the memory of {device.name}; use the co-processing join instead"
        )


def estimate_gpu_partitioned_join(stats: GpuJoinStats, device: Device, *,
                                  config: GpuJoinConfig | None = None) -> OpCost:
    """Cost of the scratchpad-conscious join on ``device``; no data touched."""
    config = config or GpuJoinConfig()
    cost = OpCost()
    cost.merge(estimate_partition_run(stats.build_run, device))
    cost.merge(estimate_partition_run(stats.probe_run, device))
    partition_tuples = config.partition_tuples or max(
        int(stats.plan.final_partition_tuples), 1)
    cost.merge(probe_phase_cost(device, max(stats.probe_rows, 1),
                                partition_tuples,
                                variant=config.probe_variant))
    cost.add("materialize-output", device.cost.seq_write(stats.output_nbytes))
    return cost


def gpu_partitioned_join(build: Mapping[str, np.ndarray],
                         probe: Mapping[str, np.ndarray],
                         device: Device, *,
                         build_keys: Sequence[str],
                         probe_keys: Sequence[str],
                         config: GpuJoinConfig | None = None,
                         enforce_memory: bool = True) -> OpOutput:
    """The full in-GPU partitioned join (partition passes + probe phase)."""
    if not device.is_gpu:
        raise ValueError("gpu_partitioned_join must be placed on a GPU device")
    config = config or GpuJoinConfig()
    if enforce_memory:
        ensure_gpu_join_fits(build, probe, device)
    columns, stats = gpu_partitioned_join_kernel(
        build, probe, build_keys=build_keys, probe_keys=probe_keys,
        spec=device.spec)
    cost = estimate_gpu_partitioned_join(stats, device, config=config)
    return OpOutput(columns=columns, cost=cost)
