"""Executable hardware-conscious operators and HetExchange meta-operators.

Single-evaluation operator contract
-----------------------------------

Every relational operator is split into two pure entry points, mirroring
the paper's separation of a device-invariant *algorithmic skeleton* from
per-device *tuning knobs*:

* ``*_kernel(columns, ...) -> (columns, stats)`` — the **functional
  kernel**.  It evaluates the NumPy result exactly once, never inspects a
  device, and returns the output columns plus a small frozen *stats* record
  (row counts, touched bytes, partition-pass shapes, output size)
  describing the work performed.
* ``estimate_*(stats, device, ...) -> OpCost`` — the **cost function**.  It
  converts a stats record into simulated seconds for one device and never
  touches array data, so an engine can cost the same kernel execution on
  every device kind that participates in a hybrid pipeline.

The executor exploits the split twice: a plan node's kernel runs once while
its cost is estimated per device kind, and kernel results are memoized by
the structural key of their subplan so repeated subplans (shared dimension
scans and build sides) are evaluated once per query — and, through the
session's cross-query cache, once per session while warm.  The classic combined
helpers (``apply_filter_project``, ``non_partitioned_join``,
``cpu_radix_join``, ``gpu_partitioned_join``, ``hash_aggregate``, ...)
remain as kernel+estimate wrappers for single-device callers.

Kernels report invocations through
:func:`~repro.operators.base.record_kernel_invocation`; tests use the
counters to prove the single-evaluation property.
"""

from .aggregate import (
    AggregateStats,
    estimate_hash_aggregate,
    estimate_merge_partials,
    hash_aggregate,
    hash_aggregate_kernel,
    merge_partials,
    merge_partials_kernel,
)
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    columns_nbytes,
    columns_num_rows,
    kernel_counts,
    record_kernel_invocation,
    reset_kernel_counts,
)
from .coprocess import CoProcessingPlan, coprocessed_radix_join, plan_coprocessing
from .exchange import (
    Router,
    broadcast,
    device_crossing_cost,
    mem_move,
    zip_partitions,
)
from .filterproject import (
    FilterProjectStats,
    apply_filter_project,
    estimate_filter_project,
    expression_op_count,
    filter_project_kernel,
    filter_project_morsel,
    referenced_columns,
    scan_cost,
    touched_bytes,
)
from .gpujoin import (
    GpuJoinConfig,
    GpuJoinStats,
    L1_BUCKET_ARRAY_BYTES,
    PROBE_VARIANTS,
    ensure_gpu_join_fits,
    estimate_gpu_partitioned_join,
    gpu_partitioned_join,
    gpu_partitioned_join_kernel,
    probe_phase_cost,
)
from .hashjoin import (
    HASH_ENTRY_BYTES,
    HashJoinBuild,
    JoinStats,
    build_table_bytes,
    composite_key,
    estimate_non_partitioned_join,
    hash_join_kernel,
    join_match_indices,
    non_partitioned_join,
)
from .radix import (
    CpuRadixJoinStats,
    PartitionPlan,
    PartitionRunStats,
    cpu_radix_join,
    cpu_radix_join_kernel,
    estimate_cpu_radix_join,
    estimate_partition_run,
    estimate_radix_partition,
    max_fanout,
    partition_by_plan,
    partition_by_plan_kernel,
    partition_tuple_bytes,
    plan_partition_passes,
    radix_partition,
    radix_partition_kernel,
    target_partition_bytes,
)

__all__ = [
    "AggregateStats",
    "ArrayMap",
    "CoProcessingPlan",
    "CpuRadixJoinStats",
    "FilterProjectStats",
    "GpuJoinConfig",
    "GpuJoinStats",
    "HASH_ENTRY_BYTES",
    "HashJoinBuild",
    "JoinStats",
    "L1_BUCKET_ARRAY_BYTES",
    "OpCost",
    "OpOutput",
    "PROBE_VARIANTS",
    "PartitionPlan",
    "PartitionRunStats",
    "Router",
    "apply_filter_project",
    "broadcast",
    "build_table_bytes",
    "columns_nbytes",
    "columns_num_rows",
    "composite_key",
    "coprocessed_radix_join",
    "cpu_radix_join",
    "cpu_radix_join_kernel",
    "device_crossing_cost",
    "ensure_gpu_join_fits",
    "estimate_cpu_radix_join",
    "estimate_filter_project",
    "estimate_gpu_partitioned_join",
    "estimate_hash_aggregate",
    "estimate_merge_partials",
    "estimate_non_partitioned_join",
    "estimate_partition_run",
    "estimate_radix_partition",
    "expression_op_count",
    "filter_project_kernel",
    "filter_project_morsel",
    "gpu_partitioned_join",
    "gpu_partitioned_join_kernel",
    "hash_aggregate",
    "hash_aggregate_kernel",
    "hash_join_kernel",
    "join_match_indices",
    "kernel_counts",
    "max_fanout",
    "mem_move",
    "merge_partials",
    "merge_partials_kernel",
    "non_partitioned_join",
    "partition_by_plan",
    "partition_by_plan_kernel",
    "partition_tuple_bytes",
    "plan_coprocessing",
    "plan_partition_passes",
    "probe_phase_cost",
    "radix_partition",
    "radix_partition_kernel",
    "record_kernel_invocation",
    "referenced_columns",
    "reset_kernel_counts",
    "scan_cost",
    "target_partition_bytes",
    "touched_bytes",
    "zip_partitions",
]
