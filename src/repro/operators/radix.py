"""Radix partitioning and the CPU partitioned (radix) hash join.

Section 4.1's central observation is that the *algorithmic skeleton* of the
partitioned join is device-invariant — partition both inputs until the
per-partition hash table fits in a fast memory, then build & probe inside
that memory — while the *tuning knobs* differ per device:

* on the CPU the per-pass fan-out is limited by the TLB (one output page per
  TLB entry) and the final partitions must fit in the cache,
* on the GPU the fan-out is limited by the scratchpad space that holds the
  per-partition write offsets, and the final partitions must fit in the
  scratchpad itself.

``plan_partition_passes`` encodes those rules once; both the executable
operators and the paper-scale analytic models in :mod:`repro.perf` call it.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), the functional partitioning lives in
:func:`radix_partition_kernel` — one stable argsort (a radix sort on
``uint16`` bucket ids) plus one gather per column, with the ``fanout``
buckets sliced out as zero-copy views — while
:func:`estimate_radix_partition` / :func:`estimate_partition_run` replay the
exact per-pass cost arithmetic from a :class:`PartitionRunStats` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..hardware.device import Device
from ..hardware.specs import DeviceKind, DeviceSpec
from ..storage.morsel import MorselSink, iter_morsels
from .base import (
    ORDER_COLUMN_PREFIX,
    ArrayMap,
    OpCost,
    OpOutput,
    columns_num_rows,
    is_order_column,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec
from .hashjoin import HASH_ENTRY_BYTES, composite_key, join_match_indices

#: Scalar ops per tuple of one partitioning pass (hash, offset, copy).
_OPS_PER_PARTITION_STEP = 6.0

#: Scalar ops per tuple of the in-cache build/probe phase.
_OPS_PER_JOIN_STEP = 10.0

#: Largest fan-out whose bucket ids fit ``uint16``.
_SMALL_BUCKET_LIMIT = 1 << 16


@dataclass(frozen=True)
class PartitionPlan:
    """The pass structure of a partitioned join on one device."""

    device_kind: DeviceKind
    tuple_bytes: int
    input_tuples: int
    fanout_per_pass: tuple[int, ...]
    target_partition_tuples: int

    @property
    def num_passes(self) -> int:
        return len(self.fanout_per_pass)

    @property
    def total_fanout(self) -> int:
        fanout = 1
        for per_pass in self.fanout_per_pass:
            fanout *= per_pass
        return fanout

    @property
    def final_partition_tuples(self) -> float:
        return self.input_tuples / max(self.total_fanout, 1)


def max_fanout(spec: DeviceSpec) -> int:
    """Largest per-pass fan-out the device sustains without thrashing.

    CPU: one actively-written output page per TLB entry (Boncz et al.'s
    argument, as summarized in Section 2.1).  GPU: one 4-byte write offset
    per output partition must stay resident in the scratchpad next to the
    staging chunk used for store consolidation.
    """
    if spec.kind is DeviceKind.CPU:
        # Software write-combining buffers let one TLB entry cover a couple
        # of actively-written output partitions, so the practical fan-out
        # ceiling sits at ~2x the TLB entry count (Balkesen et al.).
        return max(int(spec.tlb.entries) * 2, 2)
    scratchpad = spec.scratchpad
    if scratchpad is None:
        raise ValueError("GPU spec without scratchpad cannot be tuned")
    offsets_budget = scratchpad.capacity_bytes // 2
    return max(int(offsets_budget // 4 // 8), 2)


def target_partition_bytes(spec: DeviceSpec) -> int:
    """How small the final co-partitions must be on this device.

    CPU: the per-core share of the cache hierarchy that the per-partition
    hash table should fit in.  GPU: half of the scratchpad (the other half
    stages the probe-side chunk), which is Figure 5's SM variant.
    """
    if spec.kind is DeviceKind.CPU:
        return int(spec.cache("L2").capacity_bytes)
    scratchpad = spec.scratchpad
    if scratchpad is None:
        raise ValueError("GPU spec without scratchpad cannot be tuned")
    return int(scratchpad.capacity_bytes // 2)


def plan_partition_passes(input_tuples: int, tuple_bytes: int,
                          spec: DeviceSpec, *,
                          target_bytes: int | None = None) -> PartitionPlan:
    """Choose the number of passes and per-pass fan-out for one device."""
    if input_tuples <= 0:
        raise ValueError("input_tuples must be positive")
    if tuple_bytes <= 0:
        raise ValueError("tuple_bytes must be positive")
    target = target_bytes if target_bytes is not None else target_partition_bytes(spec)
    target_tuples = max(int(target // (tuple_bytes * 2)), 1)
    fanout_limit = max_fanout(spec)
    required_fanout = max(
        int(np.ceil(input_tuples / target_tuples)), 1
    )
    fanouts: list[int] = []
    remaining = required_fanout
    while remaining > 1:
        step = min(fanout_limit, remaining)
        fanouts.append(int(step))
        remaining = int(np.ceil(remaining / step))
    if not fanouts:
        fanouts.append(1)
    return PartitionPlan(
        device_kind=spec.kind,
        tuple_bytes=tuple_bytes,
        input_tuples=int(input_tuples),
        fanout_per_pass=tuple(fanouts),
        target_partition_tuples=target_tuples,
    )


# ----------------------------------------------------------------------
# Executable partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionRunStats:
    """Shape of an executed sequence of partitioning passes.

    ``calls`` records one ``(num_rows, fanout)`` entry per
    :func:`radix_partition_kernel` invocation, in execution order, so that
    :func:`estimate_partition_run` can replay the exact cost arithmetic of
    the run on any device without touching the data again.
    """

    tuple_bytes: int
    calls: tuple[tuple[int, int], ...]


def radix_partition_kernel(columns: Mapping[str, np.ndarray], *,
                           key: str, fanout: int) -> list[ArrayMap]:
    """Partition one column map into ``fanout`` buckets by key radix.

    One stable argsort of the bucket ids plus a single gather per column;
    the buckets are then sliced out of the gathered arrays as zero-copy
    views (the store-consolidation analogue of Figure 4: every input tuple
    is moved exactly once).
    """
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    record_kernel_invocation("radix_partition")
    columns = {name: np.asarray(values) for name, values in columns.items()}
    num_rows = columns_num_rows(columns)
    if num_rows == 0:
        return [dict(columns) for _ in range(fanout)]
    if key not in columns:
        raise KeyError(key)
    if fanout == 1:
        return [dict(columns)]
    keys = np.asarray(columns[key], dtype=np.int64)
    bucket = keys % fanout
    if fanout <= _SMALL_BUCKET_LIMIT:
        # NumPy's stable sort is a radix sort on 16-bit ints; the stable
        # permutation does not depend on the id dtype.
        bucket = bucket.astype(np.uint16)
    order = np.argsort(bucket, kind="stable")
    boundaries = np.zeros(fanout + 1, dtype=np.int64)
    np.cumsum(np.bincount(bucket, minlength=fanout), out=boundaries[1:])
    gathered = {name: values[order] for name, values in columns.items()}
    return [
        {name: values[boundaries[index]:boundaries[index + 1]]
         for name, values in gathered.items()}
        for index in range(fanout)
    ]


def partition_tuple_bytes(columns: Mapping[str, np.ndarray]) -> int:
    """Bytes one tuple of a column map occupies during a partition pass.

    Row-order bookkeeping columns (``__ord*``) are excluded: they only
    exist to restore the canonical join output order and must never change
    a stats record (simulated costs derive from stats alone).
    """
    return max(
        int(sum(np.asarray(values).dtype.itemsize
                for name, values in columns.items()
                if not is_order_column(name))), 1)


def estimate_radix_partition(num_rows: int, tuple_bytes: int, fanout: int,
                             device: Device, *,
                             consolidated: bool = True) -> OpCost:
    """Cost of one partitioning pass on ``device``; no data touched.

    ``consolidated`` selects the store-consolidating variant of Figure 4
    (scratchpad staging on GPUs, software write-combining on CPUs).
    """
    cost = OpCost()
    cost.add("partition-pass", device.cost.partition_pass(
        num_rows, tuple_bytes, fanout, consolidated=consolidated))
    cost.add("compute", num_rows * _OPS_PER_PARTITION_STEP
             / compute_ops_per_sec(device))
    if device.is_gpu:
        cost.add("atomics", device.cost.atomic_ops(max(num_rows // 8, fanout)))
        cost.add("kernel-launch", device.cost.kernel_launch())
    return cost


def estimate_partition_run(stats: PartitionRunStats, device: Device, *,
                           consolidated: bool = True) -> OpCost:
    """Replay the cost of a recorded sequence of partitioning passes."""
    cost = OpCost()
    for num_rows, fanout in stats.calls:
        cost.merge(estimate_radix_partition(num_rows, stats.tuple_bytes,
                                            fanout, device,
                                            consolidated=consolidated))
    return cost


def radix_partition(columns: Mapping[str, np.ndarray], device: Device, *,
                    key: str, fanout: int,
                    consolidated: bool = True) -> tuple[list[ArrayMap], OpCost]:
    """Partition one column map on one device (kernel + cost in one).

    Returns the partitions (list of column maps) and the cost of the pass.
    """
    num_rows = columns_num_rows(columns)
    tuple_bytes = partition_tuple_bytes(columns)
    partitions = radix_partition_kernel(columns, key=key, fanout=fanout)
    cost = estimate_radix_partition(num_rows, tuple_bytes, fanout, device,
                                    consolidated=consolidated)
    return partitions, cost


def partition_by_plan_kernel(
        columns: Mapping[str, np.ndarray], *,
        key: str, plan: PartitionPlan, pool=None,
) -> tuple[list[ArrayMap], PartitionRunStats]:
    """Apply every pass of a :class:`PartitionPlan`, recording run stats.

    ``pool`` (a :class:`repro.engine.workers.WorkerPool`-shaped object, or
    ``None`` for inline execution) parallelizes the independent chunk
    partitionings *within* one pass.  Determinism contract: chunks are
    submitted in level order and merged back in submission order, and the
    ``calls`` record is written on the calling thread in that same order
    — partitions, stats and therefore replayed costs are bit-identical at
    every worker count.
    """
    tuple_bytes = partition_tuple_bytes(columns)
    calls: list[tuple[int, int]] = []
    current = [dict(columns)]
    for fanout in plan.fanout_per_pass:
        calls.extend((columns_num_rows(chunk), fanout) for chunk in current)
        if pool is not None and pool.parallel and len(current) > 1:
            partitioned = pool.map_ordered(
                lambda chunk: radix_partition_kernel(chunk, key=key,
                                                     fanout=fanout),
                current)
        else:
            partitioned = [radix_partition_kernel(chunk, key=key,
                                                  fanout=fanout)
                           for chunk in current]
        current = [part for buckets in partitioned for part in buckets]
    return current, PartitionRunStats(tuple_bytes=tuple_bytes,
                                      calls=tuple(calls))


def partition_by_plan(columns: Mapping[str, np.ndarray], device: Device, *,
                      key: str, plan: PartitionPlan,
                      consolidated: bool = True) -> tuple[list[ArrayMap], OpCost]:
    """Apply every pass of a :class:`PartitionPlan` on one device."""
    partitions, stats = partition_by_plan_kernel(columns, key=key, plan=plan)
    cost = estimate_partition_run(stats, device, consolidated=consolidated)
    return partitions, cost


# ----------------------------------------------------------------------
# Canonical output order of the partitioned joins
# ----------------------------------------------------------------------
#: Bookkeeping columns threading the original build/probe row positions
#: through the partition passes, so the bucket-major match output can be
#: restored to the canonical order.  Excluded from every byte-based stat.
ORD_BUILD = ORDER_COLUMN_PREFIX + "_build"
ORD_PROBE = ORDER_COLUMN_PREFIX + "_probe"


def attach_order_columns(build: ArrayMap, probe: ArrayMap,
                         build_rows: int, probe_rows: int) -> None:
    """Add the original-position bookkeeping columns to both join inputs."""
    build[ORD_BUILD] = np.arange(build_rows, dtype=np.int64)
    probe[ORD_PROBE] = np.arange(probe_rows, dtype=np.int64)


def restore_canonical_order(columns: ArrayMap, *,
                            output_order: str) -> ArrayMap:
    """Sort a partitioned join's output into the canonical row order.

    ``"probe"`` orders by original probe position with ties by build
    position (the natural order of the non-partitioned join); ``"build"``
    is build-major.  The bookkeeping columns are dropped from the result.
    """
    build_pos = np.asarray(columns[ORD_BUILD])
    probe_pos = np.asarray(columns[ORD_PROBE])
    if output_order == "probe":
        order = _major_minor_order(probe_pos, build_pos)
    else:
        order = _major_minor_order(build_pos, probe_pos)
    return {name: np.asarray(values)[order]
            for name, values in columns.items()
            if not is_order_column(name)}


def _major_minor_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((minor, major))``, in O(n) if possible.

    Positions are non-negative row ids.  When every major position is
    unique (every probe row of a unique-key build matches at most once),
    scattering the row ids by major position and dropping the empty slots
    is that permutation; duplicate major positions fall back to the sort.
    """
    if len(major):
        slots = np.full(int(major.max()) + 1, -1, dtype=np.int64)
        slots[major] = np.arange(len(major), dtype=np.int64)
        order = slots[slots >= 0]
        if len(order) == len(major):
            return order
    return np.lexsort((minor, major))


def with_join_key(columns: Mapping[str, np.ndarray],
                  keys: Sequence[str]) -> ArrayMap:
    """``columns`` as arrays plus the folded join key as ``__key``.

    The partitioned joins partition and match on ``__key``.  A co-partition
    of the co-processed join already carries it (``keys == ["__key"]``)
    and is not folded again.
    """
    columns = {name: np.asarray(values) for name, values in columns.items()}
    if list(keys) != ["__key"]:
        columns["__key"] = composite_key(columns, keys)
    return columns


def _validate_output_order(output_order: str | None) -> None:
    if output_order not in ("probe", "build", None):
        raise ValueError("output_order must be 'probe', 'build' or None")


# ----------------------------------------------------------------------
# CPU radix join
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CpuRadixJoinStats:
    """Data-derived quantities the CPU radix-join estimator needs."""

    build_rows: int
    probe_rows: int
    plan: PartitionPlan
    build_run: PartitionRunStats
    probe_run: PartitionRunStats
    output_nbytes: int


def cpu_radix_join_kernel(
        build: Mapping[str, np.ndarray],
        probe: Mapping[str, np.ndarray], *,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        spec: DeviceSpec,
        morsel_rows: int | None = None,
        output_order: str | None = "probe",
        pool=None,
) -> tuple[ArrayMap, CpuRadixJoinStats]:
    """Evaluate the partitioned CPU join once.

    ``spec`` only supplies the partitioning *tuning knobs* (fan-out limits,
    cache targets); the data path itself is device-invariant.

    The radix join breaks the pipeline on *both* sides — multi-pass
    partitioning needs each input in full.  With ``morsel_rows`` set, both
    sides are consumed as morsel streams into
    :class:`~repro.storage.morsel.MorselSink` instances (zero-copy for
    resident batches) before partitioning, so results and recorded pass
    shapes are bit-identical for every morsel size.

    ``output_order`` restores the canonical join output order
    (``"probe"``-major by default, ``"build"``-major for joins whose build
    side is the logical right input) by threading original-position
    bookkeeping columns through the passes and reordering the match output
    once at the end; ``None`` leaves the bucket-major implementation order
    (the co-processed join canonicalizes at its own level).  Stats are
    identical for every setting.

    ``pool`` parallelizes the partition passes (see
    :func:`partition_by_plan_kernel`); results are bit-identical at every
    worker count.
    """
    record_kernel_invocation("cpu_radix_join")
    _validate_output_order(output_order)
    if morsel_rows is not None:
        build = MorselSink().extend(iter_morsels(build, morsel_rows)).finish()
        probe = MorselSink().extend(iter_morsels(probe, morsel_rows)).finish()
    build = with_join_key(build, build_keys)
    probe = with_join_key(probe, probe_keys)
    build_rows = columns_num_rows(build)
    probe_rows = columns_num_rows(probe)
    if output_order is not None:
        attach_order_columns(build, probe, build_rows, probe_rows)

    tuple_bytes = HASH_ENTRY_BYTES
    plan = plan_partition_passes(max(build_rows, 1), tuple_bytes, spec)
    build_parts, build_run = partition_by_plan_kernel(build, key="__key",
                                                      plan=plan, pool=pool)
    probe_plan = PartitionPlan(
        device_kind=plan.device_kind, tuple_bytes=tuple_bytes,
        input_tuples=max(probe_rows, 1),
        fanout_per_pass=plan.fanout_per_pass,
        target_partition_tuples=plan.target_partition_tuples)
    probe_parts, probe_run = partition_by_plan_kernel(probe, key="__key",
                                                      plan=probe_plan,
                                                      pool=pool)

    columns = _join_copartitions(build_parts, probe_parts, build, probe)
    if output_order is not None:
        columns = restore_canonical_order(columns, output_order=output_order)
    stats = CpuRadixJoinStats(
        build_rows=build_rows, probe_rows=probe_rows, plan=plan,
        build_run=build_run, probe_run=probe_run,
        output_nbytes=int(sum(v.nbytes for v in columns.values())),
    )
    return columns, stats


def _join_copartitions(build_parts: Sequence[ArrayMap],
                       probe_parts: Sequence[ArrayMap],
                       build: Mapping[str, np.ndarray],
                       probe: Mapping[str, np.ndarray]) -> ArrayMap:
    """Build & probe each co-partition and concatenate the match output."""
    outputs: list[ArrayMap] = []
    for build_part, probe_part in zip(build_parts, probe_parts):
        if columns_num_rows(build_part) == 0 or columns_num_rows(probe_part) == 0:
            continue
        build_indices, probe_indices = join_match_indices(
            build_part["__key"], probe_part["__key"])
        merged: ArrayMap = {}
        for name, values in build_part.items():
            if name != "__key":
                merged[name] = values[build_indices]
        for name, values in probe_part.items():
            if name != "__key":
                merged[name] = values[probe_indices]
        outputs.append(merged)
    if outputs:
        return {name: np.concatenate([part[name] for part in outputs])
                for name in outputs[0]}
    columns = {name: np.asarray(values)[:0]
               for name, values in build.items() if name != "__key"}
    columns.update({name: np.asarray(values)[:0]
                    for name, values in probe.items() if name != "__key"})
    return columns


def estimate_cpu_radix_join(stats: CpuRadixJoinStats,
                            device: Device) -> OpCost:
    """Cost of the cache/TLB-conscious partitioned join; no data touched."""
    cost = OpCost()
    cost.merge(estimate_partition_run(stats.build_run, device))
    cost.merge(estimate_partition_run(stats.probe_run, device))
    plan = stats.plan
    cache_bytes = target_partition_bytes(device.spec)
    table_target = ("L2" if plan.tuple_bytes * plan.final_partition_tuples
                    <= cache_bytes else "L3")
    cost.add("build", device.cost.hash_build(stats.build_rows,
                                             HASH_ENTRY_BYTES,
                                             target=table_target))
    cost.add("probe", device.cost.hash_probe(
        stats.probe_rows, HASH_ENTRY_BYTES,
        int(plan.final_partition_tuples * HASH_ENTRY_BYTES),
        target=table_target))
    cost.add("compute", (stats.build_rows + stats.probe_rows)
             * _OPS_PER_JOIN_STEP / compute_ops_per_sec(device))
    cost.add("materialize-output", device.cost.seq_write(stats.output_nbytes))
    return cost


def cpu_radix_join(build: Mapping[str, np.ndarray],
                   probe: Mapping[str, np.ndarray],
                   device: Device, *,
                   build_keys: Sequence[str],
                   probe_keys: Sequence[str]) -> OpOutput:
    """The cache/TLB-conscious CPU partitioned hash join."""
    if not device.is_cpu:
        raise ValueError("cpu_radix_join must be placed on a CPU device")
    columns, stats = cpu_radix_join_kernel(
        build, probe, build_keys=build_keys, probe_keys=probe_keys,
        spec=device.spec)
    return OpOutput(columns=columns,
                    cost=estimate_cpu_radix_join(stats, device))
