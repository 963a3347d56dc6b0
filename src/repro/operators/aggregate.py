"""Hash-based group-by aggregation.

The engine aggregates in two phases (Section 4.2's homogeneous parallelism
and Section 5's horizontal co-processing): every device instance builds a
*partial* aggregate over the packets routed to it, and a final CPU-side
instance merges the partials.  Partial hash tables are small (one entry per
group), so the random accesses they incur land in cache/scratchpad; the cost
model reflects that.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), the functional work lives in
:func:`hash_aggregate_kernel` / :func:`merge_partials_kernel` while
:func:`estimate_hash_aggregate` / :func:`estimate_merge_partials` cost the
same work on any device from an :class:`AggregateStats` record alone.

Under the morsel contract the aggregate is a pipeline *breaker*: its build
phase consumes every input morsel before a single output row is emitted.
:func:`hash_aggregate_kernel` accumulates the stream into a
:class:`~repro.storage.morsel.MorselSink` (zero-copy when the morsels carve
one resident batch) and finalizes with one vectorized aggregation, which
keeps the floating-point accumulation order, and therefore every output
bit, identical to whole-column execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..hardware.costmodel import AccessProfile
from ..hardware.device import Device
from ..relational.expr import AggregateSpec
from ..relational.keys import composite_key_map
from ..storage.morsel import MorselSink, iter_morsels
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    columns_num_rows,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec, expression_op_count

#: Bytes per hash-table entry per aggregate (key + running value).
_ENTRY_BYTES = 16


@dataclass(frozen=True)
class AggregateStats:
    """Data-derived quantities the aggregation cost estimator needs."""

    num_rows: int
    num_groups: int


def _aggregate_target(device: Device, table_bytes: int) -> str:
    """Where the group hash table effectively lives on this device."""
    if device.is_gpu:
        scratchpad = device.spec.scratchpad
        if scratchpad is not None and table_bytes <= scratchpad.capacity_bytes:
            return "scratchpad"
        return "L2"
    if table_bytes <= device.spec.cache("L1").capacity_bytes:
        return "L1"
    if table_bytes <= device.spec.last_level_cache.capacity_bytes:
        return "L3"
    return "memory"


def estimate_hash_aggregate(stats: AggregateStats, device: Device, *,
                            aggregates: Sequence[AggregateSpec]) -> OpCost:
    """Cost of one hash-aggregation pass on ``device``; no data touched.

    Each input tuple performs one hash-table update (random access to a
    table of ``num_groups`` entries) plus the per-aggregate arithmetic.
    """
    cost = OpCost()
    num_groups = max(stats.num_groups, 1)
    table_bytes = num_groups * _ENTRY_BYTES * max(len(aggregates), 1)
    target = _aggregate_target(device, table_bytes)
    if stats.num_rows:
        cost.add(
            f"agg-update[{target}]",
            device.cost.random_access(
                AccessProfile(stats.num_rows, _ENTRY_BYTES, table_bytes,
                              write_fraction=1.0),
                target=target,
            ),
        )
        ops = sum(expression_op_count(spec.expr) + 2 for spec in aggregates)
        cost.add("compute", stats.num_rows * ops / compute_ops_per_sec(device))
        if device.is_gpu:
            cost.add("atomics", device.cost.atomic_ops(stats.num_rows))
            cost.add("kernel-launch", device.cost.kernel_launch())
    return cost


def hash_aggregate_kernel(
        columns: Mapping[str, np.ndarray], *,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        phase: str = "complete",
        morsel_rows: int | None = None,
) -> tuple[ArrayMap, AggregateStats]:
    """Aggregate one packet once; device-independent.

    ``phase`` only affects how ``avg`` is handled: partial aggregation keeps
    ``sum`` and ``count`` so that the final merge can recombine them; the
    reference output shape (one ``avg`` column) is produced by the final /
    complete phase.

    The aggregate is a pipeline breaker: with ``morsel_rows`` set, the
    input is consumed as a morsel stream into a
    :class:`~repro.storage.morsel.MorselSink` (zero-copy for resident
    batches) before the single vectorized aggregation runs, so outputs and
    stats are bit-identical for every morsel size.
    """
    record_kernel_invocation("hash_aggregate")
    if morsel_rows is not None:
        columns = MorselSink().extend(
            iter_morsels(columns, morsel_rows)).finish()
    columns = {name: np.asarray(values) for name, values in columns.items()}
    num_rows = columns_num_rows(columns)

    group_keys = composite_key_map(columns, group_by, num_rows=num_rows)
    if num_rows:
        unique_keys, group_ids = np.unique(group_keys, return_inverse=True)
    else:
        # SQL semantics for the empty input: a grouped aggregate has no
        # groups, but a *grand* aggregate still emits its single row
        # (count=0, sum=0, min=inf, ...), matching the reference executor.
        unique_keys = (np.asarray([], dtype=np.int64) if group_by
                       else np.zeros(1, dtype=np.int64))
        group_ids = np.asarray([], dtype=np.int64)

    result: ArrayMap = {}
    if num_rows:
        representative = np.zeros(len(unique_keys), dtype=np.int64)
        representative[group_ids] = np.arange(num_rows)
        for name in group_by:
            result[name] = np.asarray(columns[name])[representative]
    else:
        for name in group_by:
            result[name] = np.asarray(columns.get(name, np.asarray([])))[:0]

    counts = (np.bincount(group_ids, minlength=len(unique_keys))
              if len(unique_keys) else np.asarray([], dtype=np.int64))
    for spec in aggregates:
        result.update(_evaluate_aggregate(spec, columns, group_ids,
                                          len(unique_keys), counts, phase,
                                          grand=not group_by))
    return result, AggregateStats(num_rows=num_rows,
                                  num_groups=len(unique_keys))


def hash_aggregate(columns: Mapping[str, np.ndarray], device: Device, *,
                   group_by: Sequence[str],
                   aggregates: Sequence[AggregateSpec],
                   phase: str = "complete") -> OpOutput:
    """Aggregate one packet on one device (kernel + cost in one)."""
    result, stats = hash_aggregate_kernel(columns, group_by=group_by,
                                          aggregates=aggregates, phase=phase)
    cost = estimate_hash_aggregate(stats, device, aggregates=aggregates)
    return OpOutput(columns=result, cost=cost)


def _evaluate_aggregate(spec: AggregateSpec, columns: Mapping[str, np.ndarray],
                        group_ids: np.ndarray, num_groups: int,
                        counts: np.ndarray, phase: str, *,
                        grand: bool = False) -> ArrayMap:
    if num_groups == 0:
        empty = np.asarray([], dtype=np.float64)
        if spec.func == "avg" and phase == "partial":
            return {f"{spec.alias}__sum": empty, f"{spec.alias}__count": empty}
        if spec.func in ("count", "sum"):
            # Match the reference executor: counts are int64, and
            # np.bincount returns int64 for empty input even with weights.
            return {spec.alias: np.asarray([], dtype=np.int64)}
        return {spec.alias: empty}
    if spec.func == "count":
        return {spec.alias: counts.astype(np.int64)}
    values = np.asarray(spec.expr.evaluate(columns), dtype=np.float64)
    if grand:
        # One global group: accumulate with NumPy's pairwise reduction,
        # exactly as the reference executor's grand aggregate does — the
        # sequential per-group ``np.bincount`` path would differ in the
        # last ulp for large inputs.
        sums = np.asarray([values.sum()])
    else:
        sums = np.bincount(group_ids, weights=values, minlength=num_groups)
    if spec.func == "sum":
        return {spec.alias: sums}
    if spec.func == "avg":
        if phase == "partial":
            return {f"{spec.alias}__sum": sums,
                    f"{spec.alias}__count": counts.astype(np.float64)}
        return {spec.alias: sums / np.maximum(counts, 1)}
    if spec.func == "min":
        out = np.full(num_groups, np.inf)
        np.minimum.at(out, group_ids, values)
        return {spec.alias: out}
    out = np.full(num_groups, -np.inf)
    np.maximum.at(out, group_ids, values)
    return {spec.alias: out}


def estimate_merge_partials(nbytes: int, device: Device) -> OpCost:
    """Cost of merging concatenated partials: one streaming pass."""
    cost = OpCost()
    cost.add("merge", device.cost.seq_scan(int(nbytes)))
    return cost


def merge_partials_kernel(
        partials: Sequence[Mapping[str, np.ndarray]], *,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
) -> tuple[ArrayMap, int]:
    """Merge per-device partial aggregates once; returns (columns, nbytes).

    ``nbytes`` is the concatenated partial payload the estimator charges a
    streaming pass for.
    """
    record_kernel_invocation("merge_partials")
    non_empty = [dict(partial) for partial in partials
                 if columns_num_rows(partial)]
    if not non_empty:
        # Shape- and dtype-correct empty result (group-by columns keep the
        # dtype the empty partials carry), built inline so the merge does
        # not also count as a hash_aggregate kernel invocation.
        template = dict(partials[0]) if partials else {}
        columns: ArrayMap = {
            name: np.asarray(template[name])[:0] if name in template
            else np.asarray([])[:0]
            for name in group_by
        }
        empty_ids = np.asarray([], dtype=np.int64)
        for spec in aggregates:
            columns.update(_evaluate_aggregate(
                spec, {}, empty_ids, 0, empty_ids, "final"))
        return columns, 0
    concatenated: ArrayMap = {
        name: np.concatenate([partial[name] for partial in non_empty])
        for name in non_empty[0]
    }
    num_rows = columns_num_rows(concatenated)
    nbytes = int(sum(values.nbytes for values in concatenated.values()))

    group_keys = composite_key_map(concatenated, group_by, num_rows=num_rows)
    unique_keys, group_ids = np.unique(group_keys, return_inverse=True)
    representative = np.zeros(len(unique_keys), dtype=np.int64)
    representative[group_ids] = np.arange(num_rows)
    result: ArrayMap = {
        name: concatenated[name][representative] for name in group_by
    }
    for spec in aggregates:
        if spec.func == "count":
            result[spec.alias] = np.bincount(
                group_ids, weights=concatenated[spec.alias],
                minlength=len(unique_keys)).astype(np.int64)
        elif spec.func == "sum":
            result[spec.alias] = np.bincount(
                group_ids, weights=concatenated[spec.alias],
                minlength=len(unique_keys))
        elif spec.func == "avg":
            sums = np.bincount(group_ids,
                               weights=concatenated[f"{spec.alias}__sum"],
                               minlength=len(unique_keys))
            cnts = np.bincount(group_ids,
                               weights=concatenated[f"{spec.alias}__count"],
                               minlength=len(unique_keys))
            result[spec.alias] = sums / np.maximum(cnts, 1)
        elif spec.func == "min":
            out = np.full(len(unique_keys), np.inf)
            np.minimum.at(out, group_ids, concatenated[spec.alias])
            result[spec.alias] = out
        else:  # max
            out = np.full(len(unique_keys), -np.inf)
            np.maximum.at(out, group_ids, concatenated[spec.alias])
            result[spec.alias] = out
    return result, nbytes


def merge_partials(partials: Sequence[Mapping[str, np.ndarray]], device: Device, *,
                   group_by: Sequence[str],
                   aggregates: Sequence[AggregateSpec]) -> OpOutput:
    """Merge per-device partial aggregates into the final result."""
    columns, nbytes = merge_partials_kernel(partials, group_by=group_by,
                                            aggregates=aggregates)
    return OpOutput(columns=columns,
                    cost=estimate_merge_partials(nbytes, device))
