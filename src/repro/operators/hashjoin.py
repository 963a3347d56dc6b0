"""Non-partitioned (hardware-oblivious) hash join.

The baseline every partitioned join is compared against (Figures 6 and 9):
build one global hash table over the build side, then probe it with every
probe-side tuple.  Both phases perform random accesses over a table that is
usually far larger than any cache, so they over-fetch a full cache line /
memory sector per access and suffer TLB misses — that is precisely the
"random accesses are the main bottleneck" argument of Section 4.1.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), :func:`hash_join_kernel` computes the join result
once while :func:`estimate_non_partitioned_join` prices the same work on any
device from a :class:`JoinStats` record alone.

Under the morsel contract the join is *build-then-probe*: the build side is
a pipeline breaker (:class:`HashJoinBuild` consumes it entirely — morsel
streams arrive through a :class:`~repro.storage.morsel.MorselSink`), after
which the probe side streams: :meth:`HashJoinBuild.probe` matches one probe
morsel at a time, and because the match list is ordered by probe position,
concatenated per-morsel outputs equal the whole-column join bit for bit.

That probe surface is also what makes this join *fusable*
(:func:`repro.codegen.pipeline.is_fused_probe`): the executor's
pipeline-fused chains build the index once and then drive each chain
morsel through :meth:`HashJoinBuild.probe` on its way to the fusion
boundary, so the join output never materializes as a standalone batch.
The partitioned joins cannot offer this — they re-order both inputs — and
therefore always break the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..hardware.device import Device
from ..relational.keys import JoinBuildIndex, composite_key_map
from ..storage.morsel import Morsel, MorselSink, concat_columns, iter_morsels
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    columns_num_rows,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec

#: Bytes of one hash-table entry: key, payload reference and next pointer.
HASH_ENTRY_BYTES = 16

#: Scalar ops per build/probe step in generated code (hashing + compare).
_OPS_PER_STEP = 8.0


def join_match_indices(build_keys: np.ndarray,
                       probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of all matching (build, probe) pairs for an equi-join.

    One :class:`~repro.relational.keys.JoinBuildIndex` build and probe:
    a direct-address table for unique, densely spread integer keys, an
    open-addressing hash table for other unique integer keys, the
    sort-based matcher for duplicate, non-integer or over-clustered keys.
    Returns ``(build_indices, probe_indices)`` ordered by probe position.
    """
    return JoinBuildIndex(build_keys).probe(probe_keys)


def composite_key(columns: Mapping[str, np.ndarray],
                  keys: Sequence[str]) -> np.ndarray:
    """Fold multi-column join keys into one int64 key column.

    Delegates to the shared overflow-safe fold in
    :mod:`repro.relational.keys`.
    """
    return composite_key_map(columns, keys,
                             num_rows=columns_num_rows(columns))


def _materialize_join(build: Mapping[str, np.ndarray],
                      probe: Mapping[str, np.ndarray],
                      build_indices: np.ndarray,
                      probe_indices: np.ndarray | None) -> ArrayMap:
    """Gather the output columns of a join (probe columns win name clashes).

    ``probe_indices=None`` means every probe row matched exactly once, in
    order: the probe columns pass through without a copy.
    """
    result: ArrayMap = {}
    for name, values in build.items():
        result[name] = np.asarray(values)[build_indices]
    for name, values in probe.items():
        values = np.asarray(values)
        if probe_indices is not None:
            values = values[probe_indices]
        result[name] = values
    return result


@dataclass(frozen=True)
class JoinStats:
    """Data-derived quantities the join cost estimators need."""

    build_rows: int
    probe_rows: int
    build_nbytes: int
    probe_nbytes: int
    output_nbytes: int


class HashJoinBuild:
    """The build-then-probe state of the non-partitioned hash join.

    Constructing it consumes the *entire* build side (the join's pipeline
    breaker) and indexes the folded keys once — the simulated analogue of
    building the global hash table.  :meth:`probe` then matches one probe
    batch at a time; per-morsel probe outputs concatenate to exactly the
    whole-column join result, so a morsel scheduler can stream the probe
    side without changing a single output byte.
    """

    def __init__(self, build: Mapping[str, np.ndarray], *,
                 build_keys: Sequence[str]) -> None:
        self.columns = {name: np.asarray(values)
                        for name, values in build.items()}
        self.index = JoinBuildIndex(composite_key(self.columns, build_keys))

    @classmethod
    def from_morsels(cls, morsels: Iterable[Morsel], *,
                     build_keys: Sequence[str]) -> "HashJoinBuild":
        """Consume a build-side morsel stream, then build the index."""
        sink = MorselSink().extend(morsels)
        return cls(sink.finish(), build_keys=build_keys)

    @property
    def num_rows(self) -> int:
        return columns_num_rows(self.columns)

    @property
    def nbytes(self) -> int:
        return int(sum(v.nbytes for v in self.columns.values()))

    def probe(self, probe: Mapping[str, np.ndarray], *,
              probe_keys: Sequence[str]) -> ArrayMap:
        """Join one probe batch (whole side or a single morsel)."""
        probe = {name: np.asarray(values) for name, values in probe.items()}
        build_indices, probe_indices = self.index.probe(
            composite_key(probe, probe_keys))
        # Unique build keys match each probe row at most once, so as many
        # matches as probe rows means ``probe_indices`` is ``arange``.
        if (self.index.unique_keys
                and len(probe_indices) == columns_num_rows(probe)):
            probe_indices = None
        return _materialize_join(self.columns, probe,
                                 build_indices, probe_indices)


def hash_join_kernel(build: Mapping[str, np.ndarray],
                     probe: Mapping[str, np.ndarray], *,
                     build_keys: Sequence[str],
                     probe_keys: Sequence[str],
                     morsel_rows: int | None = None,
                     output_order: str = "probe",
                     ) -> tuple[ArrayMap, JoinStats]:
    """Evaluate the equi-join once; device-independent.

    With ``morsel_rows`` set, the probe side streams through the build
    state morsel-at-a-time (build-then-probe); output and stats are
    bit-identical to the whole-column evaluation.

    ``output_order`` selects the canonical output row order (see
    ``docs/ARCHITECTURE.md``): ``"probe"`` (the default, and the join's
    natural order) emits matches ordered by probe position with ties by
    ascending build position; ``"build"`` emits build-major order — the
    executor requests it for joins whose build side is the logical *right*
    input, so every join's output matches the reference executor's
    right-major order row for row.  The order never changes stats, only the
    permutation of the output rows.
    """
    record_kernel_invocation("hash_join")
    if output_order not in ("probe", "build"):
        raise ValueError("output_order must be 'probe' or 'build'")
    if morsel_rows is None:
        builder = HashJoinBuild(build, build_keys=build_keys)
    else:
        builder = HashJoinBuild.from_morsels(
            iter_morsels(build, morsel_rows), build_keys=build_keys)
    probe = {name: np.asarray(values) for name, values in probe.items()}
    probe_rows = columns_num_rows(probe)
    if output_order == "build":
        # Collect the (build, probe) match positions — streamed per morsel
        # with global probe offsets, so the concatenated index lists equal
        # the whole-side probe — then re-sort build-major.  Stats see the
        # same rows and bytes as the probe-major path.
        build_parts: list[np.ndarray] = []
        probe_parts: list[np.ndarray] = []
        offset = 0
        for morsel in iter_morsels(probe, morsel_rows):
            build_idx, probe_idx = builder.index.probe(
                composite_key(dict(morsel.columns), probe_keys))
            build_parts.append(build_idx)
            probe_parts.append(probe_idx + offset)
            offset += morsel.num_rows
        build_indices = (np.concatenate(build_parts) if build_parts
                         else np.asarray([], dtype=np.int64))
        probe_indices = (np.concatenate(probe_parts) if probe_parts
                         else np.asarray([], dtype=np.int64))
        order = np.lexsort((probe_indices, build_indices))
        columns = _materialize_join(builder.columns, probe,
                                    build_indices[order],
                                    probe_indices[order])
    elif morsel_rows is None or probe_rows <= morsel_rows:
        columns = builder.probe(probe, probe_keys=probe_keys)
    else:
        columns = concat_columns([
            builder.probe(morsel.columns, probe_keys=probe_keys)
            for morsel in iter_morsels(probe, morsel_rows)
        ])
    stats = JoinStats(
        build_rows=builder.num_rows,
        probe_rows=probe_rows,
        build_nbytes=builder.nbytes,
        probe_nbytes=int(sum(v.nbytes for v in probe.values())),
        output_nbytes=int(sum(v.nbytes for v in columns.values())),
    )
    return columns, stats


def estimate_non_partitioned_join(stats: JoinStats, device: Device, *,
                                  charge_input_scan: bool = True) -> OpCost:
    """Cost of the hardware-oblivious join on ``device``; no data touched."""
    cost = OpCost()
    table_bytes = max(stats.build_rows, 1) * HASH_ENTRY_BYTES
    if charge_input_scan:
        cost.add("scan-build", device.cost.seq_scan(stats.build_nbytes))
        cost.add("scan-probe", device.cost.seq_scan(stats.probe_nbytes))
    if stats.build_rows:
        cost.add("build", device.cost.hash_build(stats.build_rows,
                                                 HASH_ENTRY_BYTES))
    if stats.probe_rows:
        cost.add("probe", device.cost.hash_probe(
            stats.probe_rows, HASH_ENTRY_BYTES, table_bytes))
        cost.add("compute",
                 (stats.build_rows + stats.probe_rows) * _OPS_PER_STEP
                 / compute_ops_per_sec(device))
    if device.is_gpu:
        cost.add("kernel-launch", device.cost.kernel_launch(2))
    cost.add("materialize-output", device.cost.seq_write(stats.output_nbytes))
    return cost


def non_partitioned_join(build: Mapping[str, np.ndarray],
                         probe: Mapping[str, np.ndarray],
                         device: Device, *,
                         build_keys: Sequence[str],
                         probe_keys: Sequence[str],
                         charge_input_scan: bool = True) -> OpOutput:
    """Hardware-oblivious hash join of two column maps on one device."""
    columns, stats = hash_join_kernel(build, probe, build_keys=build_keys,
                                      probe_keys=probe_keys)
    cost = estimate_non_partitioned_join(stats, device,
                                         charge_input_scan=charge_input_scan)
    return OpOutput(columns=columns, cost=cost)


def build_table_bytes(build_rows: int) -> int:
    """Size of the global hash table a non-partitioned join allocates.

    Exposed so that engines can check whether the table fits in GPU memory
    before attempting GPU execution (the Q9 failure mode in Section 6.4).
    """
    return int(build_rows * HASH_ENTRY_BYTES)


__all__ = [
    "HASH_ENTRY_BYTES",
    "HashJoinBuild",
    "JoinStats",
    "build_table_bytes",
    "composite_key",
    "estimate_non_partitioned_join",
    "hash_join_kernel",
    "join_match_indices",
    "non_partitioned_join",
]
