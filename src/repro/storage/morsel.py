"""Morsels: bounded row-count slices of a column batch.

Morsel-driven batched execution processes data in fixed-size horizontal
slices instead of whole-column packets, so that operator working sets stay
bounded and pipelines can overlap (the paper's bounded "data packing"
blocks, Section 3).  A :class:`Morsel` is a zero-copy view of ``morsel_rows``
consecutive rows of a column batch plus the metadata a scheduler needs to
reason about it without touching the payload: its offset, its position in
the stream and the batch it was carved from.

The module provides the three primitives the morsel pipeline is built from:

* :func:`iter_morsels` — carve a column batch into a stream of morsels
  (the scan/producer side),
* :func:`concat_columns` — materialize a list of per-morsel outputs back
  into one batch (the sink side of a streaming operator), and
* :class:`MorselSink` — the build-side accumulator of a pipeline breaker
  (hash-join builds, aggregates): it consumes an entire morsel stream and
  reassembles the batch, returning the *original* arrays without any copy
  when the stream is an untouched carving of one resident batch.

Morsels carry NumPy views, never copies, so carving a batch costs a few
object headers per morsel regardless of ``morsel_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np


#: Default morsel granularity of the engine: 512 Ki rows per morsel.  Large
#: enough that per-morsel NumPy dispatch and output reassembly stay
#: negligible against the kernel work, small enough that million-row scans
#: (TPC-H lineitem from SF ~0.1 up) stream in bounded slices.
DEFAULT_MORSEL_ROWS = 1 << 19


def morsel_count(num_rows: int, morsel_rows: int | None) -> int:
    """How many morsels a batch of ``num_rows`` rows is carved into.

    Every batch yields at least one morsel — an empty batch streams as a
    single empty morsel so downstream operators still see the schema.
    """
    if morsel_rows is None:
        return 1
    if morsel_rows <= 0:
        raise ValueError("morsel_rows must be positive")
    return max(-(-num_rows // morsel_rows), 1)


@dataclass(frozen=True, eq=False)
class Morsel:
    """A fixed row-count slice of a column batch (zero-copy views).

    ``source`` identifies the batch the morsel was carved from; a sink uses
    it to reassemble the batch without copying when the whole stream came
    from one resident batch.  Morsels produced by other means (a generator,
    a network receive) carry ``source=None`` and are concatenated instead.
    """

    #: The payload: zero-copy views of ``num_rows`` consecutive rows.
    columns: Mapping[str, np.ndarray]
    #: First row of this morsel within its source batch.
    offset: int
    #: Row count of the whole source batch.
    total_rows: int
    #: Position of this morsel in the stream (0-based).
    index: int
    #: How many morsels the stream contains in total.
    count: int
    #: The batch this morsel is a view of, if it was carved from one.
    source: Mapping[str, np.ndarray] | None = field(default=None, repr=False)

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return int(len(next(iter(self.columns.values()))))

    @property
    def nbytes(self) -> int:
        return int(sum(np.asarray(values).nbytes
                       for values in self.columns.values()))

    @property
    def is_first(self) -> bool:
        return self.index == 0

    @property
    def is_last(self) -> bool:
        return self.index == self.count - 1


def iter_morsels(columns: Mapping[str, np.ndarray],
                 morsel_rows: int | None = DEFAULT_MORSEL_ROWS,
                 ) -> Iterator[Morsel]:
    """Carve a column batch into a stream of morsels (zero-copy views).

    ``morsel_rows=None`` streams the batch as one morsel.  Empty batches
    yield a single empty morsel so consumers always observe the schema.
    """
    arrays = {name: np.asarray(values) for name, values in columns.items()}
    num_rows = 0 if not arrays else int(len(next(iter(arrays.values()))))
    count = morsel_count(num_rows, morsel_rows)
    if count == 1:
        yield Morsel(columns=arrays, offset=0, total_rows=num_rows,
                     index=0, count=1, source=arrays)
        return
    assert morsel_rows is not None
    for index in range(count):
        start = index * morsel_rows
        stop = min(start + morsel_rows, num_rows)
        yield Morsel(
            columns={name: values[start:stop]
                     for name, values in arrays.items()},
            offset=start, total_rows=num_rows, index=index, count=count,
            source=arrays,
        )


def concat_columns(parts: Sequence[Mapping[str, np.ndarray]], *,
                   consume: bool = False) -> dict[str, np.ndarray]:
    """Reassemble per-morsel operator outputs into one column batch.

    A single part is returned as-is (no copy), so whole-batch execution and
    single-morsel streams stay allocation-identical.

    ``consume=True`` pops each column out of the part dicts as it is
    concatenated (the parts must then be mutable dicts the caller owns).
    This bounds the reassembly peak: instead of holding every part *and*
    the full result until the end, at most one fully concatenated column's
    worth of parts is alive beyond the result — which is what keeps the
    materialization spike at a fused chain's boundary near the size of the
    output itself.
    """
    if not parts:
        raise ValueError("cannot concatenate zero batches")
    if len(parts) == 1:
        return dict(parts[0])
    names = list(parts[0])
    result: dict[str, np.ndarray] = {}
    for name in names:
        if consume:
            arrays = [np.asarray(part.pop(name)) for part in parts]  # type: ignore[attr-defined]
        else:
            arrays = [np.asarray(part[name]) for part in parts]
        result[name] = np.concatenate(arrays)
        del arrays
    return result


class MorselSink:
    """Accumulates a morsel stream for a pipeline breaker.

    Hash-join builds, radix-join inputs and aggregates must consume their
    whole input before emitting (build-then-probe); this sink is their
    input stage.  :meth:`finish` reassembles the batch — and when every
    consumed morsel is an untouched carving of the same source batch
    (contiguous offsets covering all of it, as :func:`iter_morsels`
    produces), it hands back the source arrays themselves: the executor's
    resident batches round-trip through a morsel stream with zero copies.
    """

    def __init__(self) -> None:
        self._morsels: list[Morsel] = []

    def consume(self, morsel: Morsel) -> None:
        """Accept the next morsel of the stream."""
        self._morsels.append(morsel)

    def extend(self, morsels: Iterator[Morsel] | Sequence[Morsel]) -> "MorselSink":
        """Consume a whole stream; returns self for chaining."""
        for morsel in morsels:
            self.consume(morsel)
        return self

    @property
    def num_rows(self) -> int:
        return sum(morsel.num_rows for morsel in self._morsels)

    @property
    def nbytes(self) -> int:
        return sum(morsel.nbytes for morsel in self._morsels)

    def _shared_source(self) -> Mapping[str, np.ndarray] | None:
        """The common source batch if the stream covers it untouched."""
        if not self._morsels:
            return None
        source = self._morsels[0].source
        if source is None:
            return None
        expected_offset = 0
        for morsel in self._morsels:
            if morsel.source is not source or morsel.offset != expected_offset:
                return None
            expected_offset += morsel.num_rows
        if expected_offset != self._morsels[0].total_rows:
            return None
        return source

    def finish(self) -> dict[str, np.ndarray]:
        """Reassemble the consumed stream into one column batch."""
        if not self._morsels:
            raise ValueError("sink consumed no morsels")
        source = self._shared_source()
        if source is not None:
            return dict(source)
        return concat_columns([morsel.columns for morsel in self._morsels])
