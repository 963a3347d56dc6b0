"""Shared composite-key folding and equi-join matching primitives.

Every join and group-by in the code base reduces multi-column keys to a
single ``int64`` column before hashing, partitioning or matching.  The
folding used to exist in three copies (``operators/hashjoin.py``,
``operators/aggregate.py`` and ``relational/reference.py``); this module is
the single implementation all of them share.

The fold is a polynomial rolling hash ``acc = acc * P + key`` with
``P = 1_000_003``.  It is computed in ``uint64`` so that overflow is
well-defined modular arithmetic (NumPy's ``int64`` wraparound is identical
bit-for-bit, but going through ``uint64`` keeps the semantics explicit and
silences any overflow warnings), then reinterpreted as ``int64``.

This module intentionally depends only on NumPy so that both the relational
reference executor and the hardware-conscious operators can import it
without creating an import cycle.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

#: Multiplier of the polynomial key fold.  Prime, so consecutive small key
#: domains (dictionary codes, date ints) rarely collide after folding.
FOLD_MULTIPLIER = 1_000_003


def fold_keys(arrays: Sequence[np.ndarray], *,
              num_rows: int | None = None) -> np.ndarray:
    """Fold multi-column keys into one ``int64`` key column.

    ``num_rows`` is only needed when ``arrays`` is empty (e.g. a grand
    aggregate with no group-by columns), where the fold degenerates to an
    all-zero key column of that length.
    """
    if not arrays:
        if num_rows is None:
            raise ValueError("fold_keys needs num_rows when no key arrays "
                             "are given")
        return np.zeros(num_rows, dtype=np.int64)
    if len(arrays) == 1:
        # A one-column fold is the column itself: 0 * P + key.
        return np.asarray(arrays[0], dtype=np.int64)
    multiplier = np.uint64(FOLD_MULTIPLIER)
    combined = np.zeros(len(np.asarray(arrays[0])), dtype=np.uint64)
    for values in arrays:
        folded = np.asarray(values, dtype=np.int64).astype(np.uint64)
        combined = combined * multiplier + folded
    return combined.view(np.int64)


def composite_key_map(columns: Mapping[str, np.ndarray],
                      keys: Sequence[str], *,
                      num_rows: int | None = None) -> np.ndarray:
    """:func:`fold_keys` over named columns of a column map."""
    if not keys and num_rows is None:
        first = next(iter(columns.values()), None)
        num_rows = 0 if first is None else len(np.asarray(first))
    return fold_keys([np.asarray(columns[name]) for name in keys],
                     num_rows=num_rows)


#: Direct-address slots a join build may allocate per build row.  A sweep
#: of build + probe wall time over key span per build row (10^5 and 10^6
#: unique build keys, 4x as many uniform probes; 2-CPU Xeon, NumPy 2.4)
#: found the table faster than the sort-based matcher up to a span of 128
#: per row and about even at 512, so memory sets the bound: 8 slots (64
#: bytes) per row is 4x the sort path's order and sorted copy, and still
#: covers TPC-H Q5's date-filtered ``orders`` build (span 6.2 per row).
DIRECT_SLOTS_PER_ROW = 8

#: Key spans at or above this go straight to the sort-based matcher, so
#: ``keys - lo`` can never wrap around ``int64``.
_MAX_DIRECT_SPAN = 1 << 62


def _direct_dtype(dtype: np.dtype) -> bool:
    """Whether every value of ``dtype`` converts to ``int64`` exactly."""
    return dtype.kind == "i" or (dtype.kind == "u" and dtype.itemsize < 8)


def _direct_layout(keys: np.ndarray) -> tuple[int, int, int] | None:
    """``(lo, hi, step)`` of a direct-address table over integer ``keys``.

    ``None`` when the span ``hi - lo``, divided by the keys' common stride
    ``step``, needs more than ``DIRECT_SLOTS_PER_ROW`` slots per key.  The
    stride matters for radix co-partitions: every key of one holds the same
    residue modulo the fan-out.
    """
    lo, hi = int(keys.min()), int(keys.max())
    span = hi - lo
    if span >= _MAX_DIRECT_SPAN:
        return None
    budget = DIRECT_SLOTS_PER_ROW * len(keys)
    step = 1
    if span >= budget:
        step = int(np.gcd.reduce(keys - np.int64(lo)))
        if span // step >= budget:
            return None
    return lo, hi, step


class _SortedKeyIndex:
    """Sort-based matcher: one stable argsort, binary-search probes.

    Handles any key dtype and duplicate keys.  Pairs come out ordered by
    probe position, ties by ascending build position.
    """

    __slots__ = ("order", "sorted_keys", "unique_keys")

    def __init__(self, left_keys: np.ndarray) -> None:
        self.order = np.argsort(left_keys, kind="stable")
        self.sorted_keys = left_keys[self.order]
        self.unique_keys = not np.any(
            self.sorted_keys[1:] == self.sorted_keys[:-1])

    def probe(self, right_keys: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        sorted_keys = self.sorted_keys
        empty = (np.asarray([], dtype=np.int64),
                 np.asarray([], dtype=np.int64))
        if len(sorted_keys) == 0 or len(right_keys) == 0:
            return empty
        if self.unique_keys:
            # Unique build keys (the common PK-FK case): one binary search
            # and a membership test instead of the two-sided search below.
            positions = np.searchsorted(sorted_keys, right_keys, side="left")
            positions = np.minimum(positions, len(sorted_keys) - 1)
            matched = sorted_keys[positions] == right_keys
            right_indices = np.flatnonzero(matched)
            if len(right_indices) == 0:
                return empty
            left_indices = self.order[positions[right_indices]]
            return (left_indices.astype(np.int64, copy=False),
                    right_indices.astype(np.int64, copy=False))
        left = np.searchsorted(sorted_keys, right_keys, side="left")
        right = np.searchsorted(sorted_keys, right_keys, side="right")
        counts = right - left
        right_indices = np.repeat(np.arange(len(right_keys)), counts)
        if len(right_indices) == 0:
            return empty
        # For each probe tuple, enumerate the run of matching build positions.
        starts = np.repeat(left, counts)
        run_offsets = np.arange(len(right_indices)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        left_indices = self.order[starts + run_offsets]
        return (left_indices.astype(np.int64, copy=False),
                right_indices.astype(np.int64, copy=False))


class JoinBuildIndex:
    """Key index over a join's build side (build once, probe many).

    The build-then-probe surface of every engine equi-join.  When the build
    keys are unique integers whose span, divided by their common stride,
    fits ``DIRECT_SLOTS_PER_ROW`` slots per key, construction scatters the
    row ids into a direct-address table — no sort — and :meth:`probe` is a
    range/stride mask plus one gather.  The table holds at most
    ``DIRECT_SLOTS_PER_ROW * n + 1`` ``int64`` slots.  Any other build side
    (duplicate, sparse, non-integer or near-``int64``-extreme keys) falls
    back to one stable argsort and binary-search probes.

    :meth:`probe` can be called per probe batch — the whole probe side at
    once, or one morsel at a time.  Both paths order pairs by probe
    position (ties by ascending build position), so concatenating
    per-morsel probe results reproduces the whole-column match list bit
    for bit, whichever path the keys take.
    """

    __slots__ = ("_keys", "_lo", "_hi", "_step", "_table", "_sorted")

    def __init__(self, left_keys: np.ndarray) -> None:
        left_keys = np.asarray(left_keys)
        self._keys = left_keys
        self._table: np.ndarray | None = None
        self._sorted: _SortedKeyIndex | None = None
        if len(left_keys) and _direct_dtype(left_keys.dtype):
            keys = left_keys.astype(np.int64, copy=False)
            layout = _direct_layout(keys)
            if layout is not None and self._scatter(keys, *layout):
                return
        self._sorted = _SortedKeyIndex(left_keys)

    def _scatter(self, keys: np.ndarray, lo: int, hi: int, step: int) -> bool:
        """Fill the direct-address table; ``False`` on duplicate keys."""
        offsets = keys - np.int64(lo)
        if step != 1:
            offsets //= step
        # One slot past the last key stays empty: probes that miss the
        # range or the stride are pointed at it.
        table = np.full((hi - lo) // step + 2, -1, dtype=np.int64)
        table[offsets] = np.arange(len(keys), dtype=np.int64)
        if np.count_nonzero(table >= 0) != len(keys):
            return False
        self._lo, self._hi, self._step, self._table = lo, hi, step, table
        return True

    @property
    def num_rows(self) -> int:
        return int(len(self._keys))

    @property
    def is_direct(self) -> bool:
        """Whether the build took the direct-address path."""
        return self._table is not None

    def probe(self, right_keys: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of all matching ``(left, right)`` pairs for one batch.

        The result is ordered by right index, ties ordered by ascending
        left index — the same order a nested dictionary lookup would
        produce.
        """
        right_keys = np.asarray(right_keys)
        table = self._table
        if table is None or not _direct_dtype(right_keys.dtype):
            if self._sorted is None:
                self._sorted = _SortedKeyIndex(self._keys)
            return self._sorted.probe(right_keys)
        keys = right_keys.astype(np.int64, copy=False)
        valid = (keys >= self._lo) & (keys <= self._hi)
        # Outside [lo, hi] the subtraction may wrap; those slots are masked.
        slots = keys - np.int64(self._lo)
        if self._step != 1:
            valid &= slots % self._step == 0
            slots //= self._step
        slots[~valid] = len(table) - 1
        hits = table[slots]
        right_indices = np.flatnonzero(hits >= 0)
        return hits[right_indices], right_indices


def match_indices(left_keys: np.ndarray,
                  right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of all matching ``(left, right)`` pairs for an equi-join.

    Always the sort-based matcher: one stable sort of the left (build) side
    plus binary searches from the right (probe) side; handles duplicate
    left keys.  The result is ordered by right index, ties ordered by
    ascending left index — the same order a nested dictionary lookup would
    produce.  The reference executor joins with this, so the plan fuzzer
    checks the engine's :class:`JoinBuildIndex` against code it does not
    share.
    """
    return _SortedKeyIndex(np.asarray(left_keys)).probe(np.asarray(right_keys))
