"""The engine's join index, O(n) reorder and radix bucketing against oracles.

``JoinBuildIndex`` is checked pair for pair, in order, against a
pure-Python dictionary matcher; ``restore_canonical_order`` against
``np.lexsort``; ``radix_partition_kernel`` against an int64 argsort and
binary-search bucketing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.operators import radix_partition_kernel
from repro.operators.radix import ORD_BUILD, ORD_PROBE, restore_canonical_order
from repro.relational import JoinBuildIndex, fold_keys, join_indices
from repro.relational import keys as keys_module
from repro.relational.keys import DIRECT_SLOTS_PER_ROW

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max


def dict_pairs(build, probe):
    """All (build, probe) matches, by probe position then build position."""
    buckets: dict[int, list[int]] = {}
    for index, key in enumerate(build.tolist()):
        buckets.setdefault(key, []).append(index)
    return [(left, right) for right, key in enumerate(probe.tolist())
            for left in buckets.get(key, ())]


def index_pairs(build, probe):
    left, right = JoinBuildIndex(build).probe(probe)
    assert left.dtype == np.int64 and right.dtype == np.int64
    return list(zip(left.tolist(), right.tolist()))


def _keys(values):
    return np.asarray(values, dtype=np.int64)


# (build keys, probe keys, takes the direct-address path)
CASES = {
    "dense": (_keys([4, 2, 3, 0, 1]), _keys([3, 3, 0, 9, -1, 4]), True),
    "dense-shuffled": (np.random.default_rng(1).permutation(1000),
                       np.random.default_rng(2).integers(-50, 1050, 3000),
                       True),
    "strided": (_keys(np.arange(5, 100_000, 652)),
                _keys(np.arange(0, 100_000, 7)), True),
    "strided-residue": (_keys([k for k in range(-3000, 3000) if k % 7 == 3]),
                        _keys(range(-3100, 3100)), True),
    "sparse": (_keys([0, 10**6, 17, 5 * 10**9]),
               _keys([17, 0, 10**6, 5 * 10**9, 3]), False),
    "duplicates": (_keys([1, 2, 2, 3, 5, 2]), _keys([2, 2, 3, 4, 1, 1, 5]),
                   False),
    "negative": (_keys([-5, -1, -3, -2, -4]), _keys([-3, 0, -5, -6, -1]),
                 True),
    "int64-extremes": (_keys([INT64_MIN, 0, INT64_MAX]),
                       _keys([INT64_MAX, INT64_MIN, 1, 0, INT64_MIN + 1]),
                       False),
    "near-int64-max": (_keys([INT64_MAX - 2, INT64_MAX, INT64_MAX - 1]),
                       _keys([INT64_MIN, INT64_MAX, -1, INT64_MAX - 1]),
                       True),
    "near-int64-min": (_keys([INT64_MIN + 1, INT64_MIN, INT64_MIN + 2]),
                       _keys([INT64_MAX, INT64_MIN, 0, INT64_MIN + 3]),
                       True),
    "empty-build": (_keys([]), _keys([1, 2, 3]), False),
    "empty-probe": (_keys([1, 2, 3]), _keys([]), True),
    "one-row": (_keys([42]), _keys([41, 42, 43, 42]), True),
    "off-stride-probes": (_keys([100, 200, 300, 400]),
                          _keys([150, 200, 250, 400, 401, 99, 500, 100]),
                          True),
}


class TestJoinBuildIndex:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_dict_matcher_in_order(self, name):
        build, probe, direct = CASES[name]
        assert index_pairs(build, probe) == dict_pairs(build, probe)
        assert JoinBuildIndex(build).is_direct is direct

    def test_span_budget_boundary(self):
        # Three keys whose span needs exactly the slot budget, then one more.
        budget = 3 * DIRECT_SLOTS_PER_ROW
        inside = _keys([0, 1, budget - 1])
        outside = _keys([0, 1, budget])
        assert JoinBuildIndex(inside).is_direct
        assert not JoinBuildIndex(outside).is_direct
        probe = _keys(range(-1, budget + 2))
        for build in (inside, outside):
            assert index_pairs(build, probe) == dict_pairs(build, probe)

    @pytest.mark.parametrize("last_key, direct", [(400_500, True),
                                                  (400_010, False)])
    def test_stride_is_the_gcd_of_the_whole_build(self, last_key, direct):
        # The first keys share stride 1000; a late key cuts it to 500 (the
        # table still fits) or to 10 (it does not).
        build = _keys(list(range(0, 400_000, 1000)) + [last_key])
        probe = _keys(range(-500, 401_000, 250))
        assert JoinBuildIndex(build).is_direct is direct
        assert index_pairs(build, probe) == dict_pairs(build, probe)

    def test_probes_morsel_by_morsel(self):
        build, probe, _ = CASES["dense-shuffled"]
        index = JoinBuildIndex(build)
        whole = index.probe(probe)
        lefts, rights = [], []
        for start in range(0, len(probe), 256):
            left, right = index.probe(probe[start:start + 256])
            lefts.append(left)
            rights.append(right + start)
        np.testing.assert_array_equal(np.concatenate(lefts), whole[0])
        np.testing.assert_array_equal(np.concatenate(rights), whole[1])

    def test_narrow_and_non_integer_dtypes(self):
        build = np.asarray([3, 1, 2], dtype=np.int32)
        assert JoinBuildIndex(build).is_direct
        for probe in (np.asarray([2, 9, 3], dtype=np.uint16),
                      np.asarray([2.0, 2.5, 3.0]),
                      np.asarray([2, 2**63 + 5, 3], dtype=np.uint64)):
            left, right = JoinBuildIndex(build).probe(probe)
            assert list(zip(left.tolist(), right.tolist())) == [(2, 0), (0, 2)]
        floats = np.asarray([0.5, 1.0, 1.0])
        assert not JoinBuildIndex(floats).is_direct
        assert index_pairs(floats, np.asarray([1.0, 0.5])) == [
            (1, 0), (2, 0), (0, 1)]

    @given(st.lists(st.integers(min_value=-40, max_value=40), max_size=60),
           st.lists(st.integers(min_value=-60, max_value=60), max_size=80),
           st.sampled_from([1, 3, 1000, 10**17]))
    @settings(max_examples=150, deadline=None)
    def test_property_against_dict_matcher(self, build, probe, scale):
        build = _keys(build) * scale
        probe = _keys(probe) * scale
        assert index_pairs(build, probe) == dict_pairs(build, probe)

    def test_reference_join_does_not_use_the_engine_index(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("reference join built a JoinBuildIndex")

        monkeypatch.setattr(keys_module.JoinBuildIndex, "__init__", forbidden)
        left, right = join_indices([_keys([1, 2, 3])], [_keys([3, 1])])
        assert left.tolist() == [2, 0] and right.tolist() == [0, 1]


class TestFoldKeys:
    def test_single_int64_column_is_not_copied(self):
        values = _keys([5, -1, 7])
        assert fold_keys([values]) is values

    def test_single_narrow_column_widens(self):
        folded = fold_keys([np.asarray([5, -1, 7], dtype=np.int32)])
        assert folded.dtype == np.int64
        assert folded.tolist() == [5, -1, 7]


def _order_columns(build_pos, probe_pos):
    build_pos = _keys(build_pos)
    probe_pos = _keys(probe_pos)
    return {"payload": np.arange(len(build_pos), dtype=np.float64) * 1.5,
            ORD_BUILD: build_pos, ORD_PROBE: probe_pos}


class TestRestoreCanonicalOrder:
    @pytest.mark.parametrize("output_order", ["probe", "build"])
    @pytest.mark.parametrize("unique", [True, False])
    def test_matches_lexsort(self, output_order, unique):
        rng = np.random.default_rng(7)
        rows = 5000
        if unique:
            # Distinct major positions drawn from a wider range.
            major = rng.permutation(3 * rows)[:rows]
        else:
            major = rng.integers(0, rows // 4, rows)
        minor = rng.integers(0, rows, rows)
        if output_order == "probe":
            columns = _order_columns(minor, major)
        else:
            columns = _order_columns(major, minor)
        expected = np.lexsort((minor, major))
        result = restore_canonical_order(columns, output_order=output_order)
        assert set(result) == {"payload"}
        np.testing.assert_array_equal(result["payload"],
                                      columns["payload"][expected])

    @pytest.mark.parametrize("output_order", ["probe", "build"])
    def test_empty(self, output_order):
        result = restore_canonical_order(_order_columns([], []),
                                         output_order=output_order)
        assert len(result["payload"]) == 0


def _reference_partition(columns, key, fanout):
    keys = np.asarray(columns[key], dtype=np.int64)
    bucket = (keys % fanout + fanout) % fanout
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(fanout + 1))
    gathered = {name: values[order] for name, values in columns.items()}
    return [{name: values[bounds[i]:bounds[i + 1]]
             for name, values in gathered.items()} for i in range(fanout)]


class TestRadixPartitionKernel:
    @pytest.mark.parametrize("fanout", [123, 652, 2**16 + 1])
    def test_identical_to_int64_bucketing(self, fanout):
        rng = np.random.default_rng(fanout)
        keys = np.concatenate([
            rng.integers(-10**12, 10**12, 20_000),
            _keys([INT64_MIN, INT64_MAX, 0, -1, fanout, -fanout])])
        columns = {"k": keys, "row": np.arange(len(keys))}
        got = radix_partition_kernel(columns, key="k", fanout=fanout)
        expected = _reference_partition(columns, "k", fanout)
        assert len(got) == len(expected) == fanout
        assert ([len(part["k"]) for part in got]
                == [len(part["k"]) for part in expected])
        for name in columns:
            np.testing.assert_array_equal(
                np.concatenate([part[name] for part in got]),
                np.concatenate([part[name] for part in expected]))
