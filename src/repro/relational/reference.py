"""Reference executor for logical plans.

This is the ground truth the test-suite compares every engine against: a
straightforward, single-threaded NumPy evaluation of logical plans with no
notion of devices, pipelines or cost.  It is intentionally naive — its only
job is to be obviously correct.
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanError
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.table import Table
from .expr import AggregateSpec
from .keys import fold_keys, match_indices
from .logical import Aggregate, Filter, Join, LogicalPlan, OrderBy, Project, Scan


def execute_logical(plan: LogicalPlan, catalog: Catalog) -> Table:
    """Evaluate a logical plan against the catalog and return a table."""
    columns = _execute(plan, catalog)
    return _to_table(columns)


def _to_table(columns: dict[str, np.ndarray]) -> Table:
    return Table("result", [Column(name, values) for name, values in columns.items()])


def _execute(plan: LogicalPlan, catalog: Catalog) -> dict[str, np.ndarray]:
    if isinstance(plan, Scan):
        table = catalog.table(plan.table)
        names = plan.columns if plan.columns is not None else table.column_names
        return {name: table.array(name) for name in names}
    if isinstance(plan, Filter):
        child = _execute(plan.child, catalog)
        mask = np.asarray(plan.predicate.evaluate(child), dtype=bool)
        return {name: values[mask] for name, values in child.items()}
    if isinstance(plan, Project):
        child = _execute(plan.child, catalog)
        return {alias: np.asarray(expr.evaluate(child))
                for alias, expr in plan.projections.items()}
    if isinstance(plan, Join):
        return _execute_join(plan, catalog)
    if isinstance(plan, Aggregate):
        return _execute_aggregate(plan, catalog)
    if isinstance(plan, OrderBy):
        child = _execute(plan.child, catalog)
        order = np.lexsort([child[key] for key in reversed(plan.keys)])
        return {name: values[order] for name, values in child.items()}
    raise PlanError(f"reference executor cannot evaluate {type(plan).__name__}")


def _execute_join(plan: Join, catalog: Catalog) -> dict[str, np.ndarray]:
    left = _execute(plan.left, catalog)
    right = _execute(plan.right, catalog)
    left_indices, right_indices = join_indices(
        [left[key] for key in plan.left_keys],
        [right[key] for key in plan.right_keys],
    )
    result: dict[str, np.ndarray] = {}
    for name, values in left.items():
        result[name] = values[left_indices]
    for name, values in right.items():
        if name not in result:
            result[name] = values[right_indices]
    return result


def join_indices(left_keys: list[np.ndarray],
                 right_keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """All (left, right) index pairs whose composite keys are equal.

    The semantic reference for every join algorithm in
    :mod:`repro.operators`.  Vectorized via the sort + binary-search
    :func:`~repro.relational.keys.match_indices` — deliberately not the
    engine's direct-address or hash tiers of ``JoinBuildIndex``, so the
    plan fuzzer checks the engine against code it does not share; pair
    order (by right index, ties by ascending left index) is identical to
    the historical dictionary-based implementation, which survives as
    :func:`join_indices_dict` — the cross-check oracle for small inputs.
    """
    return match_indices(_composite(left_keys), _composite(right_keys))


def join_indices_dict(left_keys: list[np.ndarray],
                      right_keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-based multi-way equi-join: the obviously-correct oracle.

    Quadratic-ish pure-Python loop kept for the test-suite to cross-check
    the vectorized :func:`join_indices` on small inputs; do not use it on
    anything large.
    """
    composite_left = _composite(left_keys)
    composite_right = _composite(right_keys)
    buckets: dict[int, list[int]] = {}
    for index, key in enumerate(composite_left):
        buckets.setdefault(int(key), []).append(index)
    left_out: list[int] = []
    right_out: list[int] = []
    for index, key in enumerate(composite_right):
        for match in buckets.get(int(key), ()):
            left_out.append(match)
            right_out.append(index)
    return (np.asarray(left_out, dtype=np.int64),
            np.asarray(right_out, dtype=np.int64))


def _composite(keys: list[np.ndarray]) -> np.ndarray:
    """Combine multi-column keys into a single int64 key (shared fold)."""
    return fold_keys(keys)


def _execute_aggregate(plan: Aggregate, catalog: Catalog) -> dict[str, np.ndarray]:
    child = _execute(plan.child, catalog)
    if not plan.group_by:
        return _grand_aggregate(child, plan.aggregates)
    group_arrays = [np.asarray(child[key]) for key in plan.group_by]
    composite = _composite(group_arrays)
    unique_keys, group_ids = np.unique(composite, return_inverse=True)
    num_groups = len(unique_keys)
    representative = np.zeros(num_groups, dtype=np.int64)
    representative[group_ids] = np.arange(len(group_ids))
    result: dict[str, np.ndarray] = {
        key: np.asarray(child[key])[representative] for key in plan.group_by
    }
    counts = np.bincount(group_ids, minlength=num_groups)
    for spec in plan.aggregates:
        result[spec.alias] = _grouped(spec, child, group_ids, num_groups, counts)
    return result


def _grouped(spec: AggregateSpec, child: dict[str, np.ndarray],
             group_ids: np.ndarray, num_groups: int,
             counts: np.ndarray) -> np.ndarray:
    if spec.func == "count":
        return counts.astype(np.int64)
    values = np.asarray(spec.expr.evaluate(child), dtype=np.float64)
    if spec.func == "sum":
        return np.bincount(group_ids, weights=values, minlength=num_groups)
    if spec.func == "avg":
        sums = np.bincount(group_ids, weights=values, minlength=num_groups)
        return sums / np.maximum(counts, 1)
    if spec.func == "min":
        out = np.full(num_groups, np.inf)
        np.minimum.at(out, group_ids, values)
        return out
    if spec.func == "max":
        out = np.full(num_groups, -np.inf)
        np.maximum.at(out, group_ids, values)
        return out
    raise PlanError(f"unsupported aggregate {spec.func!r}")


def _grand_aggregate(child: dict[str, np.ndarray],
                     aggregates: tuple[AggregateSpec, ...]) -> dict[str, np.ndarray]:
    num_rows = len(next(iter(child.values()))) if child else 0
    result: dict[str, np.ndarray] = {}
    for spec in aggregates:
        if spec.func == "count":
            result[spec.alias] = np.asarray([num_rows], dtype=np.int64)
            continue
        values = np.asarray(spec.expr.evaluate(child), dtype=np.float64)
        if spec.func == "sum":
            result[spec.alias] = np.asarray([values.sum()])
        elif spec.func == "avg":
            result[spec.alias] = np.asarray([values.mean() if num_rows else 0.0])
        elif spec.func == "min":
            result[spec.alias] = np.asarray([values.min() if num_rows else np.inf])
        elif spec.func == "max":
            result[spec.alias] = np.asarray([values.max() if num_rows else -np.inf])
    return result
