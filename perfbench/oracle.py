"""Answers the engine's results are checked against, computed independently.

The TPC-H answers are computed from the generated base-table arrays with
NumPy filters and aggregates and Python ``dict`` joins over decoded values.
Nothing here imports ``repro.relational``, ``repro.operators`` or
``repro.engine``: the engine's own reference executor shares its key fold,
so it cannot catch a wrong join or group-by.

Every answer is a ``dict`` from a tuple of decoded group values to a tuple
of floats; :func:`decode_result` turns an engine result table into the same
shape, and :func:`answers_match` compares two of them with a relative
tolerance (the engine and the oracle sum floats in different orders).
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance of an aggregate value.  Sums of at most a few million
#: float64 terms accumulated in different orders differ far below this.
REL_TOL = 1e-9

#: Columns of each query's result that are group keys, in result order;
#: dictionary-coded ones name the base column whose dictionary decodes them.
GROUP_COLUMNS = {
    "Q1": (("l_returnflag", ("lineitem", "l_returnflag")),
           ("l_linestatus", ("lineitem", "l_linestatus"))),
    "Q5": (("n_name", ("nation", "n_name")),),
    "Q6": (),
    "Q9": (("n_name", ("nation", "n_name")), ("o_year", None)),
}

VALUE_COLUMNS = {
    "Q1": ("sum_qty", "sum_base_price", "sum_disc_price", "sum_charge",
           "avg_qty", "avg_price", "avg_disc", "count_order"),
    "Q5": ("revenue",),
    "Q6": ("revenue",),
    "Q9": ("sum_profit",),
}


def _date(text: str) -> int:
    year, month, day = (int(part) for part in text.split("-"))
    return year * 10000 + month * 100 + day


def _decoder(table, column: str):
    """Code -> value of a dictionary-coded column."""
    return table.column(column).dictionary.values.__getitem__


def _grouped_sums(keys: list[np.ndarray], decoders: list, values: list
                  ) -> dict[tuple, list[float]]:
    """Sum every ``values`` array per group of decoded key values.

    Rows are grouped on the exact integer ``keys`` first (one lexsort);
    each group's key tuple is then decoded and groups that decode to the
    same values are merged, so the result is grouped by value.
    """
    if not keys:
        return {(): [float(np.sum(v)) for v in values]}
    order = np.lexsort(keys[::-1])
    sorted_keys = [np.asarray(k)[order] for k in keys]
    change = np.zeros(len(order), dtype=bool)
    if len(order):
        change[0] = True
    for k in sorted_keys:
        change[1:] |= k[1:] != k[:-1]
    group = np.cumsum(change) - 1
    firsts = np.flatnonzero(change)
    sums = [np.bincount(group, weights=np.asarray(v)[order],
                        minlength=len(firsts)) for v in values]
    merged: dict[tuple, list[float]] = {}
    for g, first in enumerate(firsts.tolist()):
        key = tuple(decode(int(k[first]))
                    for decode, k in zip(decoders, sorted_keys))
        totals = merged.setdefault(key, [0.0] * len(values))
        for i, s in enumerate(sums):
            totals[i] += float(s[g])
    return merged


def q1(tables) -> dict[tuple, tuple]:
    li = tables["lineitem"]
    keep = li.array("l_shipdate") <= _date("1998-09-02")
    qty = li.array("l_quantity")[keep]
    price = li.array("l_extendedprice")[keep]
    disc = li.array("l_discount")[keep]
    tax = li.array("l_tax")[keep]
    disc_price = price * (1.0 - disc)
    groups = _grouped_sums(
        [li.array("l_returnflag")[keep], li.array("l_linestatus")[keep]],
        [_decoder(li, "l_returnflag"), _decoder(li, "l_linestatus")],
        [qty, price, disc_price, disc_price * (1.0 + tax), disc,
         np.ones(len(qty))])
    answer = {}
    for key, (s_qty, s_price, s_disc_price, s_charge, s_disc, count) in (
            groups.items()):
        answer[key] = (s_qty, s_price, s_disc_price, s_charge,
                       s_qty / count, s_price / count, s_disc / count, count)
    return answer


def q6(tables) -> dict[tuple, tuple]:
    li = tables["lineitem"]
    ship = li.array("l_shipdate")
    disc = li.array("l_discount")
    keep = ((ship >= _date("1994-01-01")) & (ship < _date("1995-01-01"))
            & (disc >= 0.05) & (disc <= 0.07)
            & (li.array("l_quantity") < 24.0))
    return {(): (float(np.sum(li.array("l_extendedprice")[keep]
                              * disc[keep])),)}


def q5(tables) -> dict[tuple, tuple]:
    region, nation = tables["region"], tables["nation"]
    region_name = _decoder(region, "r_name")
    asia = {key for key, code in zip(region.array("r_regionkey").tolist(),
                                     region.array("r_name").tolist())
            if region_name(code) == "ASIA"}
    asia_nations = {key for key, reg in zip(
        nation.array("n_nationkey").tolist(),
        nation.array("n_regionkey").tolist()) if reg in asia}
    nation_name = dict(zip(nation.array("n_nationkey").tolist(),
                           nation.column("n_name").decoded()))
    supplier = tables["supplier"]
    supp_nation = {s: n for s, n in zip(
        supplier.array("s_suppkey").tolist(),
        supplier.array("s_nationkey").tolist()) if n in asia_nations}
    orders = tables["orders"]
    odate = orders.array("o_orderdate")
    okeep = (odate >= _date("1994-01-01")) & (odate < _date("1995-01-01"))
    order_cust = dict(zip(orders.array("o_orderkey")[okeep].tolist(),
                          orders.array("o_custkey")[okeep].tolist()))
    customer = tables["customer"]
    cust_nation = dict(zip(customer.array("c_custkey").tolist(),
                           customer.array("c_nationkey").tolist()))
    li = tables["lineitem"]
    cust = [order_cust.get(key) for key in li.array("l_orderkey").tolist()]
    cust_nations = np.asarray([-2 if key is None else cust_nation[key]
                               for key in cust])
    supp_nations = np.asarray([supp_nation.get(key, -1)
                               for key in li.array("l_suppkey").tolist()])
    keep = (supp_nations >= 0) & (supp_nations == cust_nations)
    revenue = (li.array("l_extendedprice")[keep]
               * (1.0 - li.array("l_discount")[keep]))
    return {key: tuple(sums) for key, sums in _grouped_sums(
        [supp_nations[keep]], [nation_name.__getitem__], [revenue]).items()}


def q9(tables) -> dict[tuple, tuple]:
    nation, supplier = tables["nation"], tables["supplier"]
    nation_name = dict(zip(nation.array("n_nationkey").tolist(),
                           nation.column("n_name").decoded()))
    supp_nation = dict(zip(supplier.array("s_suppkey").tolist(),
                           supplier.array("s_nationkey").tolist()))
    ps = tables["partsupp"]
    supplycost = dict(zip(zip(ps.array("ps_partkey").tolist(),
                              ps.array("ps_suppkey").tolist()),
                          ps.array("ps_supplycost").tolist()))
    orders = tables["orders"]
    order_year = dict(zip(orders.array("o_orderkey").tolist(),
                          (orders.array("o_orderdate") // 10000).tolist()))
    li = tables["lineitem"]
    suppkeys = li.array("l_suppkey").tolist()
    cost = np.asarray([supplycost[key] for key in zip(
        li.array("l_partkey").tolist(), suppkeys)])
    year = np.asarray([order_year[key]
                       for key in li.array("l_orderkey").tolist()])
    nations = np.asarray([supp_nation[key] for key in suppkeys])
    amount = (li.array("l_extendedprice") * (1.0 - li.array("l_discount"))
              - cost * li.array("l_quantity"))
    return {key: tuple(sums) for key, sums in _grouped_sums(
        [nations, year], [nation_name.__getitem__, int], [amount]).items()}


QUERIES = {"Q1": q1, "Q5": q5, "Q6": q6, "Q9": q9}


def tpch_answers(tables) -> dict[str, dict[tuple, tuple]]:
    """The oracle's answer to every evaluated TPC-H query."""
    return {name: fn(tables) for name, fn in QUERIES.items()}


def decode_result(query: str, result_table, tables) -> dict[tuple, tuple]:
    """An engine result table in the oracle's answer shape."""
    groups = []
    for column, source in GROUP_COLUMNS[query]:
        values = result_table.column(column).values
        if source is None:
            groups.append([int(v) for v in values])
        else:
            dictionary = tables[source[0]].column(source[1]).dictionary
            groups.append(dictionary.decode(values))
    values = [result_table.column(c).values.tolist()
              for c in VALUE_COLUMNS[query]]
    rows = result_table.num_rows
    answer = {}
    for row in range(rows):
        key = tuple(g[row] for g in groups)
        if key in answer:  # a group emitted twice is a wrong answer
            return {"duplicate group": key}
        answer[key] = tuple(float(v[row]) for v in values)
    return answer


def answers_match(got: dict, want: dict) -> bool:
    """Same groups, every value within :data:`REL_TOL`."""
    if got.keys() != want.keys():
        return False
    return all(len(got[k]) == len(want[k]) and all(
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-6)
        for a, b in zip(got[k], want[k])) for k in want)


class JoinCheck:
    """Expected output of the microbenchmark join, derived from its inputs.

    Build and probe keys are permutations of one dense key domain, so the
    join pairs every build row with exactly one probe row.  The check
    confirms the row count, the per-column sums, that every output row
    satisfies the join condition, and that each payload belongs to the row
    whose key it arrived with.
    """

    def __init__(self, build: dict, probe: dict) -> None:
        self.rows = len(build["key"])
        self.sums = {name: int(np.sum(values, dtype=np.int64))
                     for side in (build, probe)
                     for name, values in side.items()}
        self.build_payload = np.empty(self.rows, dtype=np.int64)
        self.build_payload[build["key"]] = build["b_payload"]
        self.probe_payload = np.empty(self.rows, dtype=np.int64)
        self.probe_payload[probe["p_key"]] = probe["payload"]

    def matches(self, columns) -> bool:
        if set(columns) != set(self.sums):
            return False
        key, p_key = columns["key"], columns["p_key"]
        if len(key) != self.rows:
            return False
        if any(int(np.sum(columns[name], dtype=np.int64)) != total
               for name, total in self.sums.items()):
            return False
        return bool(np.array_equal(key, p_key)
                    and np.array_equal(self.build_payload[key],
                                       columns["b_payload"])
                    and np.array_equal(self.probe_payload[p_key],
                                       columns["payload"]))
