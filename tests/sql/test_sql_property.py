"""Property-based tests: the SQL engine vs a brute-force python evaluator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Relation
from repro import connect

rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-50, 50),
              st.sampled_from(["x", "y", "z"])),
    min_size=0, max_size=40)


from repro.bat.bat import DataType

TYPES = {"g": DataType.INT, "v": DataType.INT, "s": DataType.STR}


def make_session(data):
    rel = Relation.from_columns({
        "g": [r[0] for r in data],
        "v": [r[1] for r in data],
        "s": [r[2] for r in data]}, TYPES)
    session = connect()
    session.register("t", rel)
    return session


@given(rows, st.integers(-50, 50))
@settings(max_examples=50, deadline=None)
def test_filter_matches_python(data, threshold):
    session = make_session(data)
    out = session.execute(f"SELECT g, v FROM t WHERE v > {threshold}")
    expected = sorted((r[0], r[1]) for r in data if r[1] > threshold)
    assert sorted(out.to_rows()) == expected


@given(rows)
@settings(max_examples=50, deadline=None)
def test_group_sum_matches_python(data):
    session = make_session(data)
    out = session.execute(
        "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g")
    expected: dict[int, list] = {}
    for g, v, _ in data:
        entry = expected.setdefault(g, [0, 0])
        entry[0] += v
        entry[1] += 1
    got = {r[0]: [r[1], r[2]] for r in out.to_rows()}
    assert got == expected


@given(rows, rows)
@settings(max_examples=40, deadline=None)
def test_join_matches_python(left, right):
    lrel = Relation.from_columns({"k": [r[0] for r in left],
                                  "v": [r[1] for r in left]},
                                 {"k": DataType.INT, "v": DataType.INT})
    rrel = Relation.from_columns({"j": [r[0] for r in right],
                                  "w": [r[1] for r in right]},
                                 {"j": DataType.INT, "w": DataType.INT})
    session = connect()
    session.register("l", lrel)
    session.register("r", rrel)
    out = session.execute(
        "SELECT k, v, w FROM l JOIN r ON l.k = r.j")
    expected = sorted((lk, lv, rw) for lk, lv, _ in left
                      for rk, rw, _ in right if lk == rk)
    assert sorted(out.to_rows()) == expected


@given(rows)
@settings(max_examples=40, deadline=None)
def test_order_limit_matches_python(data):
    session = make_session(data)
    out = session.execute("SELECT v FROM t ORDER BY v LIMIT 5")
    expected = [(v,) for v in sorted(r[1] for r in data)[:5]]
    assert out.to_rows() == expected


@given(rows)
@settings(max_examples=40, deadline=None)
def test_distinct_matches_python(data):
    session = make_session(data)
    out = session.execute("SELECT DISTINCT g, s FROM t")
    expected = sorted({(r[0], r[2]) for r in data})
    assert sorted(out.to_rows()) == expected


@given(rows)
@settings(max_examples=30, deadline=None)
def test_case_expression_matches_python(data):
    session = make_session(data)
    out = session.execute(
        "SELECT v, CASE WHEN v > 0 THEN 'pos' WHEN v < 0 THEN 'neg' "
        "ELSE 'zero' END AS sign FROM t")
    for v, sign in out.to_rows():
        expected = "pos" if v > 0 else ("neg" if v < 0 else "zero")
        assert sign == expected
