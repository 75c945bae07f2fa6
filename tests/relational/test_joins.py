"""Join tests, including property-based equivalence with a brute-force join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat.bat import BAT, DataType
from repro.errors import RelationError, SchemaError
from repro.relational import AggregateSpec, Relation, group_by, join
from repro.relational.joins import (factorize, factorize_pair,
                                    join_positions, merge_join_positions)


class TestFactorize:
    def test_equal_rows_equal_codes(self):
        a = BAT.from_values([1, 2, 1])
        b = BAT.from_values(["x", "y", "x"])
        codes = factorize([a, b])
        assert codes[0] == codes[2]
        assert codes[0] != codes[1]

    def test_pair_shares_code_space(self):
        left = [BAT.from_values([1, 2])]
        right = [BAT.from_values([2, 3])]
        lcodes, rcodes = factorize_pair(left, right)
        assert lcodes[1] == rcodes[0]
        assert lcodes[0] != rcodes[1]

    def test_numeric_cross_type(self):
        left = [BAT.from_values([1, 2])]
        right = [BAT.from_values([2.0, 9.0])]
        lcodes, rcodes = factorize_pair(left, right)
        assert lcodes[1] == rcodes[0]

    def test_incompatible_types_rejected(self):
        with pytest.raises(RelationError):
            factorize_pair([BAT.from_values(["a"])],
                           [BAT.from_values([1])])

    def test_empty_list_rejected(self):
        with pytest.raises(RelationError):
            factorize([])


def brute_force_inner(left_keys, right_keys):
    pairs = []
    for i, lk in enumerate(left_keys):
        for j, rk in enumerate(right_keys):
            if lk == rk:
                pairs.append((i, j))
    return sorted(pairs)


class TestJoinPositions:
    def test_inner_with_duplicates(self):
        left = [BAT.from_values([1, 2, 2])]
        right = [BAT.from_values([2, 2, 3])]
        lpos, rpos = join_positions(left, right)
        assert brute_force_inner([1, 2, 2], [2, 2, 3]) == \
            sorted(zip(lpos.tolist(), rpos.tolist()))

    def test_left_join_unmatched(self):
        left = [BAT.from_values([1, 5])]
        right = [BAT.from_values([1])]
        lpos, rpos = join_positions(left, right, how="left")
        assert list(lpos) == [0, 1]
        assert list(rpos) == [0, -1]

    def test_unsupported_kind(self):
        with pytest.raises(RelationError):
            join_positions([BAT.from_values([1])],
                           [BAT.from_values([1])], how="full")

    @given(st.lists(st.integers(0, 8), min_size=0, max_size=30),
           st.lists(st.integers(0, 8), min_size=0, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, lvals, rvals):
        if not lvals or not rvals:
            return
        left = [BAT.from_values(lvals)]
        right = [BAT.from_values(rvals)]
        lpos, rpos = join_positions(left, right)
        assert sorted(zip(lpos.tolist(), rpos.tolist())) == \
            brute_force_inner(lvals, rvals)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=20),
           st.lists(st.integers(0, 5), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_left_join_covers_all_left_rows(self, lvals, rvals):
        left = [BAT.from_values(lvals)]
        right = [BAT.from_values(rvals)]
        lpos, rpos = join_positions(left, right, how="left")
        rset = set(rvals)
        for i, v in enumerate(lvals):
            if v not in rset:
                assert (i in lpos.tolist())
        # every left row appears at least once
        assert set(lpos.tolist()) == set(range(len(lvals)))


class TestJoinRelation:
    def test_basic(self, users, ratings):
        renamed = Relation.from_columns(
            {"U2": ratings.column("User"), "Heat": ratings.column("Heat")})
        out = join(users, renamed, ["User"], ["U2"], drop_right_keys=True)
        rows = {r[0]: r[3] for r in out.to_rows()}
        assert rows == {"Ann": 1.5, "Tom": 0.0, "Jan": 4.0}

    def test_multi_key(self):
        a = Relation.from_columns({"k1": [1, 1, 2], "k2": ["x", "y", "x"],
                                   "v": [10, 20, 30]})
        b = Relation.from_columns({"j1": [1, 2], "j2": ["y", "x"],
                                   "w": [100, 200]})
        out = join(a, b, ["k1", "k2"], ["j1", "j2"], drop_right_keys=True)
        assert sorted(out.to_rows()) == [(1, "y", 20, 100),
                                         (2, "x", 30, 200)]

    def test_left_join_nulls(self):
        a = Relation.from_columns({"k": [1, 9], "v": [1.0, 2.0]})
        b = Relation.from_columns({"j": [1], "w": ["hit"]})
        out = join(a, b, ["k"], ["j"], how="left", drop_right_keys=True)
        rows = dict((r[0], r[2]) for r in out.to_rows())
        assert rows == {1: "hit", 9: None}

    def test_name_clash_rejected(self, users, ratings):
        with pytest.raises(SchemaError):
            join(users, ratings, ["User"], ["User"])

    def test_name_clash_avoided_by_dropping_keys(self, users, ratings):
        out = join(users, ratings, ["User"], ["User"],
                   drop_right_keys=True)
        assert out.nrows == 3


class TestNilKeys:
    """A nil key matches nothing: INNER drops the row, LEFT keeps it once
    with NULL right columns."""

    @pytest.mark.parametrize("dtype", [DataType.INT, DataType.DBL,
                                       DataType.STR])
    def test_eager_join(self, dtype):
        values = {DataType.INT: ([1, None, 2], [None, 2, 5]),
                  DataType.DBL: ([1.0, None, 2.0], [None, 2.0, 5.0]),
                  DataType.STR: (["a", None, "b"], [None, "b", "e"])}
        lk, rk = values[dtype]
        left = Relation.from_columns({"k": BAT.from_values(lk, dtype),
                                      "x": [1.0, 2.0, 3.0]})
        right = Relation.from_columns({"k2": BAT.from_values(rk, dtype),
                                       "y": [10.0, 20.0, 30.0]})
        inner = join(left, right, ["k"], ["k2"])
        assert inner.to_rows() == [(lk[2], 3.0, rk[1], 20.0)]
        outer = join(left, right, ["k"], ["k2"], how="left")
        assert outer.to_rows() == [(lk[0], 1.0, None, None),
                                   (None, 2.0, None, None),
                                   (lk[2], 3.0, rk[1], 20.0)]

    def test_composite_key_with_one_nil_column(self):
        left = [BAT.from_values([1, 1]), BAT.from_values([None, 7])]
        right = [BAT.from_values([1, 1]), BAT.from_values([None, 7])]
        lpos, rpos = join_positions(left, right, how="left")
        assert lpos.tolist() == [0, 1] and rpos.tolist() == [-1, 1]

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_merge_path_agrees(self, how):
        # INT nil sorts first, so both sides are sorted and the merge
        # path runs; it must drop the nil match like the hash path.
        left = [BAT.from_values([None, 1, 2], DataType.INT)]
        right = [BAT.from_values([None, None, 2], DataType.INT)]
        assert left[0].tsorted and right[0].tsorted
        merged = merge_join_positions(left, right, how)
        hashed = join_positions(left, right, how)
        assert merged[0].tolist() == hashed[0].tolist()
        assert merged[1].tolist() == hashed[1].tolist()
        expected = ([0, 1, 2], [-1, -1, 2]) if how == "left" else ([2], [2])
        assert (merged[0].tolist(), merged[1].tolist()) == expected


class TestStrNilKeys:
    def test_factorize_orders_nil_first(self):
        codes = factorize([BAT.from_values(["b", None, "a", None])])
        assert codes.tolist() == [2, 0, 1, 0]

    def test_group_by_yields_one_null_group(self):
        rel = Relation.from_columns(
            {"s": BAT.from_values(["a", None, "b", None, "a"],
                                  DataType.STR),
             "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
        out = group_by(rel, ["s"], [AggregateSpec("sum", "v", "total")])
        assert out.to_rows() == [(None, 6.0), ("a", 6.0), ("b", 3.0)]
