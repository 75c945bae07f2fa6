"""Joins, GROUP BY and COUNT(DISTINCT) pinned to a sort-based reference.

The reference below codes keys with ``np.unique`` (pairwise folding of
composite keys), matches with a stable argsort of the right codes plus
two ``searchsorted`` calls per left row, and groups with a second
``np.unique`` over the codes.  Every output — order included — must be
bitwise equal to it on nil-free INT-family keys, on both the dense-range
path and the ``np.unique`` path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitwise import identical
from repro.bat.bat import BAT, DataType
from repro.relational import aggregate, joins
from repro.relational.aggregate import AggregateSpec, count_distinct, group_by
from repro.relational.joins import (DENSE_SPAN_FACTOR, join_positions,
                                    merge_join_positions)
from repro.relational.relation import Relation

KEY_TYPES = (DataType.INT, DataType.DATE, DataType.OID)


# -- the reference ------------------------------------------------------------------

def ref_codes(tails):
    codes = None
    for tail in tails:
        _, col = np.unique(tail, return_inverse=True)
        col = col.astype(np.int64)
        if codes is None:
            codes = col
        else:
            k = int(col.max()) + 1 if len(col) else 1
            _, codes = np.unique(codes * k + col, return_inverse=True)
            codes = codes.astype(np.int64)
    return codes


def ref_join(left_tails, right_tails, how):
    n = len(left_tails[0])
    codes = ref_codes([np.concatenate([l, r])
                       for l, r in zip(left_tails, right_tails)])
    lcodes, rcodes = codes[:n], codes[n:]
    order = np.argsort(rcodes, kind="stable")
    sorted_r = rcodes[order]
    lo = np.searchsorted(sorted_r, lcodes, side="left")
    hi = np.searchsorted(sorted_r, lcodes, side="right")
    lpos, rpos = [], []
    for i in range(n):
        matches = order[lo[i]:hi[i]].tolist()
        if not matches and how == "left":
            matches = [-1]
        lpos += [i] * len(matches)
        rpos += matches
    return np.array(lpos, dtype=np.int64), np.array(rpos, dtype=np.int64)


def ref_group_codes(relation, keys):
    if not keys:
        n = relation.nrows
        return np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64), 1
    codes = ref_codes([relation.column(k).tail for k in keys])
    uniques, first, inverse = np.unique(codes, return_index=True,
                                        return_inverse=True)
    return inverse.astype(np.int64), first.astype(np.int64), len(uniques)


def ref_count_distinct(relation, keys, argument):
    gids, _, ngroups = ref_group_codes(relation, keys)
    _, inverse = np.unique(gids, return_inverse=True)
    value_codes = ref_codes([relation.column(argument).tail])
    span = int(value_codes.max()) + 1
    pairs = inverse.astype(np.int64) * span + value_codes
    return np.bincount(np.unique(pairs) // span, minlength=ngroups)


def same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


# -- inputs -------------------------------------------------------------------------

WIDTHS = (1, 2, 3, 7, 60, 10**9)


def tight_span(other_spans, nrows, over):
    """Column-0 span that puts the span product just under or over the
    dense limit for ``nrows`` rows."""
    width = (DENSE_SPAN_FACTOR * nrows) // other_spans
    return width + 1 if over else max(width, 1)


@st.composite
def key_tails(draw, nrows, ncols, limit_rows):
    """``ncols`` int64 key tails of ``nrows`` rows; with a drawn edge the
    first column's span is forced just under or over the dense limit for
    ``limit_rows`` rows."""
    bases = [draw(st.integers(-10**6, 10**6)) for _ in range(ncols)]
    widths = [draw(st.sampled_from(WIDTHS)) for _ in range(ncols)]
    tails = [base + np.array(draw(st.lists(st.integers(0, width - 1),
                                           min_size=nrows,
                                           max_size=nrows)),
                             dtype=np.int64)
             for base, width in zip(bases, widths)]
    edge = draw(st.sampled_from([None, "under", "over"]))
    if edge and nrows >= 2:
        others = 1
        for tail in tails[1:]:
            others *= int(tail.max() - tail.min()) + 1
        width = tight_span(others, limit_rows, edge == "over")
        tails[0][:] = bases[0] + (tails[0] - bases[0]) % width
        tails[0][0], tails[0][-1] = bases[0], bases[0] + width - 1
    return tails


@st.composite
def join_sides(draw):
    ncols = draw(st.integers(1, 3))
    dtypes = [draw(st.sampled_from(KEY_TYPES)) for _ in range(ncols)]
    n = draw(st.integers(0, 30))
    m = draw(st.integers(0, 30))
    right = draw(key_tails(m, ncols, n + m))
    left = draw(key_tails(n, ncols, n + m))
    if m:
        # Mostly right-side rows, so keys match; the rest of the left
        # rows keep their own (often out-of-span) values.
        picks = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        keep = np.array(draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n)), dtype=bool)
        for lt, rt in zip(left, right):
            lt[keep] = rt[np.array(picks, dtype=np.int64)][keep]
    return ([BAT(d, t) for d, t in zip(dtypes, left)],
            [BAT(d, t) for d, t in zip(dtypes, right)])


@st.composite
def grouped_relations(draw):
    ncols = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    tails = draw(key_tails(n, ncols, n))
    columns = {f"k{i}": BAT(draw(st.sampled_from(KEY_TYPES)), tail)
               for i, tail in enumerate(tails)}
    values = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    columns["v"] = BAT(DataType.INT, np.array(values, dtype=np.int64))
    return Relation.from_columns(columns), [f"k{i}" for i in range(ncols)]


# -- the pins -----------------------------------------------------------------------

def assert_join_pinned(left, right):
    left_tails = [b.tail for b in left]
    right_tails = [b.tail for b in right]
    for how in ("inner", "left"):
        want = ref_join(left_tails, right_tails, how)
        for probe in (join_positions, merge_join_positions):
            lpos, rpos = probe(left, right, how=how)
            assert same_array(lpos, want[0]), (probe.__name__, how)
            assert same_array(rpos, want[1]), (probe.__name__, how)


AGGREGATES = [AggregateSpec("count", "*", "rows"),
              AggregateSpec("sum", "v", "total"),
              AggregateSpec("min", "v", "least")]


def assert_grouping_pinned(relation, keys):
    got = aggregate._group_codes(relation, keys)
    want = ref_group_codes(relation, keys)
    assert same_array(got[0], want[0]) and same_array(got[1], want[1])
    assert got[2] == want[2]
    with mock.patch.object(aggregate, "_group_codes", ref_group_codes):
        expected = group_by(relation, keys, AGGREGATES)
    assert identical(group_by(relation, keys, AGGREGATES), expected)
    if relation.nrows:
        assert same_array(count_distinct(relation, keys, "v"),
                          ref_count_distinct(relation, keys, "v"))


class TestJoinPinned:
    @given(join_sides())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, sides):
        assert_join_pinned(*sides)

    @pytest.mark.parametrize("over", [False, True])
    def test_span_at_the_dense_limit(self, over):
        # Right spans 7 x width against 4 x (n + m): just under runs the
        # dense path, just over the np.unique path.
        rng = np.random.default_rng(1)
        n, m = 50, 30
        width = tight_span(7, n + m, over)
        r0 = -20 + rng.integers(0, width, m)
        r0[:2] = -20, -20 + width - 1
        r1 = 5 + rng.integers(0, 7, m)
        r1[:2] = 5, 11
        pick = rng.integers(0, m, n)
        l0 = np.where(rng.random(n) < 0.7, r0[pick], rng.integers(-40, 400, n))
        l1 = r1[pick]
        left = [BAT(DataType.INT, l0), BAT(DataType.INT, l1)]
        right = [BAT(DataType.INT, r0), BAT(DataType.INT, r1)]
        with mock.patch.object(joins, "_dense_codes",
                               wraps=joins._dense_codes) as dense:
            assert_join_pinned(left, right)
        assert dense.called is not over

    def test_trips_shape(self):
        # Fig. 15 at benchmark scale: 100k trips over 60 station codes,
        # joined to ~1 500 frequent (start, end) pairs and to the stations.
        rng = np.random.default_rng(7)
        codes = rng.permutation(np.arange(1000, 1060)).astype(np.int64)
        start = codes[rng.integers(0, 60, 100_000)]
        end = codes[rng.integers(0, 60, 100_000)]
        trips = [BAT(DataType.INT, start), BAT(DataType.INT, end)]
        pairs = np.unique(np.stack([start, end], axis=1), axis=0)
        pairs = pairs[rng.random(len(pairs)) < 0.4]
        frequent = [BAT(DataType.INT, pairs[:, 0].copy()),
                    BAT(DataType.INT, pairs[:, 1].copy())]
        assert_join_pinned(trips, frequent)
        assert_join_pinned(trips[:1], [BAT(DataType.INT, codes)])
        relation = Relation.from_columns(
            {"start": trips[0], "end": trips[1],
             "v": BAT(DataType.INT, rng.integers(0, 9, 100_000))})
        assert_grouping_pinned(relation, ["start", "end"])


class TestGroupingPinned:
    @given(grouped_relations())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        assert_grouping_pinned(*case)

    def test_global_group(self):
        relation = Relation.from_columns(
            {"v": BAT(DataType.INT, np.array([3, 1, 3], dtype=np.int64))})
        assert_grouping_pinned(relation, [])
