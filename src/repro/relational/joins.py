"""Vectorized equi-joins and the key coding they share with grouping.

Keys become int64 codes whose order is the lexicographic key order.
Nil-free INT-family keys whose value ranges are small next to the row
count get *dense-range* codes: mixed-radix offsets from each column's
minimum, computed in O(n) without a sort.  Every other key (DBL, STR,
nils, wide ranges) is coded through ``np.unique``.

Matching is a bucket probe, as a hash join in a column store: a
``bincount`` of the right (build) side's codes and its ``cumsum`` give
every code's range in the right side's stable code order, so each left
row reads its matches from two table lookups — whole-column numpy
operations, no per-row python work and no binary search.  A left row
with a nil in any key column matches nothing, as in SQL.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.bat.bat import BAT, NIL_INT, DataType
from repro.bat.properties import properties_enabled
from repro.errors import RelationError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Schema

DENSE_SPAN_FACTOR = 4
"""Dense-range codes apply while the product of the key columns' spans
(max - min + 1) is at most this multiple of the row count, which keeps
the bucket tables O(rows)."""

_INT_FAMILY = (DataType.INT, DataType.DATE, DataType.TIME, DataType.OID)
"""Key dtypes with int64 tails, eligible for dense-range codes."""


def factorize(bats: Sequence[BAT]) -> np.ndarray:
    """Combine one or more key columns into non-negative int64 codes.

    Equal rows get equal codes, and codes order rows lexicographically by
    key (nil first for INT-family and STR columns, NaN last for DBL).
    Dense-range keys (:func:`_dense_spans`) get mixed-radix offsets, which
    may leave gaps; other keys are folded column by column through
    ``np.unique``, so their codes are consecutive and cannot overflow.
    """
    if not bats:
        raise RelationError("factorize requires at least one column")
    spans = _dense_spans(bats, len(bats[0]))
    if spans is not None:
        return _dense_codes(bats, spans)
    codes: np.ndarray | None = None
    for bat in bats:
        col_codes = _column_codes(bat)
        if codes is None:
            codes = col_codes
        else:
            k = int(col_codes.max()) + 1 if len(col_codes) else 1
            combined = codes * k + col_codes
            _, codes = np.unique(combined, return_inverse=True)
            codes = codes.astype(np.int64)
    assert codes is not None
    return codes


def _column_codes(bat: BAT) -> np.ndarray:
    """``np.unique`` codes of one column; a STR nil gets its own code 0."""
    if bat.dtype is DataType.STR and not bat.tnonil:
        # None does not compare with str, so np.unique cannot sort it.
        nil = bat.is_nil()
        _, inverse = np.unique(bat.tail[~nil], return_inverse=True)
        codes = np.zeros(len(bat), dtype=np.int64)
        codes[~nil] = inverse + 1
        return codes
    _, inverse = np.unique(bat.tail, return_inverse=True)
    return inverse.astype(np.int64)


def _dense_spans(bats: Sequence[BAT],
                 nrows: int) -> list[tuple[int, int]] | None:
    """Per-column ``(min, max)`` when the keys take dense-range codes.

    They do when every column is a non-empty, nil-free INT-family tail and
    the spans multiply to at most ``DENSE_SPAN_FACTOR * nrows``.  The nil
    ``NIL_INT`` is the int64 minimum, so a nil shows as the column minimum.
    """
    limit = DENSE_SPAN_FACTOR * nrows
    total = 1
    bounds = []
    for bat in bats:
        if bat.dtype not in _INT_FAMILY or len(bat) == 0:
            return None
        lo, hi = int(bat.tail.min()), int(bat.tail.max())
        total *= hi - lo + 1
        if lo == NIL_INT or total > limit:
            return None
        bounds.append((lo, hi))
    return bounds


def _dense_codes(bats: Sequence[BAT],
                 bounds: Sequence[tuple[int, int]]) -> np.ndarray:
    """Mixed-radix offsets of the key columns within ``bounds``.

    Rows outside the bounds get meaningless codes (the int64 arithmetic
    may wrap); callers must mask them.
    """
    codes: np.ndarray | None = None
    for bat, (lo, hi) in zip(bats, bounds):
        offset = bat.tail - np.int64(lo)
        codes = offset if codes is None else codes * (hi - lo + 1) + offset
    assert codes is not None
    return codes


def _ncodes(codes: np.ndarray) -> int:
    return int(codes.max()) + 1 if len(codes) else 0


def _stable_order(codes: np.ndarray, ncodes: int) -> np.ndarray:
    """Stable argsort of codes in ``[0, ncodes)``.

    Narrow codes sort as uint8/uint16, for which numpy's stable sort is an
    O(n) radix sort; the permutation is the same.
    """
    for dtype in (np.uint8, np.uint16):
        if ncodes <= np.iinfo(dtype).max + 1:
            codes = codes.astype(dtype)
            break
    return np.argsort(codes, kind="stable")


def group_ids(bats: Sequence[BAT]) -> tuple[np.ndarray, np.ndarray, int]:
    """(group id per row, first-row position per group, #groups).

    Groups are numbered in key order.  Ids, count and representatives come
    from a ``bincount`` of the codes, its ``cumsum`` and one stable argsort
    (a group's first row leads its run in the stable order).
    """
    codes = factorize(bats)
    ncodes = _ncodes(codes)
    counts = np.bincount(codes, minlength=ncodes)
    present = counts > 0
    ids = np.cumsum(present) - 1
    starts = np.cumsum(counts) - counts
    first = _stable_order(codes, ncodes)[starts[present]]
    return ids[codes], first, len(first)


def _nil_rows(bats: Sequence[BAT]) -> np.ndarray | None:
    """Rows with a nil in any column, or None when there are none.

    The cached ``tnonil`` bits make repeated probes of nil-free base
    columns O(1).
    """
    mask = None
    for bat in bats:
        if not bat.tnonil:
            nil = bat.is_nil()
            mask = nil if mask is None else mask | nil
    return mask


def factorize_pair(left: Sequence[BAT],
                   right: Sequence[BAT]) -> tuple[np.ndarray, np.ndarray]:
    """Factorize two key lists into a *shared* code space.

    Joining requires codes that are comparable across the two inputs, so the
    key columns are concatenated before factorization and the codes split
    back afterwards.
    """
    if len(left) != len(right):
        raise RelationError("join key lists have different lengths")
    combined_bats = []
    for lcol, rcol in zip(left, right):
        lc, rc = lcol, rcol
        if lc.dtype is not rc.dtype:
            if lc.dtype.is_numeric and rc.dtype.is_numeric:
                lc, rc = lc.cast(DataType.DBL), rc.cast(DataType.DBL)
            else:
                raise RelationError(
                    f"cannot join keys of types {lc.dtype.value} and "
                    f"{rc.dtype.value}")
        combined_bats.append(lc.append(rc))
    codes = factorize(combined_bats)
    n_left = len(left[0])
    return codes[:n_left], codes[n_left:]


def join_positions(left_keys: Sequence[BAT], right_keys: Sequence[BAT],
                   how: str = "inner") -> tuple[np.ndarray, np.ndarray]:
    """Matching position pairs (lpos, rpos) for an equi-join.

    For ``how="left"`` unmatched left rows appear with rpos ``-1``.
    Duplicate keys on either side produce the full cross of matches:
    ``lpos`` is non-decreasing, and one left row's matches follow the
    right side's storage order.  A left row with a nil key matches
    nothing.

    Same-typed INT-family keys whose right-side spans are dense for the
    rows of both inputs are coded from those spans, and a left value
    outside them is a miss; other keys share one :func:`factorize_pair`
    code space.  Either way :func:`_bucket_probe` finds the matches.
    """
    if how not in ("inner", "left"):
        raise RelationError(f"unsupported join type {how!r}")
    if len(left_keys) != len(right_keys):
        raise RelationError("join key lists have different lengths")
    bounds = None
    if left_keys and all(lc.dtype is rc.dtype
                         for lc, rc in zip(left_keys, right_keys)):
        bounds = _dense_spans(right_keys,
                              len(left_keys[0]) + len(right_keys[0]))
    if bounds is not None:
        rcodes = _dense_codes(right_keys, bounds)
        ncodes = math.prod(hi - lo + 1 for lo, hi in bounds)
        lcodes = _dense_codes(left_keys, bounds)
        miss = np.zeros(len(lcodes), dtype=bool)
        for bat, (lo, hi) in zip(left_keys, bounds):
            miss |= (bat.tail < lo) | (bat.tail > hi)
    else:
        lcodes, rcodes = factorize_pair(left_keys, right_keys)
        ncodes = max(_ncodes(lcodes), _ncodes(rcodes))
        miss = _nil_rows(left_keys)
    if miss is not None:
        lcodes = np.where(miss, ncodes, lcodes)
    return _bucket_probe(lcodes, rcodes, ncodes, how)


def _bucket_probe(lcodes: np.ndarray, rcodes: np.ndarray, ncodes: int,
                  how: str) -> tuple[np.ndarray, np.ndarray]:
    """Match left codes against right codes, both in ``[0, ncodes)``.

    A left code of ``ncodes`` is a miss.  ``starts[c]`` counts the right
    rows with a code below ``c``, so the rows with code ``c`` occupy
    ``[starts[c], starts[c + 1])`` of the right side's stable code order.
    """
    starts = np.empty(ncodes + 2, dtype=np.int64)
    starts[0] = 0
    np.cumsum(np.bincount(rcodes, minlength=ncodes), out=starts[1:-1])
    starts[-1] = len(rcodes)
    if properties_enabled() and _codes_sorted(rcodes):
        # Already-sorted right side (dimension tables with dense keys):
        # the identity permutation is the stable argsort.
        order_r = None
    else:
        order_r = _stable_order(rcodes, ncodes)
    return _expand_matches(starts[lcodes], starts[lcodes + 1], order_r, how)


MERGE_TYPES = (DataType.INT, DataType.DBL, DataType.DATE, DataType.TIME,
               DataType.OID)
"""Key dtypes eligible for the sorted-merge join path (raw tails totally
ordered; STR is excluded because nil ``None`` breaks object comparisons).
The physical planner consults this to avoid predicting merge joins the
runtime would reject."""


def merge_join_positions(left_keys: Sequence[BAT],
                         right_keys: Sequence[BAT],
                         how: str = "inner") \
        -> tuple[np.ndarray, np.ndarray]:
    """Sorted merge path of the equi-join, selected by the physical planner.

    When both sides' key columns have the same raw-comparable types and are
    already sorted — one column whose cached ``tsorted`` bit is set (O(1)
    for base columns, O(n) once otherwise), or a composite key whose
    columns are lexicographically sorted (one O(n·k) scan,
    :func:`lex_sorted`) — matches come from two binary searches directly on
    the raw tails, skipping the key coding and the right-side argsort of
    the hash path entirely.  Composite keys search over a structured-dtype
    view of the tails, whose comparison order is exactly the lexicographic
    order of the columns.

    The output position pairs are identical to :func:`join_positions`:
    both match exactly the equal keys, and on a sorted right side the
    stable code order is the storage order.  A left row with an INT-family
    nil (``NIL_INT``, which sorts first like any value) gets an empty
    range, as on the hash path.  Preconditions are re-verified here at run
    time; when they do not hold the call falls back to the hash path, so a
    planner mis-prediction costs nothing but the check.

    STR keys stay on the hash path (nil ordering of object tails is not
    total); DBL qualifies because its ``tsorted`` contract is nil-free and
    :func:`lex_sorted` rejects NaN-carrying composites.
    """
    if (properties_enabled() and left_keys
            and len(left_keys) == len(right_keys)
            and all(lc.dtype is rc.dtype and lc.dtype in MERGE_TYPES
                    for lc, rc in zip(left_keys, right_keys))
            and lex_sorted(left_keys) and lex_sorted(right_keys)):
        if how not in ("inner", "left"):
            raise RelationError(f"unsupported join type {how!r}")
        if len(left_keys) == 1:
            left_tail = left_keys[0].tail
            right_tail = right_keys[0].tail
        else:
            left_tail = _composite_tail(left_keys)
            right_tail = _composite_tail(right_keys)
        lo = np.searchsorted(right_tail, left_tail, side="left")
        hi = np.searchsorted(right_tail, left_tail, side="right")
        nil = _nil_rows(left_keys)
        if nil is not None:
            hi = np.where(nil, lo, hi)
        return _expand_matches(lo, hi, None, how)
    return join_positions(left_keys, right_keys, how)


def relation_lex_sorted(relation: Relation, names: Sequence[str]) -> bool:
    """:func:`lex_sorted` memoized per ``(relation, attribute tuple)``.

    The single-column case is already O(1) after the first probe (the
    cached ``tsorted`` bit), and the strict-major / all-sorted / unsorted
    composite shortcuts are too — but the ambiguous composite case
    (sorted major *with* duplicates) used to re-pay the O(n·k) scan on
    every multi-key merge-join probe.  The verdict now lives in the
    relation's order cache (:meth:`repro.relational.relation.OrderInfo.
    lex_sorted_memo`), keyed by the attribute tuple, so repeated probes —
    the planner re-plans every statement — cost one dict lookup.  While
    the property layer is disabled the memo is bypassed, keeping the
    ablations honest.
    """
    if not properties_enabled():
        return lex_sorted(relation.bats(names))
    return relation.order_info(names).lex_sorted_memo(lex_sorted)


def lex_sorted(bats: Sequence[BAT]) -> bool:
    """Whether the columns are lexicographically sorted in raw-tail order.

    For one column this is the cached ``tsorted`` bit (its contract already
    excludes NaN for DBL).  Composite keys try two property-only
    sufficient conditions first — a strictly increasing major column
    (``tsorted`` + ``tkey``: ties never reach the minor columns) or all
    columns sorted — so repeated probes over the same base columns are
    O(1) after the bits are cached (the same shortcuts
    :func:`repro.bat.sorting._already_ordered` uses).  Only the ambiguous
    case (sorted major with duplicates) pays the vectorized O(n·k) scan:
    a row pair is ordered iff the first differing column is increasing, so
    the scan tracks which adjacent pairs are still tied and rejects on any
    decrease among them.  DBL columns carrying NaN are rejected outright —
    NaN compares false both ways, which would corrupt the tie tracking
    (and binary search needs a total order).
    """
    if not bats:
        return False
    if len(bats) == 1:
        return bats[0].tsorted
    for bat in bats:
        # Checked before the shortcuts: even with a strictly increasing
        # major column, a NaN minor would break the composite binary
        # search's total order.  tnonil is a cached bit, so this stays
        # O(1) on repeated probes.
        if bat.dtype is DataType.DBL and not bat.tnonil:
            return False
    first = bats[0]
    if not first.tsorted:
        # A lex-sorted composite needs a sorted major column; the cached
        # bit makes repeated probes of unsorted data O(1).
        return False
    if first.tkey or all(b.tsorted for b in bats[1:]):
        return True
    n = len(bats[0])
    if n < 2:
        return True
    undecided = np.ones(n - 1, dtype=bool)
    for bat in bats:
        a, b = bat.tail[:-1], bat.tail[1:]
        if bool(np.any(undecided & (a > b))):
            return False
        undecided &= ~(a < b)
        if not undecided.any():
            return True
    return True


def _composite_tail(bats: Sequence[BAT]) -> np.ndarray:
    """Pack key columns into a structured array ordered lexicographically.

    numpy compares structured (void) scalars field by field in declaration
    order, which makes ``searchsorted`` over the packed array equivalent to
    a lexicographic multi-column binary search without materializing row
    tuples as python objects.
    """
    dtype = np.dtype([(f"k{i}", bat.tail.dtype)
                      for i, bat in enumerate(bats)])
    out = np.empty(len(bats[0]), dtype=dtype)
    for i, bat in enumerate(bats):
        out[f"k{i}"] = bat.tail
    return out


def _expand_matches(lo: np.ndarray, hi: np.ndarray,
                    order_r: np.ndarray | None,
                    how: str) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-left-row match ranges [lo, hi) into position pairs.

    ``order_r`` maps sorted-right indexes back to storage positions; None
    means the right side is already in sorted order (identity).
    """
    counts = hi - lo
    if how == "left":
        out_counts = np.maximum(counts, 1)
    else:
        out_counts = counts
    total = int(out_counts.sum())
    lpos = np.repeat(np.arange(len(lo), dtype=np.int64), out_counts)
    starts = np.repeat(lo, out_counts)
    group_offsets = (np.arange(total, dtype=np.int64)
                     - np.repeat(np.cumsum(out_counts) - out_counts,
                                 out_counts))
    sorted_idx = starts + group_offsets
    if how == "left":
        matched = np.repeat(counts > 0, out_counts)
        rpos = np.full(total, -1, dtype=np.int64)
        hits = sorted_idx[matched]
        rpos[matched] = hits if order_r is None else order_r[hits]
    else:
        rpos = sorted_idx if order_r is None else order_r[sorted_idx]
    return lpos, rpos


def _codes_sorted(codes: np.ndarray) -> bool:
    """Whether the key codes are already non-decreasing.

    Decided by one O(n) scan of the codes themselves — cheaper than the
    argsort it can save.  The key BATs' cached ``tsorted`` bits
    are deliberately NOT consulted: :func:`factorize_pair` may cast mixed
    INT/DBL keys to DBL, which moves the INT nil sentinel from the smallest
    raw value to NaN, so pre-cast sortedness does not imply sorted codes.
    """
    return len(codes) < 2 or bool(np.all(codes[:-1] <= codes[1:]))


def hash_join(left: Relation, right: Relation,
              left_on: Sequence[str], right_on: Sequence[str],
              how: str = "inner") -> tuple[np.ndarray, np.ndarray]:
    """Equi-join returning matching storage positions for both inputs."""
    return join_positions(left.bats(left_on), right.bats(right_on), how)


def join(left: Relation, right: Relation, left_on: Sequence[str],
         right_on: Sequence[str], how: str = "inner",
         drop_right_keys: bool = False) -> Relation:
    """Equi-join producing a relation with all columns of both inputs.

    Column names must not clash (after optionally dropping the right key
    columns); rename beforehand if they do.
    """
    lpos, rpos = hash_join(left, right, left_on, right_on, how)
    right_names = [n for n in right.names
                   if not (drop_right_keys and n in right_on)]
    overlap = set(left.names) & set(right_names)
    if overlap:
        raise SchemaError(
            f"join would produce duplicate attributes {sorted(overlap)}; "
            "rename first")
    # lpos is non-decreasing by construction (repeat of an arange), so the
    # left columns keep their sortedness through the gather.
    columns = [col.fetch(lpos, positions_sorted=True)
               for col in left.columns]
    if how == "left":
        safe_rpos = np.where(rpos < 0, 0, rpos)
        for name in right_names:
            col = right.column(name).fetch(safe_rpos)
            # Null out unmatched rows.
            nil = BAT.constant(None, len(rpos), col.dtype) \
                if col.dtype is not DataType.BOOL else None
            if nil is not None:
                tail = np.where(rpos < 0, nil.tail, col.tail)
                if col.dtype is DataType.STR:
                    tail = tail.astype(object)
                col = BAT(col.dtype, tail.astype(col.dtype.numpy_dtype))
            columns.append(col)
    else:
        columns += [right.column(name).fetch(rpos) for name in right_names]
    schema = left.schema.concat(right.schema.project(right_names))
    return Relation(schema, columns)
