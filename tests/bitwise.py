"""The suites' one bit-identity predicate for relations.

Two relations are identical when they have the same attribute names, the
same dtypes and the same raw tails.  DBL tails compare as their IEEE-754
bit patterns, so ``-0.0`` and ``0.0`` differ while a NaN equals the same
NaN — value equality would hide a sign flip behind "bit-identical".
"""

import numpy as np

from repro.bat.bat import DataType
from repro.relational.relation import Relation


def bits(tail: np.ndarray) -> np.ndarray:
    """A DBL tail as its 64-bit patterns."""
    return np.ascontiguousarray(tail, dtype=np.float64).view(np.uint64)


def identical(a: Relation, b: Relation) -> bool:
    if a.names != b.names:
        return False
    for name in a.names:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype is not cb.dtype:
            return False
        if ca.dtype is DataType.DBL:
            if not np.array_equal(bits(ca.tail), bits(cb.tail)):
                return False
        elif list(ca.tail) != list(cb.tail):
            return False
    return True
