"""Shared helpers for the ablation benchmark scripts."""

import numpy as np

import repro
from repro.bat.bat import DataType
from repro.plan.physical import Executor
from repro.relational.relation import Relation


def _bits(tail: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(tail, dtype=np.float64).view(np.uint64)


def relations_identical(a: Relation, b: Relation) -> bool:
    """Bit-identity of two relations: names, dtypes and raw tails.

    This is the acceptance check of the ablations — optimizations must
    change the work performed, never the result.  DBL tails compare as
    IEEE-754 bit patterns: ``-0.0`` differs from ``0.0``, a NaN equals
    the same NaN."""
    if a.names != b.names:
        return False
    for name in a.names:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype is not cb.dtype:
            return False
        if ca.dtype is DataType.DBL:
            if not np.array_equal(_bits(ca.tail), _bits(cb.tail)):
                return False
        elif list(ca.tail) != list(cb.tail):
            return False
    return True


def uncached_matrices(relations: list[Relation]) -> list[repro.Matrix]:
    """Handles keyed by each relation's first attribute, on one database
    without plan or result cache: every collect executes, so repeats time
    execution rather than cache hits."""
    db = repro.connect(plan_cache=False)
    return [db.matrix(r, by=r.names[0]) for r in relations]


def elementwise_chain(leaves: list[Relation]) -> repro.Matrix:
    """emu(sub(add(y1,y2), y3), y4): a 3-step element-wise chain."""
    m = uncached_matrices(leaves)
    return (m[0] + m[1] - m[2]) * m[3]


def collect_without_cse(expr: repro.Matrix, config) -> Relation:
    """The CSE-off baseline: the owning database's planning, executed on
    an :class:`Executor` whose common-subexpression memo is off."""
    db = expr.database
    plan, info = db._plan_expression(expr.plan, config)
    executor = Executor(db.catalog, config, physical=info, cse=False)
    return executor.run(plan).to_plain_relation()
