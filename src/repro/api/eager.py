"""Eager one-op execution through the shared plan layer.

The public eager functions of :mod:`repro.core.algebra` (``rma.add``,
``rma.inv``, ...) are thin adapters over this module: each call builds a
one-operation expression over the shared plan IR and collects it
immediately on the shared executor — the same path SQL statements and
:class:`~repro.api.matrix.Matrix` expressions take.  One
front door, even for single operations.

A one-op plan has nothing for the optimizer to rewrite (fusion needs at
least two chained element-wise steps), so optimization is skipped; the
executor's RMA evaluation calls :func:`repro.core.ops.execute_rma`
underneath, and ``Frame.to_plain_relation`` passes the merged relation
through unchanged — results (objects, order caches, raised errors) are
identical to the pre-redesign direct execution, which the API equivalence
tests assert for every operation.

The executor's own internal hook (:func:`repro.core.algebra.rma_operation`)
keeps calling ``execute_rma`` directly — routing it back through here would
recurse.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bat.catalog import Catalog
from repro.core.config import RmaConfig
from repro.core.ops import execute_rma
from repro.plan import nodes
from repro.plan.physical import Executor
from repro.relational.relation import Relation

# Eager calls never touch named tables (their leaves are in-memory
# relations compared by identity), so one empty catalog serves them all.
_EAGER_CATALOG = Catalog()


def _by_tuple(by) -> tuple[str, ...] | None:
    if isinstance(by, str):
        return (by,)
    try:
        return tuple(by)
    except TypeError:
        return None  # let execute_rma raise its own error


def eager_rma(name: str, r: Relation, by: "str | Sequence[str]",
              s: Relation | None = None,
              s_by: "str | Sequence[str] | None" = None,
              config: RmaConfig | None = None,
              scalar: Optional[float] = None) -> Relation:
    """Run one operation eagerly via the plan executor.

    Malformed argument combinations (one of ``s``/``s_by`` missing, an
    un-iterable order schema) fall through to :func:`execute_rma` directly
    so the error type and message stay exactly the pre-redesign ones.
    """
    bys = [_by_tuple(by)]
    if (s is None) != (s_by is None) or bys[0] is None:
        return execute_rma(name, r, by, s, s_by, config, scalar=scalar)
    inputs = [nodes.RelScan(r, nodes.default_alias(r))]
    if s is not None:
        s_names = _by_tuple(s_by)
        if s_names is None:
            return execute_rma(name, r, by, s, s_by, config, scalar=scalar)
        inputs.append(nodes.RelScan(s, nodes.default_alias(s)))
        bys.append(s_names)
    plan = nodes.Rma(name.lower(), tuple(inputs), tuple(bys), None, scalar)
    executor = Executor(_EAGER_CATALOG, config)
    return executor.run(plan).to_plain_relation()
