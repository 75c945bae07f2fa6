"""Plan construction: SQL AST -> shared logical plan, plus node builders.

This is the front ends' half of the plan layer: ``build_select`` translates
a parsed ``SELECT`` statement (:mod:`repro.sql.ast`) into the shared IR of
:mod:`repro.plan.nodes`, and ``build_rma`` is the one validated constructor
of :class:`~repro.plan.nodes.Rma` nodes that the Python surface (the
matrix-expression API :mod:`repro.api.matrix`) uses.  It lives in the plan
package — not in ``repro.sql`` — so the IR and everything that produces it
have one home.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import PlanError
from repro.opspec import spec_of
from repro.plan.nodes import (
    AGGREGATE_FUNCTIONS,
    AggregateSpecNode,
    Aggregate,
    Distinct,
    Filter,
    JoinPlan,
    Limit,
    Plan,
    Project,
    Rma,
    Scan,
    Sort,
    SubqueryScan,
    aggregate_calls,
    contains_aggregate,
    default_output_name,
    replace_expr,
)
from repro.sql import ast

# -- RMA node construction ------------------------------------------------------


def as_by(by: "str | Sequence[str] | None", op: str) -> tuple[str, ...]:
    """Normalize an order schema argument to a non-empty name tuple."""
    if by is None:
        raise PlanError(f"{op}: an order schema (by=...) is required")
    if isinstance(by, str):
        return (by,)
    names = tuple(by)
    if not names:
        raise PlanError(f"{op}: order schema must not be empty")
    return names


def build_rma(op: str, inputs: tuple[Plan, ...],
              bys: Sequence["str | Sequence[str]"],
              alias: Optional[str] = None,
              scalar: Optional[float] = None) -> Rma:
    """Validated :class:`~repro.plan.nodes.Rma` construction.

    Checks arity against the operation spec, normalizes the order schemas,
    and enforces the scalar-variant contract (``sadd``/``ssub``/``smul``
    require a constant, Table 2 operations reject one).
    """
    name = op.lower()
    spec = spec_of(name)
    if spec.scalar and scalar is None:
        raise PlanError(f"{name} requires a scalar value")
    if not spec.scalar and scalar is not None:
        raise PlanError(f"{name} does not accept a scalar value")
    if len(inputs) != spec.arity:
        kind = "binary" if spec.arity == 2 else "unary"
        raise PlanError(
            f"{name} is {kind}: got {len(inputs)} input(s)")
    if len(bys) != len(inputs):
        raise PlanError(
            f"{name}: {len(inputs)} input(s) but {len(bys)} order "
            "schema(s)")
    return Rma(name, tuple(inputs),
               tuple(as_by(by, name) for by in bys), alias,
               float(scalar) if scalar is not None else None)


# -- plan construction ----------------------------------------------------------


def build_table_expr(node: ast.TableExpr) -> Plan:
    if isinstance(node, ast.TableRef):
        return Scan(node.name, node.alias or node.name)
    if isinstance(node, ast.SubqueryRef):
        return SubqueryScan(build_select(node.query), node.alias)
    if isinstance(node, ast.RmaCall):
        inputs = tuple(build_table_expr(arg.table) for arg in node.args)
        by = tuple(arg.by for arg in node.args)
        return Rma(node.op, inputs, by, node.alias)
    if isinstance(node, ast.Join):
        return JoinPlan(node.kind, build_table_expr(node.left),
                        build_table_expr(node.right), node.condition)
    raise PlanError(f"unhandled table expression {node!r}")


def build_select(select: ast.Select) -> Plan:
    """Translate a SELECT AST into a logical plan."""
    if select.source is None:
        plan: Plan = Scan("_dual", "_dual")
    else:
        plan = build_table_expr(select.source)
    if select.where is not None:
        plan = Filter(plan, select.where)

    has_aggregates = (bool(select.group_by)
                      or any(contains_aggregate(i.expr)
                             for i in select.items)
                      or (select.having is not None
                          and contains_aggregate(select.having)))

    if has_aggregates:
        plan, items, having = _plan_aggregation(plan, select)
    else:
        items = select.items
        having = select.having
        if having is not None:
            raise PlanError("HAVING without aggregation or GROUP BY")

    # SQL clause order: ... GROUP BY -> HAVING -> SELECT -> DISTINCT ->
    # ORDER BY -> LIMIT.  ORDER BY may reference both select aliases and
    # source columns; Project keeps source columns as hidden bindings so the
    # Sort above it can resolve them.
    if having is not None:
        plan = Filter(plan, having)
    plan = Project(plan, tuple(items))
    if select.distinct:
        plan = Distinct(plan)
    if select.order_by:
        plan = Sort(plan, select.order_by)
    if select.limit is not None:
        plan = Limit(plan, select.limit, select.offset)
    return plan


def _plan_aggregation(plan: Plan, select: ast.Select) \
        -> tuple[Plan, tuple[ast.SelectItem, ...], Optional[ast.Expr]]:
    """Insert an Aggregate node and rewrite select items / HAVING.

    Aggregate calls become references to generated columns; group keys are
    available under generated names as well.
    """
    mapping: dict[ast.Expr, ast.Expr] = {}
    specs: list[AggregateSpecNode] = []
    seen: dict[ast.Expr, str] = {}

    sources = [item.expr for item in select.items]
    if select.having is not None:
        sources.append(select.having)
    counter = 0
    for source in sources:
        for call in aggregate_calls(source):
            if call in seen:
                continue
            counter += 1
            out_name = f"_agg{counter}"
            seen[call] = out_name
            func = AGGREGATE_FUNCTIONS[call.name]
            if len(call.args) != 1:
                raise PlanError(
                    f"{call.name} takes exactly one argument")
            arg = call.args[0]
            argument: ast.Expr | None
            if isinstance(arg, ast.Star):
                if call.name != "COUNT":
                    raise PlanError(f"{call.name}(*) is not valid")
                argument = None
            else:
                argument = arg
            specs.append(AggregateSpecNode(func, argument, call.distinct,
                                           out_name))
            mapping[call] = ast.ColumnRef(out_name)

    key_names = []
    key_exprs = list(select.group_by)
    for i, key in enumerate(key_exprs):
        name = default_output_name(key, i)
        key_name = f"_key{i}_{name}"
        key_names.append(key_name)
        mapping[key] = ast.ColumnRef(key_name)

    plan = Aggregate(plan, tuple(key_exprs), tuple(key_names), tuple(specs))

    new_items = []
    for index, item in enumerate(select.items):
        rewritten = replace_expr(item.expr, mapping)
        alias = item.alias or default_output_name(item.expr, index)
        new_items.append(ast.SelectItem(rewritten, alias))
    having = (replace_expr(select.having, mapping)
              if select.having is not None else None)
    return plan, tuple(new_items), having
