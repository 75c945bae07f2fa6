"""One ablation driver: every knob's baseline against its variant.

``SCENARIOS`` is the table.  Each row toggles one knob of the engine: the
paper's own ablations (§8.1/Fig. 13 sorting classes, the §7.3 BAT-vs-MKL
policy, key validation) and the repo's (property caches, CSE and
result-order seeding, fusion, the plan cache, the Matrix API, the morsel
engine).  A row holds an input builder for either scale, two callables
(baseline and variant) that each return the relation they computed, and
the check the two results must pass.

For every row the runner warms each side once, then runs ``k`` rounds
that alternate which side goes first, keeps each side's best time and
checks the relations the timed calls returned.  Checks are bitwise unless
the row's ``note`` says why not.  The report records the CPU count, the
parallel engine's effective workers, the scale and ``k``, and per row the
baseline's best time (``seconds_off``), the variant's (``seconds_on``)
and their ratio; the process exits 1 when any check fails.

    PYTHONPATH=src python benchmarks/ablate.py           # full scale
    PYTHONPATH=src python benchmarks/ablate.py --quick   # CI smoke scale

The report is printed.  A full-scale run also writes
``benchmarks/BENCH_ablation.json`` unless ``--output`` names another file;
a ``--quick`` run writes only to ``--output``.  ``--quick`` divides the
row counts by five and shrinks the parallel engine's morsels to 8 192
rows, so the morsel paths still run chunked.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import repro
from repro.bat.bat import BAT, DataType
from repro.bat.properties import use_properties
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.core.ops import execute_rma, prepare_stage
from repro.data.synthetic import (
    order_heavy_relation,
    order_names,
    uniform_pair,
    uniform_relation,
)
from repro.linalg.policy import BackendPolicy
from repro.opspec import spec_of
from repro.plan.physical import Executor
from repro.relational import rename
from repro.relational.ops import sort
from repro.relational.relation import Relation

BENCH_FILE = Path(__file__).with_name("BENCH_ablation.json")
ROUNDS = {"full": 5, "quick": 3}
RTOL = 1e-8  # perfbench's result tolerance

# -- checks -----------------------------------------------------------------


def _columns_match(a: Relation, b: Relation, dbl_match: Callable) -> bool:
    """Same names, dtypes and row count; non-DBL tails equal; DBL tails
    pass ``dbl_match(baseline, variant)``."""
    if a.names != b.names or a.nrows != b.nrows:
        return False
    return all(ca.dtype is cb.dtype
               and (dbl_match(ca.tail, cb.tail) if ca.dtype is DataType.DBL
                    else np.array_equal(ca.tail, cb.tail))
               for ca, cb in zip(a.columns, b.columns))


def _bits(tail: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(tail, dtype=np.float64).view(np.uint64)


def identical(a: Relation, b: Relation) -> bool:
    """DBL tails compare as IEEE-754 bit patterns: ``-0.0`` differs from
    ``0.0``, a NaN equals the same NaN."""
    return _columns_match(
        a, b, lambda x, y: np.array_equal(_bits(x), _bits(y)))


def identical_in_order(a: Relation, b: Relation) -> bool:
    """Bitwise identical once both sides' rows are in order-schema order
    (the non-DBL columns, lexicographically)."""
    if a.names != b.names:
        return False
    keys = [c.name for c in a.schema if c.dtype is not DataType.DBL]
    return identical(sort(a, keys), sort(b, keys))


def close(a: Relation, b: Relation) -> bool:
    """Each DBL column within ``RTOL`` of the baseline's, relative to its
    largest entry (perfbench's rule)."""
    def within(x, y):
        scale = max(float(np.abs(x).max(initial=0.0)), 1e-300)
        return np.abs(y - x).max(initial=0.0) / scale <= RTOL
    return _columns_match(a, b, within)


def same_shape(a: Relation, b: Relation) -> bool:
    return a.names == b.names and a.nrows == b.nrows


# -- scenario parts ---------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    knob: str                             # "<knob>: <baseline> -> <variant>"
    build: Callable[[bool], Any]          # quick -> inputs
    baseline: Callable[[Any], Relation]
    variant: Callable[[Any], Relation]
    check: Callable[[Relation, Relation], bool] = identical
    note: Optional[str] = None            # why the check is not bitwise
    cold: bool = False                    # fresh inputs for every call


def _rows(quick: bool, n: int) -> int:
    return n // 5 if quick else n


def _config(parallel: Optional[ParallelConfig] = None,
            **knobs) -> RmaConfig:
    """Serial unless ``parallel`` says otherwise, whatever the
    ``REPRO_PARALLEL*`` environment says."""
    return RmaConfig(parallel=parallel or ParallelConfig(), **knobs)


def _leaves(n_rows: int, seed: int, str_keys: bool = True) -> list:
    """Four chain leaves ``k<i>, d0..d3``: a shuffled key (STR
    identifiers or INT) and uniform DBL columns."""
    leaves = []
    for i in range(4):
        rng = np.random.default_rng(seed + i)
        perm = rng.permutation(n_rows)
        data: dict = {f"k{i}": [f"r{v:07d}" for v in perm]
                      if str_keys else perm}
        for j in range(4):
            data[f"d{j}"] = rng.uniform(0.0, 10_000.0, n_rows)
        leaves.append(Relation.from_columns(data))
    return leaves


def _matrices(relations: list) -> list:
    """Handles on a database without plan or result cache: every collect
    executes."""
    db = repro.connect(plan_cache=False)
    return [db.matrix(r, by=r.names[0]) for r in relations]


def _chain(leaves: list) -> repro.Matrix:
    """emu(sub(add(y1, y2), y3), y4)."""
    m = _matrices(leaves)
    return (m[0] + m[1] - m[2]) * m[3]


def _order_inputs(quick: bool, n_others: int) -> tuple:
    """An order-heavy relation (4 order attributes) and ``n_others``
    more, with renamed order attributes."""
    n = _rows(quick, 100_000)
    r = order_heavy_relation(n, 4, seed=21)
    by = order_names(r)
    others = [(rename(order_heavy_relation(n, 4, seed=22 + i),
                      {k: f"e{i}_{k}" for k in by}),
               [f"e{i}_{k}" for k in by]) for i in range(n_others)]
    return r, by, others


def _repeated_add(inputs: tuple, config: RmaConfig) -> Relation:
    r, by, [(s, s_by)] = inputs
    for _ in range(10):
        result = execute_rma("add", r, by, s, s_by, config=config)
    return result


def _chained_add(inputs: tuple, config: RmaConfig) -> Relation:
    """Each add consumes the previous derived relation, ordered by its
    full, grown order schema."""
    current, by, others = inputs
    for other, other_by in others:
        current = execute_rma("add", current, by, other, other_by,
                              config=config)
        by = by + other_by
    return current


def _properties(run: Callable, on: bool) -> Callable[[tuple], Relation]:
    config = _config(policy=BackendPolicy(prefer="bat"), validate_keys=True,
                     use_properties=on)

    def call(inputs):
        with use_properties(on):  # the BAT-layer switch under the flag
            return run(inputs, config)
    return call


def _gram(quick: bool, seed: int, shuffled: bool = False) -> Relation:
    n = _rows(quick, 40_000)
    gram = uniform_relation(n, 32, key="id", seed=seed)
    if not shuffled:
        return gram
    perm = np.random.default_rng(seed + 1).permutation(n).astype(np.int64)
    return Relation(gram.schema, [c.fetch(perm) for c in gram.columns])


def _gram_pipeline(gram: Relation) -> repro.Matrix:
    """MMU(MMU(INV(CPD(a,a)), CPD(a,a)), INV(CPD(a,a))): CPD x3, INV x2."""
    (a,) = _matrices([gram])
    xtx = a.cpd(a)
    inv_xtx = xtx.inv()
    return (inv_xtx @ xtx) @ inv_xtx


def _add_chain(leaves: list) -> repro.Matrix:
    m = _matrices(leaves)
    return m[0] + m[1] + m[2] + m[3]


def _plan(pipeline: Callable, on: bool) -> Callable[[Any], Relation]:
    # Fusion is off on both sides: this isolates CSE + seeding.
    config = _config(policy=BackendPolicy(prefer="mkl"), validate_keys=True,
                     seed_result_orders=on, fuse_elementwise=False)

    def call(inputs):
        expr = pipeline(inputs)
        if on:
            return expr.collect(config=config)
        db = expr.database
        plan, info = db._plan_expression(expr.plan, config)
        executor = Executor(db.catalog, config, physical=info, cse=False)
        return executor.run(plan).to_plain_relation()
    return call


def _fusion(on: bool) -> Callable[[list], Relation]:
    config = _config(validate_keys=False, fuse_elementwise=on)
    return lambda leaves: _chain(leaves).collect(config=config)


GRAM_SQL = ("SELECT * FROM MMU(INV(CPD(g BY id, g BY id) BY C) BY C, "
            "CPD(g BY id, g BY id) BY C)")


def _statements(cached: bool) -> Callable[[Relation], Relation]:
    """Ten executions of one Gram statement in a fresh session."""
    config = _config(policy=BackendPolicy(prefer="mkl"), validate_keys=False)

    def call(gram):
        db = repro.connect(config=config, plan_cache=cached)
        db.register("g", gram)
        for _ in range(10):
            result = db.execute(GRAM_SQL)
        return result
    return call


API_CONFIG = _config(validate_keys=False)


def _eager(leaves: list, times: int = 1) -> Relation:
    """(2*y1 + y2 - y3) * y4, one execute_rma call per step."""
    for _ in range(times):
        step = execute_rma("smul", leaves[0], "k0", config=API_CONFIG,
                           scalar=2.0)
        for i, op in enumerate(("add", "sub", "emu"), start=1):
            step = execute_rma(op, step, [f"k{j}" for j in range(i)],
                               leaves[i], f"k{i}", config=API_CONFIG)
    return step


def _expression(leaves: list, times: int = 1) -> Relation:
    """The same chain as one expression on a fresh session, collected
    ``times`` times (repeats hit the session's caches)."""
    db = repro.connect(config=API_CONFIG)
    m1, m2, m3, m4 = (db.matrix(leaf, by=f"k{i}")
                      for i, leaf in enumerate(leaves))
    expr = (2.0 * m1 + m2 - m3) * m4
    for _ in range(times):
        result = expr.collect()
    return result


def _morsels(quick: bool) -> int:
    return 8_192 if quick else ParallelConfig().min_morsel_rows


def _parallel_chain(on: bool) -> Callable[[tuple], Relation]:
    def call(inputs):
        leaves, morsel_rows = inputs
        parallel = ParallelConfig(enabled=on, min_morsel_rows=morsel_rows)
        return _chain(leaves).collect(
            config=_config(parallel, validate_keys=False))
    return call


def _int_relation(n_rows: int, n_cols: int, seed: int, key: str) -> Relation:
    """INT application columns force the float casts the prepare stage
    parallelizes; the sorted INT key keeps validation an O(n) scan."""
    rng = np.random.default_rng(seed)
    data: dict = {key: np.arange(n_rows, dtype=np.int64)}
    for j in range(n_cols):
        data[f"c{j}"] = rng.integers(0, 1_000, n_rows).astype(np.int64)
    return Relation.from_columns(data)


def _prepare_inputs(quick: bool) -> tuple:
    n = _rows(quick, 1_000_000)
    return (_int_relation(n, 8, 300, "id"), _int_relation(8, 4, 400, "w"),
            _int_relation(n, 8, 500, "id2"), _morsels(quick))


def _prepare(on: bool) -> Callable[[tuple], Relation]:
    """The mmu and cpd prepare stages.  The result is one relation of the
    prepared order and float columns of ``r`` (twice) and ``s``; the 8-row
    ``w`` is timed but left out, as its row count differs."""
    def call(inputs):
        r, w, s, morsel_rows = inputs
        parallel = ParallelConfig(enabled=on, min_morsel_rows=morsel_rows)
        config = _config(parallel, validate_keys=True)
        mmu_r, _ = prepare_stage(spec_of("mmu"), r, "id", w, "w", config)
        prepared = (mmu_r, *prepare_stage(spec_of("cpd"), r, "id", s, "id2",
                                          config))
        bats = [b for p in prepared for b in p.order_bats]
        bats += [BAT(DataType.DBL, c) for p in prepared
                 for c in p.app_columns]
        return Relation.from_columns({f"a{i}": b for i, b in enumerate(bats)})
    return call


def _uniform_args(op: str, n_cols: int) -> Callable[[bool], tuple]:
    """``execute_rma`` arguments for ``op`` over 50 000-row uniform
    relations with ``n_cols`` application columns."""
    def build(quick):
        n = _rows(quick, 50_000)
        if op == "add":
            r, s = uniform_pair(n, n_cols, seed=7)
            return r, "id1", s, "id2"
        r = uniform_relation(n, n_cols, seed=6)
        if op == "cpd":
            return r, "id", r, "id"
        if op == "mmu":
            return (r, "id", uniform_relation(n_cols, n_cols, seed=8,
                                              key="id2"), "id2")
        return r, "id"
    return build


def _order_heavy_args(op: str) -> Callable[[bool], tuple]:
    """``execute_rma`` arguments for ``op`` over 20 000-row relations with
    20 order attributes (Fig. 13's shape)."""
    def build(quick):
        if op == "usv":  # usv requires |U| = 1
            return order_heavy_relation(300, 1, seed=9), ["k0"]
        r = order_heavy_relation(_rows(quick, 20_000), 20, seed=9)
        by = order_names(r)
        if op != "sub":
            return r, by
        s = rename(order_heavy_relation(r.nrows, 20, seed=10),
                   {k: f"s_{k}" for k in by})
        return r, by, s, [f"s_{k}" for k in by]
    return build


def _op(group: str, op: str, knob: str, build: Callable, off: dict,
        on: dict, **check) -> Scenario:
    """A single-operation row: ``execute_rma(op, *inputs)`` under two
    sets of config knobs."""
    config_off, config_on = _config(**off), _config(**on)
    return Scenario(f"{group}.{op}", knob, build,
                    lambda args: execute_rma(op, *args, config=config_off),
                    lambda args: execute_rma(op, *args, config=config_on),
                    **check)


# -- the table --------------------------------------------------------------

UNCHECKED = {"validate_keys": False}
BACKEND_CLOSE = {
    "check": close,
    "note": "MKL and BAT kernels round differently in the last bits "
            "(qqr differs most, ~5e-14 of the largest entry)"}

SCENARIOS = [
    Scenario("properties.repeated_add", "use_properties: off -> on",
             lambda quick: _order_inputs(quick, 1),
             _properties(_repeated_add, False),
             _properties(_repeated_add, True), cold=True),
    Scenario("properties.chained_add", "use_properties: off -> on",
             lambda quick: _order_inputs(quick, 4),
             _properties(_chained_add, False),
             _properties(_chained_add, True), cold=True),
    Scenario("plan.gram_cse", "cse + seed_result_orders: off -> on",
             lambda quick: _gram(quick, 31, shuffled=True),
             _plan(_gram_pipeline, False), _plan(_gram_pipeline, True)),
    Scenario("plan.add_chain", "cse + seed_result_orders: off -> on",
             lambda quick: _leaves(_rows(quick, 100_000), 40),
             _plan(_add_chain, False), _plan(_add_chain, True)),
    Scenario("fusion.str_chain", "fuse_elementwise: off -> on",
             lambda quick: _leaves(_rows(quick, 100_000), 50),
             _fusion(False), _fusion(True)),
    Scenario("fusion.plan_cache", "plan_cache: off -> on",
             lambda quick: _gram(quick, 51),
             _statements(False), _statements(True)),
    Scenario("api.chain", "eager execute_rma loop -> one Matrix expression",
             lambda quick: _leaves(_rows(quick, 100_000), 70),
             _eager, _expression),
    Scenario("api.repeat", "eager execute_rma loop -> one Matrix "
             "expression, 10 evaluations in one session",
             lambda quick: _leaves(_rows(quick, 100_000), 70),
             lambda leaves: _eager(leaves, 10),
             lambda leaves: _expression(leaves, 10)),
    Scenario("parallel.int_chain", "parallel.enabled: off -> on",
             lambda quick: (_leaves(_rows(quick, 1_000_000), 90,
                                    str_keys=False), _morsels(quick)),
             _parallel_chain(False), _parallel_chain(True)),
    Scenario("parallel.prepare", "parallel.enabled: off -> on",
             _prepare_inputs, _prepare(False), _prepare(True), cold=True),
    *(_op("backend", op, "policy.prefer: bat -> mkl", _uniform_args(op, 20),
          {"policy": BackendPolicy(prefer="bat"), **UNCHECKED},
          {"policy": BackendPolicy(prefer="mkl"), **UNCHECKED},
          **({} if op == "add" else BACKEND_CLOSE))
      for op in ("add", "qqr", "cpd", "mmu")),
    *(_op("sorting", op, "optimize_sorting: off -> on",
          _order_heavy_args(op), {"optimize_sorting": False, **UNCHECKED},
          {"optimize_sorting": True, **UNCHECKED}, **check)
      for op, check in (
          ("rnk", {}), ("dsv", {}),
          ("sub", {"check": identical_in_order,
                   "note": "with optimize_sorting on, rows keep r's "
                           "storage order"}),
          ("usv", {"check": same_shape,
                   "note": "not comparable: full U is unique only up to "
                           "sign and null-space basis, and the two results "
                           "are not close even in absolute value; names "
                           "and shape only"}))),
    *(_op("validation", op, "validate_keys: on -> off", _uniform_args(op, 10),
          {"validate_keys": True}, UNCHECKED)
      for op in ("qqr", "add", "rnk")),
]

# -- the runner -------------------------------------------------------------


def run(scenario: Scenario, quick: bool, k: int) -> dict:
    """Warm each side once, then ``k`` rounds alternating which side goes
    first; best time per side, every round's pair of results checked."""
    inputs = scenario.build(quick)

    def call(fn):
        args = scenario.build(quick) if scenario.cold else inputs
        start = time.perf_counter()
        result = fn(args)
        return time.perf_counter() - start, result

    call(scenario.baseline)
    call(scenario.variant)
    best_off = best_on = float("inf")
    passed = True
    for round_ in range(k):
        if round_ % 2:
            seconds_on, result_on = call(scenario.variant)
            seconds_off, result_off = call(scenario.baseline)
        else:
            seconds_off, result_off = call(scenario.baseline)
            seconds_on, result_on = call(scenario.variant)
        best_off = min(best_off, seconds_off)
        best_on = min(best_on, seconds_on)
        passed = scenario.check(result_off, result_on) and passed
    entry = {"knob": scenario.knob, "seconds_off": best_off,
             "seconds_on": best_on, "speedup": best_off / best_on,
             "check": scenario.check.__name__, "passed": passed}
    if scenario.note:
        entry["note"] = scenario.note
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale (small inputs and morsels)")
    parser.add_argument("--output", default=None,
                        help="write the report to this file (default at "
                             f"full scale: {BENCH_FILE.name})")
    args = parser.parse_args(argv)
    scale = "quick" if args.quick else "full"
    report: dict = {
        "cpus": os.cpu_count(),
        "workers": ParallelConfig(enabled=True).effective_workers(),
        "scale": scale, "k": ROUNDS[scale], "scenarios": {}}
    for scenario in SCENARIOS:
        entry = run(scenario, args.quick, ROUNDS[scale])
        report["scenarios"][scenario.name] = entry
        print(f"{scenario.name:24s} {entry['speedup']:8.2f}x  "
              f"{entry['check']}: {'ok' if entry['passed'] else 'FAIL'}",
              file=sys.stderr)
    text = json.dumps(report, indent=2) + "\n"
    print(text, end="")
    output = args.output or (None if args.quick else BENCH_FILE)
    if output:
        Path(output).write_text(text)
    failed = [name for name, entry in report["scenarios"].items()
              if not entry["passed"]]
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
