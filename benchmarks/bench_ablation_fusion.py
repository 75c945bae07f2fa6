"""Ablation — kernel-fusion pipeline + session plan/result cache (ISSUE 3).

Two access patterns the execution-pipeline refactor optimizes:

* **Element-wise chain** (fusion): ``emu(sub(add(y1,y2), y3), y4)`` over
  100k-row relations with string keys, run in the paper's benchmark mode
  (``validate_keys=False`` — MonetDB trusts declared key constraints).
  Unfused, every step runs its own prepare→kernel→merge round trip: the
  derived relation's *combined* order schema cannot be seeded without a
  verified key, so each step re-lexsorts a growing string schema and
  materializes an intermediate relation.  The fused pipeline
  (``FusedRma`` → :func:`repro.core.ops.execute_fused`) verifies each
  leaf's key once (cached), aligns all leaves with one composed
  permutation each, runs the whole chain as a kernel program, and merges
  once — no intermediates, no derived-relation sorts.

* **Repeated statements** (plan cache): a session executes the same
  Gram-chain statement over and over.  Without the session cache every
  statement re-plans and re-executes from scratch; with it the parsed
  statement, the optimized plan and the RMA subplan results are all
  reused until a catalog mutation invalidates them.

Both modes produce bit-identical relations — the script asserts it.

Runs in two modes:

* ``pytest benchmarks/bench_ablation_fusion.py`` — pytest-benchmark
  timings at CI scale;
* ``python benchmarks/bench_ablation_fusion.py [--quick] [--output f]``
  — self-contained speedup report (``benchmarks/BENCH_fusion.json`` is
  the committed baseline).  ``--no-fusion`` / ``--no-plan-cache`` force
  the respective layer off in *both* measured configurations (the
  corresponding speedup collapses to ~1x), which isolates one layer when
  profiling.
"""

import argparse
import json
import sys
import time

import numpy as np

import repro
from repro.core import RmaConfig
from repro.data.synthetic import uniform_relation
from repro.linalg.policy import BackendPolicy
from repro.relational.relation import Relation

try:
    from benchmarks.bench_util import elementwise_chain, relations_identical
except ImportError:  # script mode: benchmarks/ itself is on sys.path
    from bench_util import elementwise_chain, relations_identical

N_CHAIN_ROWS = 100_000
N_CHAIN_COLS = 4
N_GRAM_ROWS = 40_000
N_GRAM_COLS = 32
CHAIN_REPEATS = 5
STATEMENT_REPEATS = 10

GRAM_SQL = ("SELECT * FROM MMU(INV(CPD(g BY id, g BY id) BY C) BY C, "
            "CPD(g BY id, g BY id) BY C)")


def _chain_config(fuse: bool) -> RmaConfig:
    # validate_keys off reproduces the paper's benchmark mode; the fused
    # pipeline still verifies leaf keys once (cached) as its runtime
    # precondition.
    return RmaConfig(policy=BackendPolicy(prefer="auto"),
                     validate_keys=False, fuse_elementwise=fuse)


def _chain_relation(n_rows: int, index: int, seed: int) -> Relation:
    """One chain leaf: a shuffled STR key (the paper's order schemas are
    identifiers, and string sorts dominate the unfused chain) plus uniform
    numeric columns."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    data: dict = {f"k{index}": [f"r{v:07d}" for v in perm]}
    for j in range(N_CHAIN_COLS):
        data[f"d{j}"] = rng.uniform(0.0, 10_000.0, n_rows)
    return Relation.from_columns(data)


def build_inputs(n_chain: int = N_CHAIN_ROWS, n_gram: int = N_GRAM_ROWS):
    leaves = [_chain_relation(n_chain, i, seed=50 + i) for i in range(4)]
    gram = uniform_relation(n_gram, N_GRAM_COLS, key="id", seed=51)
    return leaves, gram


def run_chain(fused: bool, leaves: list[Relation],
              repeats: int = CHAIN_REPEATS):
    """Time ``repeats`` executions of the chain; returns (seconds, result)."""
    config = _chain_config(fused)
    result = None
    start = time.perf_counter()
    for _ in range(repeats):
        result = elementwise_chain(leaves).collect(config=config)
    return time.perf_counter() - start, result


def run_statements(cached: bool, gram: Relation,
                   repeats: int = STATEMENT_REPEATS):
    """Time ``repeats`` executions of the same statement in one session."""
    config = RmaConfig(policy=BackendPolicy(prefer="mkl"),
                       validate_keys=False)
    session = repro.connect(config=config, plan_cache=cached)
    session.register("g", gram)
    result = None
    start = time.perf_counter()
    for _ in range(repeats):
        result = session.execute(GRAM_SQL)
    return time.perf_counter() - start, result


def run_ablation(n_chain: int = N_CHAIN_ROWS, n_gram: int = N_GRAM_ROWS,
                 chain_repeats: int = CHAIN_REPEATS,
                 statement_repeats: int = STATEMENT_REPEATS,
                 no_fusion: bool = False,
                 no_plan_cache: bool = False) -> dict:
    leaves, gram = build_inputs(n_chain, n_gram)
    # Warm the shared leaf caches once per mode: base-relation sorts (the
    # PR 1 layer) stay on in both modes — the ablation isolates the fused
    # pipeline / the session cache alone.
    run_chain(False, leaves, 1)
    run_chain(not no_fusion, leaves, 1)
    chain_off, result_off = run_chain(False, leaves, chain_repeats)
    chain_on, result_on = run_chain(not no_fusion, leaves, chain_repeats)
    chain_identical = relations_identical(result_on, result_off)

    stmt_off, stmt_result_off = run_statements(False, gram,
                                               statement_repeats)
    stmt_on, stmt_result_on = run_statements(not no_plan_cache, gram,
                                             statement_repeats)
    stmt_identical = relations_identical(stmt_result_on, stmt_result_off)

    return {
        "fusion": {
            "scenario": f"{chain_repeats}x 3-step add/sub/emu chain over "
                        f"4 relations of {n_chain}x{N_CHAIN_COLS} "
                        "(STR keys, validate_keys=off)",
            "n_rows": n_chain,
            "repeats": chain_repeats,
            "seconds_off": chain_off,
            "seconds_on": chain_on,
            "speedup": chain_off / max(chain_on, 1e-12),
            "identical": chain_identical,
        },
        "plan_cache": {
            "scenario": f"{statement_repeats}x identical Gram-chain "
                        f"statement over {n_gram}x{N_GRAM_COLS} "
                        "in one session",
            "n_rows": n_gram,
            "repeats": statement_repeats,
            "seconds_off": stmt_off,
            "seconds_on": stmt_on,
            "speedup": stmt_off / max(stmt_on, 1e-12),
            "identical": stmt_identical,
        },
        "identical": chain_identical and stmt_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Kernel-fusion + session plan-cache ablation")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale")
    parser.add_argument("--no-fusion", action="store_true",
                        help="force element-wise fusion off in both modes")
    parser.add_argument("--no-plan-cache", action="store_true",
                        help="force the session result cache off in both "
                             "modes")
    parser.add_argument("--output", default=None,
                        help="write the result as JSON to this file")
    args = parser.parse_args(argv)
    if args.quick:
        report = run_ablation(n_chain=20_000, n_gram=8_000,
                              chain_repeats=3, statement_repeats=5,
                              no_fusion=args.no_fusion,
                              no_plan_cache=args.no_plan_cache)
    else:
        report = run_ablation(no_fusion=args.no_fusion,
                              no_plan_cache=args.no_plan_cache)
    print(json.dumps(report, indent=2))
    if not report["identical"]:
        print("FAIL: results differ between optimized and baseline modes",
              file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


# -- pytest-benchmark mode --------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if pytest is not None:
    @pytest.fixture(scope="module")
    def inputs():
        return build_inputs(15_000, 6_000)

    @pytest.mark.benchmark(group="ablation-fusion")
    @pytest.mark.parametrize("fused", [False, True],
                             ids=["fusion-off", "fusion-on"])
    def test_chain(benchmark, fused, inputs):
        leaves, _ = inputs
        benchmark(lambda: run_chain(fused, leaves, 1))

    @pytest.mark.benchmark(group="ablation-plan-cache")
    @pytest.mark.parametrize("cached", [False, True],
                             ids=["cache-off", "cache-on"])
    def test_statements(benchmark, cached, inputs):
        _, gram = inputs
        benchmark(lambda: run_statements(cached, gram, 3))

    def test_results_identical():
        report = run_ablation(n_chain=5_000, n_gram=3_000,
                              chain_repeats=2, statement_repeats=3)
        assert report["identical"]


if __name__ == "__main__":
    sys.exit(main())
