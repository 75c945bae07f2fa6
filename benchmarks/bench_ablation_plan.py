"""Ablation — shared plan layer: CSE + warm order propagation (ISSUE 2).

Two access patterns the plan layer optimizes, run as Matrix expressions
on a database without plan or result cache:

* **Repeated subexpression** (CSE): the conditioning-check chain
  ``MMU(MMU(INV(CPD(a,a)), CPD(a,a)), INV(CPD(a,a)))`` contains the
  expensive Gram product ``CPD(a,a)`` three times and its inverse twice.
  With CSE the executor memoizes structurally identical subplans, so each
  runs once; the baseline (an ``Executor`` with ``cse=False`` on the same
  optimized plan) recomputes every occurrence.

* **Chained element-wise operations over derived relations** (warm order):
  ``add(add(add(y1,y2), y3), y4)`` — every intermediate result used to
  start with a cold order cache, so each chained ``add`` re-sorted and
  re-validated ~100k derived rows.  ``merge_result`` now seeds the result's
  order cache (identity / shared / combined-schema permutations), making
  the chained sorts free; the baseline disables the seeding
  (``RmaConfig.seed_result_orders=False``).

Both modes produce bit-identical relations — the script asserts it.

Runs in two modes:

* ``pytest benchmarks/bench_ablation_plan.py`` — pytest-benchmark timings
  at CI scale;
* ``python benchmarks/bench_ablation_plan.py [--quick] [--output f]`` —
  self-contained speedup report (``benchmarks/BENCH_plan.json`` is the
  committed baseline).
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.core import RmaConfig
from repro.data.synthetic import uniform_relation
from repro.linalg.policy import BackendPolicy
from repro.relational.relation import Relation

try:
    from benchmarks.bench_util import (
        collect_without_cse,
        relations_identical,
        uncached_matrices,
    )
except ImportError:  # script mode: benchmarks/ itself is on sys.path
    from bench_util import (
        collect_without_cse,
        relations_identical,
        uncached_matrices,
    )

N_GRAM_ROWS = 40_000
N_GRAM_COLS = 32
N_CHAIN_ROWS = 100_000
N_CHAIN_COLS = 4
REPEATS = 5


def _config(optimized: bool) -> RmaConfig:
    # validate_keys on: re-validating derived relations is part of what the
    # warm order cache amortizes.  Element-wise fusion (PR 3) is pinned off
    # in both modes — this ablation isolates CSE + order seeding alone;
    # bench_ablation_fusion.py measures the fused pipeline.
    return RmaConfig(policy=BackendPolicy(prefer="mkl"),
                     validate_keys=True,
                     seed_result_orders=optimized,
                     fuse_elementwise=False)


def _shuffled(relation: Relation, seed: int) -> Relation:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(relation.nrows).astype(np.int64)
    return Relation(relation.schema,
                    [c.fetch(perm) for c in relation.columns])


def _chain_relation(n_rows: int, index: int, seed: int) -> Relation:
    """One chain input: a shuffled STR key (the paper's order schemas are
    identifiers, and string sorts are what the warm cache saves) plus
    uniform numeric columns."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    data: dict = {f"k{index}": [f"r{v:07d}" for v in perm]}
    for j in range(N_CHAIN_COLS):
        data[f"d{j}"] = rng.uniform(0.0, 10_000.0, n_rows)
    return Relation.from_columns(data)


def build_inputs(n_gram: int = N_GRAM_ROWS, n_chain: int = N_CHAIN_ROWS):
    gram = _shuffled(uniform_relation(n_gram, N_GRAM_COLS, key="id",
                                      seed=31), seed=32)
    years = [_chain_relation(n_chain, i, seed=40 + i) for i in range(4)]
    return gram, years


def gram_pipeline(gram: Relation):
    """MMU(MMU(INV(CPD(a,a)), CPD(a,a)), INV(CPD(a,a))) — one root,
    CPD(a,a) x3 and INV x2 as repeated subplans."""
    (a,) = uncached_matrices([gram])
    xtx = a.cpd(a)
    inv_xtx = xtx.inv()
    return (inv_xtx @ xtx) @ inv_xtx


def chain_pipeline(years: list[Relation]):
    """add(add(add(y1,y2), y3), y4): each step consumes a derived relation
    and orders it by its full (grown) order schema."""
    m = uncached_matrices(years)
    return m[0] + m[1] + m[2] + m[3]


def run_scenario(optimized: bool, gram: Relation, years: list[Relation],
                 repeats: int = REPEATS):
    """Time ``repeats`` executions of both pipelines; returns
    (seconds, (gram result, chain result))."""
    config = _config(optimized)

    def collect(expr):
        if optimized:
            return expr.collect(config=config)
        return collect_without_cse(expr, config)

    results = None
    start = time.perf_counter()
    for _ in range(repeats):
        results = (collect(gram_pipeline(gram)),
                   collect(chain_pipeline(years)))
    elapsed = time.perf_counter() - start
    return elapsed, results


def run_ablation(n_gram: int = N_GRAM_ROWS, n_chain: int = N_CHAIN_ROWS,
                 repeats: int = REPEATS) -> dict:
    gram, years = build_inputs(n_gram, n_chain)
    # Warm both paths once: base-relation order caches (the PR 1 layer) are
    # shared and deliberately stay on in both modes — the ablation isolates
    # the plan layer (CSE + derived-relation seeding) alone.
    run_scenario(True, gram, years, 1)
    run_scenario(False, gram, years, 1)
    seconds_off, results_off = run_scenario(False, gram, years, repeats)
    seconds_on, results_on = run_scenario(True, gram, years, repeats)
    identical = all(relations_identical(on, off)
                    for on, off in zip(results_on, results_off))
    return {
        "scenario": f"{repeats}x (3xCPD/2xINV repeated-subplan chain over "
                    f"{n_gram}x{N_GRAM_COLS} + 3-step add chain over "
                    f"{n_chain}x{N_CHAIN_COLS}, validate_keys=on)",
        "n_gram_rows": n_gram,
        "n_chain_rows": n_chain,
        "repeats": repeats,
        "seconds_off": seconds_off,
        "seconds_on": seconds_on,
        "speedup": seconds_off / max(seconds_on, 1e-12),
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Plan-layer (CSE + warm order) ablation")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale")
    parser.add_argument("--output", default=None,
                        help="write the result as JSON to this file")
    args = parser.parse_args(argv)
    if args.quick:
        report = run_ablation(n_gram=10_000, n_chain=20_000, repeats=3)
    else:
        report = run_ablation()
    print(json.dumps(report, indent=2))
    if not report["identical"]:
        print("FAIL: results differ between plan optimizations on/off",
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
        return build_inputs(8_000, 15_000)

    @pytest.mark.benchmark(group="ablation-plan")
    @pytest.mark.parametrize("optimized", [False, True],
                             ids=["plan-off", "plan-on"])
    def test_plan_pipelines(benchmark, optimized, inputs):
        gram, years = inputs
        benchmark(lambda: run_scenario(optimized, gram, years, 1))

    def test_results_identical():
        report = run_ablation(n_gram=5_000, n_chain=10_000, repeats=2)
        assert report["identical"]


if __name__ == "__main__":
    sys.exit(main())
