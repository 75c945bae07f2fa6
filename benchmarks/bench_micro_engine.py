"""Micro-benchmarks of the column-engine primitives.

Not from the paper, but the substrate every experiment stands on: joins,
grouped aggregation, sorting, selection and the SQL pipeline.
"""

import numpy as np
import pytest

import repro
from repro.data.synthetic import uniform_relation
from repro.relational import AggregateSpec, group_by, join, rename
from repro.relational.relation import Relation

N_ROWS = 100_000


@pytest.fixture(scope="module")
def left():
    rng = np.random.default_rng(31)
    return Relation.from_columns({
        "k": rng.integers(0, N_ROWS // 4, N_ROWS),
        "v": rng.normal(size=N_ROWS)})


@pytest.fixture(scope="module")
def right():
    rng = np.random.default_rng(32)
    return Relation.from_columns({
        "j": rng.integers(0, N_ROWS // 4, N_ROWS // 10),
        "w": rng.normal(size=N_ROWS // 10)})


@pytest.mark.benchmark(group="engine-join")
def test_hash_join(benchmark, left, right):
    benchmark(lambda: join(left, right, ["k"], ["j"]))


@pytest.mark.benchmark(group="engine-aggregate")
def test_group_by(benchmark, left):
    benchmark(lambda: group_by(left, ["k"],
                               [AggregateSpec("sum", "v", "s"),
                                AggregateSpec("count", "*", "n")]))


@pytest.mark.benchmark(group="engine-sort")
def test_sort(benchmark, left):
    benchmark(lambda: left.sorted_by(["k"]))


@pytest.mark.benchmark(group="engine-select")
def test_selection(benchmark, left):
    import repro.relational.ops as rel_ops
    benchmark(lambda: rel_ops.select_mask(left,
                                          left.column("v").tail > 0.0))


@pytest.mark.benchmark(group="engine-sql")
def test_sql_pipeline(benchmark, left, right):
    session = repro.connect(plan_cache=False)
    session.register("l", left)
    session.register("r", right)
    sql = ("SELECT l.k, SUM(v) AS sv, COUNT(*) AS n FROM l JOIN r "
           "ON l.k = r.j WHERE w > 0 GROUP BY l.k")
    benchmark(lambda: session.execute(sql))


@pytest.mark.benchmark(group="engine-sql")
def test_sql_rma_query(benchmark):
    session = repro.connect(plan_cache=False)
    session.register("m", uniform_relation(5_000, 8, seed=33))
    sql = "SELECT * FROM QQR(m BY id)"
    benchmark(lambda: session.execute(sql))
