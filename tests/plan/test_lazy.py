"""Lazy Matrix handles: bit-identical to eager, plus the relational verbs.

A :class:`repro.Matrix` must reproduce ``execute_rma`` exactly for every
Table 2 operation — not just numerically close: same names, same dtypes,
same raw tails.  The relational verbs (filter/select/join/sort/limit/
distinct) are checked against their relational counterparts.
"""

import numpy as np
import pytest

import repro
from repro.bat.catalog import Catalog
from repro.core.ops import execute_rma
from repro.errors import PlanError
from repro.opspec import OPS
from repro.plan import nodes
from repro.plan.build import build_rma
from repro.plan.expr import col, lit
from repro.plan.physical import Executor
from repro.relational.relation import Relation

from bitwise import identical


def matrix(relation: Relation, by, **kwargs) -> repro.Matrix:
    """A handle on a fresh uncached database: every collect executes."""
    return repro.connect(plan_cache=False).matrix(relation, by=by, **kwargs)


def keyed(matrix: np.ndarray, key: str = "key", prefix: str = "x",
          shuffle_seed: int | None = 3) -> Relation:
    n, k = matrix.shape
    data = {key: [f"k{i:03d}" for i in range(n)]}
    for j in range(k):
        data[f"{prefix}{j}"] = matrix[:, j]
    rel = Relation.from_columns(data)
    if shuffle_seed is not None and n > 1:
        rng = np.random.default_rng(shuffle_seed)
        perm = rng.permutation(n).astype(np.int64)
        rel = Relation(rel.schema, [c.fetch(perm) for c in rel.columns])
    return rel


RNG = np.random.default_rng(11)
SQUARE = RNG.uniform(1.0, 9.0, (4, 4)) + 4.0 * np.eye(4)
TALL = RNG.uniform(-5.0, 5.0, (6, 3))
SPD = TALL.T @ TALL + 3.0 * np.eye(3)

UNARY_INPUTS = {
    "tra": SQUARE, "inv": SQUARE, "evc": SQUARE, "evl": SQUARE,
    "det": SQUARE, "chf": SPD,
    "qqr": TALL, "rqr": TALL, "dsv": TALL, "vsv": TALL, "usv": TALL,
    "rnk": TALL,
}


class TestUnaryOps:
    @pytest.mark.parametrize("op", sorted(UNARY_INPUTS))
    def test_bit_identical(self, op):
        rel = keyed(UNARY_INPUTS[op])
        eager = execute_rma(op, rel, "key")
        lazy = getattr(matrix(rel, "key"), op)().collect()
        assert identical(eager, lazy), op

    def test_all_unary_ops_covered(self):
        unary = {name for name, spec in OPS.items() if spec.arity == 1}
        assert unary == set(UNARY_INPUTS)


class TestBinaryOps:
    def binary_case(self, op):
        if op in ("add", "sub", "emu"):
            r = keyed(RNG.uniform(0.0, 10.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 10.0, (5, 3)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op == "mmu":
            r = keyed(RNG.uniform(0.0, 5.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (3, 4)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op == "opd":
            r = keyed(RNG.uniform(0.0, 5.0, (5, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (4, 3)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        if op in ("cpd", "sol"):
            r = keyed(RNG.uniform(0.0, 5.0, (6, 3)), key="k1")
            s = keyed(RNG.uniform(0.0, 5.0, (6, 2)), key="k2",
                      shuffle_seed=5)
            return r, "k1", s, "k2"
        raise AssertionError(op)

    @pytest.mark.parametrize("op", sorted(
        name for name, spec in OPS.items() if spec.arity == 2))
    def test_bit_identical(self, op):
        r, by, s, s_by = self.binary_case(op)
        eager = execute_rma(op, r, by, s, s_by)
        db = repro.connect(plan_cache=False)
        lazy = getattr(db.matrix(r, by=by), op)(
            db.matrix(s, by=s_by)).collect()
        assert identical(eager, lazy), op

    def test_other_accepts_bare_relation(self):
        r, by, s, s_by = self.binary_case("add")
        eager = execute_rma("add", r, by, s, s_by)
        lazy = matrix(r, by).add(s, by=s_by).collect()
        assert identical(eager, lazy)

    def test_arity_validation(self):
        r, by, s, s_by = self.binary_case("add")
        left, right = nodes.RelScan(r, "r"), nodes.RelScan(s, "s")
        with pytest.raises(PlanError):
            build_rma("add", (left,), (by,))
        with pytest.raises(PlanError):
            build_rma("inv", (left, right), (by, s_by))
        with pytest.raises(PlanError):
            matrix(r, by).add(s)  # a plain relation operand needs by=


class TestChains:
    def test_ols_chain_matches_eager(self):
        n = 40
        rng = np.random.default_rng(4)
        a = Relation.from_columns({
            "id": np.arange(n, dtype=np.int64),
            "const": np.ones(n),
            "x": rng.uniform(0.0, 10.0, n)})
        v = Relation.from_columns({
            "id": np.arange(n, dtype=np.int64),
            "y": rng.uniform(0.0, 100.0, n)})
        xtx = execute_rma("cpd", a, "id", a, "id")
        xty = execute_rma("cpd", a, "id", v, "id")
        eager = execute_rma("mmu", execute_rma("inv", xtx, "C"), "C",
                            xty, "C")

        design = matrix(a, "id")
        lazy = (design.cpd(design).inv()
                @ design.cpd(v, by="id")).collect()
        assert identical(eager, lazy)

    def test_collect_without_cse_matches(self):
        rel = keyed(SQUARE)
        inv = matrix(rel, "key").inv()
        pipe = inv @ inv
        no_cse = Executor(Catalog(), cse=False).run(pipe.plan)
        assert identical(pipe.collect(), no_cse.to_plain_relation())
        slow = repro.connect(optimize_plans=False).matrix(rel, by="key")
        assert identical((slow.inv() @ slow.inv()).collect(),
                         pipe.collect())


class TestRelationalOperators:
    @pytest.fixture
    def rel(self):
        return Relation.from_columns({
            "id": np.array([3, 1, 2, 5, 4], dtype=np.int64),
            "grp": ["b", "a", "a", "c", "b"],
            "val": [1.5, 2.5, 0.5, 4.0, 3.0]})

    def test_scan_passthrough(self, rel):
        assert matrix(rel, "id").collect() is rel

    def test_filter(self, rel):
        out = matrix(rel, "id").filter(col("val") > 1.0).collect()
        assert out.to_rows() == [row for row in rel.to_rows()
                                 if row[2] > 1.0]

    def test_filter_compound(self, rel):
        out = matrix(rel, "id").filter((col("val") > lit(1.0))
                                       & (col("grp") == "b")).collect()
        assert out.to_rows() == [(3, "b", 1.5), (4, "b", 3.0)]

    def test_select_names_and_exprs(self, rel):
        out = matrix(rel, "id").select(
            "id", (col("val") * 2).alias("dbl")).collect()
        assert out.names == ["id", "dbl"]
        assert out.column("dbl").python_values() == \
            [v * 2 for v in rel.column("val").python_values()]

    def test_sort_limit(self, rel):
        out = matrix(rel, "id").sort("id").limit(2).collect()
        assert [r[0] for r in out.to_rows()] == [1, 2]
        out = matrix(rel, "id").sort("id", descending=True).limit(1) \
            .collect()
        assert out.to_rows()[0][0] == 5

    def test_distinct(self, rel):
        out = matrix(rel, "grp").select("grp").distinct().collect()
        assert sorted(v for v in out.column("grp").python_values()) == \
            ["a", "b", "c"]

    def test_join(self, rel):
        other = Relation.from_columns({
            "key": np.array([1, 2, 3], dtype=np.int64),
            "label": ["one", "two", "three"]})
        db = repro.connect()
        out = (db.matrix(rel, by="id", name="l")
               .join(db.matrix(other, by="key", name="r"),
                     on=col("id", "l") == col("key", "r"))
               .collect())
        assert sorted(out.column("label").python_values()) == \
            ["one", "three", "two"]

    def test_explain_mentions_nodes(self, rel):
        text = (matrix(rel, "id").rnk()
                .filter(col("rnk") >= 0).explain())
        assert "Rma RNK" in text
        assert "RelScan" in text

    def test_interior_select_prunes_scan(self, rel):
        pipe = matrix(rel, "id").select("id", "val").sort("id")
        text = pipe.explain()
        assert "Prune [id, val]" in text
        out = pipe.collect()
        assert out.names == ["id", "val"]
        assert [r[0] for r in out.to_rows()] == [1, 2, 3, 4, 5]

    def test_non_project_root_keeps_all_columns(self, rel):
        out = matrix(rel, "id").filter(col("val") > 1.0).collect()
        assert out.names == rel.names

    @pytest.mark.parametrize("verbs,sql", [
        (lambda m, o: m.filter(col("val") > 1.0),
         "SELECT * FROM t WHERE val > 1.0"),
        (lambda m, o: m.filter((col("val") > lit(1.0)) & (col("grp") == "b")),
         "SELECT * FROM t WHERE val > 1.0 AND grp = 'b'"),
        (lambda m, o: m.select("id", (col("val") * 2).alias("dbl")),
         "SELECT id, val * 2 AS dbl FROM t"),
        (lambda m, o: m.sort("id", descending=True).limit(2, offset=1),
         "SELECT * FROM t ORDER BY id DESC LIMIT 2 OFFSET 1"),
        (lambda m, o: m.select("id", "grp").distinct(),
         "SELECT DISTINCT id, grp FROM t"),
        (lambda m, o: m.join(o, on=col("id", "t") == col("key", "o")),
         "SELECT * FROM t JOIN o ON t.id = o.key"),
    ], ids=["filter", "filter-compound", "select", "sort-limit", "distinct",
            "join"])
    def test_verbs_match_sql(self, rel, verbs, sql):
        db = repro.connect()
        db.register("t", rel)
        db.register("o", Relation.from_columns({
            "key": np.array([1, 2, 3], dtype=np.int64),
            "label": ["one", "two", "three"]}))
        via_verbs = verbs(db.matrix("t", by="id"),
                          db.matrix("o", by="key")).collect()
        assert identical(via_verbs, db.execute(sql))
