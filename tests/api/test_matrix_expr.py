"""Matrix expression handles: operators, inference, fusion, verbs."""

import numpy as np
import pytest

import repro
from repro.core.ops import execute_rma
from repro.errors import OrderSchemaError, PlanError
from repro.opspec import OPS, SCALAR_OPS
from repro.plan.expr import col
from repro.relational.relation import Relation

from bitwise import identical


def rel_with_key(key: str, n: int = 6, cols=("x", "y"), seed: int = 0):
    rng = np.random.default_rng(seed)
    data = {key: [f"{key}{i}" for i in rng.permutation(n)]}
    for c in cols:
        data[c] = rng.uniform(0.0, 10.0, n)
    return Relation.from_columns(data)


@pytest.fixture
def db():
    return repro.connect()


class TestMethodGeneration:
    def test_every_op_is_a_method(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        for name in list(OPS) + list(SCALAR_OPS):
            method = getattr(type(m), name)
            assert callable(method), name
            assert method.__doc__ and name in method.__doc__

    def test_docstrings_mention_operator_sugar(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        assert "a @ b" in type(m).mmu.__doc__
        assert "a.T" in type(m).tra.__doc__


class TestOrderInference:
    def test_shape_type_r1_keeps_order(self, db):
        a = db.matrix(rel_with_key("ka", cols=("x", "y")), by="ka")
        b = db.matrix(rel_with_key("kb", 2, cols=("u", "v")), by="kb")
        assert (a @ b).by == ("ka",)
        assert a.qqr().by == ("ka",)

    def test_elementwise_concatenates_orders(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        b = db.matrix(rel_with_key("kb", seed=1), by="kb")
        assert (a + b).by == ("ka", "kb")
        assert (a + b).app_names == ("x", "y")

    def test_column_cast_results_keyed_by_C(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        assert a.T.by == ("C",)
        assert a.cpd(a).by == ("C",)
        assert a.rnk().by == ("C",)
        assert a.rnk().app_names == ("rnk",)

    def test_scalar_steps_keep_order(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        assert (2.0 * a).by == ("ka",)
        assert (2.0 * a).app_names == ("x", "y")


class TestOperatorChain:
    def test_issue_chain_explains_fused(self, db):
        """The acceptance chain: (a @ b + smul-chain) shows a FusedRma."""
        a = db.matrix(rel_with_key("ka", cols=("x", "y", "z")), by="ka")
        b = db.matrix(rel_with_key("kb", 3, cols=("u", "v"), seed=1),
                      by="kb")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        d = db.matrix(rel_with_key("kd", seed=3), by="kd")
        expr = a @ b + 2.0 * c - d
        text = expr.explain()
        assert "FusedRma" in text
        assert "SMUL" in text and "ADD" in text and "SUB" in text
        result = expr.collect()
        assert db.last_stats.fused_nodes == 1
        # Bit-identical to the eager per-op chain.
        ab = execute_rma("mmu", rel_of(a), "ka", rel_of(b), "kb")
        step = execute_rma("add", ab, "ka",
                           execute_rma("smul", rel_of(c), "kc",
                                       scalar=2.0), "kc")
        eager = execute_rma("sub", step, ["ka", "kc"], rel_of(d), "kd")
        assert identical(result, eager)

    def test_transpose_after_chain_narrows(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        expr = (a + c).T
        text = expr.explain()
        assert "Prune" in text and "Rma TRA" in text
        out = expr.collect()
        assert out.names[0] == "C"
        assert out.nrows == 2  # the two application columns

    def test_explicit_narrow(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        chain = a + c
        assert chain.narrow().by == ("ka",)
        assert chain.narrow().app_names == ("x", "y")
        # Single-part handles narrow to themselves.
        assert a.narrow() is a

    def test_radd_rsub(self, db):
        rel = rel_with_key("k")
        m = db.matrix(rel, by="k")
        via_ops = (1.0 + m).collect()
        eager = execute_rma("sadd", rel, "k", scalar=1.0)
        assert np.array_equal(via_ops.column("x").tail,
                              eager.column("x").tail)
        swapped = (5.0 - m).collect()
        negated = execute_rma(
            "sadd", execute_rma("smul", rel, "k", scalar=-1.0), "k",
            scalar=5.0)
        assert np.array_equal(swapped.column("x").tail,
                              negated.column("x").tail)

    def test_non_numeric_operand_rejected(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        with pytest.raises(TypeError):
            m + "nope"
        with pytest.raises(PlanError):
            m.add("nope")

    def test_elementwise_overlap_raises_at_build(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        with pytest.raises(OrderSchemaError):
            m + m

    def test_tra_multi_attribute_leaf_raises(self, db):
        rel = rel_with_key("k")
        m = db.matrix(rel, by=["k", "x"])
        with pytest.raises(OrderSchemaError):
            m.T

    def test_cross_database_operands_rejected(self, db):
        m1 = db.matrix(rel_with_key("ka"), by="ka")
        m2 = repro.connect().matrix(rel_with_key("kb"), by="kb")
        with pytest.raises(PlanError):
            m1 + m2

    def test_matrix_operand_rejects_by(self, db):
        m1 = db.matrix(rel_with_key("ka"), by="ka")
        m2 = db.matrix(rel_with_key("kb"), by="kb")
        with pytest.raises(PlanError):
            m1.add(m2, by="kb")

    def test_relation_operand_requires_by(self, db):
        m1 = db.matrix(rel_with_key("ka"), by="ka")
        with pytest.raises(PlanError):
            m1.add(rel_with_key("kb"))


def rel_of(matrix) -> Relation:
    """The relation behind a leaf handle (RelScan plan node)."""
    return matrix.plan.relation


class TestSharingAndCse:
    def test_shared_handle_executes_once(self, db):
        a = db.matrix(rel_with_key("ka", cols=("x", "y")), by="ka")
        gram = a.cpd(a)
        expr = gram.inv() @ gram
        assert "shared x2" in expr.explain()
        expr.collect()
        assert db.last_stats.cse_hits + db.last_stats.cache_hits >= 1

    def test_fusion_disabled_still_identical(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        expr = 2.0 * a + c
        fused = expr.collect()
        unfused = expr.collect(fuse_elementwise=False)
        assert "FusedRma" not in expr.explain(fuse_elementwise=False)
        assert identical(fused, unfused)


class TestLazyBridge:
    """The relational verbs: matrix results flow into filters, joins and
    projections inside the same plan, on the same database."""

    def test_filter_on_expression_result(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        c = db.matrix(rel_with_key("kc", seed=2), by="kc")
        out = (a + c).filter(col("x") >= 0.0).collect()
        assert set(out.names) == {"ka", "kc", "x", "y"}

    def test_verbs_resolve_named_tables(self, db):
        """Verbs over a catalog table plan against the owning database's
        catalog."""
        rel = rel_with_key("k", n=2)  # square application part
        db.register("t", rel)
        m = db.matrix("t", by="k")
        out = m.inv().filter(col("x") <= 1e9).collect()
        eager = execute_rma("inv", rel, "k")
        assert out.names == eager.names
        assert "Scan t" in m.inv().filter(col("x") <= 1e9).explain()

    def test_verbs_use_session_caches(self, db):
        rel = rel_with_key("k", n=2)
        m = db.matrix(rel, by="k")
        m.inv().collect()  # populate the session result cache
        before = db.result_cache.hits
        m.inv().filter(col("x") <= 1e9).collect()
        assert db.result_cache.hits == before + 1

    def test_verb_chain_keeps_session_binding(self, db):
        db.register("t", rel_with_key("k", n=2))
        out = (db.matrix("t", by="k").inv()
               .filter(col("x") <= 1e9)
               .select("k", "x")
               .collect())
        assert out.names == ["k", "x"]

    def test_verb_chain_explain_honors_optimize_plans(self):
        db = repro.connect(optimize_plans=False)
        m = db.matrix(rel_with_key("k"), by="k")
        text = (3.0 * m + 1.0).filter(col("x") > 0.0).explain()
        assert "FusedRma" not in text
        assert text.count("Rma ") == 2

    def test_verb_chain_collect_sets_last_stats(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        assert db.last_stats is None
        (3.0 * m + 1.0).filter(col("x") > 0.0).collect()
        assert db.last_stats is not None
        assert db.last_stats.fused_nodes == 1

    def test_row_verbs_keep_schemas(self, db):
        a = db.matrix(rel_with_key("ka"), by="ka")
        b = db.matrix(rel_with_key("kb", seed=1), by="kb")
        chain = a + b
        for handle in (chain.filter(col("x") > 0.0), chain.sort("x"),
                       chain.limit(2), chain.distinct()):
            assert handle.by == chain.by
            assert handle.app_names == chain.app_names
            # The order parts survive too: narrowing still finds "ka".
            assert handle.narrow().by == ("ka",)

    @pytest.mark.parametrize("count, offset", [(-1, 0), (2, -1)])
    def test_limit_rejects_negative_arguments(self, db, count, offset):
        m = db.matrix(rel_with_key("k", n=5), by="k")
        with pytest.raises(PlanError):
            m.limit(count, offset)

    def test_select_keeps_order_schema(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        out = m.select("k", (col("x") * 2.0).alias("x2"))
        assert out.by == ("k",)
        assert out.app_names == ("x2",)
        assert out.collect().names == ["k", "x2"]

    def test_select_dropping_order_attribute_raises(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        with pytest.raises(OrderSchemaError):
            m.select("x", "y")

    def test_select_gives_transpose_a_static_schema(self, db):
        m = db.matrix(rel_with_key("k", n=2), by="k")
        t = m.T
        assert t.app_names is None
        picked = t.select("C", "k0")
        assert picked.app_names == ("k0",)

    def test_join_keeps_order_schema(self, db):
        m = db.matrix(rel_with_key("k"), by="k", name="m")
        labels = Relation.from_columns({
            "key": [f"k{i}" for i in range(6)],
            "label": [f"l{i}" for i in range(6)]})
        joined = m.join(labels, on=col("k", "m") == col("key"))
        assert joined.by == ("k",)
        assert joined.app_names == ("x", "y", "key", "label")
        out = joined.collect()
        assert out.nrows == 6
        assert out.names == ["k", "x", "y", "key", "label"]

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_join_null_keys_match_nothing(self, db, how):
        m = db.matrix(Relation.from_columns(
            {"k": ["a", "b", "c"], "j": [1, None, 2],
             "x": [1.0, 2.0, 3.0]}), by="k", name="m")
        labels = Relation.from_columns({"j2": [None, 2, 5],
                                        "label": ["n", "two", "five"]})
        out = m.join(labels, on=col("j", "m") == col("j2"),
                     how=how).collect()
        rows = [(r[0], r[-1]) for r in out.to_rows()]
        if how == "inner":
            assert rows == [("c", "two")]
        else:
            assert rows == [("a", None), ("b", None), ("c", "two")]

    def test_join_rejects_foreign_database(self, db):
        m = db.matrix(rel_with_key("k"), by="k")
        other = repro.connect().matrix(rel_with_key("k"), by="k")
        with pytest.raises(PlanError):
            m.join(other, on=col("k") == col("k"))

    def test_ordered_by_rekeys(self, db):
        rel = rel_with_key("k")
        m = db.matrix(rel, by="k")
        rekeyed = m.ordered_by(["k", "x"])
        assert rekeyed.by == ("k", "x")
        assert rekeyed.app_names == ("y",)
