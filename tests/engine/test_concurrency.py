"""Thread-safety of the lazy caches under the morsel engine.

The per-relation order cache, the per-OrderInfo lazy fields, the BAT
property bits/float views and the session PlanCache are all touched from
pool worker threads.  These tests hammer cold caches from many threads
and assert (a) no torn state, (b) the expensive computations run exactly
once where double-checked locking promises it.
"""

import threading

import numpy as np
import pytest

import repro
import repro.relational.relation as relation_module
from repro.bat.bat import BAT, DataType
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.plan.cache import PlanCache
from repro.relational.joins import lex_sorted, relation_lex_sorted
from repro.relational.relation import Relation

from bitwise import identical

N_THREADS = 8


def hammer(target, n_threads=N_THREADS):
    """Run ``target`` concurrently from many threads; return all results.

    A barrier lines every thread up on the cold cache before release, and
    worker exceptions propagate to the test.
    """
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def run(i):
        try:
            barrier.wait()
            results[i] = target()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def shuffled_relation(n=5_000, seed=7) -> Relation:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return Relation.from_columns({
        "key": perm.astype(np.int64),
        "grp": (perm % 17).astype(np.int64),
        "val": rng.uniform(0.0, 10.0, n)})


class TestOrderCache:
    def test_cold_order_computed_exactly_once(self, monkeypatch):
        rel = shuffled_relation()
        calls = []
        real_order_by = relation_module.order_by

        def counting_order_by(bats):
            calls.append(threading.get_ident())
            return real_order_by(bats)

        monkeypatch.setattr(relation_module, "order_by", counting_order_by)
        positions = hammer(lambda: rel.order_info(["key"]).positions)
        assert len(calls) == 1  # double-checked locking: one argsort
        for p in positions[1:]:
            assert p is positions[0]

    def test_cold_key_check_consistent(self):
        rel = shuffled_relation()
        verdicts = hammer(lambda: rel.order_info(["key"]).is_key)
        assert all(v is True for v in verdicts)

    def test_one_orderinfo_object_per_schema(self):
        rel = shuffled_relation()
        infos = hammer(lambda: rel.order_info(("grp", "key")))
        assert all(info is infos[0] for info in infos[1:])

    def test_lex_memo_computed_exactly_once(self):
        import repro.relational.joins as joins_module
        n = 2_000
        major = np.sort(np.arange(n, dtype=np.int64) // 4)
        minor = np.arange(n, dtype=np.int64) % 4
        rel = Relation.from_columns({"a": major, "b": minor,
                                     "v": np.ones(n)})
        # Ambiguous case: sorted major with duplicates pays the O(n·k)
        # scan — the memo must pay it once per (relation, tuple).
        calls = []
        real = joins_module.lex_sorted

        def counting(bats):
            calls.append(1)
            return real(bats)

        verdicts = hammer(
            lambda: rel.order_info(("a", "b")).lex_sorted_memo(counting))
        assert all(v is True for v in verdicts)
        assert calls == [1]

    def test_relation_lex_sorted_matches_uncached(self):
        n = 1_000
        major = np.sort(np.arange(n, dtype=np.int64) // 3)
        minor = (np.arange(n, dtype=np.int64) * 7) % 5
        rel = Relation.from_columns({"a": major, "b": minor,
                                     "v": np.ones(n)})
        expected = lex_sorted(rel.bats(["a", "b"]))
        assert relation_lex_sorted(rel, ("a", "b")) == expected
        # Second probe comes from the relation's order cache.
        assert rel.cached_order_info(("a", "b"))._lex_sorted == expected


class TestBatCaches:
    def test_property_bits_consistent(self):
        tail = np.sort(np.random.default_rng(3).integers(
            0, 10**6, 50_000)).astype(np.int64)
        bat = BAT(DataType.INT, tail)
        verdicts = hammer(lambda: (bat.tsorted, bat.tkey, bat.tnonil))
        assert all(v == verdicts[0] for v in verdicts)
        assert bat.cached_prop("tsorted") is True

    def test_float_view_single_published_object(self):
        bat = BAT(DataType.INT,
                  np.arange(100_000, dtype=np.int64))
        views = hammer(bat.as_float)
        published = bat.as_float()
        # Racing first casts may build duplicates, but every caller gets
        # a correct read-only float64 view and one object is published.
        for view in views:
            assert view.dtype == np.float64
            assert not view.flags.writeable
            assert np.array_equal(view, published)


class TestSharedExecution:
    def test_concurrent_collect_on_shared_relation(self):
        rel = shuffled_relation(2_000)
        other = Relation.from_columns({
            "key2": rel.column("key"),
            "grp2": rel.column("grp"),
            "val2": rel.column("val").tail * 2.0})
        config = RmaConfig(parallel=ParallelConfig(
            enabled=True, workers=2, min_morsel_rows=1))

        def run():
            db = repro.connect(plan_cache=False)
            return (db.matrix(rel, by=("key", "grp"))
                    + db.matrix(other, by=("key2", "grp2"))) \
                .collect(config=config)

        results = hammer(run)
        reference = run()
        assert all(identical(result, reference) for result in results)

    def test_plan_cache_concurrent_use(self):
        rel = shuffled_relation(1_000)
        cache = PlanCache()
        config = RmaConfig(parallel=ParallelConfig(
            enabled=True, workers=2, min_morsel_rows=1))

        def run():
            db = repro.connect(plan_cache=cache)
            return db.matrix(rel, by="key").rnk().collect(config=config)

        results = hammer(run)
        assert cache.hits + cache.misses >= N_THREADS
        value = results[0].column("rnk").tail[0]
        assert all(r.column("rnk").tail[0] == value for r in results)


class TestPlanCacheBudget:
    def big_relation(self, n, seed):
        rng = np.random.default_rng(seed)
        return Relation.from_columns({
            "key": np.arange(n, dtype=np.int64),
            "val": rng.uniform(0.0, 1.0, n)})

    def test_evicts_by_bytes_lru_first(self):
        from repro.bat.catalog import Catalog
        from repro.plan import nodes
        catalog = Catalog()
        # Each result is ~16 bytes/row * 10_000 rows ≈ 160 kB.
        cache = PlanCache(max_entries=100, max_bytes=400_000)
        plans = []
        for i in range(3):
            rel = self.big_relation(10_000, seed=i)
            plan = nodes.RelScan(rel, f"r{i}")
            plans.append(plan)
            cache.put(plan, catalog, RmaConfig(), rel)
        assert cache.total_bytes <= 400_000
        assert cache.evictions >= 1
        # The oldest entry went first; the newest is still cached.
        assert cache.get(plans[0], catalog, RmaConfig()) is None
        assert cache.get(plans[-1], catalog, RmaConfig()) is not None

    def test_entry_backstop_still_applies(self):
        from repro.bat.catalog import Catalog
        from repro.plan import nodes
        catalog = Catalog()
        cache = PlanCache(max_entries=2, max_bytes=10**9)
        for i in range(4):
            rel = self.big_relation(10, seed=i)
            cache.put(nodes.RelScan(rel, f"r{i}"), catalog, RmaConfig(),
                      rel)
        assert len(cache) == 2

    def test_oversized_entry_not_pinned(self):
        from repro.bat.catalog import Catalog
        from repro.plan import nodes
        catalog = Catalog()
        cache = PlanCache(max_entries=8, max_bytes=1_000)
        rel = self.big_relation(10_000, seed=0)
        cache.put(nodes.RelScan(rel, "r"), catalog, RmaConfig(), rel)
        assert len(cache) == 0
        assert cache.total_bytes == 0

    def test_str_columns_estimated(self):
        from repro.plan.cache import relation_bytes
        rel = Relation.from_columns({
            "k": [f"key{i:06d}" for i in range(1_000)],
            "v": np.ones(1_000)})
        estimate = relation_bytes(rel)
        # pointers + payload for STR, exact for DBL
        assert estimate > 1_000 * 8 + 1_000 * 8
