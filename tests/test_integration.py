"""End-to-end integration: SQL pipeline vs algebra pipeline vs numpy.

The same analysis written three ways must produce identical numbers — the
closure property that makes RMA usable as "just SQL".
"""

import numpy as np
import pytest

from repro.bat.bat import BAT, DataType
from repro.core import cpd, inv, mmu, tra
from repro.data.bixi import generate_stations, generate_trips
from repro.data.dblp import generate_publications
from repro.relational.relation import Relation
from repro import connect


class TestSqlVsAlgebra:
    def test_covariance_three_ways(self):
        publications = generate_publications(300, 5, seed=12)
        names = [n for n in publications.names if n != "author"]
        n = publications.nrows

        # 1. numpy reference.
        dense = np.column_stack([publications.column(c).tail
                                 for c in names])
        centered = dense - dense.mean(axis=0)
        expected = centered.T @ centered / (n - 1)

        # 2. algebra API: tra + mmu (the paper's §5 pipeline).
        centered_rel = Relation.from_columns(
            {"author": publications.column("author"),
             **{c: BAT(DataType.DBL,
                       publications.column(c).tail
                       - publications.column(c).tail.mean())
                for c in names}})
        transposed = tra(centered_rel, by="author")
        cov_alg = mmu(transposed, "C", centered_rel, "author")
        got_alg = np.column_stack(
            [cov_alg.sorted_by(["C"]).column(c).tail for c in names])
        got_alg /= (n - 1)
        # rows sorted by C == alphabetical conference names == `names`
        assert np.allclose(got_alg, expected)

        # 3. cpd (symmetric fast path) matches too.
        cov_cpd = cpd(centered_rel, "author", centered_rel, "author")
        got_cpd = np.column_stack(
            [cov_cpd.sorted_by(["C"]).column(c).tail for c in names])
        assert np.allclose(got_cpd / (n - 1), expected)

        # 4. the SQL front end.
        session = connect()
        session.register("pubs", centered_rel)
        cov_sql = session.execute(
            "SELECT * FROM MMU(TRA(pubs BY author) BY C, pubs BY author)")
        got_sql = np.column_stack(
            [cov_sql.sorted_by(["C"]).column(c).tail for c in names])
        assert np.allclose(got_sql / (n - 1), expected)

    def test_sql_workload_matches_algebra_workload(self):
        """The trips OLS through SQL equals the workload-module result."""
        from repro.workloads.trips_olr import (
            TripsDataset,
            engine_prepare,
            run_rma,
        )
        stations = generate_stations(20, seed=1)
        trips = generate_trips(4_000, stations, seed=2)
        dataset = TripsDataset(trips, stations, 2014, 2017, min_count=5)
        expected = np.asarray(run_rma(dataset, "mkl").signature).ravel()

        prepared = engine_prepare(dataset)
        a = Relation.from_columns({
            "trip_id": prepared.column("trip_id"),
            "const": BAT(DataType.DBL, np.ones(prepared.nrows)),
            "distance": prepared.column("distance")})
        v = Relation.from_columns({
            "trip_id": prepared.column("trip_id"),
            "duration": prepared.column("duration").cast(DataType.DBL)})
        session = connect()
        session.register("a", a)
        session.register("v", v)
        session.execute("CREATE TABLE xtx AS SELECT * FROM "
                        "CPD(a BY trip_id, a BY trip_id)")
        session.execute("CREATE TABLE xty AS SELECT * FROM "
                        "CPD(a BY trip_id, v BY trip_id)")
        beta = session.execute(
            "SELECT * FROM MMU(INV(xtx BY C) BY C, xty BY C)")
        got = beta.column("duration").tail
        assert np.allclose(got, expected)

    def test_inverse_roundtrip_through_sql(self, ratings):
        session = connect()
        session.register("rating", ratings)
        session.execute("CREATE TABLE inv_r AS "
                        "SELECT * FROM INV(rating BY User)")
        identity = session.execute(
            "SELECT * FROM MMU(inv_r BY User, rating BY User)")
        got = np.column_stack(
            [identity.sorted_by(["User"]).column(c).tail
             for c in ["Balto", "Heat", "Net"]])
        assert np.allclose(got, np.eye(3), atol=1e-10)


class TestScaleSmoke:
    def test_moderate_scale_pipeline(self):
        """A 50k-row mixed pipeline runs end to end in one session."""
        stations = generate_stations(30, seed=1)
        trips = generate_trips(50_000, stations, seed=2)
        session = connect()
        session.register("trips", trips)
        session.register("stations", stations)
        out = session.execute(
            "SELECT s.name, COUNT(*) AS n, AVG(duration) AS avg_dur "
            "FROM trips JOIN stations AS s "
            "ON trips.start_station = s.code "
            "WHERE is_member = TRUE "
            "GROUP BY s.name HAVING COUNT(*) >= 10 "
            "ORDER BY n DESC LIMIT 5")
        assert 0 < out.nrows <= 5
        counts = [r[1] for r in out.to_rows()]
        assert counts == sorted(counts, reverse=True)
