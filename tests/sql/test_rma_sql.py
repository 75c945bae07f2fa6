"""RMA operations through the SQL front end (paper §7.2)."""

import numpy as np
import pytest

from repro.relational import Relation
from repro import connect


@pytest.fixture
def session(users, films, ratings, weather):
    s = connect()
    s.register("u", users)
    s.register("f", films)
    s.register("rating", ratings)
    s.register("weather", weather)
    return s


class TestUnaryRmaSql:
    def test_paper_intro_query(self, session):
        """SELECT * FROM INV(rating BY User) orders by users and inverts."""
        out = session.execute("SELECT * FROM INV(rating BY User)")
        assert out.names == ["User", "Balto", "Heat", "Net"]
        assert out.column("User").python_values() == ["Ann", "Jan", "Tom"]
        # Check INV against numpy on the sorted matrix.
        ordered = np.array([[2.0, 1.5, 0.5], [1.0, 4.0, 1.0],
                            [0.0, 0.0, 1.5]])
        expected = np.linalg.inv(ordered)
        got = np.column_stack([out.column(c).tail
                               for c in ["Balto", "Heat", "Net"]])
        assert np.allclose(got, expected)

    def test_tra(self, session):
        out = session.execute("SELECT * FROM TRA(weather BY T)")
        assert out.names == ["C", "5am", "6am", "7am", "8am"]

    def test_projection_over_rma(self, session):
        out = session.execute(
            "SELECT C, Ann FROM TRA(rating BY User) WHERE Ann > 0.6")
        assert sorted(out.to_rows()) == [("Balto", 2.0), ("Heat", 1.5)]

    def test_det_and_filter(self, session):
        out = session.execute(
            "SELECT det FROM DET((SELECT User, Balto, Heat, Net "
            "FROM rating) BY User)")
        ordered = np.array([[2.0, 1.5, 0.5], [1.0, 4.0, 1.0],
                            [0.0, 0.0, 1.5]])
        assert out.to_rows()[0][0] == pytest.approx(
            np.linalg.det(ordered))

    def test_rma_with_alias_and_join(self, session):
        out = session.execute(
            "SELECT w.C, f.Director FROM TRA(rating BY User) AS w "
            "JOIN f ON w.C = f.Title WHERE f.Director = 'Lee' "
            "ORDER BY w.C")
        assert out.to_rows() == [("Balto", "Lee"), ("Heat", "Lee")]


class TestBinaryRmaSql:
    def test_add(self, session, weather):
        other = Relation.from_rows(
            ["D", "H", "W"],
            [("d1", 1.0, 1.0), ("d2", 1.0, 1.0),
             ("d3", 1.0, 1.0), ("d4", 1.0, 1.0)])
        session.register("other", other)
        out = session.execute(
            "SELECT * FROM ADD(weather BY T, other BY D)")
        assert out.names == ["T", "D", "H", "W"]
        rows = {r[0]: r[2:] for r in out.to_rows()}
        assert rows["5am"] == (2.0, 4.0)

    def test_mmu_nested(self, session):
        """Covariance-style nesting: MMU(TRA(x) BY C, x BY key)."""
        out = session.execute(
            "SELECT * FROM MMU(TRA(rating BY User) BY C, rating BY User)")
        assert out.names == ["C", "Balto", "Heat", "Net"]
        data = np.array([[2.0, 1.5, 0.5], [0.0, 0.0, 1.5],
                         [1.0, 4.0, 1.0]])
        expected = data.T @ data
        got = np.column_stack([out.sorted_by(["C"]).column(c).tail
                               for c in ["Balto", "Heat", "Net"]])
        # rows of result sorted by C = Balto, Heat, Net (already sorted)
        assert np.allclose(got, expected)


class TestPaperSection72:
    def test_folded_covariance_query(self, session, users, ratings):
        """The full §7.2 SQL translation of w5/w6/w7."""
        s = session
        # Build w1 (CA users' ratings) and w3 (centered) via SQL.
        s.execute(
            "CREATE TABLE w1 AS SELECT u.User AS U, Balto AS B, "
            "Heat AS H, Net AS N FROM u JOIN rating "
            "ON u.User = rating.User WHERE State = 'CA'")
        s.execute(
            "CREATE TABLE means AS SELECT AVG(B) AS B, AVG(H) AS H, "
            "AVG(N) AS N FROM w1")
        s.execute(
            "CREATE TABLE w3 AS SELECT U, B, H, N FROM SUB(w1 BY U, "
            "(SELECT V, B, H, N FROM (SELECT U AS V FROM w1) AS k "
            "CROSS JOIN means) BY V)")
        s.execute("CREATE TABLE w4 AS SELECT * FROM TRA(w3 BY U)")
        out = s.execute(
            "SELECT C, B/(M-1) AS B, H/(M-1) AS H, N/(M-1) AS N "
            "FROM MMU(w4 BY C, w3 BY U) AS w5 "
            "CROSS JOIN (SELECT COUNT(*) AS M FROM w1) AS t")
        rows = {r[0]: r[1:] for r in out.to_rows()}
        assert rows["B"] == pytest.approx((0.5, -1.25, -0.25))
        assert rows["H"] == pytest.approx((-1.25, 3.125, 0.625))
        assert rows["N"] == pytest.approx((-0.25, 0.625, 0.125))
