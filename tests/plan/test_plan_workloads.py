"""The four paper workloads' one Matrix implementation vs eager ``rma.*``.

Each workload runs its matrix part as one Matrix expression.  It must be
bit-identical (same raw IEEE-754 tails) to a test-side composition of the
eager ``repro.rma`` functions — the per-operation execution the paper
describes — with the morsel-parallel engine off and forced on.
"""

import numpy as np
import pytest

import repro
from repro.core import RmaConfig
from repro.core.config import ParallelConfig
from repro.data.bixi import generate_numeric_trips, generate_stations, \
    generate_trips
from repro.data.dblp import generate_publications, generate_ranking
from repro.linalg.policy import BackendPolicy
from repro.workloads import conferences_cov, trip_count
from repro.workloads.journeys_mlr import JourneysDataset, _design_names, \
    _mlr_inputs
from repro.workloads.journeys_mlr import engine_prepare as prepare_journeys
from repro.workloads.journeys_mlr import run_rma as run_journeys_rma
from repro.workloads.trips_olr import TripsDataset, _ols_inputs, _rma_ols
from repro.workloads.trips_olr import engine_prepare as prepare_trips
from repro.workloads.trips_olr import run_rma as run_trips_rma

from bitwise import bits

ENGINES = (ParallelConfig(enabled=False),
           ParallelConfig(enabled=True, workers=2, min_morsel_rows=1))

ENGINE_ENV = ("REPRO_PARALLEL", "REPRO_PARALLEL_WORKERS",
              "REPRO_PARALLEL_MIN_MORSEL_ROWS")


@pytest.fixture(scope="module")
def stations():
    return generate_stations(20, seed=1)


def configs(prefer: str = "mkl", validate: bool = False) \
        -> list[RmaConfig]:
    """The workload runners' configuration, serial and forced-parallel."""
    return [RmaConfig(policy=BackendPolicy(prefer=prefer),
                      validate_keys=validate, parallel=engine)
            for engine in ENGINES]


def each_engine(monkeypatch):
    """Loop body runs twice: engine env gate off, then forced on with
    1-row morsels.  The runners build their own ``RmaConfig``, whose
    ``parallel`` field defaults from this environment."""
    for var in ENGINE_ENV:
        monkeypatch.delenv(var, raising=False)
    yield
    monkeypatch.setenv("REPRO_PARALLEL", "1")
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "2")
    monkeypatch.setenv("REPRO_PARALLEL_MIN_MORSEL_ROWS", "1")
    yield


def eager_ols(a, v, key: str, config: RmaConfig):
    """MMU(INV(CPD(A,A)), CPD(A,V)), one eager call per operation."""
    xtx = repro.rma.cpd(a, key, a, key, config=config)
    xty = repro.rma.cpd(a, key, v, key, config=config)
    xtx_inv = repro.rma.inv(xtx, "C", config=config)
    return repro.rma.mmu(xtx_inv, "C", xty, "C", config=config)


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert np.array_equal(bits(a), bits(b))


class TestTripsOlr:
    def test_lazy_matches_eager(self, stations):
        trips = generate_trips(3_000, stations, seed=2)
        dataset = TripsDataset(trips, stations, 2014, 2017, min_count=5)
        prepared = prepare_trips(dataset)
        a, v = _ols_inputs(prepared)
        # run_rma(validate_keys=True): the key checks change no bit.
        for config in configs(validate=True):
            eager = eager_ols(a, v, "trip_id", config)
            assert_bits_equal(eager.column("duration").tail,
                              _rma_ols(prepared, config))

    def test_runner_agrees(self, stations, monkeypatch):
        trips = generate_trips(3_000, stations, seed=2)
        dataset = TripsDataset(trips, stations, 2014, 2017, min_count=5)
        a, v = _ols_inputs(prepare_trips(dataset))
        eager = eager_ols(a, v, "trip_id", configs()[0])
        for _ in each_engine(monkeypatch):
            result = run_trips_rma(dataset)
            assert result.system == "RMA+MKL"
            assert_bits_equal(eager.column("duration").tail,
                              result.signature)


class TestJourneysMlr:
    def test_lazy_matches_eager(self, stations, monkeypatch):
        trips = generate_numeric_trips(4_000, stations, seed=3)
        dataset = JourneysDataset(trips, stations, n_legs=2, min_count=10)
        prepared = prepare_journeys(dataset)
        a, v = _mlr_inputs(prepared, _design_names(dataset))
        eager = eager_ols(a, v, "journey_id", configs()[0])
        for _ in each_engine(monkeypatch):
            result = run_journeys_rma(dataset)
            assert result.system == "RMA+MKL"
            assert_bits_equal(eager.column("y").tail, result.signature)


class TestConferencesCov:
    def test_lazy_cross_product_matches(self, monkeypatch):
        dataset = conferences_cov.ConferencesDataset(
            generate_publications(400, 10), generate_ranking(10, seed=11))
        centered = conferences_cov._center(dataset)
        scale = 1.0 / (dataset.publications.nrows - 1)
        config = configs()[0]
        cross = repro.rma.cpd(centered, "author", centered, "author",
                              config=config)
        cov = repro.rma.smul(cross, "C", scale, config=config)
        eager = conferences_cov._signature(
            conferences_cov._join_ranking_and_filter(cov, dataset.ranking),
            dataset.conference_names)
        for _ in each_engine(monkeypatch):
            result = conferences_cov.run_rma(dataset)
            assert result.system == "RMA+MKL"
            assert_bits_equal(eager, result.signature)


class TestTripCountAdd:
    def test_lazy_add_matches(self, monkeypatch):
        dataset = trip_count.make_dataset(2_000)
        eager = repro.rma.add(dataset.year1, dataset.key1, dataset.year2,
                              dataset.key2, config=configs("auto")[0])
        totals = np.zeros(eager.nrows)
        for name in dataset.destination_names:
            totals += eager.column(name).tail
        for _ in each_engine(monkeypatch):
            result = trip_count.run_rma(dataset)
            assert result.system == "RMA+BAT"
            assert_bits_equal(trip_count._signature(totals),
                              result.signature)

    def test_derived_result_starts_warm(self):
        dataset = trip_count.make_dataset(500)
        db = repro.connect()
        result = (db.matrix(dataset.year1, by=dataset.key1)
                  + db.matrix(dataset.year2, by=dataset.key2)).collect()
        info = result.cached_order_info((dataset.key1,))
        assert info is not None
        assert info.known_positions is not None
