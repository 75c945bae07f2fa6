"""Workload 2 — Journeys: multiple linear regression (paper Fig. 16).

Journeys chain up to five trips that meet in a station.  Starting from
purely numeric one-trip journeys (start, end, duration), the preparation
aggregates trips into frequent (start, end) groups, chains them with k-1
equi-joins (``end_i = start_{i+1}``), joins station coordinates, and
computes the per-leg distances.  The matrix part regresses total duration
on the k leg distances.

Because the data is purely numeric, AIDA's Python handover is free and its
relational part runs on the same engine — Fig. 16a's "AIDA shows comparable
join performance to RMA+".  R pays for the python-loop merges; MADlib
additionally spends most of its relational time computing distances row by
row (§8.6(2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.relational.ops as rel_ops
from repro.api import connect
from repro.baselines.aida import AidaTable
from repro.baselines.madlib import MadlibDatabase, linregr_train
from repro.baselines.rlike import RFrame, as_matrix
from repro.bat.bat import BAT, DataType
from repro.core import RmaConfig
from repro.data.bixi import station_distance_km
from repro.linalg.policy import BackendPolicy
from repro.relational import AggregateSpec, group_by, join, rename
from repro.relational.relation import Relation
from repro.workloads.common import PhaseTimes, WorkloadResult


@dataclass
class JourneysDataset:
    trips: Relation          # numeric: trip_id, start_station, end_station,
    stations: Relation       # duration
    n_legs: int = 2
    min_count: int = 50


# -- engine-side preparation ----------------------------------------------------

def _frequent_pairs(dataset: JourneysDataset) -> Relation:
    """(start, end, duration) groups occurring at least min_count times."""
    grouped = group_by(dataset.trips, ["start_station", "end_station"],
                       [AggregateSpec("count", "*", "n"),
                        AggregateSpec("avg", "duration", "avg_duration")])
    mask = grouped.column("n").tail >= dataset.min_count
    return rel_ops.select_mask(grouped, mask)


def engine_prepare(dataset: JourneysDataset) -> Relation:
    """Chain legs and attach distances; returns a relation with
    journey_id, dist1..distK and total duration."""
    pairs = _frequent_pairs(dataset)
    legs = rename(rel_ops.project(
        pairs, ["start_station", "end_station", "avg_duration"]),
        {"start_station": "s1", "end_station": "e1",
         "avg_duration": "d1"})
    journeys = legs
    for leg in range(2, dataset.n_legs + 1):
        next_leg = rename(rel_ops.project(
            pairs, ["start_station", "end_station", "avg_duration"]),
            {"start_station": f"s{leg}", "end_station": f"e{leg}",
             "avg_duration": f"d{leg}"})
        journeys = join(journeys, next_leg, [f"e{leg - 1}"], [f"s{leg}"])
    coords = dataset.stations
    total = np.zeros(journeys.nrows, dtype=np.float64)
    distances: list[np.ndarray] = []
    for leg in range(1, dataset.n_legs + 1):
        start_coords = rename(rel_ops.project(
            coords, ["code", "latitude", "longitude"]),
            {"code": "c", "latitude": f"lat_s{leg}",
             "longitude": f"lon_s{leg}"})
        end_coords = rename(rel_ops.project(
            coords, ["code", "latitude", "longitude"]),
            {"code": "c", "latitude": f"lat_e{leg}",
             "longitude": f"lon_e{leg}"})
        journeys = join(journeys, start_coords, [f"s{leg}"], ["c"],
                        drop_right_keys=True)
        journeys = join(journeys, end_coords, [f"e{leg}"], ["c"],
                        drop_right_keys=True)
        distance = station_distance_km(
            journeys.column(f"lat_s{leg}").tail,
            journeys.column(f"lon_s{leg}").tail,
            journeys.column(f"lat_e{leg}").tail,
            journeys.column(f"lon_e{leg}").tail)
        distances.append(distance)
        total = total + journeys.column(f"d{leg}").as_float()
    data = {"journey_id": BAT(DataType.INT,
                              np.arange(journeys.nrows, dtype=np.int64))}
    for leg, distance in enumerate(distances, start=1):
        data[f"dist{leg}"] = BAT(DataType.DBL, distance)
    data["total_duration"] = BAT(DataType.DBL, total)
    return Relation.from_columns(data)


def _design_names(dataset: JourneysDataset) -> list[str]:
    return [f"dist{leg}" for leg in range(1, dataset.n_legs + 1)]


def _mlr_inputs(prepared: Relation,
                names: list[str]) -> tuple[Relation, Relation]:
    """Design relation A = [1, dist1..distK] and target V, keyed by
    journey_id."""
    n = prepared.nrows
    columns = {"journey_id": prepared.column("journey_id"),
               "const": BAT(DataType.DBL, np.ones(n))}
    for name in names:
        columns[name] = prepared.column(name)
    a = Relation.from_columns(columns)
    v = Relation.from_columns({
        "journey_id": prepared.column("journey_id"),
        "y": prepared.column("total_duration")})
    return a, v


def _rma_mlr(prepared: Relation, names: list[str],
             config: RmaConfig) -> np.ndarray:
    """The MLR as one matrix expression (``(A'A)^-1 A'y``)."""
    a, v = _mlr_inputs(prepared, names)
    design = connect(config=config).matrix(a, by="journey_id")
    beta = (design.cpd(design).inv()
            @ design.cpd(v, by="journey_id")).collect()
    return beta.column("y").tail.copy()


def run_rma(dataset: JourneysDataset, backend: str = "mkl") \
        -> WorkloadResult:
    times = PhaseTimes()
    config = RmaConfig(policy=BackendPolicy(prefer=backend),
                       validate_keys=False)
    with times.measure("prep"):
        prepared = engine_prepare(dataset)
    with times.measure("matrix"):
        beta = _rma_mlr(prepared, _design_names(dataset), config)
    return WorkloadResult(f"RMA+{backend.upper()}", times, beta,
                          {"journeys": prepared.nrows})


def run_aida(dataset: JourneysDataset) -> WorkloadResult:
    times = PhaseTimes()
    with times.measure("prep"):
        prepared = engine_prepare(dataset)
        table = AidaTable(prepared)
        arrays = table.to_python()  # all numeric: pointer transfer
    with times.measure("matrix"):
        names = _design_names(dataset)
        x = np.column_stack([np.ones(prepared.nrows)]
                            + [arrays[n] for n in names])
        y = arrays["total_duration"].astype(np.float64)
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        AidaTable.from_python({"coef": beta}, table.stats)
    return WorkloadResult("AIDA", times, beta,
                          {"zero_copy": table.stats.zero_copy_columns})


def run_r(dataset: JourneysDataset) -> WorkloadResult:
    times = PhaseTimes()
    trips = RFrame.from_relation(dataset.trips)
    stations = RFrame.from_relation(dataset.stations)
    with times.measure("prep"):
        grouped = trips.aggregate(
            ["start_station", "end_station"],
            {"n": ("count", "*"), "avg_duration": ("mean", "duration")})
        pairs = grouped.subset(grouped["n"] >= dataset.min_count)
        journeys = RFrame({"s1": pairs["start_station"],
                           "e1": pairs["end_station"],
                           "d1": pairs["avg_duration"]})
        for leg in range(2, dataset.n_legs + 1):
            next_leg = RFrame({f"s{leg}": pairs["start_station"],
                               f"e{leg}": pairs["end_station"],
                               f"d{leg}": pairs["avg_duration"]})
            journeys = journeys.with_column(f"s{leg}",
                                            journeys[f"e{leg - 1}"]) \
                .merge(next_leg, [f"s{leg}"])
        total = np.zeros(len(journeys))
        distances = []
        for leg in range(1, dataset.n_legs + 1):
            s_frame = RFrame({f"s{leg}": stations["code"],
                              f"lat_s{leg}": stations["latitude"],
                              f"lon_s{leg}": stations["longitude"]})
            e_frame = RFrame({f"e{leg}": stations["code"],
                              f"lat_e{leg}": stations["latitude"],
                              f"lon_e{leg}": stations["longitude"]})
            journeys = journeys.merge(s_frame, [f"s{leg}"])
            journeys = journeys.merge(e_frame, [f"e{leg}"])
            distances.append(station_distance_km(
                journeys[f"lat_s{leg}"], journeys[f"lon_s{leg}"],
                journeys[f"lat_e{leg}"], journeys[f"lon_e{leg}"]))
            total = total + journeys[f"d{leg}"]
        for leg, distance in enumerate(distances, start=1):
            journeys = journeys.with_column(f"dist{leg}", distance)
        journeys = journeys.with_column("total_duration", total)
        journeys = journeys.with_column("icept", np.ones(len(journeys)))
    with times.measure("matrix"):
        names = ["icept"] + _design_names(dataset)
        x = as_matrix(journeys, names)
        y = journeys["total_duration"].astype(np.float64)
        beta = np.linalg.solve(x.T @ x, x.T @ y)
    return WorkloadResult("R", times, beta, {"journeys": len(journeys)})


def run_madlib(dataset: JourneysDataset) -> WorkloadResult:
    times = PhaseTimes()
    db = MadlibDatabase.from_relations(trips=dataset.trips,
                                       stations=dataset.stations)
    with times.measure("prep"):
        start_i = db.column_index("trips", "start_station")
        end_i = db.column_index("trips", "end_station")
        duration_i = db.column_index("trips", "duration")
        sums: dict[tuple, list[float]] = {}
        for row in db.rows("trips"):
            key = (row[start_i], row[end_i])
            entry = sums.setdefault(key, [0.0, 0.0])
            entry[0] += 1
            entry[1] += row[duration_i]
        pairs = [(s, e, c[1] / c[0]) for (s, e), c in sums.items()
                 if c[0] >= dataset.min_count]
        coords = {row[0]: (row[2], row[3]) for row in db.rows("stations")}
        # Chain joins row by row.
        journeys: list[tuple[tuple, float]] = [
            (((s, e),), d) for s, e, d in pairs]
        by_start: dict[float, list[tuple]] = {}
        for s, e, d in pairs:
            by_start.setdefault(s, []).append((s, e, d))
        for _ in range(dataset.n_legs - 1):
            chained = []
            for legs, total in journeys:
                last_end = legs[-1][1]
                for s, e, d in by_start.get(last_end, ()):
                    chained.append((legs + ((s, e),), total + d))
            journeys = chained
        rows_x: list[list[float]] = []
        rows_y: list[float] = []
        for legs, total in journeys:
            features = [1.0]
            for s, e in legs:
                (slat, slon), (elat, elon) = coords[s], coords[e]
                features.append(float(
                    station_distance_km(slat, slon, elat, elon)))
            rows_x.append(features)
            rows_y.append(total)
    with times.measure("matrix"):
        beta = np.array(linregr_train(rows_x, rows_y))
    return WorkloadResult("MADlib", times, beta,
                          {"journeys": len(rows_x)})


def run_journeys(dataset: JourneysDataset, systems: tuple[str, ...] =
                 ("rma-mkl", "rma-bat", "aida", "r", "madlib")) \
        -> list[WorkloadResult]:
    runners = {
        "rma-mkl": lambda: run_rma(dataset, "mkl"),
        "rma-bat": lambda: run_rma(dataset, "bat"),
        "aida": lambda: run_aida(dataset),
        "r": lambda: run_r(dataset),
        "madlib": lambda: run_madlib(dataset),
    }
    return [runners[s]() for s in systems]
