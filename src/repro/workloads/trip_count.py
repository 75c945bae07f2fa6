"""Workload 4 — Trip count: matrix addition (paper Fig. 18).

Each input tuple stores a rider and the trip counts to 10 destinations for
one year; ``add`` over the two year relations yields the two-year counts.
``add`` is a *linear* operation, so RMA+ runs it on BATs without any copy
(Fig. 18b: RMA+BAT beats RMA+MKL — the transformation overhead of the
delegation path cannot be amortized), while AIDA must round-trip the data
through Python and R must convert data.table -> matrix -> data.table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import connect
from repro.baselines.aida import AidaTable
from repro.baselines.madlib import MadlibDatabase, matrix_add
from repro.baselines.rlike import RFrame, as_matrix, matrix_to_frame
from repro.core import RmaConfig
from repro.linalg.policy import BackendPolicy
from repro.relational.relation import Relation
from repro.workloads.common import PhaseTimes, WorkloadResult


@dataclass
class TripCountDataset:
    year1: Relation   # rider key + destination count columns
    year2: Relation   # same schema, key named differently
    key1: str = "rider1"
    key2: str = "rider2"

    @property
    def destination_names(self) -> list[str]:
        return [n for n in self.year1.names if n != self.key1]


def _signature(values: np.ndarray) -> np.ndarray:
    return np.array([values.sum(), np.abs(values).max()])


def run_rma(dataset: TripCountDataset, backend: str = "bat") \
        -> WorkloadResult:
    """RMA+ — the policy's default for add is the no-copy BAT path; the
    addition is the matrix expression ``m1 + m2``."""
    times = PhaseTimes()
    prefer = "auto" if backend == "bat" else backend
    config = RmaConfig(policy=BackendPolicy(prefer=prefer),
                       validate_keys=False)
    with times.measure("matrix"):
        db = connect(config=config)
        result = (db.matrix(dataset.year1, by=dataset.key1)
                  + db.matrix(dataset.year2, by=dataset.key2)).collect()
    names = dataset.destination_names
    totals = np.zeros(result.nrows)
    for name in names:
        totals += result.column(name).tail
    label = "RMA+BAT" if backend == "bat" else "RMA+MKL"
    return WorkloadResult(label, times, _signature(totals),
                          {"rows": result.nrows})


def run_aida(dataset: TripCountDataset) -> WorkloadResult:
    times = PhaseTimes()
    names = dataset.destination_names
    with times.measure("matrix"):
        t1 = AidaTable(dataset.year1.sorted_by([dataset.key1]))
        t2 = AidaTable(dataset.year2.sorted_by([dataset.key2]))
        a1 = t1.to_python(names)
        a2 = t2.to_python(names)
        summed = {name: a1[name] + a2[name] for name in names}
        summed[dataset.key1] = t1.to_python([dataset.key1])[dataset.key1]
        # The result must live in the database again for later relational
        # operations: AIDA copies it back.
        result = AidaTable.from_python(summed, t1.stats)
    totals = np.zeros(result.nrows)
    for name in names:
        totals += result.relation.column(name).as_float()
    return WorkloadResult("AIDA", times, _signature(totals),
                          {"rows": result.nrows})


def run_r(dataset: TripCountDataset) -> WorkloadResult:
    times = PhaseTimes()
    names = dataset.destination_names
    f1 = RFrame.from_relation(dataset.year1)
    f2 = RFrame.from_relation(dataset.year2)
    with times.measure("matrix"):
        f1 = f1.order_by(dataset.key1)
        f2 = f2.order_by(dataset.key2)
        m1 = as_matrix(f1, names)
        m2 = as_matrix(f2, names)
        summed = m1 + m2
        result = matrix_to_frame(summed, names)
        result = result.with_column(dataset.key1, f1[dataset.key1])
    totals = np.zeros(len(result))
    for name in names:
        totals += result[name]
    return WorkloadResult("R", times, _signature(totals),
                          {"rows": len(result)})


def run_madlib(dataset: TripCountDataset) -> WorkloadResult:
    times = PhaseTimes()
    names = dataset.destination_names
    db = MadlibDatabase()
    rows1 = dataset.year1.sorted_by([dataset.key1]).to_rows()
    rows2 = dataset.year2.sorted_by([dataset.key2]).to_rows()
    db.create_matrix("y1", [row[1:] for row in rows1])
    db.create_matrix("y2", [row[1:] for row in rows2])
    with times.measure("matrix"):
        summed = matrix_add(db.matrix_rows("y1"), db.matrix_rows("y2"))
    totals = np.array([sum(row) for row in summed])
    return WorkloadResult("MADlib", times, _signature(totals),
                          {"rows": len(summed)})


def run_trip_count(dataset: TripCountDataset, systems: tuple[str, ...] =
                   ("rma-bat", "rma-mkl", "aida", "r", "madlib")) \
        -> list[WorkloadResult]:
    runners = {
        "rma-bat": lambda: run_rma(dataset, "bat"),
        "rma-mkl": lambda: run_rma(dataset, "mkl"),
        "aida": lambda: run_aida(dataset),
        "r": lambda: run_r(dataset),
        "madlib": lambda: run_madlib(dataset),
    }
    return [runners[s]() for s in systems]


def make_dataset(n_riders: int, n_destinations: int = 10,
                 seed: int = 21) -> TripCountDataset:
    """Two year relations of trip counts per rider."""
    from repro.data.synthetic import uniform_relation
    year1 = uniform_relation(n_riders, n_destinations, key="rider1",
                             seed=seed, prefix="dest", low=0.0, high=40.0)
    year2 = uniform_relation(n_riders, n_destinations, key="rider2",
                             seed=seed + 1, prefix="dest", low=0.0,
                             high=40.0)
    return TripCountDataset(year1, year2)
