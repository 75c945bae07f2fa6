"""Workload 3 — Conferences: covariance computation (paper Fig. 17).

Input: the pivoted DBLP publication table (one row per author, one numeric
attribute per conference) and a ranking table.  The query computes the
covariance matrix over the publication counts and joins it with the ranking
to keep the rows of A++ conferences.

The covariance matrix is computed via the cross product of the centered
matrix (cov = Xc'Xc / (n-1)); the paper uses ``cblas_dsyrk`` for the
symmetric cross product in RMA+, ``a.t @ a`` in AIDA and ``crossprod`` in
R.  In all systems the matrix part dominates (>= 90% of the runtime).
Only RMA+ keeps the conference names attached to the covariance rows —
AIDA and R must re-attach them manually (modeled by the explicit
name-column rebuild in their runners).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.relational.ops as rel_ops
from repro.api import connect
from repro.baselines.aida import AidaTable
from repro.baselines.madlib import MadlibDatabase, covariance
from repro.baselines.rlike import RFrame, as_matrix, matrix_to_frame
from repro.bat.bat import BAT, DataType
from repro.core import RmaConfig
from repro.linalg.policy import BackendPolicy
from repro.relational import AggregateSpec, group_by, join, rename
from repro.relational.relation import Relation
from repro.workloads.common import PhaseTimes, WorkloadResult


@dataclass
class ConferencesDataset:
    publications: Relation   # author + one DBL column per conference
    ranking: Relation        # conference, rating

    @property
    def conference_names(self) -> list[str]:
        return [n for n in self.publications.names if n != "author"]


def _center(dataset: ConferencesDataset) -> Relation:
    """Subtract column means (engine-side, vectorized)."""
    publications = dataset.publications
    names = dataset.conference_names
    columns = {"author": publications.column("author")}
    for name in names:
        values = publications.column(name).tail
        columns[name] = BAT(DataType.DBL, values - values.mean())
    return Relation.from_columns(columns)


def _join_ranking_and_filter(cov: Relation, ranking: Relation) -> Relation:
    """Join covariance rows with the ranking, keep A++ conferences."""
    joined = join(cov, ranking, ["C"], ["conference"],
                  drop_right_keys=True)
    mask = np.array([r == "A++"
                     for r in joined.column("rating").python_values()])
    return rel_ops.select_mask(joined, mask)


def run_rma(dataset: ConferencesDataset, backend: str = "mkl") \
        -> WorkloadResult:
    times = PhaseTimes()
    config = RmaConfig(policy=BackendPolicy(prefer=backend),
                       validate_keys=False)
    n = dataset.publications.nrows
    names = dataset.conference_names
    with times.measure("prep"):
        centered = _center(dataset)
    with times.measure("matrix"):
        # One expression: symmetric cross product (the dsyrk-style path —
        # both operands are the same handle) scaled by the kernel-layer
        # smul, which keeps the context attribute C attached.
        cm = connect(config=config).matrix(centered, by="author")
        cov = (cm.cpd(cm) * (1.0 / (n - 1))).collect()
    with times.measure("prep"):
        result = _join_ranking_and_filter(cov, dataset.ranking)
    signature = _signature(result, names)
    return WorkloadResult(f"RMA+{backend.upper()}", times, signature,
                          {"a_plus_plus": result.nrows})


def _signature(result: Relation, names: list[str]) -> np.ndarray:
    """Order-independent numeric signature: per-A++-row sums, sorted."""
    if result.nrows == 0:
        return np.zeros(1)
    sums = np.zeros(result.nrows)
    for name in names:
        sums += result.column(name).tail
    return np.sort(sums)


def run_aida(dataset: ConferencesDataset) -> WorkloadResult:
    times = PhaseTimes()
    names = dataset.conference_names
    n = dataset.publications.nrows
    with times.measure("prep"):
        table = AidaTable(dataset.publications)
        arrays = table.to_python(names)  # numeric: pointer transfer
    with times.measure("matrix"):
        dense = np.column_stack([arrays[name] for name in names])
        centered = dense - dense.mean(axis=0)
        cov = (centered.T @ centered) / (n - 1)
    with times.measure("prep"):
        # AIDA's covariance has no contextual information: the conference
        # names must be manually added as a new column (§8.6(3)).
        data = {"C": np.array(names, dtype=object)}
        for j, name in enumerate(names):
            data[name] = cov[:, j]
        cov_table = AidaTable.from_python(data, table.stats)
        result = _join_ranking_and_filter(cov_table.relation,
                                          dataset.ranking)
    return WorkloadResult("AIDA", times, _signature(result, names),
                          {"a_plus_plus": result.nrows})


def run_r(dataset: ConferencesDataset) -> WorkloadResult:
    times = PhaseTimes()
    names = dataset.conference_names
    n = dataset.publications.nrows
    publications = RFrame.from_relation(dataset.publications)
    ranking = RFrame.from_relation(dataset.ranking)
    with times.measure("matrix"):
        dense = as_matrix(publications, names)
        centered = dense - dense.mean(axis=0)
        cov = (centered.T @ centered) / (n - 1)  # crossprod
    with times.measure("prep"):
        # Manually re-attach conference names, then merge with the ranking.
        frame = matrix_to_frame(cov, names)
        frame = frame.with_column("C", np.array(names, dtype=object))
        merged = frame.merge(
            RFrame({"C": ranking["conference"],
                    "rating": ranking["rating"]}), ["C"])
        mask = np.array([r == "A++" for r in merged["rating"]])
        selected = merged.subset(mask)
        sums = np.zeros(len(selected))
        for name in names:
            sums += selected[name]
        signature = np.sort(sums)
    if len(selected) == 0:
        signature = np.zeros(1)
    return WorkloadResult("R", times, signature,
                          {"a_plus_plus": len(selected)})


def run_madlib(dataset: ConferencesDataset) -> WorkloadResult:
    times = PhaseTimes()
    names = dataset.conference_names
    db = MadlibDatabase.from_relations(ranking=dataset.ranking)
    rows = [list(row[1:]) for row in dataset.publications.to_rows()]
    with times.measure("matrix"):
        cov = covariance(rows)
    with times.measure("prep"):
        rating_of = {row[0]: row[1] for row in db.rows("ranking")}
        selected = [(name, cov_row) for name, cov_row in zip(names, cov)
                    if rating_of.get(name) == "A++"]
        sums = sorted(sum(cov_row) for _, cov_row in selected)
        signature = np.array(sums) if sums else np.zeros(1)
    return WorkloadResult("MADlib", times, signature,
                          {"a_plus_plus": len(selected)})


def run_conferences(dataset: ConferencesDataset,
                    systems: tuple[str, ...] =
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
