"""The benchmark's three workloads: inputs, statement templates, references.

Each workload generates its inputs from the seed with numpy, hands them to
the library only through the public front door (``repro.connect``,
``Relation.from_columns``, ``db.register``, ``db.execute``, ``db.matrix``
... ``collect``, ``db.configure``) and checks every result against a
reference computed here from the generated arrays.  References and result
checks run outside every timed window.

A workload is split into

* immutable inputs and a seeded operation list, built once per process;
* a :class:`Session` per database session: ingest + warm-up (the timed
  set-up), executing one operation (the timed call) and checking its
  result (untimed).  Writes change a session's reference state, so a
  replay on a fresh session starts from the same state.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro
from repro.bat.bat import DataType

# Result checks: a relative error bound on the largest entry, chosen well
# above float64 rounding of the reference's different operation order
# (numpy solve vs. the engine's inv + mmu) and far below any wrong result.
RTOL = 1e-8


class CheckFailed(Exception):
    """A result differs from the reference."""


@dataclass(frozen=True)
class Op:
    """One client operation: a read (``template``) or a catalog write."""

    index: int
    kind: str                      # "read" or "write"
    template: str
    params: tuple
    repeat_of: Optional[int] = None  # index of the read this re-issues


def _close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    if not want.size:
        return
    scale = max(float(want.max()), -float(want.min()), 1e-300)
    diff = got - want
    error = float(np.abs(diff, out=diff).max()) / scale
    if not error <= RTOL:
        raise CheckFailed(f"{what}: relative error {error:.3g} > {RTOL}")


def _equal(got, want, what: str) -> None:
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        raise CheckFailed(f"{what}: values differ")


def digest(relation) -> str:
    """Hash of a relation's names and exact (numeric) column contents."""
    h = hashlib.sha1()
    for name in relation.names:
        h.update(name.encode())
        h.update(np.ascontiguousarray(relation.column(name).tail))
    return h.hexdigest()


def identical(relation, other) -> bool:
    """Same names and bit-identical columns."""
    if relation is other:
        return True
    if relation.names != other.names:
        return False
    for name in relation.names:
        a, b = relation.column(name).tail, other.column(name).tail
        if a is b:
            continue
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype == object:
            if not np.array_equal(a, b):
                return False
        elif a.tobytes() != b.tobytes():
            return False
    return True


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _blocks(rng: np.random.Generator, block: dict):
    """Operation kinds in blocks of fixed composition, shuffled within
    each block: every seed issues the same shares, so runs differ in the
    order of operations and their parameters, not in the mix."""
    tokens = [kind for kind, n in block.items() for _ in range(n)]
    while True:
        for index in rng.permutation(len(tokens)):
            yield tokens[index]


class Workload:
    """Inputs and operation list; subclasses define the templates."""

    name = ""
    knobs: dict = {}   # db.configure(**knobs) for every session
    # Keep first results of re-issued reads whole (True) or as a digest of
    # numeric columns (False, for results too large to hold for long).
    keep_first_results = True
    tables: tuple[str, ...] = ()

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        self.generate()
        self.ops = self.plan_ops(_rng(seed, 1), 5_000)
        # Read index -> index of the last read that re-issues it.
        self.last_repeat = {op.repeat_of: op.index for op in self.ops
                            if op.repeat_of is not None}

    def generate(self) -> None:
        raise NotImplementedError

    def plan_ops(self, rng: np.random.Generator, count: int) -> list[Op]:
        raise NotImplementedError

    def session(self, db) -> "Session":
        raise NotImplementedError


class Session:
    """One database session of a workload."""

    def __init__(self, workload: Workload, db):
        self.w = workload
        self.db = db
        self.firsts: dict = {}
        # db.last_stats of every statement run, in order.
        self.statements: list = []

    def sql(self, text: str):
        result = self.db.execute(text)
        self.statements.append(self.db.last_stats)
        return result

    def collect(self, expression):
        result = expression.collect()
        self.statements.append(self.db.last_stats)
        return result

    def ingest(self, name: str):
        """Build the named table from its arrays and register it."""
        self.db.register(name, self.relation(name), replace=True)

    def relation(self, name: str):
        raise NotImplementedError

    def warm_ups(self) -> list[Op]:
        """One read per template, with parameters the stream never draws."""
        raise NotImplementedError

    def prepare(self, op: Op):
        """Untimed input of a write (the rows a client hands over)."""
        return None

    def execute(self, op: Op, payload):
        """The timed call; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, op: Op, result) -> None:
        """Raise :class:`CheckFailed` unless ``result`` is correct."""
        raise NotImplementedError

    def write_probes(self, count: int) -> list[Op]:
        """Catalog writes timed after the stream (none by default)."""
        return []

    def check_repeat(self, op: Op, relation) -> None:
        """Re-issued reads must be bit-identical to the first one."""
        keep = self.w.keep_first_results
        if op.index in self.w.last_repeat:
            self.firsts[op.index] = relation if keep else digest(relation)
        first_index = op.repeat_of
        if first_index is None or first_index not in self.firsts:
            return
        first = self.firsts[first_index]
        if self.w.last_repeat[first_index] == op.index:
            del self.firsts[first_index]
        same = identical(relation, first) if keep \
            else digest(relation) == first
        if not same:
            raise CheckFailed(f"op {op.index} re-issues op {first_index} "
                              "but is not bit-identical to it")


def _split_columns(relation, key: str, names):
    return repro.Relation.from_columns(
        {n: relation.column(n) for n in (key, *names)})


# -- trips_ols: the paper's Fig. 15 ------------------------------------------------

_EPOCH_2014 = (_dt.date(2014, 1, 1) - _dt.date(1970, 1, 1)).days
_DAYS = 4 * 365

_TRIPS_SQL = """SELECT t.trip_id AS trip_id, 1.0 AS const,
  SQRT(POWER((s.lat - e.lat) * 111.2, 2)
       + POWER((s.lon - e.lon) * 78.7, 2)) AS distance,
  t.duration AS duration
FROM trips AS t
JOIN (SELECT start_station AS fs, end_station AS fe FROM trips
      WHERE start_date BETWEEN DATE '{lo}' AND DATE '{hi}'
      GROUP BY start_station, end_station
      HAVING COUNT(*) >= {k}) AS f
  ON t.start_station = f.fs AND t.end_station = f.fe
JOIN stations AS s ON t.start_station = s.code
JOIN stations AS e ON t.end_station = e.code
WHERE t.start_date BETWEEN DATE '{lo}' AND DATE '{hi}'"""


def _date(days: int) -> str:
    return str(np.datetime64(int(days), "D"))


class TripsOls(Workload):
    """Relational prep (one SQL statement) then OLS as a Matrix expression.

    Every read draws a fresh (date range, minimum pair count), so no
    result is ever reused: the relational layer and ``BAT.fetch`` do the
    work, and the caches, kernels and engine barely run.
    """

    name = "trips_ols"
    tables = ("trips", "stations")
    n_trips = 250_000
    n_stations = 60

    def generate(self) -> None:
        rng = _rng(self.seed, 0)
        s, n = self.n_stations, self.n_trips
        self.codes = rng.permutation(np.arange(1000, 1000 + s)).astype(np.int64)
        self.lat = 45.45 + 0.15 * rng.random(s)
        self.lon = -73.65 + 0.20 * rng.random(s)
        weights = 1.0 / np.arange(1, s + 1) ** 1.1
        weights /= weights.sum()
        start = rng.choice(s, n, p=weights)
        end = rng.choice(s, n, p=weights)
        end[start == end] = (end[start == end] + 1) % s
        self.start, self.end = start, end
        self.dist = np.sqrt(((self.lat[start] - self.lat[end]) * 111.2) ** 2
                            + ((self.lon[start] - self.lon[end]) * 78.7) ** 2)
        self.duration = (300.0 + 240.0 * self.dist
                         + rng.normal(0.0, 120.0, n)).astype(np.int64)
        self.dates = (_EPOCH_2014 + rng.integers(0, _DAYS, n)).astype(np.int64)
        self.pair = start * s + end

    def plan_ops(self, rng, count):
        # Range lengths and minimum counts are stratified over blocks of
        # ten reads, so every seed spreads the same amount of work.
        ops = []
        while len(ops) < count:
            lengths = 540 + (rng.permutation(10) + rng.random(10)) * 18
            minimums = 20 + (rng.permutation(10) + rng.random(10)) * 4
            for length, minimum in zip(lengths, minimums):
                lo = _EPOCH_2014 + int(rng.integers(0, 365))
                ops.append(Op(len(ops), "read", "ols",
                              (lo, lo + int(length), int(minimum))))
        return ops[:count]

    def session(self, db):
        return _TripsSession(self, db)


class _TripsSession(Session):
    w: TripsOls

    def relation(self, name):
        w = self.w
        if name == "trips":
            return repro.Relation.from_columns(
                {"trip_id": np.arange(w.n_trips, dtype=np.int64),
                 "start_date": w.dates,
                 "start_station": w.codes[w.start],
                 "end_station": w.codes[w.end],
                 "duration": w.duration},
                {"start_date": DataType.DATE})
        return repro.Relation.from_columns(
            {"code": w.codes, "lat": w.lat, "lon": w.lon})

    def warm_ups(self):
        # The stream's ranges start in 2014 and its counts are >= 20.
        lo = _EPOCH_2014 + 2 * 365
        return [Op(-1, "read", "ols", (lo, lo + 600, 15))]

    def execute(self, op, payload):
        lo, hi, k = op.params
        prep = self.sql(_TRIPS_SQL.format(lo=_date(lo), hi=_date(hi), k=k))
        design = self.db.matrix(
            _split_columns(prep, "trip_id", ("const", "distance")),
            by="trip_id")
        target = _split_columns(prep, "trip_id", ("duration",))
        beta = self.collect(design.cpd(design).inv()
                            @ design.cpd(target, by="trip_id"))
        return prep, beta

    def check(self, op, result):
        prep, beta = result
        w = self.w
        lo, hi, k = op.params
        in_range = (w.dates >= lo) & (w.dates <= hi)
        counts = np.bincount(w.pair[in_range],
                             minlength=w.n_stations ** 2)
        keep = in_range & (counts[w.pair] >= k)
        if prep.nrows != int(keep.sum()):
            raise CheckFailed(f"prep kept {prep.nrows} trips, expected "
                              f"{int(keep.sum())}")
        _close(np.sort(prep.column("distance").tail),
               np.sort(w.dist[keep]), "distance")
        x = np.column_stack([np.ones(int(keep.sum())), w.dist[keep]])
        y = w.duration[keep].astype(np.float64)
        want = np.linalg.solve(x.T @ x, x.T @ y)
        _equal(beta.column("C").tail, ["const", "distance"], "beta labels")
        _close(beta.column("duration").tail, want, "beta")


# -- matrix_large: the paper's Figs. 17 and 18 --------------------------------------

_CHAIN_MIN_BACK, _CHAIN_MAX_BACK = 8, 20


class MatrixLarge(Workload):
    """Large element-wise chains and a covariance, on the morsel engine.

    Chain results are ~46 MB, so the 256 MiB result cache holds five: a
    re-issued chain from eight or more chains back always misses.
    """

    name = "matrix_large"
    tables = ("y1", "y2", "pubs")
    riders = 500_000
    destinations = 10
    authors = 30_000
    conferences = 200
    window = 10_000
    # Per block of 20 reads: covariances, re-issued chains, fresh chains.
    block = {"cov": 5, "reissue": 4, "chain": 11}
    keep_first_results = False

    @property
    def knobs(self):
        return {"parallel": True, "workers": self.nproc}

    def generate(self) -> None:
        rng = _rng(self.seed, 0)
        n, d = self.riders, self.destinations
        self.keys = [rng.permutation(n).astype(np.int64) for _ in range(2)]
        self.counts = [[rng.integers(0, 20, n).astype(np.int64)
                        for _ in range(d)] for _ in range(2)]
        # Two-year totals, one row per rider key.
        total = np.zeros((n, d))
        for side in (0, 1):
            total[self.keys[side]] += np.column_stack(self.counts[side])
        self.weights = rng.uniform(0.5, 1.5, n)
        self.weighted_total = self.weights @ total
        self.author_keys = rng.permutation(self.authors).astype(np.int64)
        self.pubs = rng.poisson(0.3, (self.authors, self.conferences)) \
            .astype(np.float64)
        self.conf_names = [f"c{j:03d}" for j in range(self.conferences)]

    def plan_ops(self, rng, count):
        ops, chains = [], []
        latest = {}  # chain params -> position in ``chains`` last computed
        kinds = _blocks(rng, self.block)
        while len(ops) < count:
            kind, i = next(kinds), len(ops)
            if kind == "cov":
                lo = int(rng.integers(0, self.authors - self.window + 1))
                ops.append(Op(i, "read", "cov", (lo, self.window)))
                continue
            first = None
            if kind == "reissue" and len(chains) >= _CHAIN_MIN_BACK:
                back = int(rng.integers(_CHAIN_MIN_BACK, min(
                    _CHAIN_MAX_BACK, len(chains)) + 1))
                first = ops[chains[-back]]
                if latest[first.params] > len(chains) - _CHAIN_MIN_BACK:
                    first = None  # recomputed too recently to be evicted
            if first is not None:
                ops.append(Op(i, "read", "chain", first.params, first.index))
            else:
                ops.append(Op(i, "read", "chain",
                              (float(rng.uniform(0.5, 2.0)),)))
            latest[ops[-1].params] = len(chains)
            chains.append(i)
        return ops

    def session(self, db):
        return _MatrixSession(self, db)


class _MatrixSession(Session):
    w: MatrixLarge

    def relation(self, name):
        w = self.w
        if name == "pubs":
            columns = {"author": w.author_keys}
            columns.update(zip(w.conf_names, w.pubs.T))
            return repro.Relation.from_columns(columns)
        side = 0 if name == "y1" else 1
        columns = {f"rider{side + 1}": w.keys[side]}
        columns.update((f"d{j}", c) for j, c in enumerate(w.counts[side]))
        return repro.Relation.from_columns(columns)

    def warm_ups(self):
        # Stream scales lie in [0.5, 2); stream windows are 10k authors.
        return [Op(-1, "read", "chain", (3.0,)),
                Op(-2, "read", "cov", (0, self.w.window - 1000))]

    def execute(self, op, payload):
        db = self.db
        if op.template == "chain":
            (scale,) = op.params
            y1 = db.matrix("y1", by="rider1")
            y2 = db.matrix("y2", by="rider2")
            return self.collect((y1 + y2) * scale)
        lo, width = op.params
        sub = self.sql(f"SELECT * FROM pubs WHERE author >= {lo} "
                       f"AND author < {lo + width}")
        n = sub.nrows
        ones = np.ones(n)
        x = db.matrix(sub, by="author")
        one = db.matrix(repro.Relation.from_columns(
            {"author": sub.column("author"), "one": ones}), by="author")
        one2 = db.matrix(repro.Relation.from_columns(
            {"a2": sub.column("author"), "one": ones}), by="a2")
        # Centre: x - 1 (1'x / n).  The ones carry a second key name
        # because element-wise operands need disjoint order schemas.
        centered = x - one2 @ (one.cpd(x) / n)
        return self.collect(centered.cpd(centered) / (n - 1))

    def check(self, op, result):
        w = self.w
        if op.template == "chain":
            (scale,) = op.params
            riders = result.column("rider1").tail
            _equal(result.column("rider2").tail, riders, "rider alignment")
            if result.nrows != w.riders or \
                    np.bincount(riders, minlength=w.riders).max() != 1:
                raise CheckFailed("chain result does not hold every rider "
                                  "exactly once")
            # Every element, aligned by key, through a rider-weighted sum
            # per column: one wrong or misplaced value changes it.
            weights = w.weights[riders]
            got = [result.column(f"d{j}").tail @ weights
                   for j in range(w.destinations)]
            _close(got, w.weighted_total * scale, "weighted chain sums")
            self.check_repeat(op, result)
            return
        lo, width = op.params
        rows = (w.author_keys >= lo) & (w.author_keys < lo + width)
        want = np.cov(w.pubs[rows], rowvar=False)
        _equal(result.column("C").tail, w.conf_names, "covariance labels")
        got = np.column_stack([result.column(c).tail for c in w.conf_names])
        _close(got, want, "covariance")


# -- session_mix: API / SQL overhead, cache hits and invalidation ------------------

_SM_TABLES = ("a", "b", "c", "d")


class SessionMix(Workload):
    """Short statements over four STR-keyed relations, with repeats and
    catalog writes.

    Latencies fall into three modes: result-cache hits (re-issued reads),
    warm reads (base tables whose key order is cached) and cold reads,
    which sort 100k STR keys: a read of a table just rewritten, and SQL
    RMA over a derived relation (a subquery's result has no cached order).
    The shares put the median read inside the warm chain mode and the
    tail inside the cold mode (see README.md).
    """

    name = "session_mix"
    tables = _SM_TABLES
    rows = 100_000
    width = 4
    # Per block of 48 reads: one catalog write (a new version of one
    # table) followed by the cross product of that table; re-issues of one
    # of the last six fresh reads (a result-cache hit, or an invalidation
    # when a write came in between); and fresh reads.
    block = {"write": 1, "repeat": 8, "chain": 20, "gram": 5, "sql_inv": 7,
             "sql_emu": 7}

    def generate(self) -> None:
        rng = _rng(self.seed, 0)
        ids = rng.choice(10 * self.rows, self.rows, replace=False)
        self.keys = np.array([f"u{i:07d}" for i in ids], dtype=object)
        self.row_of_id = np.full(10 * self.rows, -1, dtype=np.int64)
        self.row_of_id[ids] = np.arange(self.rows)
        # Version 0 of each table: values in key order, storage shuffled.
        self.initial = {t: (rng.random((self.rows, self.width)),
                            rng.permutation(self.rows))
                        for t in _SM_TABLES}

    def plan_ops(self, rng, count):
        ops: list[Op] = []
        fresh: list[int] = []   # indexes of fresh reads
        last_write = -1

        def add(kind, template, params, repeat_of=None):
            ops.append(Op(len(ops), kind, template, params, repeat_of))

        for kind in _blocks(rng, self.block):
            if len(ops) >= count:
                break
            scale = float(rng.uniform(0.5, 2.0))
            if kind == "write":
                table = _SM_TABLES[int(rng.integers(len(_SM_TABLES)))]
                last_write = len(ops)
                add("write", "register", (table, int(rng.integers(2 ** 31))))
                add("read", "cross", (table,))
            elif kind == "repeat" and fresh:
                first = ops[fresh[-1 - int(rng.integers(min(6, len(fresh))))]]
                # Across a write the re-issue finds its cached result stale
                # (an invalidation) and is checked against the new data.
                add("read", first.template, first.params,
                    first.index if first.index > last_write else None)
            else:
                if kind == "repeat":  # nothing issued yet to repeat
                    kind = "chain"
                params = {"chain": (scale,), "gram": (scale,),
                          "sql_inv": (scale,),
                          "sql_emu": (scale, float(rng.uniform(0.2, 0.8)))}
                fresh.append(len(ops))
                add("read", kind, params[kind])
        return ops[:count]

    def session(self, db):
        return _MixSession(self, db)


class _MixSession(Session):
    w: SessionMix

    def __init__(self, workload, db):
        super().__init__(workload, db)
        # Current version of each table: (values in key order, storage
        # permutation); writes replace entries.
        self.state = dict(workload.initial)

    def _columns(self, table: str) -> dict:
        values, perm = self.state[table]
        columns = {f"k{table}": self.w.keys[perm]}
        columns.update((f"x{j}", values[perm, j])
                       for j in range(self.w.width))
        return columns

    def relation(self, name):
        return repro.Relation.from_columns(self._columns(name))

    def warm_ups(self):
        # Stream scales lie in [0.5, 2) and thresholds in [0.2, 0.8).
        return [Op(-1, "read", "chain", (-1.0,)),
                Op(-2, "read", "gram", (-1.0,)),
                Op(-3, "read", "sql_inv", (-1.0,)),
                Op(-4, "read", "sql_emu", (-1.0, 0.1)),
                # Every stream cross(t) follows a write of t, which
                # invalidates this result rather than hitting it.
                Op(-5, "read", "cross", ("a",))]

    def write_probes(self, count):
        rng = _rng(self.w.seed, 2)
        return [Op(-100 - i, "write", "register",
                   (_SM_TABLES[i % 4], int(rng.integers(2 ** 31))))
                for i in range(count)]

    def prepare(self, op):
        if op.kind != "write":
            return None
        table, seed = op.params
        rng = np.random.default_rng(seed)
        values = rng.random((self.w.rows, self.w.width))
        self.state[table] = (values, rng.permutation(self.w.rows))
        return table, self._columns(table)

    def execute(self, op, payload):
        db = self.db
        if op.kind == "write":
            table, columns = payload
            db.register(table, repro.Relation.from_columns(columns),
                        replace=True)
            return table
        m = {t: db.matrix(t, by=f"k{t}") for t in _SM_TABLES}
        scale = op.params[0]
        if op.template == "chain":
            return self.collect(scale * m["a"] + m["b"] - m["c"] * m["d"])
        if op.template == "gram":
            x = m["a"] * scale
            return self.collect(x.cpd(x).inv() @ x.cpd(m["b"]))
        if op.template == "cross":
            return self.collect(m[op.params[0]].cpd(m[op.params[0]]))
        if op.template == "sql_inv":
            return self.sql(
                "SELECT * FROM INV(CPD((SELECT ka, x0 * "
                f"{scale!r} AS x0, x1, x2, x3 FROM a) BY ka, c BY kc) BY C)")
        return self.sql(
            "SELECT kb, x0, x1, x2, x3 FROM EMU((SELECT kb, x0 + "
            f"{scale!r} AS x0, x1, x2, x3 FROM b) BY kb, d BY kd) "
            f"WHERE x1 < {op.params[1]!r}")

    def _values(self, table: str) -> np.ndarray:
        return self.state[table][0]

    def _rows(self, keys, table: str) -> np.ndarray:
        """Positions in the generated arrays of result keys "u%07d"; fast
        when the result keeps ``table``'s storage order."""
        w = self.w
        perm = self.state[table][1]
        if len(keys) == w.rows and np.array_equal(keys, w.keys[perm]):
            return perm
        digits = np.asarray(keys, dtype="U8").view(np.int32) \
            .reshape(len(keys), 8)[:, 1:] - ord("0")
        ids = (digits * 10 ** np.arange(6, -1, -1)).sum(axis=1)
        rows = w.row_of_id[np.clip(ids, 0, len(w.row_of_id) - 1)]
        _equal(w.keys[rows], keys, "result keys")
        return rows

    def check(self, op, result):
        if op.kind == "write":
            if self.db.table(result).nrows != self.w.rows:
                raise CheckFailed("written table lost rows")
            return
        a, b, c, d = (self._values(t) for t in _SM_TABLES)
        scale = op.params[0]
        names = [f"x{j}" for j in range(self.w.width)]
        got = np.column_stack([result.column(n).tail for n in names])
        if op.template in ("gram", "sql_inv", "cross"):
            _equal(result.column("C").tail, names, "row labels")
            if op.template == "cross":
                x = self._values(op.params[0])
                want = x.T @ x
            elif op.template == "gram":
                x = a * scale
                want = np.linalg.solve(x.T @ x, x.T @ b)
            else:
                x = a.copy()
                x[:, 0] *= scale
                want = np.linalg.inv(x.T @ c)
            _close(got, want, op.template)
        elif op.template == "chain":
            keys = result.column("ka").tail
            for other in ("kb", "kc", "kd"):
                _equal(result.column(other).tail, keys, "key alignment")
            rows = self._rows(keys, "a")
            if np.bincount(rows, minlength=self.w.rows).max() != 1 \
                    or len(rows) != self.w.rows:
                raise CheckFailed("chain result does not hold every key "
                                  "exactly once")
            _close(got, (scale * a + b - c * d)[rows], "chain")
        else:
            x = b.copy()
            x[:, 0] += scale
            product = x * d
            keep = product[:, 1] < op.params[1]
            rows = self._rows(result.column("kb").tail, "b")
            if len(rows) != int(keep.sum()) or not keep[rows].all() \
                    or np.bincount(rows, minlength=self.w.rows).max() > 1:
                raise CheckFailed("sql_emu selected the wrong rows")
            _close(got, product[rows], "sql_emu")
        self.check_repeat(op, result)


WORKLOADS = {w.name: w for w in (TripsOls, MatrixLarge, SessionMix)}
