"""Runner: timed set-ups, the closed-loop stream, metrics and the report."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import repro
from repro.core.config import default_config

from perfbench.tracer import GROUPS, Tracer
from perfbench.workloads import WORKLOADS

# Set-ups per untraced run, before and after the stream; setup_s is their
# median.  Spreading them over the run samples more of the machine's
# drifting speed than set-ups back to back would.
SETUPS_BEFORE, SETUPS_AFTER = 4, 3
WRITE_PROBES = 15   # catalog writes timed after a stream (session_mix)
TAIL_BEYOND = 10    # samples the tail percentile leaves above it

# Span groups each workload must exercise: a traced run in which one of
# them records no call means the tracer missed the layer, and fails.
DECLARED = {
    "trips_ols": ("sql.parse", "plan.build", "plan.optimize",
                  "plan.physical", "plan.execute", "api.collect",
                  "core.prepare", "core.merge", "linalg.kernel",
                  "linalg.transform", "relational.join",
                  "relational.group_by", "relational.select", "bat.fetch"),
    "matrix_large": ("sql.parse", "plan.optimize", "plan.physical",
                     "plan.execute", "api.collect", "core.prepare",
                     "core.merge", "linalg.kernel", "linalg.transform",
                     "engine.pool", "relational.select", "bat.fetch"),
    "session_mix": ("sql.parse", "plan.build", "plan.optimize",
                    "plan.physical", "plan.execute", "api.collect",
                    "core.prepare", "core.merge", "linalg.kernel",
                    "linalg.transform", "relational.select", "bat.order_by",
                    "bat.check_key", "bat.fetch"),
}

# Metric names and units, declared once in BENCHMARK.json.
_DECLARATION = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARATION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARATION["per_layer"]}


@dataclasses.dataclass
class StreamResult:
    read_s: list = dataclasses.field(default_factory=list)
    write_s: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reads_passed: int = 0
    # Wall time of the stream minus the client's think time (preparing a
    # write's rows and checking results).
    wall_s: float = 0.0


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _config_summary(db) -> dict:
    config = db.config or default_config()
    summary = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "parallel":
            summary[f.name] = dataclasses.asdict(value)
        elif f.name == "policy":
            summary[f.name] = {"prefer": value.prefer,
                               "memory_limit_bytes": value.memory_limit_bytes}
        else:
            summary[f.name] = value
    return summary


def _set_up(workload):
    """connect + ingest every table + one warm-up read per template.

    Returns the session, the set-up time and the warm-up reads as a
    :class:`StreamResult`; they are checked after the clock stops.
    """
    gc.collect()
    start = time.perf_counter()
    db = repro.connect()
    if workload.knobs:
        db.configure(**workload.knobs)
    session = workload.session(db)
    for name in workload.tables:
        session.ingest(name)
    warm = [(op, session.execute(op, session.prepare(op)))
            for op in session.warm_ups()]
    setup_s = time.perf_counter() - start
    checked = StreamResult(attempted=len(warm))
    for op, result in warm:
        try:
            session.check(op, result)
        except Exception as exc:  # a malformed result can break the check
            checked.failed += 1
            _log(f"warm-up {op.template} failed: {exc}")
    session.statements.clear()
    return session, setup_s, checked


def _stream(session, ops, seconds=None, count=None, tracer=None):
    """Issue ``ops`` in a closed loop until ``seconds`` of wall time (or
    ``count`` operations) have passed.  Each call is timed alone; the
    result check after it is the client's think time and is not."""
    out = StreamResult()
    think_s = 0.0
    start = time.perf_counter()
    for op in ops:
        if count is not None and out.attempted >= count:
            break
        if count is None and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        payload = session.prepare(op)
        think_s += time.perf_counter() - t0
        traced = tracer is not None and op.kind == "read"
        result = error = None
        t0 = time.perf_counter()
        if traced:
            tracer.active = True
        try:
            result = session.execute(op, payload)
        except Exception as exc:  # a failed call counts; the stream goes on
            error = exc
        finally:
            if traced:
                tracer.active = False
        elapsed = time.perf_counter() - t0
        out.attempted += 1
        (out.read_s if op.kind == "read" else out.write_s).append(elapsed)
        t0 = time.perf_counter()
        if error is None:
            try:
                session.check(op, result)
            except Exception as exc:  # a malformed result can break the check
                error = exc
        think_s += time.perf_counter() - t0
        if error is None and op.kind == "read":
            out.reads_passed += 1
        if error is not None:
            out.failed += 1
            _log(f"op {op.index} ({op.template}) failed: "
                 + "".join(traceback.format_exception_only(error)).strip())
        del result
    out.wall_s = time.perf_counter() - start - think_s
    return out


def tail_percentile(values) -> tuple[int, float]:
    """The highest whole percentile leaving >= TAIL_BEYOND samples above
    its nearest-rank value, and that value."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def _end_to_end(workload, seconds: float) -> tuple[dict, dict, StreamResult]:
    setups, warm = [], []

    def set_up():
        session, setup_s, checked = _set_up(workload)
        setups.append(setup_s)
        warm.append(checked)
        return session

    session = None
    for _ in range(SETUPS_BEFORE):
        session = None  # free the previous session before the next
        session = set_up()
    out = _stream(session, workload.ops, seconds=seconds)
    percentile, tail = tail_percentile(out.read_s)
    metrics = {
        "query_p50_ms": statistics.median(out.read_s) * 1e3,
        "query_tail_ms": tail * 1e3,
        "queries_per_s": out.reads_passed / out.wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"reads": len(out.read_s), "query_tail_percentile": percentile}
    # Writes timed after the stream add samples where the stream's own
    # writes are few.  Only session_mix writes; its write_p50_ms is
    # reported, not gated (see README.md).
    probes = _stream(session, session.write_probes(WRITE_PROBES),
                     count=WRITE_PROBES)
    out.write_s += probes.write_s
    if out.write_s:
        info["writes"] = len(out.write_s)
        info["write_p50_ms"] = statistics.median(out.write_s) * 1e3
    info["config"] = _config_summary(session.db)
    session = None
    for _ in range(SETUPS_AFTER):
        set_up()
    metrics["setup_s"] = statistics.median(setups)
    info["setup_s_samples"] = setups
    for part in warm + [probes]:
        out.attempted += part.attempted
        out.failed += part.failed
    info["error_rate"] = out.failed / out.attempted
    return metrics, info, out


def _per_layer(workload, seconds: float) -> tuple[dict, dict, StreamResult]:
    """An untraced pass for a third of the time, then a traced replay of
    the same operations and a second untraced replay, each on a fresh
    session.  The per-layer metrics come from the traced replay; its
    overhead is measured against the mean of the two untraced passes, so
    drift from one pass to the next within the process cancels."""
    passes, warm = [], []
    tracer = Tracer()
    session = None
    for index in range(3):
        session = None  # every pass starts with the last one's memory freed
        session, _, checked = _set_up(workload)
        warm.append(checked)
        if index != 1:
            count = passes[0].attempted if passes else None
            passes.append(_stream(session, workload.ops, count=count,
                                  seconds=seconds / 3))
            continue
        cache = session.db.result_cache
        before = {k: getattr(cache, k)
                  for k in ("hits", "misses", "evictions", "invalidations")}
        tracer.install()
        try:
            passes.append(_stream(session, workload.ops,
                                  count=passes[0].attempted, tracer=tracer))
        finally:
            tracer.uninstall()
        delta = {k: getattr(cache, k) - v for k, v in before.items()}
        metrics, info = _layer_metrics(tracer, passes[1], session.statements,
                                       delta, cache.total_bytes)
    plain = (sum(passes[0].read_s) + sum(passes[2].read_s)) / 2
    metrics["trace.overhead_ratio"] = sum(passes[1].read_s) / plain
    declared = DECLARED[workload.name]
    config = session.db.config or default_config()
    if "engine.pool" in declared and not config.parallel.active():
        # One CPU: the engine stays off even where a workload configures it.
        _log("engine inactive (nproc = "
             f"{len(os.sched_getaffinity(0))}); engine.pool not checked")
        declared = tuple(g for g in declared if g != "engine.pool")
    empty = [g for g in declared if tracer.calls[g] == 0]
    if empty:
        raise SystemExit(f"perfbench: traced run recorded no call in "
                         f"declared span group(s) {', '.join(empty)}")
    total = StreamResult(
        attempted=sum(p.attempted for p in passes + warm),
        failed=sum(p.failed for p in passes + warm))
    info["error_rate"] = total.failed / total.attempted
    info["read_busy_s_per_pass"] = [sum(p.read_s) for p in passes]
    return {k: metrics[k] for k in PER_LAYER}, info, total


def _layer_metrics(tracer, traced, statements, cache_delta, cache_bytes):
    reads = len(traced.read_s)
    metrics = {}
    for group in GROUPS:
        metrics[f"{group}.calls"] = tracer.calls[group] / reads
        metrics[f"{group}.self_ms"] = tracer.self_s[group] * 1e3 / reads
    metrics["engine.pool.tasks"] = tracer.items["engine.pool"] / reads
    metrics["engine.pool.wall_ms"] = \
        tracer.outer_wall_s["engine.pool"] * 1e3 / reads
    metrics["bat.fetch.rows"] = tracer.items["bat.fetch"] / reads
    lookups = cache_delta["hits"] + cache_delta["misses"]
    fused = sum(s.fused_nodes for s in statements)
    fallbacks = sum(s.fusion_fallbacks for s in statements)
    metrics.update({
        "plan.stmt_cache.hit_ratio":
            1.0 - tracer.calls["plan.optimize"] / len(statements),
        "plan.result_cache.hit_ratio":
            cache_delta["hits"] / lookups if lookups else 0.0,
        "plan.result_cache.evictions": cache_delta["evictions"] / reads,
        "plan.result_cache.invalidations":
            cache_delta["invalidations"] / reads,
        "plan.result_cache.mb": cache_bytes / 2 ** 20,
        "plan.cse.hits": sum(s.cse_hits for s in statements) / reads,
        "core.fused.nodes": fused / reads,
        "core.fused.fallback_ratio":
            fallbacks / (fused + fallbacks) if fused + fallbacks else 0.0,
    })
    return metrics, {"reads": reads, "statements": len(statements)}


def environment(nproc: int) -> dict:
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
        "repro": repro.__version__,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if name not in WORKLOADS:
        _log(f"unknown workload {name!r}; choose from "
             + ", ".join(WORKLOADS))
        return 2
    nproc = len(os.sched_getaffinity(0))
    workload = WORKLOADS[name](seed, nproc)
    measure = _per_layer if trace else _end_to_end
    metrics, info, out = measure(workload, seconds)
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                      "environment": environment(nproc), **info}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; a table of every metric."""
    status = 0
    script = Path(__file__).with_name("run.py")
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(script), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            print(f"{name}: failed (exit {done.returncode})")
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}  (seed {seed}, {info['reads']} reads, "
              f"attempted {result['attempted']}, failed {result['failed']})")
        rows = [(k, m["value"], m["unit"])
                for k, m in result["metrics"].items()]
        rows.append(("error_rate", info["error_rate"], "ratio"))
        if "write_p50_ms" in info:
            rows.append(("write_p50_ms", info["write_p50_ms"], "ms"))
        if not trace:
            rows.append(("query_tail_percentile",
                         info["query_tail_percentile"], "%"))
        for key, value, unit in rows:
            print(f"  {key:34s} {value:14.6g} {unit}")
        if not result["correct"]:
            status = 1
    return status
