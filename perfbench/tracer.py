"""Span tracer that wraps the library's layer functions from outside.

The benchmark measures end-to-end metrics untraced; a separate traced pass
installs this tracer, which replaces each layer's public functions (see
:data:`LAYER_SPANS`) with a timing wrapper.  A function imported by name
into other modules (``from repro.sql.parser import parse_sql``) is bound
there too, so every module that calls it goes through the wrapper; the
install fails if any ``repro`` module still holds the original.

Self time of a span is its duration minus the durations of the spans it
directly encloses *on the same thread*.  Work a span hands to pool workers
is not subtracted: those spans run on other threads, and the caller's span
keeps the time it spends waiting for them.  A span nested inside a span of
the same group on the same thread (``map_chunks`` calling ``run_tasks``,
``Executor.run`` recursing into child plans) adds its self time to the
group but not another call, so ``calls`` counts logical operations.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class SpanTarget:
    """One wrapped function: ``owner`` is a module path, or a module path
    and class name joined by ``:`` (``repro.bat.bat:BAT``)."""

    group: str
    owner: str
    attr: str
    # Items a call processes, from its (args, kwargs); counted on
    # outermost calls only (see the module docstring).
    items: Optional[Callable] = None


def _fetch_rows(args, kwargs) -> int:
    positions = kwargs.get("positions", args[1] if len(args) > 1 else ())
    return len(positions)


def _task_count(index: int, name: str):
    def count(args, kwargs) -> int:
        value = kwargs.get(name, args[index] if len(args) > index else ())
        return len(value)
    return count


# Layer -> functions, following the package layout of ``src/repro``.
LAYER_SPANS: tuple[SpanTarget, ...] = (
    SpanTarget("sql.parse", "repro.sql.parser", "parse_sql"),
    SpanTarget("plan.build", "repro.plan.build", "build_select"),
    SpanTarget("plan.optimize", "repro.plan.optimizer", "optimize"),
    SpanTarget("plan.physical", "repro.plan.physical", "plan_physical"),
    SpanTarget("plan.execute", "repro.plan.physical:Executor", "run"),
    SpanTarget("api.collect", "repro.api.matrix:Matrix", "collect"),
    SpanTarget("core.prepare", "repro.core.ops", "prepare_stage"),
    SpanTarget("core.prepare", "repro.core.context", "prepare_fused"),
    SpanTarget("core.merge", "repro.core.ops", "merge_result"),
    SpanTarget("core.merge", "repro.core.ops", "merge_fused"),
    SpanTarget("linalg.kernel", "repro.linalg.kernels", "run_program"),
    SpanTarget("linalg.kernel", "repro.linalg.kernels",
               "run_program_parallel"),
    SpanTarget("linalg.transform", "repro.linalg.transform", "to_dense"),
    SpanTarget("linalg.transform", "repro.linalg.transform", "from_dense"),
    SpanTarget("engine.pool", "repro.engine.pool", "run_tasks",
               _task_count(0, "thunks")),
    SpanTarget("engine.pool", "repro.engine.pool", "map_chunks",
               _task_count(1, "chunks")),
    SpanTarget("relational.join", "repro.relational.joins", "join"),
    SpanTarget("relational.join", "repro.relational.joins",
               "join_positions"),
    SpanTarget("relational.join", "repro.relational.joins",
               "merge_join_positions"),
    SpanTarget("relational.group_by", "repro.relational.aggregate",
               "group_by"),
    SpanTarget("relational.select", "repro.relational.ops", "select_mask"),
    SpanTarget("relational.select", "repro.relational.ops",
               "select_candidates"),
    SpanTarget("relational.select", "repro.relational.ops", "project"),
    # SQL WHERE runs in the executor, not through relational.ops: the
    # predicate mask and the positional selection are the same layer.
    SpanTarget("relational.select", "repro.plan.physical:ExpressionEvaluator",
               "mask"),
    SpanTarget("relational.select", "repro.plan.physical:Frame",
               "select_positions"),
    SpanTarget("bat.order_by", "repro.bat.sorting", "order_by"),
    SpanTarget("bat.order_by", "repro.engine.parallel", "parallel_order_by"),
    SpanTarget("bat.check_key", "repro.bat.sorting", "check_key"),
    SpanTarget("bat.check_key", "repro.bat.sorting", "require_key"),
    # Key verdicts the order cache reaches from BAT properties (the STR
    # path) never call check_key.
    SpanTarget("bat.check_key", "repro.relational.relation:OrderInfo",
               "is_key"),
    SpanTarget("bat.fetch", "repro.bat.bat:BAT", "fetch", _fetch_rows),
)

GROUPS: tuple[str, ...] = tuple(dict.fromkeys(t.group for t in LAYER_SPANS))


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class _Frame:
    __slots__ = ("group", "start", "child", "outermost")

    def __init__(self, group: str, start: float, outermost: bool):
        self.group = group
        self.start = start
        self.child = 0.0
        self.outermost = outermost


class Tracer:
    """Records spans while :attr:`active`; aggregates them per group.

    ``clock`` is injectable so the self-time arithmetic can be tested
    deterministically.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span (installed wrappers stay)."""
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.items: dict[str, int] = defaultdict(int)
            self.self_s: dict[str, float] = defaultdict(float)
            self.outer_wall_s: dict[str, float] = defaultdict(float)

    # -- span recording ------------------------------------------------------

    def _state(self) -> tuple[list, dict]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = defaultdict(int)
        return local.stack, local.open

    def enter(self, group: str) -> _Frame:
        stack, open_groups = self._state()
        open_groups[group] += 1
        frame = _Frame(group, self.clock(), open_groups[group] == 1)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, items: int = 0) -> None:
        end = self.clock()
        stack, open_groups = self._state()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span {frame.group!r} closed out of order "
                f"(innermost open span is {popped.group!r})")
        open_groups[frame.group] -= 1
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.self_s[frame.group] += duration - frame.child
            if frame.outermost:
                self.calls[frame.group] += 1
                self.items[frame.group] += items
                self.outer_wall_s[frame.group] += duration

    @contextlib.contextmanager
    def span(self, group: str):
        """Record one span of ``group`` around the ``with`` body."""
        frame = self.enter(group)
        try:
            yield frame
        finally:
            self.exit(frame)

    # -- installation ----------------------------------------------------------

    def _wrap(self, target: SpanTarget, original):
        tracer = self
        group, items = target.group, target.items

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer.enter(group)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit(frame, items(args, kwargs) if items else 0)

        traced.__name__ = getattr(original, "__name__", target.attr)
        traced.__qualname__ = getattr(original, "__qualname__", target.attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        return traced

    def install(self, targets=LAYER_SPANS) -> None:
        """Wrap every target and rebind it in each ``repro`` module that
        imported it by name; raises if a module keeps the original."""
        for target in targets:
            module_name, _, class_name = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[target.attr]
            else:
                original = getattr(owner, target.attr)
            if isinstance(original, property):
                wrapper = property(self._wrap(target, original.fget),
                                   doc=original.__doc__)
            else:
                wrapper = self._wrap(target, original)
            self._patch(owner, target.attr, original, wrapper)
            if class_name:
                continue
            for module in _repro_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)
        self.check_installed()

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def check_installed(self) -> None:
        """Every ``repro`` module must see the wrapper, not the original."""
        originals = {id(original) for _, _, original in self._patches}
        leaks = [f"{module.__name__}.{attr}"
                 for module in _repro_modules()
                 for attr, value in list(vars(module).items())
                 if id(value) in originals]
        if leaks:
            raise RuntimeError(
                "tracer install incomplete; originals still bound at "
                + ", ".join(sorted(leaks)))

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

