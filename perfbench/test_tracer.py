"""Self-time arithmetic of the benchmark's span tracer."""

import threading

import pytest

from perfbench.tracer import Tracer


class FakeClock:
    """A clock that only moves when the test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_nested_spans_subtract_direct_children_only(clock):
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.advance(1.0)
        with tracer.span("middle"):
            clock.advance(2.0)
            with tracer.span("inner"):
                clock.advance(4.0)
            clock.advance(8.0)
        with tracer.span("inner"):
            clock.advance(16.0)
        clock.advance(32.0)
    assert tracer.self_s["inner"] == 20.0
    assert tracer.self_s["middle"] == 10.0          # 14 minus inner's 4
    assert tracer.self_s["outer"] == 33.0           # 63 minus 14 and 16
    assert dict(tracer.calls) == {"outer": 1, "middle": 1, "inner": 2}


def test_same_group_recursion_counts_one_call(clock):
    tracer = Tracer(clock)
    with tracer.span("plan"):
        clock.advance(1.0)
        with tracer.span("plan"):
            clock.advance(2.0)
    assert tracer.calls["plan"] == 1
    assert tracer.self_s["plan"] == 3.0
    assert tracer.outer_wall_s["plan"] == 3.0


def test_spans_on_other_threads_are_not_subtracted(clock):
    tracer = Tracer(clock)
    with tracer.span("caller"):
        clock.advance(1.0)

        def worker():
            with tracer.span("task"):
                clock.advance(5.0)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        with tracer.span("child"):
            clock.advance(2.0)
    # The caller waited for the worker's 5 s: that stays its self time.
    assert tracer.self_s["caller"] == 6.0
    assert tracer.self_s["task"] == 5.0
    assert tracer.self_s["child"] == 2.0
    assert tracer.calls["task"] == 1


def test_out_of_order_close_is_rejected(clock):
    tracer = Tracer(clock)
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)
