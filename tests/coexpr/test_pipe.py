"""Pipes — the multithreaded generator proxies."""

import threading
import time

import pytest

from repro.errors import PipeError
from repro.monitor import Tracer
from repro.monitor.events import EventKind
from repro.runtime.failure import FAIL
from repro.coexpr.coexpression import CoExpression
from repro.coexpr.patterns import source_pipe, stage
from repro.coexpr.pipe import Pipe


def counted(n):
    return CoExpression(lambda: iter(range(n)))


class TestStreaming:
    def test_order_preserved(self):
        pipe = Pipe(counted(100))
        assert list(pipe) == list(range(100))

    def test_take_steps_one(self):
        pipe = Pipe(counted(2))
        assert pipe.take() == 0
        assert pipe.take() == 1
        assert pipe.take() is FAIL

    def test_next_value_is_take(self):
        pipe = Pipe(counted(1))
        assert pipe.next_value() == 0
        assert pipe.next_value() is FAIL

    def test_single_shot(self):
        pipe = Pipe(counted(3))
        assert list(pipe) == [0, 1, 2]
        assert list(pipe) == []  # exhausted; use refresh()

    def test_lazy_start(self):
        pipe = Pipe(counted(1))
        assert not pipe._started
        pipe.take()
        assert pipe._started

    def test_explicit_start_idempotent(self):
        pipe = Pipe(counted(1))
        assert pipe.start() is pipe
        assert pipe.start() is pipe

    def test_runs_in_separate_thread(self):
        main = threading.get_ident()

        def body():
            yield threading.get_ident()

        pipe = Pipe(CoExpression(body))
        assert pipe.take() != main


class TestThrottling:
    def test_bounded_queue_throttles_producer(self):
        produced = []

        def body():
            for i in range(1000):
                produced.append(i)
                yield i

        pipe = Pipe(CoExpression(body), capacity=4)
        assert pipe.take() == 0
        time.sleep(0.1)
        # producer can be at most capacity + a couple in flight ahead
        assert len(produced) <= 8
        pipe.cancel(join=True, timeout=2)

    def test_unbounded_runs_ahead(self):
        pipe = Pipe(counted(500), capacity=0)
        pipe.start()
        deadline = time.monotonic() + 2
        while len(pipe.out) < 500 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(pipe.out) == 500


class TestCancel:
    def test_cancel_stops_producer(self):
        produced = []

        def body():
            for i in range(100_000):
                produced.append(i)
                yield i

        pipe = Pipe(CoExpression(body), capacity=2)
        pipe.take()
        pipe.cancel()
        time.sleep(0.15)
        count_after_cancel = len(produced)
        time.sleep(0.1)
        assert len(produced) == count_after_cancel  # fully stopped
        assert count_after_cancel < 100

    def test_take_after_cancel_fails(self):
        pipe = Pipe(counted(10), capacity=1)
        pipe.take()
        pipe.cancel()
        # drains whatever is left, then fails
        for _ in range(5):
            if pipe.take() is FAIL:
                break
        assert pipe.take() is FAIL

    def test_double_cancel_join_is_noop(self):
        # Regression: a second cancel(join=True) — or any later cancel —
        # must neither raise nor re-run teardown.
        pipe = Pipe(counted(1000), capacity=2)
        pipe.take()
        pipe.cancel(join=True)
        pipe.cancel(join=True)
        pipe.cancel()
        for _ in range(5):
            if pipe.take() is FAIL:
                break
        assert pipe.take() is FAIL

    def test_cancel_after_exhaustion_is_noop(self):
        pipe = Pipe(counted(3))
        assert list(pipe) == [0, 1, 2]
        pipe.cancel(join=True)
        pipe.cancel(join=True)
        assert pipe.take() is FAIL

    def test_double_cancel_emits_one_cancel_event(self):
        from repro.monitor import EventKind, Tracer

        tracer = Tracer()
        with tracer.lifecycle():
            pipe = Pipe(counted(1000), capacity=2).start()
            pipe.take()
            pipe.cancel(join=True)
            pipe.cancel(join=True)
            pipe.cancel()
        cancels = [
            e for e in tracer.events if e.kind == EventKind.CANCEL
        ]
        assert len(cancels) == 1


class TestErrors:
    def test_producer_exception_reraises_in_consumer(self):
        def body():
            yield 1
            raise ValueError("producer exploded")

        pipe = Pipe(CoExpression(body))
        assert pipe.take() == 1
        with pytest.raises(ValueError, match="producer exploded"):
            pipe.take()

    def test_pipe_fails_after_error_delivery(self):
        def body():
            raise RuntimeError("x")
            yield

        pipe = Pipe(CoExpression(body))
        with pytest.raises(RuntimeError):
            pipe.take()
        assert pipe.take() is FAIL


class TestRefresh:
    def test_refresh_gives_fresh_pipe(self):
        pipe = Pipe(counted(2), capacity=7)
        assert list(pipe) == [0, 1]
        fresh = pipe.refresh()
        assert fresh is not pipe
        assert fresh.capacity == 7
        assert list(fresh) == [0, 1]


class TestRuntimeIntegration:
    def test_out_channel_is_public(self):
        pipe = Pipe(counted(1))
        pipe.start()
        from repro.coexpr.channel import Channel

        assert isinstance(pipe.out, Channel)

    def test_icon_activate(self):
        pipe = Pipe(counted(1))
        assert pipe.icon_activate() == 0
        assert pipe.icon_activate() is FAIL

    def test_transmit_rejected(self):
        pipe = Pipe(counted(1))
        with pytest.raises(PipeError):
            pipe.icon_activate("value")

    def test_icon_promote(self):
        pipe = Pipe(counted(3))
        assert list(pipe.icon_promote()) == [0, 1, 2]

    def test_icon_type_and_repr(self):
        pipe = Pipe(counted(1))
        assert pipe.icon_type() == "pipe"
        assert "unstarted" in repr(pipe)

    def test_usable_inside_expression_tree(self):
        from repro.runtime.operations import IconOperation, times
        from repro.runtime.iterator import IconValue

        pipe = Pipe(counted(3))
        node = IconOperation(times, IconValue(10), pipe)
        assert list(node) == [0, 10, 20]

    def test_results_deref_across_threads(self):
        """Refs must be dereferenced before crossing the channel."""
        values = [1, 2]

        def body():
            from repro.runtime.promote import promote_value

            yield from promote_value(values)  # yields ListRefs

        pipe = Pipe(CoExpression(body))
        taken = list(pipe)
        assert taken == [1, 2]
        assert not any(hasattr(item, "get") for item in taken)


class TestParallelism:
    def test_pipeline_stages_overlap(self):
        """Producer and consumer genuinely interleave (blocking handoff)."""
        order = []

        def body():
            for i in range(3):
                order.append(f"produce-{i}")
                yield i

        pipe = Pipe(CoExpression(body), capacity=1)
        for value in pipe:
            order.append(f"consume-{value}")
        assert order.index("produce-0") < order.index("consume-0")
        assert order.index("consume-2") > order.index("produce-2")


def _drain(it):
    yield from it


def _count_to(n):
    yield from range(n)


def _double(x):
    return 2 * x


def _refused_pipe(tier, backend):
    """A pipe whose body *tier* must refuse, built on *backend*."""
    if tier == "process":
        # A live iterator is parent-side position state: no child may
        # copy it.
        body = CoExpression(_drain, lambda: (iter(range(10)),), name="refused")
        return Pipe(body, backend=backend)
    if tier == "remote":
        # Nothing listens on port 1: the dial is refused.
        body = CoExpression(_count_to, lambda: (10,), name="refused")
        return Pipe(body, backend=backend, remote_address=("127.0.0.1", 1))
    # A stage fed by an in-process pipe would block the shared loop.
    return stage(_double, source_pipe(range(10)), backend=backend)


@pytest.mark.parametrize(
    "tier, reason",
    [("process", "live iterator"), ("remote", "connect"), ("async", "starve the loop")],
)
def test_a_refused_tier_degrades_to_threads_once(tier, reason, pipe_scheduler):
    expected = list(_refused_pipe(tier, "thread"))
    tracer = Tracer()
    with tracer.lifecycle():
        pipe = _refused_pipe(tier, tier).start()
        values = list(pipe)
    degraded = [e for e in tracer.events if e.kind == EventKind.DEGRADED]
    assert len(degraded) == 1
    assert reason in pipe.degraded
    assert degraded[0].value == pipe.degraded
    assert values == expected
    assert pipe_scheduler.leaked(join_timeout=2.0) == []
