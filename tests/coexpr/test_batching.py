"""Batched channel transport — the boundary-condition regression suite.

Batching is exactly the kind of change that silently reorders or drops
elements at close/cancel/error boundaries, so every such boundary gets an
explicit test: flush-on-exhaustion, flush-before-error, linger flushes,
cancellation mid-batch, interaction with deadlines, ``put_error``'s
capacity bypass, and the supervision replay/resume restart modes.
"""

import threading
import time

import pytest

from repro.errors import ChannelClosedError, PipeTimeoutError, RetryExhaustedError
from repro.coexpr.channel import CLOSED, Channel
from repro.coexpr.dataparallel import DataParallel
from repro.coexpr.patterns import pipeline, source_pipe, stage
from repro.coexpr.pipe import Pipe
from repro.coexpr.supervision import NO_BACKOFF, supervise, supervised_pipeline
from repro.monitor.events import EventKind
from repro.monitor.tracer import Tracer
from repro.runtime.failure import FAIL


# ---------------------------------------------------------------------------
# Channel.put_many / take_many
# ---------------------------------------------------------------------------

class TestPutMany:
    def test_roundtrip_preserves_order(self):
        ch = Channel(capacity=8)
        assert ch.put_many([1, 2, 3]) == 3
        assert ch.put_many([4, 5]) == 2
        assert [ch.take() for _ in range(5)] == [1, 2, 3, 4, 5]

    def test_empty_batch_is_a_noop(self):
        ch = Channel(capacity=1)
        assert ch.put_many([]) == 0
        assert len(ch) == 0

    def test_oversized_batch_waits_for_space(self):
        ch = Channel(capacity=2)
        taken = []

        def consumer():
            while True:
                item = ch.take()
                if item is CLOSED:
                    return
                taken.append(item)

        worker = threading.Thread(target=consumer, daemon=True)
        worker.start()
        ch.put_many(list(range(10)))  # 5x the capacity: several waits
        ch.close()
        worker.join(5.0)
        assert taken == list(range(10))

    def test_timeout_mid_batch_keeps_prefix(self):
        ch = Channel(capacity=3)
        with pytest.raises(PipeTimeoutError):
            ch.put_many([1, 2, 3, 4, 5], timeout=0.05)
        # the prefix that fit stays enqueued, in order
        assert ch.take_many(10) == [1, 2, 3]

    def test_put_many_on_closed_channel_raises(self):
        ch = Channel()
        ch.close()
        with pytest.raises(ChannelClosedError):
            ch.put_many([1])

    def test_close_mid_wait_unblocks_producer(self):
        ch = Channel(capacity=1)
        ch.put(0)
        error = []

        def producer():
            try:
                ch.put_many([1, 2, 3])
            except ChannelClosedError as exc:
                error.append(exc)

        worker = threading.Thread(target=producer, daemon=True)
        worker.start()
        time.sleep(0.05)
        ch.close()
        worker.join(5.0)
        assert error, "blocked put_many must raise when the channel closes"


class TestTakeMany:
    def test_drains_up_to_max_n(self):
        ch = Channel()
        ch.put_many(list(range(10)))
        assert ch.take_many(4) == [0, 1, 2, 3]
        assert ch.take_many(100) == [4, 5, 6, 7, 8, 9]

    def test_returns_as_soon_as_one_item_exists(self):
        ch = Channel()
        ch.put(1)
        start = time.monotonic()
        assert ch.take_many(64, timeout=5.0) == [1]
        assert time.monotonic() - start < 1.0  # no wait for a full batch

    def test_closed_and_drained_returns_sentinel(self):
        ch = Channel()
        ch.put(1)
        ch.close()
        assert ch.take_many(4) == [1]
        assert ch.take_many(4) is CLOSED

    def test_timeout_on_empty_open_channel(self):
        ch = Channel()
        with pytest.raises(PipeTimeoutError):
            ch.take_many(4, timeout=0.05)

    def test_error_envelope_never_reordered_past_data(self):
        ch = Channel()
        ch.put_many([1, 2])
        ch.put_error(ValueError("boom"))
        ch.put_many([3, 4])
        assert ch.take_many(100) == [1, 2]  # stops just before the envelope
        with pytest.raises(ValueError):
            ch.take_many(100)  # envelope at the head re-raises
        assert ch.take_many(100) == [3, 4]

    def test_max_n_must_be_positive(self):
        with pytest.raises(ValueError):
            Channel().take_many(0)


# ---------------------------------------------------------------------------
# The PR-1 wart: put on a capacity=0 channel and the deadline API
# ---------------------------------------------------------------------------

class TestUnboundedPutDeadline:
    """Pins the uniform deadline semantics: the deadline bounds the wait
    for space, and a put that needs no wait succeeds regardless of it."""

    def test_unbounded_put_accepts_and_trivially_meets_any_timeout(self):
        ch = Channel(capacity=0)
        ch.put(1, timeout=0.0)  # never waits, so never expires
        ch.put_many([2, 3], timeout=0.0)
        assert ch.take_many(10) == [1, 2, 3]

    def test_bounded_put_with_free_space_ignores_expired_deadline(self):
        ch = Channel(capacity=1)
        ch.put(1, timeout=0.0)  # same rule: no wait needed, no expiry
        assert ch.take() == 1

    def test_bounded_full_put_expires(self):
        ch = Channel(capacity=1)
        ch.put(1)
        with pytest.raises(PipeTimeoutError):
            ch.put(2, timeout=0.0)

    def test_unbounded_put_after_close_raises_not_times_out(self):
        ch = Channel(capacity=0)
        ch.close()
        with pytest.raises(ChannelClosedError):
            ch.put(1, timeout=1.0)


# ---------------------------------------------------------------------------
# Pipe-level batching: equivalence and boundary flushes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [1, 2, 7, 64, 512])
def test_batched_pipe_equals_unbatched_stream(batch):
    n = 200
    piped = Pipe(lambda: iter(range(n)), batch=batch)
    assert list(piped) == list(range(n))


@pytest.mark.parametrize("batch", [2, 5, 64])
def test_flush_on_exhaustion_strands_nothing(batch):
    # 7 elements never divide evenly into these batches: the tail is a
    # partial batch that only flush-on-close delivers.
    piped = Pipe(lambda: iter(range(7)), batch=batch)
    assert list(piped) == list(range(7))


def test_batch_of_one_is_the_unbatched_path():
    tracer = Tracer()
    with tracer.lifecycle():
        piped = Pipe(lambda: iter(range(5)), batch=1)
        assert list(piped) == list(range(5))
    # No coalescing happens, so no flush is reported.
    assert tracer.counts()[EventKind.BATCH] == 0


def test_batch_must_be_positive():
    with pytest.raises(ValueError):
        Pipe(lambda: iter(()), batch=0)
    with pytest.raises(ValueError):
        Pipe(lambda: iter(()), max_linger=-1.0)


def test_error_after_partial_batch_delivers_data_first():
    def body():
        yield 1
        yield 2
        raise RuntimeError("producer crashed")

    piped = Pipe(body, batch=64)
    assert piped.take() == 1
    assert piped.take() == 2  # buffered results beat the crash report
    with pytest.raises(RuntimeError):
        piped.take()


def test_error_with_full_bounded_queue_still_delivered():
    # The crash report must arrive even when the (tiny) queue is full of
    # flushed batches: put_error bypasses capacity.
    def body():
        for i in range(4):
            yield i
        raise RuntimeError("late crash")

    piped = Pipe(body, capacity=2, batch=2)
    piped.start()
    got = []
    with pytest.raises(RuntimeError):
        while True:
            value = piped.take(timeout=5.0)
            if value is FAIL:
                break
            got.append(value)
    assert got == [0, 1, 2, 3]


def test_max_linger_flushes_partial_batches():
    gate = threading.Event()

    def body():
        yield 1
        yield 2
        gate.wait(5.0)  # stall far longer than the linger
        yield 3

    piped = Pipe(body, batch=64, max_linger=0.01)
    # Without linger the first two results would sit in the worker buffer
    # until the batch filled; the age check after each result flushes them.
    assert piped.take(timeout=2.0) == 1
    assert piped.take(timeout=2.0) == 2
    gate.set()
    assert piped.take(timeout=2.0) == 3
    assert piped.take() is FAIL


def test_cancel_mid_batch_unblocks_producer_and_propagates_upstream():
    src = source_pipe(iter(range(10_000)), capacity=4, batch=2)
    downstream = stage(lambda x: x, src, capacity=4, batch=2)
    assert downstream.take() == 0
    downstream.cancel(join=True, timeout=5.0)
    assert src.cancelled  # upstream chain torn down, nothing left blocked


def test_take_timeout_with_batching_still_expires():
    gate = threading.Event()

    def body():
        gate.wait(10.0)
        yield 1

    piped = Pipe(body, batch=8)
    with pytest.raises(PipeTimeoutError):
        piped.take(timeout=0.05)
    gate.set()
    assert piped.take(timeout=5.0) == 1


def test_refresh_carries_batch_configuration():
    piped = Pipe(lambda: iter(range(3)), capacity=5, batch=4, max_linger=0.5)
    fresh = piped.refresh()
    assert (fresh.batch, fresh.max_linger, fresh.capacity) == (4, 0.5, 5)
    assert list(fresh) == [0, 1, 2]
    piped.cancel()


# ---------------------------------------------------------------------------
# Composition layers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [1, 3, 16])
def test_pipeline_batched_matches_composition(batch):
    data = list(range(100))
    got = list(pipeline(data, lambda x: x + 1, lambda x: x * 2, batch=batch))
    assert got == [(x + 1) * 2 for x in data]


def test_pipeline_batched_with_bounded_capacity():
    data = list(range(64))
    got = list(pipeline(data, lambda x: -x, capacity=4, batch=8))
    assert got == [-x for x in data]


@pytest.mark.parametrize("batch", [1, 4])
def test_dataparallel_map_flat_batched(batch):
    dp = DataParallel(chunk_size=5, batch=batch)
    assert list(dp.map_flat(lambda x: x * x, range(23))) == [
        x * x for x in range(23)
    ]


def test_supervised_replay_restart_with_batching():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        for i in range(10):
            if calls["n"] == 1 and i == 6:
                raise RuntimeError("first-run crash")
            yield i

    sp = supervise(flaky, batch=4, backoff=NO_BACKOFF, sleep=lambda d: None)
    # Exactly-once despite the crash landing mid-batch: flushed-but-
    # undelivered results are skipped by the replay accounting.
    assert list(sp) == list(range(10))
    assert sp.failures == 1


def test_supervised_resume_pipeline_with_batching():
    from repro.coexpr.supervision import FaultPlan

    plan = FaultPlan(sleep=lambda d: None).fail_stage(1, on_attempts=(1,))
    out = supervised_pipeline(
        range(20),
        lambda x: x * 3,
        backoff=NO_BACKOFF,
        batch=4,
        sleep=lambda d: None,
        fault_plan=plan,
    )
    # The stage crashes at body start on attempt 1 (nothing consumed), so
    # the resumed body sees the full upstream stream.
    assert list(out) == [x * 3 for x in range(20)]
    assert plan.attempts(1) == 2


def test_supervised_exhaust_with_batching():
    def always_crash():
        yield 1
        raise RuntimeError("again")

    sp = supervise(
        always_crash, batch=8, max_retries=1, backoff=NO_BACKOFF, sleep=lambda d: None
    )
    with pytest.raises(RetryExhaustedError):
        list(sp)


# ---------------------------------------------------------------------------
# Monitor-bus stats
# ---------------------------------------------------------------------------

def test_batch_events_and_tracer_stats():
    tracer = Tracer()
    with tracer.lifecycle():
        piped = Pipe(lambda: iter(range(100)), batch=16)
        assert list(piped) == list(range(100))
        # drain fully inside the sink subscription
        piped.cancel(join=True, timeout=5.0)
    batch_events = [e for e in tracer.events if e.kind == EventKind.BATCH]
    assert batch_events, "each flush must emit a batch event"
    sizes = [e.value["size"] for e in batch_events]
    assert sum(sizes) == 100
    assert all(1 <= s <= 16 for s in sizes)
    assert all("queued" in e.value for e in batch_events)

    flushes = tracer.summary()[f"pipe:{piped.coexpr.name}"][EventKind.BATCH]
    assert [flush["size"] for flush in flushes] == sizes
    assert all(flush["queued"] >= 0 for flush in flushes)

    counts = tracer.counts()
    assert counts[EventKind.BATCH] == len(sizes)


def test_pipe_batch_stats_counters():
    tracer = Tracer()
    with tracer.lifecycle():
        piped = Pipe(lambda: iter(range(10)), batch=4)
        assert list(piped) == list(range(10))
    flushes = tracer.summary()[f"pipe:{piped.coexpr.name}"][EventKind.BATCH]
    # 4 + 4 + 2 (flush-on-exhaustion)
    assert [flush["size"] for flush in flushes] == [4, 4, 2]
