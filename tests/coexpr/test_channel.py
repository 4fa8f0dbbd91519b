"""Blocking channels: put/take, close, bounds, error propagation."""

import threading
import time

import pytest

from repro.errors import ChannelClosedError
from repro.coexpr.channel import CLOSED, Channel, RaiseEnvelope


class TestBasics:
    def test_fifo_order(self):
        channel = Channel()
        for value in (1, 2, 3):
            channel.put(value)
        assert [channel.take() for _ in range(3)] == [1, 2, 3]

    def test_len(self):
        channel = Channel()
        channel.put(1)
        channel.put(2)
        assert len(channel) == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Channel(-1)

    def test_repr(self):
        channel = Channel(capacity=4)
        assert "capacity=4" in repr(channel)


class TestClose:
    def test_take_after_close_drains_then_closed(self):
        channel = Channel()
        channel.put(1)
        channel.close()
        assert channel.take() == 1
        assert channel.take() is CLOSED
        assert channel.take() is CLOSED  # idempotent

    def test_put_after_close_raises(self):
        channel = Channel()
        channel.close()
        with pytest.raises(ChannelClosedError):
            channel.put(1)

    def test_close_unblocks_take(self):
        channel = Channel()
        results = []

        def consumer():
            results.append(channel.take())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        channel.close()
        thread.join(timeout=2)
        assert results == [CLOSED]

    def test_close_unblocks_blocked_put(self):
        channel = Channel(capacity=1)
        channel.put("fill")
        errors = []

        def producer():
            try:
                channel.put("blocked")
            except ChannelClosedError:
                errors.append("closed")

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        channel.close()
        thread.join(timeout=2)
        assert errors == ["closed"]

    def test_closed_property(self):
        channel = Channel()
        assert not channel.closed
        channel.close()
        assert channel.closed


class TestCapacity:
    def test_bounded_put_blocks_until_take(self):
        channel = Channel(capacity=2)
        channel.put(1)
        channel.put(2)
        done = threading.Event()

        def producer():
            channel.put(3)
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not done.wait(0.1)  # blocked on the bound
        assert channel.take() == 1
        assert done.wait(2)

    def test_unbounded_put_ignores_timeout(self):
        """capacity=0 never waits for space: timeout is documented as
        ignored, and the put returns immediately."""
        channel = Channel(capacity=0)
        start = time.monotonic()
        for i in range(100):
            channel.put(i, timeout=0.000001)  # would expire if honoured
        assert time.monotonic() - start < 0.5
        assert len(channel) == 100

    def test_unbounded_put_raises_promptly_after_close(self):
        """Regression pin: a closed unbounded channel rejects puts at
        once — it never blocks or silently accepts."""
        channel = Channel(capacity=0)
        channel.close()
        start = time.monotonic()
        with pytest.raises(ChannelClosedError):
            channel.put(1)
        with pytest.raises(ChannelClosedError):
            channel.put(2, timeout=5.0)  # the timeout must not delay the error
        assert time.monotonic() - start < 0.5

    def test_put_error_bypasses_capacity(self):
        """Error delivery is unthrottled: a full bounded channel still
        accepts the crash report (a dying producer never blocks on it)."""
        channel = Channel(capacity=1)
        channel.put("fill")
        channel.put_error(RuntimeError("crash"))  # must not block
        assert channel.take() == "fill"
        with pytest.raises(RuntimeError, match="crash"):
            channel.take()

    def test_put_error_on_closed_channel_raises(self):
        channel = Channel()
        channel.close()
        with pytest.raises(ChannelClosedError):
            channel.put_error(RuntimeError("late"))

    def test_put_timeout(self):
        channel = Channel(capacity=1)
        channel.put(1)
        with pytest.raises(TimeoutError):
            channel.put(2, timeout=0.05)

    def test_take_timeout(self):
        channel = Channel()
        with pytest.raises(TimeoutError):
            channel.take(timeout=0.05)

    @pytest.mark.parametrize("free", ["take", "take_many", "poll", "close"])
    def test_on_space_runs_once_when_space_frees(self, free):
        channel = Channel(capacity=2)
        woken = []
        assert not channel.on_space(lambda: woken.append("early"))  # has space
        channel.put(1)
        channel.put(2)
        assert channel.on_space(lambda: woken.append(free))  # parked
        assert woken == []
        getattr(channel, free)(*([1] if free == "take_many" else []))
        assert woken == [free]
        channel.put_many([3] if free != "close" else [], timeout=0)
        channel.take()
        assert woken == [free]  # one-shot
        assert channel._putters == 0

    def test_on_space_refuses_unbounded_and_closed_channels(self):
        assert not Channel(capacity=0).on_space(lambda: None)
        closed = Channel(capacity=1)
        closed.put(1)
        closed.close()
        assert not closed.on_space(lambda: None)

    def test_unbounded_never_blocks(self):
        channel = Channel(capacity=0)
        for value in range(10_000):
            channel.put(value)
        assert len(channel) == 10_000


class TestErrors:
    def test_put_error_reraises_at_consumer(self):
        channel = Channel()
        channel.put_error(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            channel.take()

    def test_error_ordered_with_items(self):
        channel = Channel()
        channel.put(1)
        channel.put_error(KeyError("k"))
        assert channel.take() == 1
        with pytest.raises(KeyError):
            channel.take()

    def test_raise_envelope_is_data_until_taken(self):
        envelope = RaiseEnvelope(ValueError("x"))
        assert isinstance(envelope.error, ValueError)


class TestPollAndIter:
    def test_poll_states(self):
        channel = Channel()
        assert channel.poll() is None
        channel.put(1)
        assert channel.poll() == 1
        channel.close()
        assert channel.poll() is CLOSED

    def test_poll_reraises_errors(self):
        channel = Channel()
        channel.put_error(RuntimeError("r"))
        with pytest.raises(RuntimeError):
            channel.poll()

    def test_iteration_drains_until_close(self):
        channel = Channel()
        for value in range(3):
            channel.put(value)
        channel.close()
        assert list(channel) == [0, 1, 2]

    def test_concurrent_producers_consumers(self):
        channel = Channel(capacity=8)
        collected = []
        lock = threading.Lock()

        def producer(base):
            for i in range(100):
                channel.put(base + i)

        def consumer():
            while True:
                item = channel.take()
                if item is CLOSED:
                    return
                with lock:
                    collected.append(item)

        producers = [
            threading.Thread(target=producer, args=(base,)) for base in (0, 1000)
        ]
        consumers = [threading.Thread(target=consumer) for _ in range(2)]
        for thread in producers + consumers:
            thread.start()
        for thread in producers:
            thread.join()
        channel.close()
        for thread in consumers:
            thread.join()
        assert sorted(collected) == sorted(list(range(100)) + list(range(1000, 1100)))
