"""The per-element ``|>`` handoff: counted wakeups and drained takes.

A :class:`Channel` notifies the other side only when a thread sleeps
there, and an unbounded unbatched :class:`Pipe` drains everything queued
on each take.  These tests pin what that must not cost:

* **no lost wakeup** — a hypothesis property over random capacities,
  producers, consumers and mixed ``put``/``put_many``/``put_error``/
  ``close``: every blocked call returns within a fixed bound, each
  producer's items reach each consumer in order, and nothing is lost or
  duplicated;
* **deadlines** — an expired deadline raises on the next take even while
  drained results wait in the pipe;
* **fan-out** — several consumers of one unbounded pipe partition its
  stream exactly;
* **lock-step** — a capacity-k producer never runs more than k results
  ahead of its consumer;
* **one notify per sleep** — a consumer already notified is not notified
  again before it runs, and a taker that timed out can be notified
  again;
* **validation** — ``Pipe`` rejects, on every backend, the tuning values
  the generator server would reject, and so do ``AsyncPipe``,
  ``RemotePipe`` and ``DataParallel`` for the fields they take.

``REPRO_HYPOTHESIS_EXAMPLES`` scales the example count (default 40).
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coexpr.aio import AsyncPipe
from repro.coexpr.channel import CLOSED, Channel
from repro.coexpr.coexpression import CoExpression
from repro.coexpr.dataparallel import DataParallel
from repro.coexpr.pipe import Pipe
from repro.coexpr import channel as channel_module
from repro.errors import ChannelClosedError, PipeDeadlineExceeded, PipeTimeoutError
from repro.net.client import RemotePipe
from repro.runtime.failure import FAIL

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "40"))

#: Seconds any blocked call may take to return once it can.
BOUND = 5.0


def counted(n):
    return CoExpression(lambda: iter(range(n)))


class Marker(Exception):
    """A ``put_error`` payload that names its place in the stream."""

    def __init__(self, item):
        super().__init__(item)
        self.item = item


# One producer's script: ("put",), ("put_many", n) or ("put_error",).
ops = st.one_of(
    st.just(("put",)),
    st.tuples(st.just("put_many"), st.integers(1, 5)),
    st.just(("put_error",)),
)
scripts = st.lists(st.lists(ops, max_size=12), min_size=1, max_size=3)
# A consumer takes one at a time (0) or up to max_n at once.
consumers = st.lists(st.integers(0, 5), min_size=1, max_size=3)
# Optionally, producer p closes the channel after its step i.
closers = st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 11)))


def _join_all(threads, what):
    deadline = time.monotonic() + BOUND
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"{what} still blocked after {BOUND}s: {stuck}"


class TestNoLostWakeup:
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(0, 4), scripts, consumers, closers)
    def test_mixed_producers_and_consumers(
        self, capacity, producer_scripts, consumer_modes, closer
    ):
        channel = Channel(capacity)
        acked = set()  # items whose put returned: they must arrive
        sent = set()  # every item offered to the channel
        received = [[] for _ in consumer_modes]
        early_close = (
            closer is not None
            and closer[0] < len(producer_scripts)
            and closer[1] < len(producer_scripts[closer[0]])
        )

        def produce(p, script):
            seq = 0
            try:
                for step, op in enumerate(script):
                    if op[0] == "put":
                        item = (p, seq)
                        sent.add(item)
                        channel.put(item)
                        acked.add(item)
                        seq += 1
                    elif op[0] == "put_many":
                        items = [(p, seq + k) for k in range(op[1])]
                        sent.update(items)
                        channel.put_many(items)
                        acked.update(items)
                        seq += op[1]
                    else:
                        item = (p, seq)
                        sent.add(item)
                        channel.put_error(Marker(item))
                        acked.add(item)
                        seq += 1
                    if closer == (p, step):
                        channel.close()
                        return
            except ChannelClosedError:
                pass  # another producer closed: stop producing

        def consume(bucket, max_n):
            while True:
                try:
                    got = channel.take_many(max_n) if max_n else channel.take()
                except Marker as error:
                    bucket.append(error.item)
                    continue
                if got is CLOSED:
                    return
                bucket.extend(got if max_n else [got])

        takers = [
            threading.Thread(target=consume, args=(bucket, max_n), daemon=True)
            for bucket, max_n in zip(received, consumer_modes)
        ]
        makers = [
            threading.Thread(target=produce, args=(p, script), daemon=True)
            for p, script in enumerate(producer_scripts)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads more finely
        try:
            for thread in takers + makers:
                thread.start()
            _join_all(makers, "producers")
            if not early_close:
                # Everything is queued and nobody has closed: the
                # consumers must drain it on put-side wakeups alone.
                deadline = time.monotonic() + BOUND
                while sum(map(len, received)) < len(acked):
                    assert time.monotonic() < deadline, (
                        f"consumers asleep with items queued: "
                        f"{sum(map(len, received))}/{len(acked)} taken"
                    )
                    time.sleep(0.001)
                channel.close()
            _join_all(takers, "consumers")
        finally:
            sys.setswitchinterval(switch)
            channel.close()  # release anything stuck after a failure

        everything = [item for bucket in received for item in bucket]
        assert len(everything) == len(set(everything)), "duplicated item"
        assert set(everything) <= sent, "item from nowhere"
        assert acked <= set(everything), "lost item"
        for bucket in received:
            for p in range(len(producer_scripts)):
                seqs = [seq for q, seq in bucket if q == p]
                assert seqs == sorted(seqs), f"producer {p} reordered"


class CountingCondition(threading.Condition):
    """Counts the notifies sent and the waits begun on a condition."""

    def __init__(self, lock):
        super().__init__(lock)
        self.notifies = 0
        self.waits = 0

    def notify(self, n=1):  # notify_all calls this once, too
        self.notifies += 1
        super().notify(n)

    def wait(self, timeout=None):
        self.waits += 1
        return super().wait(timeout)


class TestOneNotifyPerSleep:
    def test_stream_notifies_at_most_once_per_consumer_sleep(self, monkeypatch):
        conditions = []
        init = Channel.__init__

        def counting_init(channel, capacity=0):
            init(channel, capacity)
            channel._not_empty = CountingCondition(channel._lock)
            conditions.append(channel._not_empty)

        monkeypatch.setattr(channel_module.Channel, "__init__", counting_init)
        pipe = Pipe(counted(960))
        assert list(pipe.iterate()) == list(range(960))
        (condition,) = conditions
        # Each sleep of the consumer may cost one notify, and the close
        # one more; a notify per item would be ~960.
        assert condition.notifies <= condition.waits + 1, (
            condition.notifies,
            condition.waits,
        )

    def test_taker_that_timed_out_is_notified_again(self):
        channel = Channel()
        with pytest.raises(PipeTimeoutError):
            channel.take(timeout=0.01)
        got = []
        taker = threading.Thread(target=lambda: got.append(channel.take()), daemon=True)
        taker.start()
        limit = time.monotonic() + BOUND
        while channel._takers == 0 and time.monotonic() < limit:
            time.sleep(0.001)
        channel.put("x")
        _join_all([taker], "taker after a timed-out take")
        assert got == ["x"]

    def test_no_sleeper_stranded_behind_timed_out_takers(self):
        """A polling taker times out over and over beside a blocking one;
        once the poller has gone, every item must still reach the
        blocking taker, one at a time, with no close to wake it."""
        channel = Channel()
        taken = []
        done = threading.Condition()

        def record(item):
            with done:
                taken.append(item)
                done.notify_all()

        def poll(until):
            while time.monotonic() < until:
                try:
                    item = channel.take(timeout=0.0005)
                except PipeTimeoutError:
                    continue
                if item is CLOSED:
                    return
                record(item)

        def block():
            while True:
                item = channel.take()
                if item is CLOSED:
                    return
                record(item)

        poller = threading.Thread(target=poll, args=(time.monotonic() + 0.3,), daemon=True)
        blocker = threading.Thread(target=block, daemon=True)
        poller.start()
        blocker.start()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(400):
                if i == 200:
                    _join_all([poller], "poller")
                channel.put(i)
                with done:
                    assert done.wait_for(lambda: len(taken) > i, BOUND), (
                        f"item {i} stranded with a taker asleep"
                    )
        finally:
            sys.setswitchinterval(switch)
            channel.close()
        _join_all([poller, blocker], "takers")
        assert sorted(taken) == list(range(400))


class TestDrainedPipe:
    def test_expired_deadline_raises_with_results_buffered(self):
        pipe = Pipe(counted(50), deadline=0.3)
        pipe.start()
        limit = time.monotonic() + BOUND
        while not pipe.out.closed and time.monotonic() < limit:
            time.sleep(0.005)
        assert pipe.take() == 0
        assert len(pipe._pending) == 49  # drained in one take
        assert "queued=49" in repr(pipe)
        time.sleep(max(0.0, pipe.deadline.remaining()) + 0.01)
        with pytest.raises(PipeDeadlineExceeded):
            pipe.take()
        assert pipe.cancelled

    def test_fan_out_partitions_the_stream(self):
        pipe = Pipe(counted(10_000))
        buckets = [[] for _ in range(4)]

        def consume(bucket):
            while True:
                value = pipe.take()
                if value is FAIL:
                    return
                bucket.append(value)

        threads = [
            threading.Thread(target=consume, args=(bucket,), daemon=True)
            for bucket in buckets
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            _join_all(threads, "fan-out consumers")
        finally:
            sys.setswitchinterval(switch)
        everything = sorted(value for bucket in buckets for value in bucket)
        assert everything == list(range(10_000))

    @pytest.mark.parametrize("capacity", [1, 3])
    def test_bounded_producer_stays_in_lock_step(self, capacity):
        enqueued = []

        def body():
            for i in range(60):
                yield i
                enqueued.append(i)  # resumed: the put of i returned

        pipe = Pipe(CoExpression(body), capacity=capacity)
        served = 0
        while True:
            value = pipe.take()
            if value is FAIL:
                break
            assert value == served
            served += 1
            if served % 10 == 0:
                time.sleep(0.01)  # let the producer run as far as it can
            assert len(enqueued) <= served + capacity
        assert served == 60


BACKENDS = ("thread", "process", "remote", "async")

# Values Pipe used to accept, to fail later on the remote tier only (a NaN
# heartbeat_timeout stays client-side and disarms its watchdog).
BAD_VALUES = [
    ("capacity", 2.5),
    ("capacity", True),
    ("batch", 2.5),
    ("batch", True),
    ("max_linger", math.nan),
    ("max_linger", math.inf),
    ("heartbeat_interval", math.nan),
    ("heartbeat_timeout", math.nan),
]


# AsyncPipe, RemotePipe and DataParallel take some of these fields too,
# and reject them when built, not when the first worker starts.
CASES = (
    [(field, value, backend) for field, value in BAD_VALUES for backend in BACKENDS]
    + [(field, value, "AsyncPipe") for field, value in BAD_VALUES if field == "batch"]
    + [
        (field, value, "DataParallel")
        for field, value in BAD_VALUES
        if field in ("batch", "max_linger")
    ]
    + [
        ("capacity", 2.5, "AsyncPipe"),
        ("capacity", True, "AsyncPipe"),
        ("capacity", 2.5, "RemotePipe"),
        ("heartbeat_interval", math.nan, "RemotePipe"),
        ("heartbeat_timeout", math.nan, "RemotePipe"),
        ("capacity", -1, "DataParallel"),
        ("capacity", 2.5, "DataParallel"),
        ("heartbeat_interval", math.nan, "DataParallel"),
        ("heartbeat_timeout", math.nan, "DataParallel"),
        ("backend", "remote", "DataParallel"),  # no remote_address
    ]
)


@pytest.mark.parametrize("field, value, backend", CASES)
def test_pipe_rejects_what_the_server_rejects(field, value, backend):
    with pytest.raises(ValueError, match=field):
        if backend == "AsyncPipe":
            AsyncPipe(counted(3), **{field: value})
        elif backend == "RemotePipe":
            RemotePipe(("127.0.0.1", 1), "never-dialed", **{field: value})
        elif backend == "DataParallel":
            DataParallel(**{field: value})
        else:
            kwargs = {"backend": backend, field: value}
            if backend == "remote":
                kwargs["remote_address"] = ("127.0.0.1", 1)  # never dialed
            Pipe(counted(3), **kwargs)
