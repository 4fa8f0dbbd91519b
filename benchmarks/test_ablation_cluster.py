"""Ablation A11 — cluster failover latency and exactly-once replay.

Two recovery shapes of the cluster tier, swept over the heartbeat
interval ``h`` (the knob that decides how fast a *silent* replica death
is detected):

* **failover latency** — the primary replica for the stream's route key
  is a quiet listener (accepts the dial, never speaks: the worst
  failure mode, indistinguishable from a live server until the watchdog
  fires).  With ``heartbeat_timeout = h`` the time-to-first-item is the
  detection cost plus one redial — the acceptance bound is **2
  heartbeat intervals**.  Crash-style deaths (connection reset) are
  detected immediately and sit well under this bound; the quiet
  listener prices the ceiling.
* **exactly-once replay** — a replica is killed mid-stream after a
  fixed prefix (deterministic ``FaultPlan.kill_server`` chaos); the
  run must deliver the identical full sequence — the supervised replay
  skips the delivered prefix on the next replica, so the prefix is
  *preserved*, never re-emitted and never lost.

Run with ``--benchmark-json=ablation_cluster.json`` to export the
numbers (CI uploads that file as a workflow artifact).
"""

import itertools
import socket
import threading
import time

import pytest

from repro.coexpr.coexpression import CoExpression
from repro.coexpr.supervision import NO_BACKOFF, FaultPlan, supervise
from repro.monitor import EventKind, Tracer
from repro.net import GeneratorServer, ServerPool
from repro.net.client import reset_breakers

#: Watchdog sweep: how long a silent replica can hide.
HEARTBEATS = (0.1, 0.2, 0.4)
#: Stream length per run — long enough to straddle the mid-stream kill.
STREAM = 50
#: Route key of the replay benchmark (any stable name works).
REPLAY_KEY = "bench-cluster-replay"


def counting(n):
    """Portable stream body (pickled by qualified name)."""
    yield from range(n)


def _supervised(pool, key, h):
    return supervise(
        CoExpression(counting, lambda: (STREAM,), name=key),
        backend="remote",
        remote_address=pool,
        capacity=8,
        heartbeat_interval=h,
        heartbeat_timeout=h,
        backoff=NO_BACKOFF,
        max_retries=3,
    )


class QuietListener:
    """Accepts connections and never speaks — the silent-death replica."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.address = self.sock.getsockname()
        self.accepted = []
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted.append(conn)

    def close(self):
        self.sock.close()
        self.thread.join(timeout=5)
        for conn in self.accepted:
            conn.close()


@pytest.fixture(scope="module")
def quiet():
    listener = QuietListener()
    yield listener
    listener.close()


@pytest.fixture(scope="module")
def live():
    with GeneratorServer() as server:
        yield server


def _key_owned_by(addresses, owner):
    """A route key whose ring primary is *owner* (brute-forced; the
    ring is deterministic, so this converges in a handful of tries)."""
    probe = ServerPool(addresses)
    for index in itertools.count():
        key = f"bench-cluster-failover-{index}"
        if probe.primary(key) == owner:
            return key


def run_failover(addresses, key, h):
    """One silent-death failover; returns the time-to-first-item."""
    # Fresh breaker + pool state per round: every round must pay the
    # full detection cost (a warm pool would route around the corpse).
    reset_breakers()
    pool = ServerPool(addresses)
    piped = _supervised(pool, key, h)
    tracer = Tracer()
    with tracer.lifecycle():
        start = time.perf_counter()
        it = piped.iterate()
        first = next(it)
        latency = time.perf_counter() - start
        rest = list(it)
    assert [first] + rest == list(range(STREAM))
    assert len(tracer.summary()[f"pool:{pool.name}"][EventKind.FAILOVER]) == 1
    return latency


@pytest.mark.parametrize("h", HEARTBEATS)
def test_silent_failover_latency(benchmark, quiet, live, h):
    addresses = [quiet.address, live.address]
    key = _key_owned_by(addresses, quiet.address)
    benchmark.group = f"ablation-cluster-failover-h{h}"
    benchmark.extra_info["heartbeat"] = h
    benchmark.extra_info["mode"] = "silent-listener"
    latency = benchmark(lambda: run_failover(addresses, key, h))
    # The acceptance bound: detection (the watchdog fires at one
    # heartbeat interval) plus the redial fit in two intervals.
    assert latency <= 2 * h, (
        f"failover took {latency:.3f}s with h={h} (bound {2 * h:.3f}s)"
    )


def run_replay(h):
    """One mid-stream replica kill; returns the delivered count."""
    reset_breakers()
    with GeneratorServer() as one, GeneratorServer() as two:
        plan = FaultPlan()
        pool = ServerPool(
            [one.address, two.address], fault_plan=plan
        )
        victim_address = pool.primary(REPLAY_KEY)
        (victim,) = [s for s in (one, two) if s.address == victim_address]
        plan.kill_server(REPLAY_KEY, victim, on_attempts=(1,), after_items=10)
        piped = _supervised(pool, REPLAY_KEY, h)
        tracer = Tracer()
        with tracer.lifecycle():
            got = list(piped.iterate())
        # Delivered-prefix preservation: the full sequence, in order,
        # no duplicates from the replay and no gap at the kill point.
        assert got == list(range(STREAM))
        assert len(tracer.summary()[f"pool:{pool.name}"][EventKind.FAILOVER]) == 1
        return piped.delivered


@pytest.mark.parametrize("h", HEARTBEATS)
def test_exactly_once_replay_after_kill(benchmark, h):
    benchmark.group = f"ablation-cluster-replay-h{h}"
    benchmark.extra_info["heartbeat"] = h
    benchmark.extra_info["mode"] = "kill-server"
    delivered = benchmark(lambda: run_replay(h))
    assert delivered == STREAM
