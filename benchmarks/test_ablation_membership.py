"""Ablation A13 — recovery latency under sustained membership churn.

A11 priced failover against a *static* fleet: the ring never changed
under the stream.  This ablation re-runs the same two recovery shapes
— silent-death failover and mid-stream kill replay — plus a DataParallel
chunk steal, while a churner thread joins and retires ghost replicas on
a sustained ~250 ms cadence (``mode="churn"`` vs the static-fleet
baseline, same groups as A11 for cross-file comparison):

* **failover latency** — the quiet-listener primary again; churn can
  only add fast-refused dials (a ghost owning the key is an immediate
  ``ECONNREFUSED``, and the weighted ring's minimal-remap property
  means a ghost join/leave moves *only* the ghost's keys), so the
  acceptance bound stays **2 heartbeat intervals** plus a small refused
  -dial allowance.
* **exactly-once replay** — ``kill_server`` after a 10-item prefix
  while the fleet churns; the sequence must still arrive identical and
  exactly once (the ring remapping under the replay must not double-
  deliver or drop the preserved prefix).
* **chunk steal** — a chunk's connection dropped mid-run under churn;
  the stolen re-run must keep ``map_flat`` ordered and complete.

Run with ``--benchmark-json=ablation_membership.json`` to export the
numbers (the ``cluster-churn`` CI job uploads that file).
"""

import itertools
import socket
import threading
import time

import pytest

from repro.coexpr.coexpression import CoExpression
from repro.coexpr.dataparallel import DataParallel
from repro.coexpr.supervision import NO_BACKOFF, FaultPlan, supervise
from repro.monitor import EventKind, Tracer
from repro.net import GeneratorServer, ServerPool
from repro.net.client import reset_breakers

#: Watchdog interval under test (A11 showed latency is linear in h;
#: one sweep point keeps the churn matrix cheap).
HEARTBEAT = 0.1
#: The sustained-churn cadence: one join-or-leave roughly every 250 ms,
#: with the first join fired immediately so even a sub-cadence round
#: sees at least one fleet change.
CHURN_PERIOD = 0.25
#: Stream length per run — long enough to straddle the mid-stream kill.
STREAM = 50
MODES = ("static", "churn")
REPLAY_KEY = "bench-membership-replay"
#: Ghost replicas the churner cycles through: closed low ports refuse
#: the dial immediately, so churn prices remap + reroute, not timeouts.
GHOSTS = (("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3))


def counting(n):
    """Portable stream body (pickled by qualified name)."""
    yield from range(n)


def double(x):
    return 2 * x


class Churner:
    """Joins and retires ghost members on a fixed cadence.

    The first join fires immediately (a benchmark round shorter than
    the cadence still runs against a churned ring); after that, every
    ``period`` seconds the current ghost leaves and the next one joins
    — a sustained alternation of ``MEMBER_JOIN``/``MEMBER_LEAVE``
    under whatever stream is running.
    """

    def __init__(self, pool, period=CHURN_PERIOD):
        self.pool = pool
        self.period = period
        self.churns = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        ghosts = itertools.cycle(GHOSTS)
        current = next(ghosts)
        self.pool.add(current, source="chaos")
        self.churns += 1
        while not self._stop.wait(self.period):
            self.pool.remove(current, source="chaos")
            current = next(ghosts)
            self.pool.add(current, source="chaos")
            self.churns += 2

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)


def _churner_for(pool, mode):
    return Churner(pool) if mode == "churn" else None


def _supervised(pool, key, h=HEARTBEAT):
    return supervise(
        CoExpression(counting, lambda: (STREAM,), name=key),
        backend="remote",
        remote_address=pool,
        capacity=8,
        heartbeat_interval=h,
        heartbeat_timeout=h,
        backoff=NO_BACKOFF,
        max_retries=5,
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
        key = f"bench-membership-failover-{index}"
        if probe.primary(key) == owner:
            return key


def run_failover(addresses, key, mode):
    """One silent-death failover; returns the time-to-first-item."""
    # Fresh address records (breaker state and down-marks) and a fresh
    # pool per round: every round must pay the full detection cost.
    reset_breakers()
    pool = ServerPool(addresses)
    churner = _churner_for(pool, mode)
    try:
        piped = _supervised(pool, key)
        start = time.perf_counter()
        it = piped.iterate()
        first = next(it)
        latency = time.perf_counter() - start
        rest = list(it)
    finally:
        if churner is not None:
            churner.close()
    assert [first] + rest == list(range(STREAM))
    return latency


@pytest.mark.parametrize("mode", MODES)
def test_silent_failover_latency_under_churn(benchmark, quiet, live, mode):
    addresses = [quiet.address, live.address]
    key = _key_owned_by(addresses, quiet.address)
    benchmark.group = f"ablation-membership-failover-{mode}"
    benchmark.extra_info["heartbeat"] = HEARTBEAT
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["churn_period"] = (
        CHURN_PERIOD if mode == "churn" else None
    )
    latency = benchmark(lambda: run_failover(addresses, key, mode))
    # The static bound is A11's (detection + one redial in two
    # intervals); churn may add fast-refused ghost dials in front, and
    # may equally well remap the key straight onto the live replica —
    # it must never add a timeout-class wait.
    slack = 0.15 if mode == "churn" else 0.0
    assert latency <= 2 * HEARTBEAT + slack, (
        f"failover took {latency:.3f}s under {mode} "
        f"(bound {2 * HEARTBEAT + slack:.3f}s)"
    )


def run_replay(mode):
    """One mid-stream replica kill under churn; returns delivered."""
    reset_breakers()
    with GeneratorServer() as one, GeneratorServer() as two:
        plan = FaultPlan()
        pool = ServerPool([one.address, two.address], fault_plan=plan)
        victim_address = pool.primary(REPLAY_KEY)
        (victim,) = [s for s in (one, two) if s.address == victim_address]
        plan.kill_server(REPLAY_KEY, victim, on_attempts=(1,), after_items=10)
        churner = _churner_for(pool, mode)
        tracer = Tracer()
        try:
            piped = _supervised(pool, REPLAY_KEY)
            with tracer.lifecycle():
                got = list(piped.iterate())
        finally:
            if churner is not None:
                churner.close()
        # Delivered-prefix preservation under a moving ring: the full
        # sequence, in order, no duplicate from the replay and no gap
        # at the kill point.
        assert got == list(range(STREAM))
        assert len(tracer.summary()[f"pool:{pool.name}"][EventKind.FAILOVER]) >= 1
        return piped.delivered


@pytest.mark.parametrize("mode", MODES)
def test_exactly_once_replay_under_churn(benchmark, mode):
    benchmark.group = f"ablation-membership-replay-{mode}"
    benchmark.extra_info["heartbeat"] = HEARTBEAT
    benchmark.extra_info["mode"] = mode
    delivered = benchmark(lambda: run_replay(mode))
    assert delivered == STREAM


def run_steal(addresses, mode):
    """One DataParallel run with a dropped chunk; returns wall time."""
    reset_breakers()
    plan = FaultPlan()
    plan.drop_connection("mapreduce-task-1", on_attempts=(1,), after_items=1)
    pool = ServerPool(addresses, fault_plan=plan)
    churner = _churner_for(pool, mode)
    data = list(range(40))
    expected = [double(x) for x in data]
    tracer = Tracer()
    try:
        dp = DataParallel(chunk_size=10, backend="remote", remote_address=pool)
        with tracer.lifecycle():
            start = time.perf_counter()
            got = list(dp.map_flat(double, data))
            elapsed = time.perf_counter() - start
    finally:
        if churner is not None:
            churner.close()
    assert got == expected
    assert len(tracer.summary()[f"pool:{pool.name}"][EventKind.STEAL]) >= 1
    return elapsed


@pytest.mark.parametrize("mode", MODES)
def test_chunk_steal_latency_under_churn(benchmark, mode):
    with GeneratorServer() as one, GeneratorServer() as two:
        addresses = [one.address, two.address]
        benchmark.group = f"ablation-membership-steal-{mode}"
        benchmark.extra_info["mode"] = mode
        benchmark(lambda: run_steal(addresses, mode))
