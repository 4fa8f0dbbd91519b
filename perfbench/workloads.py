"""The three closed-loop workloads: one client thread, one job in flight.

Each workload has ``setup()`` (compile, start servers, warm up),
``job(index)`` returning ``(verified items, mean first-item seconds)``
and raising :class:`JobFailed` on any output that differs from its
independent reference, ``quiesce()`` listing anything a job left running,
and ``teardown()``.  Every call into a layer sits in a span of
``self.spans`` (a no-op recorder unless the run is traced).
"""

from __future__ import annotations

import math
import statistics
import time

from repro.bench.embedded import JUNICON_PROGRAM
from repro.bench.workloads import LIGHT, expected_total
from repro.coexpr import CoExpression, Pipe, default_scheduler, supervise
from repro.coexpr.channel import Channel
from repro.lang.interp import JuniconInterpreter
from repro.net.cluster import ServerPool

from .bodies import RaiseOnce, count_up, word_numbers
from .host import start_servers
from .registry import WORDS
from .spans import NO_SPANS

#: Heartbeat timeout for warm-up jobs.  A fresh ``junicon-serve`` spends
#: about a second importing the first body that references
#: ``repro.bench.workloads`` (its package ``__init__`` pulls in scipy),
#: which is as long as the client's default watchdog (10 x 0.1 s).
WARM_HEARTBEAT_TIMEOUT = 60.0

#: Figure 6 variant label -> the Junicon generator that runs it.
FIG6_VARIANTS = (
    ("sequential", "seqGen"),
    ("pipeline", "pipeGen"),
    ("dataparallel", "dataParallelGen"),
    ("mapreduce", "mapReduceGen"),
)
FIG6_CHUNK = 100

#: remote-stream: (server substrate, batch) per stream, in job order.
STREAMS = (("thread", 1), ("thread", 64), ("async", 1), ("async", 64))
STREAM_CAPACITY = 1024

#: spawn-churn: pipes per job by tier, each yielding CHURN_ITEMS ints.
CHURN_MIX = (("thread", 16), ("async", 16), ("process", 1), ("remote", 4), ("supervised", 8))
CHURN_ITEMS = 16
CHURN_FAIL_AT = 8


class JobFailed(Exception):
    """A job whose output differs from its reference."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise JobFailed(message)


def _same_total(total: float, reference: float) -> bool:
    # Chunked variants sum in another order, so allow rounding only.
    return math.isclose(total, reference, rel_tol=1e-9)


class SliceCounter(Channel):
    """A pipe output channel that counts the slices delivered into it."""

    def __init__(self, capacity: int = 0) -> None:
        super().__init__(capacity)
        self.slices = 0
        self.items = 0

    def put_many(self, items, timeout=None):
        items = list(items)
        self.slices += 1
        self.items += len(items)
        return super().put_many(items, timeout)


class Workload:
    name = ""
    servers: tuple = ()
    #: How this workload's job and first-item times grow with the host's
    #: slowdown s (:mod:`perfbench.speed`): as s to these powers.  A slow
    #: phase slows Python code as much as the kernel (power 1), but thread
    #: starts, forks, wake-ups and dials less.  Each power was measured
    #: by regressing log time on log s over the jobs of one-core windows.
    job_exponent = 1.0
    first_item_exponent = 1.0

    def __init__(self, root: str, lines: list) -> None:
        self.root = root
        self.lines = lines
        self.reference = expected_total(lines, LIGHT)
        self.spans = NO_SPANS

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, index: int) -> tuple:
        raise NotImplementedError

    def trace_begin(self) -> None:
        """Reset the counters :meth:`trace_metrics` reads."""

    def trace_metrics(self, window) -> dict:
        """Per-layer metrics this workload's traced *window* measured."""
        return {}

    def quiesce(self) -> list:
        """What is still running after a window: leaked workers and
        servers with open sessions.  Empty when the window ended clean."""
        problems = [f"leaked {w!r}" for w in default_scheduler().leaked(join_timeout=5.0)]
        problems += [
            f"{server.kind} server still has open sessions"
            for server in self.servers
            if not server.wait_idle()
        ]
        return problems

    def teardown(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = ()


class Fig6Light(Workload):
    """Two Figure 6 rounds per job, one on the interpreted engine and one
    on the optimizing engine: the four embedded variants each, drained
    from the host and checked."""

    name = "fig6-light"
    # A variant's first item waits for its thread or first chunk pipe.
    first_item_exponent = 0.6

    def setup(self) -> None:
        self.engines = []
        for label, optimize in (("interp", False), ("opt", True)):
            interp = JuniconInterpreter(optimize=optimize)
            interp.load(JUNICON_PROGRAM)
            namespace = interp.namespace
            namespace["LINES"] = list(self.lines)
            namespace["WORD_TO_NUMBER"] = LIGHT.word_to_number
            namespace["HASH_NUMBER"] = LIGHT.hash_number
            namespace["CHUNK_SIZE"] = FIG6_CHUNK
            self.engines.append((label, namespace))
        self.job(0)

    def job(self, index: int) -> tuple:
        # Both engines in every job: jobs that alternated them would put
        # job_p50 in the gap between a fast and a slow mode.
        firsts = []
        for label, namespace in self.engines:
            for variant, generator in FIG6_VARIANTS:
                with self.spans.span(f"fig6.{label}.{variant}"):
                    start = time.perf_counter()
                    first = None
                    total = 0.0
                    for value in namespace[generator]():
                        if first is None:
                            first = time.perf_counter()
                        total += value
                _check(
                    first is not None and _same_total(total, self.reference),
                    f"{label} {variant}: total {total!r} != {self.reference!r}",
                )
                firsts.append(first - start)
        return len(firsts) * WORDS, statistics.fmean(firsts)

    def _cache_stats(self) -> dict:
        """The interpreted engine's method-body cache counters."""
        return dict(self.engines[0][1]["_method_cache"].stats())

    def trace_begin(self) -> None:
        self._cache_before = self._cache_stats()

    def trace_metrics(self, window) -> dict:
        after, before = self._cache_stats(), self._cache_before
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        return {"runtime.cache_hit_ratio": hits / lookups if lookups else 0.0}


class RemoteStream(Workload):
    """Four 960-item streams per job: stage 1 (word -> number) on a
    loopback server, stage 2 (hash and sum) on the host."""

    name = "remote-stream"
    # The first item waits on a dial and the server's session start-up,
    # which took the same time whatever the host's speed.
    first_item_exponent = 0.0

    def setup(self) -> None:
        self.servers = tuple(start_servers(self.root))
        self.by_kind = {server.kind: server for server in self.servers}
        self.trace_begin()
        for server in self.servers:
            self.stream(server.kind, 64, WARM_HEARTBEAT_TIMEOUT)

    def stream(self, kind: str, batch: int, heartbeat_timeout=None) -> float:
        server = self.by_kind[kind]
        word_to_number = LIGHT.word_to_number
        hash_number = LIGHT.hash_number
        lines = self.lines
        with self.spans.span(f"remote.{kind}.b{batch}"):
            start = time.perf_counter()
            pipe = Pipe(
                CoExpression(
                    word_numbers,
                    lambda: (lines, word_to_number),
                    name=f"stream-{kind}-b{batch}",
                ),
                capacity=STREAM_CAPACITY,
                batch=batch,
                backend="remote",
                remote_address=server.address,
                heartbeat_timeout=heartbeat_timeout,
            )
            if self.spans.enabled and batch > 1:
                pipe.out = SliceCounter(STREAM_CAPACITY)
            pipe.start()
            _check(pipe.degraded is None, f"remote pipe degraded: {pipe.degraded}")
            first = None
            total = 0.0
            count = 0
            for number in pipe:
                if first is None:
                    first = time.perf_counter()
                total += hash_number(number)
                count += 1
        _check(
            count == WORDS and _same_total(total, self.reference),
            f"{kind} b{batch}: {count} items, total {total!r}",
        )
        self.streams[kind] += 1
        if isinstance(pipe.out, SliceCounter):
            self.slices[0] += pipe.out.slices
            self.slices[1] += pipe.out.items
        return first - start

    def job(self, index: int) -> tuple:
        firsts = [self.stream(kind, batch) for kind, batch in STREAMS]
        return len(STREAMS) * WORDS, statistics.fmean(firsts)

    def trace_begin(self) -> None:
        #: Streams served per server kind, and batch-64 slices/items.
        self.streams = {kind: 0 for kind in self.by_kind}
        self.slices = [0, 0]

    def trace_metrics(self, window) -> dict:
        out = {
            f"server.{kind}.cpu_ms_per_stream": cpu_s * 1e3 / max(self.streams[kind], 1)
            for kind, cpu_s in window.server_cpu_s.items()
        }
        slices, items = self.slices
        out["net.mean_slice"] = items / slices if slices else 0.0
        return out


class SpawnChurn(Workload):
    """A fixed mix of short pipes per job on every tier; the remote ones
    go through a two-replica pool, the supervised ones restart once."""

    name = "spawn-churn"
    # Mostly thread starts, a fork and dials: about 1.5x slower where the
    # kernel is 1.8x slower.
    job_exponent = 0.75
    first_item_exponent = 0.75

    def setup(self) -> None:
        self.servers = tuple(start_servers(self.root))
        self.pool = ServerPool([server.address for server in self.servers])
        self.remote_keys = _balanced_keys(self.pool, per_member=2)
        self.restarts = 0
        self._heartbeat_timeout = WARM_HEARTBEAT_TIMEOUT
        try:
            self.job(0)
        finally:
            self._heartbeat_timeout = None

    def _make(self, tier: str, index: int):
        if tier == "supervised":
            body = RaiseOnce(CHURN_ITEMS, CHURN_FAIL_AT)
            # Backoff sleeps are stubbed to 0: the restart, not the
            # policy's delay, is what this workload times.
            return body, supervise(CoExpression(body, name="churn-supervised"), sleep=_no_sleep)
        options = {"backend": tier}
        name = f"churn-{tier}"
        if tier == "remote":
            name = self.remote_keys[index]
            options["remote_address"] = self.pool
            options["heartbeat_timeout"] = self._heartbeat_timeout
        elif tier == "process":
            options["heartbeat_timeout"] = self._heartbeat_timeout
        return None, Pipe(CoExpression(count_up, lambda: (CHURN_ITEMS,), name=name), **options)

    def job(self, index: int) -> tuple:
        firsts = []
        for tier, count in CHURN_MIX:
            for i in range(count):
                with self.spans.span(f"churn.{tier}"):
                    start = time.perf_counter()
                    body, pipe = self._make(tier, i)
                    if body is None:
                        pipe.start()
                        _check(pipe.degraded is None, f"{tier} pipe degraded: {pipe.degraded}")
                    first = replayed = None
                    values = []
                    for value in pipe:
                        if first is None:
                            first = time.perf_counter()
                        values.append(value)
                        if len(values) == CHURN_FAIL_AT + 1:
                            replayed = time.perf_counter()
                _check(values == list(range(CHURN_ITEMS)), f"{tier} pipe yielded {values}")
                firsts.append(first - start)
                if body is not None:
                    self.restarts += pipe.failures
                    _check(
                        pipe.failures == 1 and body.raised_at is not None,
                        f"supervised pipe restarted {pipe.failures} times for one fault",
                    )
                    self.spans.add("supervision.replay", body.raised_at, replayed)
        items = sum(count for _, count in CHURN_MIX) * CHURN_ITEMS
        return items, statistics.fmean(firsts)

    def trace_begin(self) -> None:
        self.restarts = 0

    def trace_metrics(self, window) -> dict:
        # Per job, so the figure does not scale with the window.  Each
        # job injects one fault per supervised pipe, and a pipe that
        # restarts any other number of times fails its job.
        return {"supervision.restarts": self.restarts / max(window.attempted, 1)}

    def teardown(self) -> None:
        self.pool.close()
        super().teardown()


def _no_sleep(seconds: float) -> None:
    pass


def _balanced_keys(pool: ServerPool, per_member: int) -> list:
    """Route keys the ring places ``per_member`` to each replica, so the
    remote pipes of a job exercise both server substrates."""
    keys: dict = {address: [] for address in pool.addresses}
    index = 0
    while any(len(found) < per_member for found in keys.values()):
        key = f"churn-remote-{index}"
        found = keys[pool.primary(key)]
        if len(found) < per_member:
            found.append(key)
        index += 1
    return [key for group in zip(*keys.values()) for key in group]


WORKLOADS = {cls.name: cls for cls in (Fig6Light, RemoteStream, SpawnChurn)}
