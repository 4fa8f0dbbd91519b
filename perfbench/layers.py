"""Per-layer probes: each drives one layer through its public calls.

Every timed call sits in a span; :data:`SPAN_METRICS` turns the median
self time of a span name into a metric.  Counts, ratios and byte sizes
are read directly from the layer (the ``Tracer`` counters, the method
cache, the bytes on the socket).
"""

from __future__ import annotations

import asyncio
import socket
import statistics
import threading
import time

from repro.bench.embedded import JUNICON_PROGRAM
from repro.bench.workloads import LIGHT
from repro.coexpr import AsyncChannel, Channel, CoExpression, Pipe, PipeScheduler, event_loop
from repro.coexpr.wire import WIRE_DATA, SocketFramer
from repro.lang.interp import JuniconInterpreter
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.transform import transform_program
from repro.monitor import Tracer
from repro.monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from repro.net.cluster import HashRing, ServerPool

from .bodies import count_up
from .registry import WORDS
from .workloads import FIG6_VARIANTS, JobFailed

HANDOFF_ITEMS = 20_000
SLICE = 64
SLICE_ITEMS = SLICE * 312
AIO_ITEMS = 10_000
WIRE_BLOCK = 100
CREDIT_ITEMS = 400
RING_KEYS = 500
EMIT_OFF = 200_000
EMIT_ON = 20_000

#: metric -> (span name, operations per span, unit scale from seconds)
SPAN_METRICS = {
    "lang.tokenize_ms": ("lang.tokenize", 1, 1e3),
    "lang.parse_ms": ("lang.parse", 1, 1e3),
    "lang.transform_ms": ("lang.transform", 1, 1e3),
    "lang.transform_opt_ms": ("lang.transform_opt", 1, 1e3),
    "lang.load_ms": ("lang.load", 1, 1e3),
    "runtime.seq_us_per_word": ("fig6.interp.sequential", WORDS, 1e6),
    "runtime.seq_opt_us_per_word": ("fig6.opt.sequential", WORDS, 1e6),
    **{
        f"fig6.{engine}.{variant}_ms": (f"fig6.{engine}.{variant}", 1, 1e3)
        for engine in ("interp", "opt")
        for variant, _ in FIG6_VARIANTS
    },
    "channel.handoff_ns": ("channel.handoff", HANDOFF_ITEMS, 1e9),
    "channel.slice_ns_per_item": ("channel.slice", SLICE_ITEMS, 1e9),
    "pipe.thread_first_item_us": ("pipe.thread.first_item", 1, 1e6),
    "pipe.thread_close_us": ("pipe.thread.close", 1, 1e6),
    "aio.first_item_us": ("pipe.async.first_item", 1, 1e6),
    "aio.handoff_ns": ("aio.handoff", AIO_ITEMS, 1e9),
    "proc.fork_first_item_ms": ("pipe.process.first_item", 1, 1e3),
    "proc.reap_ms": ("pipe.process.close", 1, 1e3),
    "supervision.replay_ms": ("supervision.replay", 1, 1e3),
    "wire.encode_us.b1": ("wire.encode.b1", WIRE_BLOCK, 1e6),
    "wire.encode_us.b64": ("wire.encode.b64", WIRE_BLOCK, 1e6),
    "wire.decode_us.b1": ("wire.decode.b1", WIRE_BLOCK, 1e6),
    "wire.decode_us.b64": ("wire.decode.b64", WIRE_BLOCK, 1e6),
    "wire.decode_restricted_us.b64": ("wire.decode_restricted.b64", WIRE_BLOCK, 1e6),
    "client.dial_ms.thread": ("client.dial.thread", 1, 1e3),
    "client.dial_ms.async": ("client.dial.async", 1, 1e3),
    "client.credit_rtt_us": ("client.credit", CREDIT_ITEMS, 1e6),
    "server.thread.us_per_item.b1": ("remote.thread.b1", WORDS, 1e6),
    "server.thread.us_per_item.b64": ("remote.thread.b64", WORDS, 1e6),
    "server.async.us_per_item.b1": ("remote.async.b1", WORDS, 1e6),
    "server.async.us_per_item.b64": ("remote.async.b64", WORDS, 1e6),
    "cluster.preference_us.n2": ("cluster.preference.n2", RING_KEYS, 1e6),
    "cluster.preference_us.n128": ("cluster.preference.n128", RING_KEYS, 1e6),
    "cluster.dial_candidates_us": ("cluster.dial_candidates", RING_KEYS, 1e6),
    "monitor.emit_off_ns": ("monitor.emit_off", EMIT_OFF, 1e9),
    "monitor.emit_on_ns": ("monitor.emit_on", EMIT_ON, 1e9),
}


def span_metrics(spans) -> dict:
    """Every :data:`SPAN_METRICS` entry whose span was recorded."""
    self_times = spans.self_times()
    out = {}
    for metric, (name, ops, scale) in SPAN_METRICS.items():
        if self_times.get(name):
            out[metric] = statistics.median(self_times[name]) / ops * scale
    return out


def probe_lang(spans, reps: int = 5) -> dict:
    for _ in range(reps):
        with spans.span("lang.tokenize"):
            tokenize(JUNICON_PROGRAM)
        with spans.span("lang.parse"):
            parse(JUNICON_PROGRAM)
        with spans.span("lang.transform"):
            code = transform_program(JUNICON_PROGRAM, optimize=False)
        with spans.span("lang.transform_opt"):
            transform_program(JUNICON_PROGRAM, optimize=True)
        namespace = JuniconInterpreter().namespace
        with spans.span("lang.load"):
            exec(compile(code, "<junicon>", "exec"), namespace)
    tracer = Tracer()
    with tracer.lifecycle():
        JuniconInterpreter(optimize=True).load(JUNICON_PROGRAM)
    units = tracer.compile_stats().values()
    return {
        "lang.lowered_shapes": sum(len(unit["lowered"]) for unit in units),
        "lang.fallback_shapes": sum(len(unit["fallbacks"]) for unit in units),
    }


def probe_channel(spans, reps: int = 3) -> None:
    for _ in range(reps):
        channel = Channel(0)
        producer = threading.Thread(target=_put_each, args=(channel, HANDOFF_ITEMS))
        with spans.span("channel.handoff"):
            producer.start()
            for _ in range(HANDOFF_ITEMS):
                channel.take()
            producer.join()
    for _ in range(reps):
        channel = Channel(0)
        producer = threading.Thread(target=_put_slices, args=(channel,))
        with spans.span("channel.slice"):
            producer.start()
            for _ in range(SLICE_ITEMS // SLICE):
                channel.take_many(SLICE)
            producer.join()


def _put_each(channel: Channel, count: int) -> None:
    for i in range(count):
        channel.put(i)


def _put_slices(channel: Channel) -> None:
    items = list(range(SLICE))
    for _ in range(SLICE_ITEMS // SLICE):
        channel.put_many(items)


def probe_pipes(spans) -> None:
    """Start to first item, and exhaustion to reclaimed, per tier."""
    scheduler = PipeScheduler()
    try:
        for backend, reps in (("thread", 40), ("async", 40), ("process", 5)):
            for _ in range(reps):
                with spans.span(f"pipe.{backend}.first_item"):
                    pipe = Pipe(
                        CoExpression(count_up, lambda: (16,), name=f"probe-{backend}"),
                        scheduler=scheduler,
                        backend=backend,
                    ).start()
                    first = pipe.take()
                values = [first] + list(pipe)
                if values != list(range(16)) or pipe.degraded is not None:
                    raise JobFailed(f"{backend} probe pipe: {values} ({pipe.degraded})")
                with spans.span(f"pipe.{backend}.close"):
                    leaked = scheduler.leaked(join_timeout=5.0)
                if leaked:
                    raise JobFailed(f"{backend} probe pipe leaked {leaked!r}")
    finally:
        scheduler.shutdown()


def probe_aio(spans, reps: int = 3) -> None:
    for _ in range(reps):
        future = asyncio.run_coroutine_threadsafe(_aio_handoff(), event_loop())
        start, end = future.result(timeout=60)
        spans.add("aio.handoff", start, end)


async def _aio_handoff() -> tuple:
    channel = AsyncChannel(0)

    async def produce() -> None:
        for i in range(AIO_ITEMS):
            await channel.put(i)

    start = time.perf_counter()
    producer = asyncio.ensure_future(produce())
    for _ in range(AIO_ITEMS):
        await channel.take()
    await producer
    return start, time.perf_counter()


def probe_wire(spans, numbers: list, blocks: int = 5) -> dict:
    """``SocketFramer`` send/recv of ``WIRE_DATA`` slices over socketpairs."""
    out = {}
    pairs = [socket.socketpair() for _ in range(2)]
    try:
        sender, receiver = SocketFramer(pairs[0][0]), SocketFramer(pairs[0][1])
        restricted_sender = SocketFramer(pairs[1][0])
        restricted = SocketFramer(pairs[1][1], trusted=False)
        for batch in (1, 64):
            envelope = (WIRE_DATA, numbers[:batch])
            cases = [(sender, receiver, "decode")]
            if batch == 64:
                cases.append((restricted_sender, restricted, "decode_restricted"))
            for _ in range(blocks):
                for send, recv, decode in cases:
                    with spans.span(f"wire.encode.b{batch}"):
                        for _ in range(WIRE_BLOCK):
                            send.send(envelope)
                    with spans.span(f"wire.{decode}.b{batch}"):
                        for _ in range(WIRE_BLOCK):
                            got = recv.recv()
                    if got != envelope:
                        raise JobFailed(f"wire round trip changed {envelope!r}")
            # The bytes one envelope occupies on the socket.
            sender.send(envelope)
            out[f"wire.frame_bytes.b{batch}"] = len(pairs[0][1].recv(1 << 16))
    finally:
        for pair in pairs:
            for sock in pair:
                sock.close()
    return out


def probe_client(spans, servers, reps: int = 10) -> None:
    """Remote dial to first item on each substrate; the credit round
    trip of a ``capacity=1`` stream on the threaded server."""
    for server in servers:
        for _ in range(reps):
            with spans.span(f"client.dial.{server.kind}"):
                pipe = Pipe(
                    CoExpression(count_up, lambda: (1,), name="probe-dial"),
                    backend="remote",
                    remote_address=server.address,
                ).start()
                first = pipe.take()
            values = [first] + list(pipe)
            if values != [0] or pipe.degraded is not None:
                raise JobFailed(f"dial probe: {values} ({pipe.degraded})")
    thread = next(server for server in servers if server.kind == "thread")
    for _ in range(3):
        with spans.span("client.credit"):
            pipe = Pipe(
                CoExpression(count_up, lambda: (CREDIT_ITEMS,), name="probe-credit"),
                capacity=1,
                backend="remote",
                remote_address=thread.address,
            )
            values = list(pipe)
        if values != list(range(CREDIT_ITEMS)) or pipe.degraded is not None:
            raise JobFailed(f"credit probe: {len(values)} items ({pipe.degraded})")


def probe_cluster(spans, reps: int = 3) -> None:
    keys = [f"stream-{i}" for i in range(RING_KEYS)]
    for size in (2, 128):
        ring = HashRing([("127.0.0.1", 20000 + i) for i in range(size)])
        for _ in range(reps):
            with spans.span(f"cluster.preference.n{size}"):
                for key in keys:
                    ring.preference(key)
    with ServerPool([("127.0.0.1", 20000), ("127.0.0.1", 20001)]) as pool:
        for _ in range(reps):
            with spans.span("cluster.dial_candidates"):
                for key in keys:
                    pool.dial_candidates(key)


def probe_monitor(spans, reps: int = 3) -> None:
    """The guarded lifecycle emit every layer uses, off and on."""
    for _ in range(reps):
        with spans.span("monitor.emit_off"):
            for _ in range(EMIT_OFF):
                if lifecycle_enabled():
                    emit_lifecycle(Event(EventKind.START, "perfbench", 0))
    tracer = Tracer()
    with tracer.lifecycle():
        for _ in range(reps):
            tracer.clear()
            with spans.span("monitor.emit_on"):
                for _ in range(EMIT_ON):
                    if lifecycle_enabled():
                        emit_lifecycle(Event(EventKind.START, "perfbench", 0))


def probe_standalone(spans, lines: list) -> dict:
    """Every probe that needs no workload running."""
    numbers = [LIGHT.word_to_number(word) for line in lines for word in line.split()]
    out = probe_lang(spans)
    probe_channel(spans)
    probe_pipes(spans)
    probe_aio(spans)
    out.update(probe_wire(spans, numbers))
    probe_cluster(spans)
    probe_monitor(spans)
    return out
