"""Remote pipes: the network execution tier.

A :class:`~repro.net.GeneratorServer` hosts pipeline factories behind a
TCP listener; ``backend="remote"`` ships a pipe body to it and streams
the results back over the same envelope protocol the process tier
speaks — framed over the socket, flow-controlled by credit.  This demo
shows transparent remote pipelines, server-side named factories via
:class:`~repro.net.RemotePipe`, a mid-stream session kill healed by
supervision (reconnect + replay), graceful degradation for bodies that
cannot cross the wire, and the session accounting that guarantees a
clean shutdown.  Run:

    python examples/remote_pipeline.py
"""

import time

from repro.coexpr import (
    PipeScheduler,
    pipeline,
    source_pipe,
    stage,
    use_scheduler,
)
from repro.coexpr.supervision import NO_BACKOFF, supervised_pipeline
from repro.monitor import EventKind, Tracer
from repro.net import GeneratorServer, RemotePipe


# Remote bodies cross the wire by pickle, which serializes functions by
# qualified name — so every stage function is module-level.

def tokenize(line):
    yield from line.split()


def emphasize(word):
    return word.upper()


def slow_square(x):
    time.sleep(0.002)
    return x * x


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        yield a
        a, b = b, a + b


# ---------------------------------------------------------------------------
# 1. A transparent remote pipeline: same results, different machine.
# ---------------------------------------------------------------------------

def demo_transparent_pipeline(server) -> None:
    print("-- transparent remote pipeline " + "-" * 26)

    lines = ["concurrent generators", "embed everywhere"]
    local = list(pipeline(lines, tokenize, emphasize).iterate())
    remote = list(
        pipeline(
            lines,
            tokenize,
            emphasize,
            backend="remote",
            remote_address=server.address,
        ).iterate()
    )
    print(f"   remote == local: {remote == local}  ({remote})")


# ---------------------------------------------------------------------------
# 2. Named factories: stream a body that only exists server-side.
# ---------------------------------------------------------------------------

def demo_named_factory(server) -> None:
    print("-- named factory (RemotePipe) " + "-" * 27)

    # junicon-serve publishes factories the same way:
    #   junicon-serve --port 9090 --serve fib=examples.remote_pipeline:fibonacci
    server.register("fib", fibonacci)
    events = RemotePipe(server.address, "fib", args=(10,))
    print(f"   fib stream: {list(events.iterate())}")


# ---------------------------------------------------------------------------
# 3. A killed session is retryable: supervision reconnects and replays.
# ---------------------------------------------------------------------------

def demo_kill_and_recover(server) -> None:
    print("-- session kill + reconnect/replay " + "-" * 22)

    tracer = Tracer()
    with tracer.lifecycle():
        piped = supervised_pipeline(
            range(30),
            slow_square,
            backend="remote",
            remote_address=server.address,
            capacity=4,
            backoff=NO_BACKOFF,
            max_retries=3,
        )
        it = piped.iterate()
        head = [next(it) for _ in range(5)]
        killed = server.kill_sessions()          # chaos: cut every session
        results = head + list(it)                # supervision heals the cut

    expected = [x * x for x in range(30)]
    print(f"   killed {killed} session(s); sequence intact: {results == expected}")
    print(f"   retries consumed: {piped.failures}")
    for node, events in tracer.summary().items():
        connects = events.get(EventKind.NET_CONNECT, [])
        sessions = events.get(EventKind.NET_SESSION, [])
        losses = events.get(EventKind.NET_LOST, [])
        if connects or sessions or losses:
            print(
                f"   {node}: connects={len(connects)} "
                f"sessions={len(sessions)} losses={len(losses)} "
                f"reasons={[loss['reason'] for loss in losses]}"
            )


# ---------------------------------------------------------------------------
# 4. Graceful degradation: what cannot cross the wire runs on a thread.
# ---------------------------------------------------------------------------

def demo_degradation(server) -> None:
    print("-- graceful degradation " + "-" * 33)

    secret = object()                     # closes over live parent state
    piped = stage(
        lambda x: (x, id(secret)),
        range(3),
        backend="remote",
        remote_address=server.address,
    ).start()
    values = [v for v, _ in piped.iterate()]
    print(f"   results (thread fallback): {values}")
    print(f"   degraded because: {piped.degraded}")


def main() -> None:
    scheduler = PipeScheduler()
    with use_scheduler(scheduler):
        with GeneratorServer() as server:
            print(f"generator server on {server.address}\n")
            demo_transparent_pipeline(server)
            demo_named_factory(server)
            demo_kill_and_recover(server)
            demo_degradation(server)
            print(f"\nserver stats: {server.stats}")
        leaked = scheduler.leaked(join_timeout=2.0)
        print(f"leaked workers/sessions after shutdown: {leaked}")


if __name__ == "__main__":
    main()
