"""Crash-isolated pipes: the process execution tier.

Thread pipes (paper §III.B) share one interpreter — a hard fault in any
worker kills everything, and CPU-bound stages serialize on the GIL.
This demo shows ``backend="process"``: a worker hard-killed mid-stream
surfacing :class:`~repro.errors.PipeWorkerLost` instead of hanging, a
supervisor respawning the child and completing the stream, graceful
degradation for bodies that cannot cross the process boundary, and
GIL-free chunked map-reduce.  Run:

    python examples/proc_pipeline.py
"""

import os
import tempfile

from repro.coexpr import (
    CoExpression,
    DataParallel,
    FaultPlan,
    Pipe,
    PipeScheduler,
    pipeline,
    source_pipe,
    stage,
    supervise,
    use_scheduler,
)
from repro.errors import PipeWorkerLost
from repro.monitor import EventKind, Tracer


# ---------------------------------------------------------------------------
# 1. A hard-killed child surfaces PipeWorkerLost — never a hang.
# ---------------------------------------------------------------------------

def demo_worker_lost() -> None:
    print("-- worker lost " + "-" * 42)

    def victim():
        yield 1
        yield 2
        os._exit(173)  # no flush, no error envelope, no finally

    pipe = Pipe(
        CoExpression(victim, name="victim"),
        backend="process",
        heartbeat_interval=0.05,
    ).start()
    delivered = []
    try:
        for value in pipe.iterate():
            delivered.append(value)
    except PipeWorkerLost as error:
        # Data already shipped arrives before the loss is reported.
        print(f"   delivered first : {delivered}")
        print(f"   then            : {error}")
        print(f"   exit code       : {error.exitcode}")


# ---------------------------------------------------------------------------
# 2. Under supervision a lost worker is retryable: respawn + replay.
# ---------------------------------------------------------------------------

def demo_supervised_respawn(state_dir: str) -> None:
    print("-- supervised respawn " + "-" * 35)
    # kill_stage hard-kills the *child process* on attempt 1 after three
    # items; the file-backed state_dir counter survives the fork, so the
    # respawned child knows it is attempt 2 and runs clean.
    plan = FaultPlan(state_dir=state_dir)
    plan.kill_stage("chaos", on_attempts=(1,), after_items=3)

    def body():
        ctx = plan.enter("chaos")
        for i in range(6):
            ctx.on_item(i)
            yield i

    supervised = supervise(
        body,
        max_retries=2,
        backend="process",
        heartbeat_interval=0.05,
    )
    print(f"   results  : {list(supervised.iterate())}")
    print(f"   failures : {supervised.failures} (one chaos kill, absorbed)")


# ---------------------------------------------------------------------------
# 3. Degradation: bodies that cannot cross the process boundary.
# ---------------------------------------------------------------------------

def demo_degradation() -> None:
    print("-- graceful degradation " + "-" * 33)
    tracer = Tracer()
    with tracer.lifecycle():
        # The source is self-contained: it isolates.  The stage is fed
        # by an in-parent pipe: it falls back to a thread (the feeding
        # thread would not survive into a child).
        src = source_pipe(range(5), backend="process")
        doubled = stage(lambda x: x * 2, src, backend="process").start()
        results = list(doubled.iterate())
    print(f"   results        : {results}")
    print(f"   stage degraded : {doubled.degraded!r}")
    spawned = [e for e in tracer.events if e.kind == EventKind.SPAWN]
    print(f"   children spawned: {len(spawned)} (the source only)")


# ---------------------------------------------------------------------------
# 4. Chunked map-reduce: the GIL-free shape.
# ---------------------------------------------------------------------------

def demo_map_reduce() -> None:
    print("-- process map-reduce " + "-" * 35)

    def weigh(n):
        total = 0
        for k in range(200):
            total += (n * k) % 7
        return total

    source = list(range(400))
    threaded = DataParallel(chunk_size=100).reduce(
        weigh, source, lambda a, b: a + b, 0
    )
    isolated = DataParallel(chunk_size=100, backend="process").reduce(
        weigh, source, lambda a, b: a + b, 0
    )
    print(f"   thread backend  : {threaded}")
    print(f"   process backend : {isolated} (identical, crash-isolated)")


def main() -> None:
    scheduler = PipeScheduler()
    with use_scheduler(scheduler):
        demo_worker_lost()
        with tempfile.TemporaryDirectory() as state_dir:
            demo_supervised_respawn(state_dir)
        demo_degradation()
        demo_map_reduce()
        # Whole-pipeline form: the source isolates, stages degrade.
        chain = pipeline(range(8), lambda x: x + 1, backend="process")
        assert list(chain.start().iterate()) == list(range(1, 9))
    scheduler.shutdown()
    assert scheduler.leaked() == [], "no thread or child process survives"
    print("-- clean shutdown: zero leaked threads, zero leaked children")


if __name__ == "__main__":
    main()
