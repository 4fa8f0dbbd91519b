"""The process execution tier — crash isolation for ``|>e``.

Covers the three tentpole behaviours of :mod:`repro.coexpr.proc`: the
heartbeat watchdog (a killed or wedged child surfaces
:class:`~repro.errors.PipeWorkerLost` instead of hanging), worker-lost
recovery under :func:`~repro.coexpr.supervision.supervise` (respawn +
replay to the full correct sequence), and graceful degradation to the
thread backend when a body cannot cross the process boundary.  The
package-level autouse fixture leak-checks every test: zero surviving
threads *and* zero surviving child processes.
"""

import multiprocessing
import os
import resource
import signal
import time

import pytest

from repro.errors import (
    PipeError,
    PipeWorkerLost,
    RetryExhaustedError,
    SchedulerShutdownError,
)
from repro.runtime.failure import FAIL
from repro.coexpr.coexpression import CoExpression
from repro.coexpr.dataparallel import DataParallel
from repro.coexpr.patterns import pipeline, source_pipe, stage
from repro.coexpr.pipe import Pipe
from repro.coexpr import proc
from repro.coexpr.proc import KILLED_EXIT, default_context, spawn_unsafe_reason
from repro.coexpr.scheduler import PipeScheduler
from repro.coexpr.supervision import FaultPlan, supervise
from repro.coexpr.wire import WIRE_CLOSE, WIRE_DATA, SocketFramer
from repro.monitor import EventKind, Tracer

pytestmark = pytest.mark.skipif(
    default_context().get_start_method() != "fork",
    reason="process-tier tests assume a fork platform",
)


def counted(n):
    return CoExpression(lambda: iter(range(n)), name="counted")


def proc_pipe(coexpr, **kwargs):
    kwargs.setdefault("backend", "process")
    kwargs.setdefault("heartbeat_interval", 0.05)
    return Pipe(coexpr, **kwargs)


class TestProcessStreaming:
    def test_order_preserved(self):
        pipe = proc_pipe(counted(100)).start()
        assert list(pipe.iterate()) == list(range(100))
        assert pipe.degraded is None

    def test_batched_order_preserved(self):
        pipe = proc_pipe(counted(100), batch=8).start()
        assert list(pipe.iterate()) == list(range(100))

    def test_runs_in_separate_process(self):
        def body():
            yield os.getpid()

        pipe = proc_pipe(CoExpression(body, name="pid")).start()
        child_pid = pipe.take()
        assert child_pid != os.getpid()
        assert pipe.take() is FAIL

    def test_take_fails_after_exhaustion(self):
        pipe = proc_pipe(counted(2)).start()
        assert pipe.take() == 0
        assert pipe.take() == 1
        assert pipe.take() is FAIL
        assert pipe.take() is FAIL

    def test_parent_state_isolated_from_child(self):
        # Mutations in the child body never leak back to the parent.
        state = {"touched": False}

        def body():
            state["touched"] = True
            yield 1

        pipe = proc_pipe(CoExpression(body, name="mutator")).start()
        assert list(pipe.iterate()) == [1]
        assert state["touched"] is False

    def test_bounded_capacity_streams(self):
        pipe = proc_pipe(counted(50), capacity=4).start()
        assert list(pipe.iterate()) == list(range(50))

    def test_bounded_pipe_is_throttled_by_credit(self):
        # The child produces only what the parent's credit covers: the
        # item taken, the channel's 4, the one slice the pump is
        # blocked delivering, one window of credit and one batch being
        # filled.  Without credit the socket buffer lets it run
        # thousands of items ahead.
        produced = default_context().Value("i", 0)

        def body():
            while True:
                with produced.get_lock():
                    produced.value += 1
                yield produced.value

        pipe = proc_pipe(CoExpression(body, name="counting"), capacity=4).start()
        assert pipe.take() == 1
        time.sleep(0.3)
        assert produced.value <= 1 + 4 + 1 + 4 + 1
        assert pipe.cancel(join=True, timeout=5.0)

    def test_refresh_respawns_process(self):
        pipe = proc_pipe(counted(5)).start()
        assert list(pipe.iterate()) == list(range(5))
        fresh = pipe.refresh().start()
        assert fresh.backend == "process"
        assert list(fresh.iterate()) == list(range(5))
        assert fresh.degraded is None

    def test_source_pipe_process_backend(self):
        pipe = source_pipe(range(20), backend="process").start()
        assert list(pipe.iterate()) == list(range(20))
        assert pipe.degraded is None

    def test_pipeline_isolates_source_degrades_stages(self):
        result = pipeline(
            range(10), lambda x: x + 1, backend="process"
        ).start()
        assert list(result.iterate()) == list(range(1, 11))


def one_then_sleep(seconds):
    def body():
        yield 0
        time.sleep(seconds)

    return CoExpression(body, name="one-then-sleep")


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class TestProcessLinger:
    """The child's session reader doubles as the linger flusher: it wakes
    when a partial batch comes due, not only at the next beat, and never
    more often than once per tick."""

    def test_partial_batch_arrives_within_linger_not_heartbeat(self):
        # 64 results never fill the batch and the body sleeps for 1 s
        # after its first: only the session reader can deliver result 0.
        pipe = proc_pipe(
            one_then_sleep(1.0), batch=64, max_linger=0.05, heartbeat_interval=0.5
        ).start()
        started = time.monotonic()
        assert pipe.take() == 0
        assert time.monotonic() - started < 0.3
        assert pipe.degraded is None
        assert pipe.take() is FAIL

    def test_zero_linger_does_not_spin(self):
        before = children_cpu()
        pipe = proc_pipe(one_then_sleep(0.5), batch=64, max_linger=0).start()
        assert list(pipe.iterate()) == [0]
        assert pipe.cancel(join=True, timeout=5.0)  # the pump reaps the child
        assert children_cpu() - before < 0.05


class TestCrashEnvelopeOrdering:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_partial_batch_flushes_before_error(self, backend):
        # Regression: under batching, a crash mid-batch must deliver the
        # buffered data *before* the error — for both transports.
        def body():
            yield 1
            yield 2
            raise ValueError("mid-batch boom")

        pipe = Pipe(
            CoExpression(body, name="crashy"),
            batch=4,
            backend=backend,
            heartbeat_interval=0.05,
        ).start()
        got = []
        with pytest.raises(ValueError, match="mid-batch boom"):
            for value in pipe.iterate():
                got.append(value)
        assert got == [1, 2]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_error_then_terminal_fail(self, backend):
        def body():
            raise RuntimeError("immediate")
            yield  # pragma: no cover

        pipe = Pipe(
            CoExpression(body, name="crash-now"),
            backend=backend,
            heartbeat_interval=0.05,
        ).start()
        with pytest.raises(RuntimeError, match="immediate"):
            pipe.take()
        assert pipe.take() is FAIL

    def test_reported_crash_is_not_worker_lost(self):
        # An error envelope + close + exit 0 is an ordinary producer
        # crash, not a lost worker.
        def body():
            yield 1
            raise ValueError("reported")

        pipe = proc_pipe(CoExpression(body, name="reporter")).start()
        with pytest.raises(ValueError, match="reported"):
            list(pipe.iterate())

    def test_cause_chain_and_traceback_cross_the_boundary(self):
        # Regression for the shared wire codec: bare pickle drops both
        # __cause__ and the traceback, so a `raise ... from ...` in the
        # child must still read like one in the parent.
        def body():
            yield 1
            try:
                raise KeyError("inner")
            except KeyError as inner:
                raise ValueError("outer") from inner

        pipe = proc_pipe(CoExpression(body, name="chained")).start()
        assert pipe.take() == 1
        with pytest.raises(ValueError, match="outer") as excinfo:
            pipe.take()
        assert isinstance(excinfo.value.__cause__, KeyError)
        assert excinfo.value.__cause__.args == ("inner",)
        assert "body" in excinfo.value.remote_traceback

    def test_unpicklable_error_decays_to_pipe_error(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        def body():
            yield 1
            raise Unpicklable("local-only")

        pipe = proc_pipe(CoExpression(body, name="weird-error")).start()
        assert pipe.take() == 1
        with pytest.raises(PipeError, match="Unpicklable"):
            pipe.take()


class TestWorkerLost:
    def test_hard_kill_surfaces_worker_lost(self):
        def body():
            yield 1
            yield 2
            os._exit(KILLED_EXIT)

        pipe = proc_pipe(CoExpression(body, name="victim")).start()
        got = []
        with pytest.raises(PipeWorkerLost) as info:
            for value in pipe.iterate():
                got.append(value)
        assert got == [1, 2]
        assert info.value.exitcode == KILLED_EXIT
        assert pipe.take() is FAIL  # terminal after the error

    def test_loss_detected_within_heartbeat_deadline(self):
        def body():
            yield 1
            os._exit(KILLED_EXIT)

        pipe = proc_pipe(
            CoExpression(body, name="victim"),
            heartbeat_interval=0.05,
            heartbeat_timeout=0.5,
        ).start()
        assert pipe.take() == 1
        started = time.monotonic()
        with pytest.raises(PipeWorkerLost):
            pipe.take()
        # Death is seen via the exit sentinel/EOF, well inside the
        # heartbeat deadline — no hang, no full-timeout wait.
        assert time.monotonic() - started < 5.0

    def test_wedged_child_trips_heartbeat_watchdog(self):
        # SIGSTOP freezes the child without killing it: no beats, no
        # EOF, no exit — only the deadline can catch it.
        def body():
            yield os.getpid()
            time.sleep(60)
            yield 2  # pragma: no cover

        pipe = proc_pipe(
            CoExpression(body, name="wedged"),
            heartbeat_interval=0.05,
            heartbeat_timeout=0.4,
        ).start()
        child_pid = pipe.take()
        os.kill(child_pid, signal.SIGSTOP)
        started = time.monotonic()
        with pytest.raises(PipeWorkerLost, match="no heartbeat"):
            pipe.take()
        assert time.monotonic() - started < 5.0

    def test_batched_kill_flushes_shipped_data_first(self):
        # Values already shipped over IPC survive the kill and arrive
        # before the loss error (data-before-error, end to end).
        def body():
            yield 1
            yield 2
            yield 3
            yield 4  # completes a batch of 4 -> flushed over IPC
            time.sleep(0.3)  # let the envelope reach the socket
            os._exit(KILLED_EXIT)

        pipe = proc_pipe(
            CoExpression(body, name="victim"), batch=4, capacity=0
        ).start()
        got = []
        with pytest.raises(PipeWorkerLost):
            for value in pipe.iterate():
                got.append(value)
        assert got == [1, 2, 3, 4]

    def test_unknown_envelope_is_a_protocol_violation(self, monkeypatch):
        # A child that sends a kind the pump does not know has broken
        # the protocol: the data before it arrives, then the loss —
        # never a clean end of stream.
        def child(sock, *args):
            framer = SocketFramer(sock)
            framer.recv()  # the request
            framer.recv()  # the initial window
            for envelope in (
                (WIRE_DATA, [1, 2]),
                ("bogus", 3),
                (WIRE_DATA, [4]),
                (WIRE_CLOSE,),
            ):
                framer.send(envelope)
            framer.close()

        monkeypatch.setattr(proc, "_child_main", child)
        pipe = proc_pipe(counted(5)).start()
        got = []
        with pytest.raises(PipeWorkerLost, match="protocol violation"):
            for value in pipe.iterate():
                got.append(value)
        assert got == [1, 2]
        assert pipe.take() is FAIL


class TestSupervisedRecovery:
    def test_killed_worker_respawns_and_completes(self, tmp_path):
        # The acceptance scenario: chaos-kill the child mid-stream; the
        # supervisor counts one failure, respawns, and the consumer still
        # sees the full, correct sequence.
        plan = FaultPlan(state_dir=str(tmp_path))
        plan.kill_stage("body", on_attempts=(1,), after_items=3)

        def body():
            ctx = plan.enter("body")
            for i in range(6):
                ctx.on_item(i)
                yield i

        supervised = supervise(
            body,
            max_retries=2,
            backend="process",
            heartbeat_interval=0.05,
            restart="replay",
        )
        assert list(supervised.iterate()) == [0, 1, 2, 3, 4, 5]
        assert supervised.failures == 1
        assert plan.attempts("body") == 2

    def test_worker_lost_consumes_retry_budget(self, tmp_path):
        # A child that dies on every attempt exhausts the budget and the
        # terminal error chains the last PipeWorkerLost.
        plan = FaultPlan(state_dir=str(tmp_path))
        plan.kill_stage("body", on_attempts=(1, 2, 3), after_items=1)

        def body():
            ctx = plan.enter("body")
            for i in range(4):
                ctx.on_item(i)
                yield i

        supervised = supervise(
            body,
            max_retries=2,
            backend="process",
            heartbeat_interval=0.05,
            restart="replay",
        )
        with pytest.raises(RetryExhaustedError) as info:
            list(supervised.iterate())
        assert supervised.failures == 3
        assert isinstance(info.value.__cause__, PipeWorkerLost)

    def test_state_dir_counters_span_incarnations(self, tmp_path):
        # In-memory attempt counters reset in each forked child; the
        # file-backed counter gives respawns true attempt numbers.
        plan = FaultPlan(state_dir=str(tmp_path))
        assert plan.enter("s").attempt == 1
        assert plan.enter("s").attempt == 2
        assert plan.attempts("s") == 2
        assert plan.attempts("other") == 0


class TestDegradation:
    def test_started_coexpr_degrades(self):
        coexpr = counted(5)
        coexpr.activate()  # parent-side position state
        pipe = proc_pipe(CoExpression(lambda: iter([99]), name="x"))
        pipe.coexpr = coexpr
        assert spawn_unsafe_reason(pipe, default_context()) is not None

    def test_pipe_fed_stage_degrades_and_streams(self):
        upstream = source_pipe(range(5))
        piped = stage(
            lambda x: x * 10,
            upstream,
            backend="process",
            heartbeat_interval=0.05,
        ).start()
        assert piped.degraded is not None
        assert "in-parent" in piped.degraded
        assert list(piped.iterate()) == [0, 10, 20, 30, 40]

    def test_live_iterator_in_env_degrades(self):
        shared = iter(range(10))

        def body(src):
            yield from src

        pipe = proc_pipe(CoExpression(body, lambda: (shared,), name="it")).start()
        assert pipe.degraded is not None
        assert "iterator" in pipe.degraded
        assert list(pipe.iterate()) == list(range(10))

    def test_channel_in_env_degrades(self):
        from repro.coexpr.channel import Channel

        chan = Channel()
        for i in range(3):
            chan.put(i)
        chan.close()

        def body(c):
            while True:
                try:
                    yield c.take()
                except Exception:
                    return

        pipe = proc_pipe(CoExpression(body, lambda: (chan,), name="chan"))
        reason = spawn_unsafe_reason(pipe, default_context())
        assert reason is not None and "Channel" in reason

    def test_unpicklable_body_degrades_under_spawn(self):
        # Under a spawn context the (factory, env) payload must pickle;
        # a closure over a local can't, so the pipe silently runs as a
        # thread instead of erroring.
        local_secret = object()

        def body():
            yield id(local_secret)

        pipe = Pipe(
            CoExpression(body, name="closure"),
            backend="process",
            mp_context=multiprocessing.get_context("spawn"),
        ).start()
        assert pipe.degraded is not None
        assert "picklable" in pipe.degraded
        assert list(pipe.iterate()) == [id(local_secret)]

    def test_degraded_event_emitted(self):
        tracer = Tracer()
        with tracer.lifecycle():
            upstream = source_pipe(range(3))
            piped = stage(lambda x: x, upstream, backend="process").start()
            list(piped.iterate())
        kinds = [e.kind for e in tracer.events]
        assert EventKind.DEGRADED in kinds
        assert EventKind.SPAWN not in kinds


class TestCancellation:
    def test_cancel_stops_child_process(self):
        def body():
            i = 0
            while True:
                yield i
                i += 1

        pipe = proc_pipe(CoExpression(body, name="endless"), capacity=4).start()
        assert pipe.take() == 0
        worker = pipe._tier_worker
        pipe.cancel(join=True)
        assert not worker.process.is_alive()
        # Cancel drains whatever was already buffered, then fails —
        # same contract as the thread backend.
        for _ in range(10):
            if pipe.take() is FAIL:
                break
        assert pipe.take() is FAIL

    def test_cancel_reaches_the_child_as_wire_cancel(self):
        # The child's session stops on the cancel envelope and exits on
        # its own: exit code 0, not the reap's SIGTERM (-15).
        def body():
            i = 0
            while True:
                yield i
                i += 1

        pipe = proc_pipe(CoExpression(body, name="endless"), capacity=4).start()
        assert pipe.take() == 0
        process = pipe._tier_worker.process
        assert pipe.cancel(join=True, timeout=5.0)
        assert process.exitcode == 0

    def test_double_cancel_is_noop(self):
        pipe = proc_pipe(counted(1000), capacity=4).start()
        pipe.take()
        pipe.cancel(join=True)
        pipe.cancel(join=True)  # must not raise or double-fire
        for _ in range(10):
            if pipe.take() is FAIL:
                break
        assert pipe.take() is FAIL


class TestMonitoring:
    def test_spawn_and_loss_events(self):
        def body():
            yield 1
            os._exit(KILLED_EXIT)

        tracer = Tracer()
        with tracer.lifecycle():
            pipe = proc_pipe(CoExpression(body, name="victim")).start()
            with pytest.raises(PipeWorkerLost):
                list(pipe.iterate())
        kinds = [e.kind for e in tracer.events]
        assert EventKind.SPAWN in kinds
        assert EventKind.WORKER_LOST in kinds

    def test_process_stats_summary(self):
        def body():
            yield 1
            os._exit(KILLED_EXIT)

        tracer = Tracer()
        with tracer.lifecycle():
            pipe = proc_pipe(CoExpression(body, name="victim")).start()
            with pytest.raises(PipeWorkerLost):
                list(pipe.iterate())
            upstream = source_pipe(range(2))
            degraded = stage(lambda x: x, upstream, backend="process").start()
            list(degraded.iterate())
        summary = tracer.summary()
        victim = summary["pipe:victim"]
        assert len(victim[EventKind.SPAWN]) == 1
        assert [lost["exitcode"] for lost in victim[EventKind.WORKER_LOST]] == [
            KILLED_EXIT
        ]
        reasons = [
            reason
            for kinds in summary.values()
            for reason in kinds.get(EventKind.DEGRADED, ())
        ]
        assert reasons and reasons[0]


class TestSchedulerProcessAccounting:
    def test_shutdown_reaps_child_processes(self):
        # The child idles (beating) after its first value, so the pump
        # is parked on the connection — shutdown must terminate the
        # child, let the pump observe the death, and untrack it.
        def body():
            yield 0
            time.sleep(60)
            yield 1  # pragma: no cover

        scheduler = PipeScheduler()
        pipe = Pipe(
            CoExpression(body, name="idler"),
            backend="process",
            scheduler=scheduler,
            heartbeat_interval=0.05,
        ).start()
        assert pipe.take() == 0
        process = pipe._tier_worker.process
        scheduler.shutdown(timeout=5.0)
        assert not process.is_alive()
        assert scheduler.tracked_processes == 0
        assert scheduler.leaked(join_timeout=1.0) == []

    def test_track_after_shutdown_raises(self):
        scheduler = PipeScheduler()
        scheduler.shutdown()
        with pytest.raises(SchedulerShutdownError):
            Pipe(
                CoExpression(lambda: iter([1]), name="late"),
                backend="process",
                scheduler=scheduler,
            ).start()


class TestDataParallelProcessBackend:
    def test_map_reduce_matches_thread_backend(self):
        source = list(range(40))
        threaded = DataParallel(chunk_size=10).reduce(
            lambda x: x * x, source, lambda a, b: a + b, 0
        )
        processed = DataParallel(chunk_size=10, backend="process").reduce(
            lambda x: x * x, source, lambda a, b: a + b, 0
        )
        assert processed == threaded == sum(i * i for i in source)

    def test_map_flat_ordered(self):
        dp = DataParallel(chunk_size=4, backend="process")
        assert list(dp.map_flat(lambda x: x + 1, range(10))) == list(
            range(1, 11)
        )

    def test_per_call_backend_override(self):
        dp = DataParallel(chunk_size=5)  # thread default
        total = dp.reduce(
            lambda x: x, range(10), lambda a, b: a + b, 0, backend="process"
        )
        assert total == sum(range(10))

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            DataParallel(backend="fiber")
        dp = DataParallel()
        with pytest.raises(ValueError, match="backend"):
            list(dp.map_flat(lambda x: x, range(3), backend="fiber"))
