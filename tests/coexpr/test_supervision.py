"""The supervision layer: deadlines, retry/backoff, cancellation, leaks."""

import sys
import threading
import time

import pytest

from repro.errors import (
    PipeTimeoutError,
    RetryExhaustedError,
    SchedulerShutdownError,
)
from repro.runtime.failure import FAIL
from repro.coexpr.channel import Channel
from repro.coexpr.coexpression import CoExpression
from repro.coexpr.future import MVar
from repro.coexpr.pipe import Pipe
from repro.coexpr.calculus import refresh
from repro.coexpr.patterns import fan_out, pipeline, source_pipe
from repro.coexpr.scheduler import PipeScheduler
from repro.coexpr.supervision import (
    NO_BACKOFF,
    BackoffPolicy,
    FaultPlan,
    supervise,
    supervised_pipeline,
    supervised_stage,
)
from repro.monitor import EventKind, Tracer


class TestBackoffPolicy:
    def test_exponential_schedule(self):
        policy = BackoffPolicy(initial=0.1, multiplier=2.0, max_delay=1.0)
        assert [policy.delay(i) for i in (1, 2, 3, 4, 5)] == [
            0.1,
            0.2,
            0.4,
            0.8,
            1.0,  # capped
        ]

    def test_no_backoff_is_instant(self):
        assert NO_BACKOFF.delay(1) == 0.0
        assert NO_BACKOFF.delay(9) == 0.0

    def test_retry_is_one_based(self):
        with pytest.raises(ValueError):
            BackoffPolicy().delay(0)

    def test_default_has_no_jitter(self):
        # Regression: adding the jitter option must not change the
        # default schedule — same deterministic exponential as ever.
        policy = BackoffPolicy(initial=0.1, multiplier=2.0, max_delay=1.0)
        assert not policy.jitter
        assert [policy.delay(i) for i in (1, 2, 3)] == [
            policy.delay(i) for i in (1, 2, 3)
        ]
        assert policy.delay(2) == 0.2

    def test_full_jitter_draws_within_the_exponential_cap(self):
        policy = BackoffPolicy(
            initial=0.1, multiplier=2.0, max_delay=1.0, jitter=True
        )
        # Full jitter: delay = U[0, 1) * min(initial * m^(n-1), cap).
        for retry, cap in ((1, 0.1), (2, 0.2), (3, 0.4), (4, 0.8), (5, 1.0)):
            assert policy.delay(retry, rand=lambda: 0.0) == 0.0
            assert policy.delay(retry, rand=lambda: 0.5) == pytest.approx(
                0.5 * cap
            )
            for _ in range(50):
                assert 0.0 <= policy.delay(retry) < cap

    def test_jitter_decorrelates_draws(self):
        policy = BackoffPolicy(
            initial=1.0, multiplier=1.0, max_delay=1.0, jitter=True
        )
        draws = {policy.delay(1) for _ in range(20)}
        assert len(draws) > 1  # a herd of reconnects spreads out


class TestFaultPlan:
    def test_counts_attempts_per_stage(self):
        plan = FaultPlan()
        plan.enter("a")
        plan.enter("a")
        plan.enter("b")
        assert plan.attempts("a") == 2
        assert plan.attempts("b") == 1
        assert plan.attempts("never") == 0

    def test_fail_at_body_start(self):
        plan = FaultPlan().fail_stage("s", on_attempts=(1,), error=ValueError)
        with pytest.raises(ValueError, match="injected fault"):
            plan.enter("s")
        plan.enter("s")  # attempt 2 is clean

    def test_fail_after_items(self):
        plan = FaultPlan().fail_stage("s", on_attempts=(1,), after_items=2)
        ctx = plan.enter("s")
        ctx.on_item("x")
        with pytest.raises(RuntimeError):
            ctx.on_item("y")

    def test_delay_uses_injected_sleep(self):
        slept = []
        plan = FaultPlan(sleep=slept.append).delay_stage("s", 0.5)
        ctx = plan.enter("s")
        ctx.on_item("x")
        ctx.on_item("y")
        assert slept == [0.5, 0.5]


class TestSupervisedSource:
    def test_clean_source_passes_through(self):
        sp = supervise(lambda: iter(range(5)), sleep=lambda d: None)
        assert list(sp) == [0, 1, 2, 3, 4]
        assert sp.failures == 0

    def test_replay_restart_is_exactly_once(self):
        """A deterministic source that crashes mid-stream twice: the
        consumer still sees each value exactly once."""
        runs = {"n": 0}

        def flaky():
            runs["n"] += 1
            attempt = runs["n"]

            def gen():
                for i in range(6):
                    if attempt <= 2 and i == 3:
                        raise RuntimeError("mid-stream crash")
                    yield i

            return gen()

        slept = []
        sp = supervise(
            flaky,
            max_retries=3,
            backoff=BackoffPolicy(initial=0.01, multiplier=2.0),
            sleep=slept.append,
        )
        assert list(sp) == [0, 1, 2, 3, 4, 5]
        assert runs["n"] == 3
        assert sp.failures == 2
        assert slept == [0.01, 0.02]  # deterministic backoff, no real sleep

    def test_exhausted_budget_raises_with_cause(self):
        def always_dies():
            raise OSError("permanent")
            yield

        sp = supervise(always_dies, max_retries=2, sleep=lambda d: None)
        with pytest.raises(RetryExhaustedError) as info:
            sp.take()
        assert info.value.attempts == 3  # initial run + 2 retries
        assert isinstance(info.value.__cause__, OSError)

    def test_zero_retries_fails_on_first_crash(self):
        def dies():
            raise KeyError("nope")
            yield

        sp = supervise(dies, max_retries=0, sleep=lambda d: None)
        with pytest.raises(RetryExhaustedError):
            sp.take()

    def test_take_after_cancel_fails(self):
        sp = supervise(lambda: iter(range(100)), capacity=1, sleep=lambda d: None)
        assert sp.take() == 0
        assert sp.cancel(join=True, timeout=2)
        assert sp.take() is FAIL


def _crashing_source(crashes, count, pace=0.0):
    """A deterministic source factory over range(count): run *k* raises
    at ``crashes[k-1]``, and every run after the last crash is clean.
    A *pace* sleeps that long before each item."""
    runs = {"n": 0}

    def flaky():
        runs["n"] += 1
        crash_at = crashes[runs["n"] - 1] if runs["n"] <= len(crashes) else None

        def gen():
            for i in range(count):
                if pace:
                    time.sleep(pace)
                if i == crash_at:
                    raise RuntimeError("mid-stream crash")
                yield i

        return gen()

    return flaky


class TestOneRestartRule:
    """A supervised pipe is a Pipe, and its restart is Pipe's own."""

    def test_refresh_of_a_supervised_pipe(self):
        sp = supervise(lambda: iter(range(5)), sleep=lambda d: None)
        assert sp.take() == 0
        fresh = refresh(sp)  # ^sp
        assert isinstance(sp, Pipe) and sp.icon_type() == "pipe"
        assert fresh is not sp
        assert fresh.options is sp.options
        assert fresh._policy is sp._policy
        assert fresh.failures == 0
        assert list(fresh) == [0, 1, 2, 3, 4]
        sp.cancel(join=True, timeout=2)

    @pytest.mark.parametrize(
        "crashes, consumers", [((10,), 2), ((5, 15, 25), 4)], ids=["one", "stress"]
    )
    def test_fan_out_over_a_supervised_pipe(self, crashes, consumers, pipe_scheduler):
        # Competing consumers share the supervised pipe's channel; a
        # restart's replay must not hand any of them a value twice.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sp = supervise(
                _crashing_source(crashes, 30), backoff=NO_BACKOFF, sleep=lambda d: None
            )
            outs = fan_out(sp, consumers)
            got = [[] for _ in outs]
            threads = [
                threading.Thread(target=lambda i=i: got[i].extend(outs[i]))
                for i in range(consumers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert sorted(sum(got, [])) == list(range(30))  # each value once
        assert sp.failures == len(crashes)
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    def test_fan_out_keeps_sharing_after_a_restart(self, pipe_scheduler):
        # The consumer that takes the crash restarts the pipe; the other
        # finds the crashed incarnation's channel closed, and must wait
        # for the restart instead of reading the end of the stream.
        sp = supervise(
            _crashing_source((100,), 400, pace=0.0002),
            backoff=NO_BACKOFF,
            sleep=lambda d: None,
        )
        outs = fan_out(sp, 2)
        got = [[] for _ in outs]
        threads = [
            threading.Thread(target=lambda i=i: got[i].extend(outs[i])) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert sorted(sum(got, [])) == list(range(400))  # each value once
        assert sp.failures == 1
        # Both consumers took until the end of the stream, not one alone.
        assert all(max(values) >= 350 for values in got), [len(v) for v in got]
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    def test_stage_over_an_iterable_keeps_the_shared_snapshot(self, pipe_scheduler):
        plan = FaultPlan().fail_stage("s", on_attempts=(1,))
        mid = supervised_stage(
            lambda x: x,
            [1, 2, 3, 4],
            sleep=lambda d: None,
            fault_plan=plan,
            stage_key="s",
        )
        assert list(mid) == [1, 2, 3, 4]
        assert mid.failures == 1
        assert plan.attempts("s") == 2


class TestSupervisedPipeline:
    def test_source_failure_reaches_the_consumer(self, pipe_scheduler):
        # The source's own error is not a crash of the stage: the stage
        # passes it on, instead of restarting over a dead upstream and
        # reading its end as the end of the stream.
        def src():
            for i in range(10):
                if i == 5:
                    raise RuntimeError("source died")
                yield i

        chain = supervised_pipeline(src, lambda x: x * 10, max_retries=3)
        got = []
        with pytest.raises(RuntimeError, match="source died"):
            for value in chain:
                got.append(value)
        assert got == [0, 10, 20, 30, 40]
        assert chain.failures == 0
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    def test_exhausted_stage_reaches_the_consumer(self, pipe_scheduler):
        plan = FaultPlan().fail_stage(
            1, on_attempts=(1, 2, 3, 4, 5), error=OSError, after_items=2
        )
        chain = supervised_pipeline(
            range(100),
            lambda x: x,
            lambda x: x * 10,
            max_retries=2,
            sleep=lambda d: None,
            fault_plan=plan,
        )
        got = []
        with pytest.raises(RetryExhaustedError) as info:
            for value in chain:
                got.append(value)
        assert got == [0, 20, 40]  # each attempt loses the item it held
        assert isinstance(info.value.__cause__, OSError)
        assert chain.upstream.failures == 3
        assert chain.failures == 0
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    def test_acceptance_middle_stage_retried(self, pipe_scheduler):
        """The issue's acceptance scenario: the middle stage raises on
        attempts 1 and 2 under supervise(max_retries=3, backoff=...);
        the pipeline completes with the correct results, deterministically
        (fault plan + injected sleep), and nothing leaks."""
        plan = FaultPlan()
        plan.fail_stage(1, on_attempts=(1, 2), error=ValueError)
        slept = []

        chain = supervised_pipeline(
            range(8),
            lambda x: x * x,
            str,
            max_retries=3,
            backoff=BackoffPolicy(initial=0.01, multiplier=2.0, max_delay=1.0),
            sleep=slept.append,
            fault_plan=plan,
        )
        assert list(chain) == [str(x * x) for x in range(8)]
        assert plan.attempts(1) == 3  # two injected crashes + the success
        assert plan.attempts(2) == 1  # the str stage never crashed
        assert slept == [0.01, 0.02]
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    def test_resume_stage_loses_nothing_on_start_faults(self, pipe_scheduler):
        plan = FaultPlan().fail_stage("mid", on_attempts=(1,))
        src = source_pipe(range(10))
        mid = supervised_stage(
            lambda x: x + 100,
            src,
            max_retries=2,
            backoff=NO_BACKOFF,
            sleep=lambda d: None,
            fault_plan=plan,
            stage_key="mid",
        )
        assert list(mid) == [x + 100 for x in range(10)]
        assert plan.attempts("mid") == 2

    def test_exhausted_stage_cancels_upstream(self, pipe_scheduler):
        plan = FaultPlan().fail_stage("mid", on_attempts=(1, 2, 3), error=OSError)
        src = source_pipe(range(1000), capacity=2)  # bounded: would orphan
        mid = supervised_stage(
            lambda x: x,
            src,
            max_retries=2,
            sleep=lambda d: None,
            fault_plan=plan,
            stage_key="mid",
        )
        with pytest.raises(RetryExhaustedError):
            list(mid)
        mid.cancel(join=True, timeout=2)
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    def test_cancel_propagates_whole_chain(self, pipe_scheduler):
        chain = supervised_pipeline(
            range(100_000),
            lambda x: x + 1,
            lambda x: x * 2,
            capacity=2,
            sleep=lambda d: None,
        )
        assert chain.take() == 2
        chain.cancel(join=True, timeout=2)
        assert pipe_scheduler.leaked(join_timeout=2.0) == []


class TestDeadlines:
    def test_pipe_take_timeout_within_2x(self, pipe_scheduler):
        release = threading.Event()

        def stalls():
            yield 1
            release.wait(30)  # cooperative stall
            yield 2

        pipe = Pipe(CoExpression(stalls), take_timeout=0.2)
        assert pipe.take() == 1
        start = time.monotonic()
        with pytest.raises(PipeTimeoutError):
            pipe.take()
        assert time.monotonic() - start < 0.4  # within 2x the deadline
        release.set()
        pipe.cancel(join=True, timeout=2)
        pipe_scheduler.shutdown(wait=True, timeout=2)
        assert pipe_scheduler.leaked() == []

    def test_pipeline_take_timeout_threads_through(self, pipe_scheduler):
        release = threading.Event()

        def slow(x):
            if x == 2:
                release.wait(30)
            return x

        chain = pipeline(range(5), slow, take_timeout=0.2)
        assert chain.take() == 0
        assert chain.take() == 1
        with pytest.raises(PipeTimeoutError):
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                chain.take()
        release.set()
        chain.cancel(join=True, timeout=2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda src: pipeline(src, lambda x: x, take_timeout=0.1),
            lambda src: supervised_pipeline(
                src, lambda x: x, lambda x: x, take_timeout=0.1
            ),
        ],
        ids=["pipeline", "supervised_pipeline"],
    )
    def test_upstream_stall_loses_no_data(self, build, pipe_scheduler):
        # A stall above a stage is longer than take_timeout: the
        # consumer sees timeouts, and the chain stays usable — the stage
        # bodies take from their upstream without a timeout.
        def slow():
            for i in range(4):
                time.sleep(0.3)
                yield i

        chain = build(slow)
        values, timeouts = [], 0
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                value = chain.take()
            except PipeTimeoutError:
                timeouts += 1
                continue
            if value is FAIL:
                break
            values.append(value)
        chain.cancel(join=True, timeout=2)
        assert values == [0, 1, 2, 3]
        assert timeouts >= 1

    def test_per_call_override_beats_pipe_default(self, pipe_scheduler):
        release = threading.Event()

        def stalls():
            release.wait(30)
            yield 1

        pipe = Pipe(CoExpression(stalls))  # no default deadline
        with pytest.raises(PipeTimeoutError):
            pipe.take(timeout=0.05)
        release.set()
        pipe.cancel(join=True, timeout=2)

    def test_timeout_is_not_retried_by_supervision(self, pipe_scheduler):
        release = threading.Event()

        def stalls():
            release.wait(30)
            yield 1

        sp = supervise(stalls, take_timeout=0.1, sleep=lambda d: None)
        with pytest.raises(PipeTimeoutError):
            sp.take()
        assert sp.failures == 0  # slow is not crashed
        release.set()
        sp.cancel(join=True, timeout=2)

    def test_supervised_timeout_leaves_no_threads(self, pipe_scheduler):
        """The acceptance leak criterion: after a deadline expiry the
        consumer cancels; leaked() then reports zero worker threads."""
        gate = Channel()  # never fed: the producer blocks cooperatively

        def stalls():
            yield 1
            yield gate.take()  # blocked until cancel closes the chain

        sp = supervise(stalls, take_timeout=0.2, sleep=lambda d: None)
        assert sp.take() == 1
        with pytest.raises(PipeTimeoutError):
            sp.take()
        gate.close()
        assert sp.cancel(join=True, timeout=2)
        pipe_scheduler.shutdown(wait=True, timeout=2)
        assert pipe_scheduler.leaked() == []


class TestDeadlineDrift:
    """Satellite: waits use one monotonic deadline, not a reset-per-wakeup."""

    def _spurious_wakeups(self, condition, lock, stop):
        while not stop.is_set():
            time.sleep(0.02)
            with lock:
                condition.notify_all()

    def test_channel_take_total_wait_bounded(self):
        channel = Channel()
        stop = threading.Event()
        waker = threading.Thread(
            target=self._spurious_wakeups,
            args=(channel._not_empty, channel._lock, stop),
        )
        waker.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                channel.take(timeout=0.25)
        finally:
            stop.set()
            waker.join(timeout=2)
        # A reset-per-wakeup wait would be extended past 0.25s by every
        # 20ms notification; the deadline form expires on schedule.
        assert time.monotonic() - start < 0.45

    def test_channel_put_total_wait_bounded(self):
        channel = Channel(capacity=1)
        channel.put("full")
        stop = threading.Event()
        waker = threading.Thread(
            target=self._spurious_wakeups,
            args=(channel._not_full, channel._lock, stop),
        )
        waker.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                channel.put("blocked", timeout=0.25)
        finally:
            stop.set()
            waker.join(timeout=2)
        assert time.monotonic() - start < 0.45

    def test_mvar_take_total_wait_bounded(self):
        cell = MVar()
        stop = threading.Event()
        waker = threading.Thread(
            target=self._spurious_wakeups,
            args=(cell._filled, cell._lock, stop),
        )
        waker.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                cell.take(timeout=0.25)
        finally:
            stop.set()
            waker.join(timeout=2)
        assert time.monotonic() - start < 0.45

    def test_mvar_put_read_expire(self):
        cell = MVar()
        cell.put(1)
        with pytest.raises(PipeTimeoutError):
            cell.put(2, timeout=0.05)
        empty = MVar()
        with pytest.raises(PipeTimeoutError):
            empty.read(timeout=0.05)


class TestLifecycleEvents:
    def test_retry_and_start_events_observable(self, pipe_scheduler):
        plan = FaultPlan().fail_stage(1, on_attempts=(1,), error=ValueError)
        tracer = Tracer()
        with tracer.lifecycle():
            chain = supervised_pipeline(
                range(3),
                lambda x: x,
                backoff=NO_BACKOFF,
                sleep=lambda d: None,
                fault_plan=plan,
            )
            assert list(chain) == [0, 1, 2]
        kinds = {event.kind for event in tracer.events}
        assert EventKind.START in kinds
        assert EventKind.RETRY in kinds
        retries = [e for e in tracer.events if e.kind == EventKind.RETRY]
        assert retries[0].value["attempt"] == 1

    def test_timeout_and_cancel_events(self, pipe_scheduler):
        release = threading.Event()

        def stalls():
            release.wait(30)
            yield 1

        tracer = Tracer()
        with tracer.lifecycle():
            pipe = Pipe(CoExpression(stalls, name="staller"), take_timeout=0.05)
            with pytest.raises(PipeTimeoutError):
                pipe.take()
            release.set()
            pipe.cancel(join=True, timeout=2)
        kinds = {event.kind for event in tracer.events}
        assert EventKind.TIMEOUT in kinds
        assert EventKind.CANCEL in kinds

    def test_exhaust_event(self, pipe_scheduler):
        def dies():
            raise OSError("permanent")
            yield

        tracer = Tracer()
        with tracer.lifecycle():
            sp = supervise(dies, max_retries=1, sleep=lambda d: None)
            with pytest.raises(RetryExhaustedError):
                sp.take()
        assert EventKind.EXHAUST in {event.kind for event in tracer.events}

    def test_no_events_collected_when_not_subscribed(self, pipe_scheduler):
        tracer = Tracer()  # never subscribed to the lifecycle bus
        pipe = Pipe(CoExpression(lambda: iter([1])))
        assert pipe.take() == 1
        assert pipe.take() is FAIL
        assert tracer.events == []


class TestSchedulerLifecycle:
    def test_max_workers_bounds_thread_creation(self):
        scheduler = PipeScheduler(max_workers=2)
        release = threading.Event()
        started = []

        def body():
            started.append(1)
            release.wait(10)

        for _ in range(2):
            scheduler.submit(body)
        # The third submit must block *before* spawning a thread.
        third_returned = threading.Event()

        def third():
            scheduler.submit(body)
            third_returned.set()

        helper = threading.Thread(target=third, daemon=True)
        helper.start()
        time.sleep(0.1)
        assert len(started) == 2  # the capped body has not started
        assert not third_returned.is_set()
        assert len(scheduler.leaked()) == 2  # only two threads exist
        release.set()
        assert third_returned.wait(2)
        helper.join(timeout=2)
        scheduler.shutdown(wait=True, timeout=2)
        assert scheduler.leaked() == []

    def test_shutdown_joins_workers(self):
        scheduler = PipeScheduler()
        done = []
        scheduler.submit(lambda: (time.sleep(0.1), done.append(1)))
        scheduler.shutdown(wait=True)
        assert done == [1]
        assert scheduler.leaked() == []

    def test_shutdown_idempotent_with_inflight_workers(self):
        scheduler = PipeScheduler()
        release = threading.Event()
        scheduler.submit(lambda: release.wait(10))
        scheduler.shutdown(wait=True, timeout=0.1)  # expires, doesn't hang
        scheduler.shutdown(wait=True, timeout=0.1)  # idempotent
        assert len(scheduler.leaked()) == 1  # honestly reported
        release.set()
        assert scheduler.leaked(join_timeout=2.0) == []

    def test_submit_after_shutdown_raises(self):
        scheduler = PipeScheduler()
        scheduler.shutdown()
        with pytest.raises(SchedulerShutdownError):
            scheduler.submit(lambda: None)

    def test_pooled_submit_returns_joinable_handle(self):
        scheduler = PipeScheduler(max_workers=2, pooled=True)
        handle = scheduler.submit(lambda: time.sleep(0.05))
        assert handle.join(timeout=2)
        assert not handle.is_alive()
        scheduler.shutdown(wait=True)

    def test_handle_tracks_running_body(self):
        scheduler = PipeScheduler()
        release = threading.Event()
        handle = scheduler.submit(lambda: release.wait(10))
        assert handle.is_alive()
        assert not handle.join(timeout=0.05)
        release.set()
        assert handle.join(timeout=2)


class TestBackoffInterrupt:
    """cancel() during a real (default-sleep) backoff returns immediately."""

    def test_cancel_interrupts_default_backoff_sleep(self):
        # A producer that always crashes, supervised with a backoff far
        # longer than any test budget and the *default* sleep: the first
        # crash parks the consumer in the backoff wait, and cancel must
        # interrupt that wait rather than serve out the 30 seconds.
        def always_dies():
            raise RuntimeError("crash")
            yield  # pragma: no cover - makes this a generator function

        sp = supervise(
            always_dies,
            max_retries=5,
            backoff=BackoffPolicy(initial=30.0, multiplier=1.0, max_delay=30.0),
        )
        results = []

        def consume():
            results.append(sp.take())

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.3)  # let the crash land and the backoff wait begin
        started = time.monotonic()
        sp.cancel(join=True, timeout=5.0)
        consumer.join(5.0)
        elapsed = time.monotonic() - started
        assert not consumer.is_alive(), "consumer still parked in backoff"
        assert elapsed < 5.0, f"cancel took {elapsed:.1f}s — backoff not interrupted"
        assert results == [FAIL]  # cancelled mid-backoff: a clean FAIL, no error

    def test_injected_sleep_still_sees_exact_delays(self):
        # The interruptible wait only replaces the *default* sleep; an
        # injected sleep still receives the exact computed delays the
        # deterministic backoff tests depend on.
        slept = []
        runs = {"n": 0}

        def flaky():
            runs["n"] += 1

            def gen():
                if runs["n"] < 3:
                    raise RuntimeError("crash")
                yield from range(3)

            return gen()

        sp = supervise(
            flaky,
            max_retries=5,
            backoff=BackoffPolicy(initial=0.1, multiplier=2.0, max_delay=1.0),
            sleep=slept.append,
        )
        assert list(sp) == [0, 1, 2]
        assert slept == [0.1, 0.2]
