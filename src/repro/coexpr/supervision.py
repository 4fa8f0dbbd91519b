"""Supervised pipes — restart policies, deadlines, and fault injection.

The paper's pipes (III.B) are long-lived worker threads; this module is
the lifecycle discipline around them, in the spirit of hProlog's
high-level multi-threading (explicit management built over message
queues) and of snapshot-based restartable computation: the calculus
already has the restart primitive — ``^c`` (refresh) rebuilds a
co-expression from its original environment snapshot — so supervision is
"retry via refresh" with a budget and a backoff.

Three pieces:

* :class:`BackoffPolicy` — exponential backoff with an injectable
  ``sleep`` (tests pass a fake and run deterministically).
* :class:`SupervisedPipe` / :func:`supervise` — wraps an expression the
  way ``|>`` does, but a producer crash consumes a retry instead of
  poisoning the channel: the co-expression is refreshed and re-run.  Two
  restart modes:

  - ``"replay"`` (self-contained sources): the refreshed body reproduces
    the stream from the beginning, so already-delivered results are
    skipped — exactly-once delivery for deterministic bodies.
  - ``"resume"`` (channel-fed stages): the body iterates a shared
    upstream whose consumed items are gone; the refreshed body simply
    continues from the upstream's current position.

* :class:`FaultPlan` — deterministic fault injection for tests: fail
  stage *N* on attempt *K* (at body start or after *M* items), delay a
  stage's puts by a fixed amount, or — for process-backed workers —
  *kill* the worker outright (``kill_stage``: ``os._exit``, the chaos
  test for the heartbeat watchdog).  Attempt counters are exposed, and
  ``state_dir=`` moves them into files so they survive process
  boundaries: a respawned child sees the true attempt number even
  though it shares no memory with its predecessors.

A lost process worker (:class:`~repro.errors.PipeWorkerLost`, from the
heartbeat watchdog of :mod:`repro.coexpr.proc`) is a retryable fault
like any producer crash: restart respawns the child and replays or
resumes from the supervision resume point, honoring the backoff.

Every supervision decision (start, retry, cancel, timeout, exhaust) is
emitted on the monitor lifecycle bus, so a
:class:`~repro.monitor.Tracer` can observe exactly what the supervisor
did and when.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..errors import (
    InjectedDisconnect,
    PipeError,
    PipeTimeoutError,
    RetryExhaustedError,
)
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.failure import FAIL
from ..runtime.iterator import IconIterator
from .coexpression import CoExpression, coexpr_of
from .dataparallel import iter_source
from .options import PipeOptions, options_from
from .patterns import _stage_body, _whole_chain, source_pipe
from .pipe import Pipe
from .scheduler import PipeScheduler

_UNSET = object()


# ---------------------------------------------------------------------------
# Backoff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff: ``initial * multiplier**(retry-1)``, capped.

    Purely arithmetic — the *sleep* (and any clock) is injected where the
    policy is used, so tests can run restart schedules instantly while
    asserting the exact delays that would have been slept.

    ``jitter=True`` turns on **full jitter**: each delay is drawn
    uniformly from ``[0, schedule]`` instead of being the schedule
    itself.  The point is the cluster tier: when a replica dies it
    orphans *every* client it was serving at once, and a deterministic
    schedule marches all of them back onto the next replica in lockstep
    — a synchronized reconnect storm at exactly the backoff instants.
    Jitter decorrelates the herd.  The default stays deterministic so
    test schedules (and every existing policy) are byte-for-byte
    unchanged.
    """

    initial: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: bool = False

    def __post_init__(self) -> None:
        if self.initial < 0 or self.max_delay < 0 or self.multiplier < 0:
            raise ValueError("backoff parameters must be non-negative")

    def delay(
        self, retry: int, rand: Callable[[], float] | None = None
    ) -> float:
        """Delay before the *retry*-th restart (1-based).

        *rand* (a ``() -> [0, 1)`` callable) injects the jitter draw for
        deterministic tests; ignored without ``jitter``.
        """
        if retry < 1:
            raise ValueError("retry is 1-based")
        base = min(self.initial * (self.multiplier ** (retry - 1)), self.max_delay)
        if not self.jitter:
            return base
        draw = rand() if rand is not None else random.random()
        return draw * base


#: Sleep-free policy for tests and "retry immediately" callers.
NO_BACKOFF = BackoffPolicy(initial=0.0, multiplier=1.0, max_delay=0.0)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class _ProcessKill:
    """A rule action that hard-kills the *worker process* (``os._exit``).

    Only meaningful in a process-backed worker: the child dies without
    flushing, reporting, or running ``finally`` blocks — exactly the
    fault class the heartbeat watchdog exists to catch.  (In a thread
    worker this would take the whole interpreter down; don't.)
    """

    __slots__ = ("exit_code",)

    def __init__(self, exit_code: int) -> None:
        self.exit_code = exit_code


class _ServerKill:
    """A rule action that hard-kills an in-process generator server.

    The cluster tier's chaos primitive: when the rule fires the held
    :class:`~repro.net.server.GeneratorServer` kills every live session
    *and* stops accepting — clients see torn connections, redials are
    refused, and routing must fail over to another replica.  Unlike
    :class:`_ProcessKill` this does not raise or exit: the fault arrives
    at the client through the socket, exactly as a real dead server's
    would.
    """

    __slots__ = ("server",)

    def __init__(self, server: Any) -> None:
        self.server = server


class _MembershipChurn:
    """A rule action that changes a :class:`~repro.net.cluster.ServerPool`'s
    fleet at an exact stream position.

    The membership tier's chaos primitive: when the rule fires, *join*
    members enter the pool (minimal remap — only the keys they now own
    move) and *leave* addresses retire, all while the triggering stream
    keeps running.  Like :class:`_ServerKill` it does not raise: the
    churn is environmental, and the stream must survive it — that
    surviving exactly-once is precisely what the sustained-churn suite
    asserts.
    """

    __slots__ = ("pool", "join", "leave")

    def __init__(self, pool: Any, join: tuple, leave: tuple) -> None:
        self.pool = pool
        self.join = join
        self.leave = leave


class _FaultContext:
    """Per-run view of a plan: one body execution of one stage."""

    __slots__ = ("_plan", "_stage", "attempt", "_items", "_fired")

    def __init__(self, plan: "FaultPlan", stage: Any, attempt: int) -> None:
        self._plan = plan
        self._stage = stage
        self.attempt = attempt
        self._items = 0
        #: Rule indices already fired this run: a non-raising action
        #: (kill_server) must not re-fire on every later item once its
        #: after_items bar is passed.
        self._fired: set = set()
        self._check(at_start=True)

    def _fire(self, action: Any, detail: str) -> None:
        if isinstance(action, _ProcessKill):  # pragma: no cover - child side
            os._exit(action.exit_code)
        if isinstance(action, _ServerKill):
            action.server.kill_sessions()
            action.server.shutdown(wait=False)
            return
        if isinstance(action, _MembershipChurn):
            for member in action.join:
                action.pool.add(member, source="chaos")
            for address in action.leave:
                action.pool.remove(address, source="chaos")
            return
        raise action(detail)

    def _check(self, at_start: bool) -> None:
        for index, rule in enumerate(self._plan._rules_for(self._stage)):
            on_attempts, after_items, action = rule
            if self.attempt not in on_attempts or index in self._fired:
                continue
            if at_start and after_items == 0:
                self._fired.add(index)
                self._fire(
                    action,
                    f"injected fault: stage {self._stage!r} attempt {self.attempt}",
                )
            if not at_start and 0 < after_items <= self._items:
                self._fired.add(index)
                self._fire(
                    action,
                    f"injected fault: stage {self._stage!r} attempt "
                    f"{self.attempt} after {self._items} items",
                )

    def on_item(self, item: Any) -> None:
        """Call before yielding each result: applies delays and
        after-items failures."""
        delay = self._plan._delay_for(self._stage)
        if delay:
            self._plan._sleep(delay)
        self._items += 1
        self._check(at_start=False)


class FaultPlan:
    """A deterministic schedule of injected faults, keyed by stage.

    Stages are identified by whatever key the caller uses (an int index
    from :func:`supervised_pipeline`, or any hashable for hand-built
    stages).  The plan is thread-safe; attempt counters are per-stage and
    increment each time a stage body (re)starts.

    ``state_dir`` (a directory path) moves the attempt counters into
    files, one byte appended per body start — the cross-process mode.  A
    process-backed worker runs its body in a child that shares no memory
    with the parent (or with its own respawned successors), so an
    in-memory counter would restart from zero on every respawn and an
    "attempt 1 only" fault would fire forever; the file counter gives
    every incarnation the true attempt number.
    """

    def __init__(
        self,
        sleep: Callable[[float], None] = time.sleep,
        state_dir: str | None = None,
    ) -> None:
        self._sleep = sleep
        self._state_dir = os.fspath(state_dir) if state_dir is not None else None
        self._lock = threading.Lock()
        self._attempts: dict[Any, int] = {}
        self._rules: dict[Any, list] = {}
        self._delays: dict[Any, float] = {}

    # -- authoring -----------------------------------------------------------

    def fail_stage(
        self,
        stage: Any,
        on_attempts: tuple = (1,),
        error: Callable[[str], BaseException] = RuntimeError,
        after_items: int = 0,
    ) -> "FaultPlan":
        """Make *stage* raise on the given attempts: immediately at body
        start (``after_items=0``) or after producing that many items."""
        with self._lock:
            self._rules.setdefault(stage, []).append(
                (tuple(on_attempts), after_items, error)
            )
        return self

    def delay_stage(self, stage: Any, delay: float) -> "FaultPlan":
        """Delay each of *stage*'s puts by *delay* seconds (via the
        plan's injectable sleep)."""
        with self._lock:
            self._delays[stage] = delay
        return self

    def kill_stage(
        self,
        stage: Any,
        on_attempts: tuple = (1,),
        after_items: int = 0,
        exit_code: int | None = None,
    ) -> "FaultPlan":
        """Make *stage* hard-kill its worker **process** (``os._exit``)
        on the given attempts — no flush, no error envelope, no
        ``finally``.  The chaos rule for the heartbeat watchdog; only
        use on ``backend="process"`` workers (in a thread worker it
        would exit the host interpreter).  Pair with ``state_dir`` so a
        respawned child does not re-match the attempt and die again.
        """
        if exit_code is None:
            from .proc import KILLED_EXIT

            exit_code = KILLED_EXIT
        with self._lock:
            self._rules.setdefault(stage, []).append(
                (tuple(on_attempts), after_items, _ProcessKill(exit_code))
            )
        return self

    def drop_connection(
        self,
        stage: Any,
        on_attempts: tuple = (1,),
        after_items: int = 0,
    ) -> "FaultPlan":
        """Make *stage*'s remote **connection** drop on the given
        attempts (session numbers, counted per route key).

        Fires in the client pump: the socket is torn down and the
        consumer sees an ordinary
        :class:`~repro.errors.PipeConnectionLost` with reason
        ``"injected connection drop"`` — after delivering *after_items*
        results (0 = at connect time, before any data).  On a
        :class:`~repro.net.cluster.ServerPool` the plan is armed via
        ``fault_plan=`` and stages are route keys (pipe names), so a
        chaos test can drop exactly the first session of exactly one
        stream and watch failover route the replay elsewhere.
        """
        with self._lock:
            self._rules.setdefault(stage, []).append(
                (tuple(on_attempts), after_items, InjectedDisconnect)
            )
        return self

    def kill_server(
        self,
        stage: Any,
        server: Any,
        on_attempts: tuple = (1,),
        after_items: int = 0,
    ) -> "FaultPlan":
        """Make *stage* kill the in-process generator *server* on the
        given attempts: every live session is killed and the listener
        closed, so clients see torn connections and redials are refused.

        The deterministic stand-in for SIGKILLing a replica: the client
        whose stream matches *stage* (a route key on a
        :class:`~repro.net.cluster.ServerPool`) pulls the trigger at an
        exact point — *after_items* delivered results — and the fault
        then reaches every client of that replica through the socket,
        like a real crash.
        """
        with self._lock:
            self._rules.setdefault(stage, []).append(
                (tuple(on_attempts), after_items, _ServerKill(server))
            )
        return self

    def churn_membership(
        self,
        stage: Any,
        pool: Any,
        join: tuple = (),
        leave: tuple = (),
        on_attempts: tuple = (1,),
        after_items: int = 0,
    ) -> "FaultPlan":
        """Make *stage* churn *pool*'s fleet on the given attempts:
        *join* members (any member spelling, including weighted
        triples) enter and *leave* addresses retire after the stage has
        delivered *after_items* results.

        The deterministic sustained-churn rule: chaos tests pin
        replicas joining and leaving at exact stream positions —
        mid-replay, mid-batch — and assert the sequence stays
        exactly-once while the ring remaps minimally under the
        running stream.  Fires once per matching attempt, from the
        client pump, without disturbing the triggering stream.
        """
        with self._lock:
            self._rules.setdefault(stage, []).append(
                (
                    tuple(on_attempts),
                    after_items,
                    _MembershipChurn(pool, tuple(join), tuple(leave)),
                )
            )
        return self

    # -- runtime hooks -------------------------------------------------------

    def _counter_path(self, stage: Any) -> str:
        digest = hashlib.md5(repr(stage).encode()).hexdigest()[:16]
        return os.path.join(self._state_dir, f"attempts-{digest}")

    def enter(self, stage: Any) -> _FaultContext:
        """Record a body (re)start for *stage*; may raise an injected
        fault before anything is consumed."""
        if self._state_dir is not None:
            # One O_APPEND byte per start: atomic enough for the
            # sequential respawns supervision performs, and visible to
            # every child incarnation.
            with open(self._counter_path(stage), "ab") as counter:
                counter.write(b"x")
                counter.flush()
            attempt = os.path.getsize(self._counter_path(stage))
            with self._lock:
                self._attempts[stage] = attempt
        else:
            with self._lock:
                attempt = self._attempts.get(stage, 0) + 1
                self._attempts[stage] = attempt
        return _FaultContext(self, stage, attempt)

    def attempts(self, stage: Any) -> int:
        """How many times *stage*'s body has started."""
        if self._state_dir is not None:
            try:
                return os.path.getsize(self._counter_path(stage))
            except OSError:
                return 0
        with self._lock:
            return self._attempts.get(stage, 0)

    def _rules_for(self, stage: Any) -> list:
        with self._lock:
            return list(self._rules.get(stage, ()))

    def _delay_for(self, stage: Any) -> float:
        with self._lock:
            return self._delays.get(stage, 0.0)


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------

class SupervisedPipe(IconIterator):
    """A pipe with a restart budget.

    Takes behave like :meth:`Pipe.take` until the producer raises; then,
    while retries remain, the co-expression is refreshed (``^c``) and run
    on a fresh pipe after the policy's backoff, instead of the error
    reaching the consumer.  When the budget is exhausted the take raises
    :class:`RetryExhaustedError` chained to the last producer error.

    Timeout expiry (:class:`PipeTimeoutError`) is *not* retried — a slow
    producer is not a crashed one; the caller decides whether to cancel.
    The same rule covers an end-to-end ``deadline``
    (:class:`~repro.errors.PipeDeadlineExceeded` subclasses it): there
    is no budget left to retry *in*, and because the one
    :class:`~repro.coexpr.deadline.Deadline` object is shared across
    restarts, a refreshed pipe cannot reset the clock either.
    """

    __slots__ = (
        "name",
        "max_retries",
        "backoff",
        "options",
        "take_timeout",
        "restart",
        "upstream",
        "_scheduler",
        "_sleep",
        "_cancel_event",
        "_coexpr",
        "_pipe",
        "_failures",
        "_delivered",
        "_skip",
        "_lock",
        "_cancelled",
    )

    def __init__(
        self,
        expr: Any,
        *,
        max_retries: int = 3,
        backoff: BackoffPolicy | None = None,
        scheduler: PipeScheduler | None = None,
        sleep: Callable[[float], None] = time.sleep,
        restart: str = "replay",
        upstream: Any = None,
        name: str | None = None,
        options: PipeOptions | None = None,
        **knobs: Any,
    ) -> None:
        """The knob keywords (or one ``options=``) are :class:`Pipe`'s —
        see the "Pipe options" table in ``docs/language.md`` — and every
        (re)spawned pipe runs with the one :class:`PipeOptions` they
        build.  So restarts share one ``deadline`` (a retry burns the
        same budget) and one server pool (suspicion and failover memory
        survive the refresh, so a reconnect does not re-dial the replica
        that just died).  With ``backend="process"`` a lost child, and
        with ``backend="remote"`` a lost connection, is a retryable
        fault like any producer crash: the restart respawns or
        reconnects."""
        if restart not in ("replay", "resume"):
            raise ValueError("restart must be 'replay' or 'resume'")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        super().__init__()
        self._coexpr = coexpr_of(expr)
        self.name = name or self._coexpr.name
        self.max_retries = max_retries
        self.backoff = backoff or BackoffPolicy()
        self.options = options = options_from(options, knobs)
        self.take_timeout = options.take_timeout
        self.restart = restart
        #: Optional upstream pipe to cancel when supervision gives up
        #: (exhaust) or is cancelled — keeps the producer chain leak-free.
        self.upstream = upstream
        self._scheduler = scheduler
        self._sleep = sleep
        #: Set by cancel(): makes a backoff sleep in progress return
        #: immediately instead of serving out its full delay.
        self._cancel_event = threading.Event()
        self._pipe = self._make_pipe()
        self._failures = 0       # producer crashes seen so far
        self._delivered = 0      # results handed to the consumer
        self._skip = 0           # replayed results to discard after a restart
        self._lock = threading.RLock()
        self._cancelled = False

    def _make_pipe(self) -> Pipe:
        return Pipe(self._coexpr, scheduler=self._scheduler, options=self.options)

    # -- lifecycle events -----------------------------------------------------

    def _emit(self, kind: str, value: Any = None) -> None:
        if lifecycle_enabled():
            emit_lifecycle(Event(kind, f"supervise:{self.name}", 0, value))

    # -- consumer -------------------------------------------------------------

    def take(self, timeout: Any = _UNSET) -> Any:
        """The next result, transparently restarting a crashed producer."""
        if timeout is _UNSET:
            timeout = self.take_timeout
        with self._lock:
            while True:
                if self._cancelled:
                    return FAIL
                try:
                    value = self._pipe.take(timeout)
                except PipeTimeoutError:
                    raise
                except Exception as error:  # noqa: BLE001 - producer crash
                    self._on_crash(error)
                    continue
                if value is FAIL:
                    return FAIL
                if self._skip > 0:
                    self._skip -= 1
                    continue
                self._delivered += 1
                return value

    def _on_crash(self, error: BaseException) -> None:
        self._failures += 1
        if self._failures > self.max_retries:
            self._emit(EventKind.EXHAUST, self._failures)
            self._cancel_upstream()  # giving up: nothing will drain it
            raise RetryExhaustedError(
                f"supervise {self.name!r}: producer failed "
                f"{self._failures} times (max_retries={self.max_retries})",
                attempts=self._failures,
            ) from error
        delay = self.backoff.delay(self._failures)
        self._emit(
            EventKind.RETRY,
            {"attempt": self._failures, "delay": delay, "error": repr(error)},
        )
        if delay:
            if self._sleep is time.sleep:
                # The default sleep waits on the cancel event instead:
                # cancel(join=True) mid-backoff returns immediately
                # rather than serving out the delay.  An *injected*
                # sleep is still called directly — tests rely on seeing
                # the exact delays the policy computed.
                self._cancel_event.wait(delay)
            else:
                self._sleep(delay)
        self._pipe.cancel()
        self._coexpr = self._coexpr.refresh()
        self._pipe = self._make_pipe()
        if self._cancelled:
            self._pipe.cancel()  # raced with a concurrent cancel(): stay down
        if self.restart == "replay":
            self._skip = self._delivered

    def next_value(self) -> Any:
        return self.take()

    def iterate(self) -> Iterator[Any]:
        while True:
            value = self.take()
            if value is FAIL:
                return
            yield value

    # -- lifecycle ------------------------------------------------------------

    def cancel(self, join: bool = False, timeout: float | None = None) -> bool:
        """Cancel the current pipe (and the upstream chain, when given).

        Deliberately lock-free: a consumer blocked inside :meth:`take`
        holds the lock, and cancel is how another thread unblocks it
        (closing the channel makes the take return :data:`FAIL`).
        """
        self._cancelled = True
        self._cancel_event.set()  # interrupt a backoff sleep in progress
        done = self._pipe.cancel(join=join, timeout=timeout)
        self._cancel_upstream()
        return done

    _cancel_upstream = Pipe._cancel_upstream

    @property
    def failures(self) -> int:
        """Producer crashes absorbed (or re-raised) so far."""
        return self._failures

    @property
    def delivered(self) -> int:
        """Results handed to the consumer so far."""
        return self._delivered

    # -- runtime protocol hooks ------------------------------------------------

    def icon_activate(self, transmit: Any = None) -> Any:
        if transmit is not None:
            raise PipeError("cannot transmit a value into a supervised pipe")
        return self.take()

    def icon_promote(self) -> Iterator[Any]:
        return self.iterate()

    def icon_type(self) -> str:
        return "supervised-pipe"

    def __repr__(self) -> str:
        return (
            f"SupervisedPipe({self.name}, failures={self._failures}/"
            f"{self.max_retries}, delivered={self._delivered})"
        )


def supervise(expr: Any, **kwargs: Any) -> SupervisedPipe:
    """``|>`` with a restart budget: wrap *expr* in a supervised pipe.

    *expr* is anything :func:`~repro.coexpr.coexpr_of` accepts; the
    keywords are :class:`SupervisedPipe`'s: the supervision ones plus
    the pipe knobs of the "Pipe options" table in ``docs/language.md``.
    See :class:`SupervisedPipe` for the restart-mode semantics; the
    default ``"replay"`` suits self-contained deterministic sources, and
    skips already-delivered results after a restart — a respawned child
    or a reconnected server session included.
    """
    return SupervisedPipe(expr, **kwargs)


# ---------------------------------------------------------------------------
# Supervised pipeline stages
# ---------------------------------------------------------------------------

def supervised_stage(
    fn: Callable[[Any], Any],
    upstream: Any,
    *,
    fault_plan: FaultPlan | None = None,
    stage_key: Any = None,
    name: str | None = None,
    **kwargs: Any,
) -> SupervisedPipe:
    """One pipeline stage whose crashes are retried in place.

    The stage body maps *fn* over a shared upstream; because channel
    items are consumed destructively, restarts use ``"resume"`` mode —
    the refreshed body picks up wherever the upstream is now.  An item
    the body had taken but not finished processing when it crashed is
    charged to that attempt (at-most-once per item); faults injected at
    body start (the :class:`FaultPlan` default) lose nothing.  The other
    keywords are :class:`SupervisedPipe`'s.

    ``backend="process"`` is accepted but a channel-fed stage (a live
    upstream pipe in its environment) cannot cross a process boundary,
    so it degrades to the thread backend with a ``DEGRADED`` monitor
    event — the documented graceful-degradation rule.  Self-contained
    upstreams (an iterable snapshot) are *consumed in the parent* via
    the shared iterator, so they degrade too; true process stages come
    from :func:`supervise`/:class:`~repro.coexpr.dataparallel.DataParallel`
    over self-contained bodies.
    """
    if isinstance(upstream, (Pipe, SupervisedPipe)):
        shared: Any = upstream
        up_pipe: Any = upstream
    else:
        # Snapshot a single shared iterator so a refreshed body resumes
        # instead of replaying a restartable iterable from the top.
        shared = iter(iter_source(upstream))
        up_pipe = None

    stage_name = name or getattr(fn, "__name__", "stage")
    key = stage_key if stage_key is not None else stage_name

    def body(up: Any, plan: FaultPlan | None, stage_id: Any) -> Iterator[Any]:
        ctx = plan.enter(stage_id) if plan is not None else None
        for mapped in _stage_body(up, fn):
            if ctx is not None:
                ctx.on_item(mapped)
            yield mapped

    coexpr = CoExpression(
        body, lambda: (shared, fault_plan, key), name=stage_name
    )
    return SupervisedPipe(
        coexpr, restart="resume", upstream=up_pipe, name=stage_name, **kwargs
    )


def supervised_pipeline(
    source: Any,
    *stages: Callable[[Any], Any],
    max_retries: int = 3,
    backoff: BackoffPolicy | None = None,
    scheduler: PipeScheduler | None = None,
    sleep: Callable[[float], None] = time.sleep,
    fault_plan: FaultPlan | None = None,
    options: PipeOptions | None = None,
    **knobs: Any,
) -> Any:
    """:func:`~repro.coexpr.patterns.pipeline` with supervised stages.

    Each stage gets its own restart budget; stage keys for the fault
    plan are the 1-based stage indices (0 is the unsupervised source).
    Cancellation propagates the whole chain: cancelling the returned
    pipe tears every stage and the source down.  The knob keywords
    build one :class:`PipeOptions` shared by the source and every stage,
    as in ``pipeline``.  ``backend="process"`` crash-isolates the
    source; channel-fed stages degrade to threads per the rules in
    :mod:`repro.coexpr.proc`.

    ``backend="remote"`` supervises the chain as **one** remote pipe
    over the whole-pipeline body (the shape
    :func:`~repro.coexpr.patterns.pipeline` ships to the server): a
    per-stage chain of supervisors cannot replay, because every stage
    above a reconnected one would have to be rebuilt too.  The single
    supervisor uses ``"replay"`` restarts — a lost connection
    reconnects, the server re-expands the pipeline, and
    already-delivered results are skipped, so the consumer sees the
    uninterrupted sequence.  (A per-stage *fault_plan* does not apply in
    this shape; inject faults in the stage functions or kill server
    sessions instead.)
    """
    options = options_from(options, knobs)
    supervision = {
        "max_retries": max_retries,
        "backoff": backoff,
        "scheduler": scheduler,
        "sleep": sleep,
        "options": options,
    }
    chain = _whole_chain(source, stages, options)
    if chain is not None:
        return SupervisedPipe(chain, restart="replay", **supervision)
    current: Any = source_pipe(source, scheduler=scheduler, options=options)
    for index, fn in enumerate(stages, start=1):
        current = supervised_stage(
            fn,
            current,
            fault_plan=fault_plan,
            stage_key=index,
            name=f"stage-{index}:{getattr(fn, '__name__', 'fn')}",
            **supervision,
        )
    return current
