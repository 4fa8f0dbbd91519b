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
* :func:`supervise`, :func:`supervised_stage` and
  :func:`supervised_pipeline` — ``|>``, ``stage`` and ``pipeline``
  whose pipes carry the supervision
  :class:`~repro.coexpr.pipe.RestartPolicy`: a producer crash consumes
  a retry instead of poisoning the channel, and the pipe restarts in
  place by the one restart rule (:meth:`Pipe._restart
  <repro.coexpr.pipe.Pipe._restart>`, shared with
  :class:`~repro.coexpr.dataparallel.DataParallel`'s work stealing).
  The body decides how a restart continues, not a keyword:

  - a self-contained body (what ``supervise`` usually wraps) *replays*
    the stream from its snapshot, and the already-delivered results
    are skipped — exactly-once delivery for deterministic bodies;
  - a stage's body takes from a shared upstream whose consumed items
    are gone, so it *resumes* from the upstream's current position.

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
resumes, honoring the backoff.

Every supervision decision (retry, exhaust) is emitted on the monitor
lifecycle bus beside the pipe's own start, cancel and timeout events, so a
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

from ..errors import InjectedDisconnect
from .dataparallel import apply_mapped, iter_source
from .options import PipeOptions, options_from
from .patterns import _whole_chain, pipeline, stage
from .pipe import Pipe, RestartPolicy
from .scheduler import PipeScheduler


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
# Supervision: a pipe with the supervision restart policy
# ---------------------------------------------------------------------------

def _supervised(
    piped: Pipe,
    max_retries: int,
    backoff: BackoffPolicy | None,
    sleep: Callable[[float], None],
) -> Pipe:
    """*piped*, carrying the supervision restart policy."""
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    piped._policy = RestartPolicy(
        max_retries=max_retries, backoff=backoff or BackoffPolicy(), sleep=sleep
    )
    return piped


def supervise(
    expr: Any,
    *,
    max_retries: int = 3,
    backoff: BackoffPolicy | None = None,
    scheduler: PipeScheduler | None = None,
    sleep: Callable[[float], None] = time.sleep,
    options: PipeOptions | None = None,
    **knobs: Any,
) -> Pipe:
    """``|>`` with a restart budget: a :class:`Pipe` over *expr* whose
    producer crashes are retried in place (see
    :class:`~repro.coexpr.pipe.RestartPolicy`).

    While retries remain, a crash refreshes the co-expression (``^c``)
    and restarts it on a fresh worker after ``backoff.delay(n)``, slept
    through *sleep* (tests inject a fake; the default is cut short by
    :meth:`~Pipe.cancel`).  A self-contained body replays, and the
    results already delivered are skipped — exactly-once for a
    deterministic body, a respawned child or a reconnected server
    session included.  Once the budget is spent the take raises
    :class:`~repro.errors.RetryExhaustedError` chained to the last
    producer error.

    Timeout expiry (:class:`~repro.errors.PipeTimeoutError`) is *not*
    retried — a slow producer is not a crashed one; the caller decides
    whether to cancel.  The same holds for an end-to-end ``deadline``
    (:class:`~repro.errors.PipeDeadlineExceeded` subclasses it): the
    one :class:`~repro.coexpr.deadline.Deadline` is shared across
    restarts, so a restart cannot reset the clock.

    The knob keywords (or one ``options=``) are :class:`Pipe`'s — see
    the "Pipe options" table in ``docs/language.md`` — and every
    incarnation runs with the one :class:`PipeOptions` they build: one
    deadline, and one server pool whose suspicion and failover memory
    survive the restart.  With ``backend="process"`` a lost child, and
    with ``backend="remote"`` a lost connection, is a retryable fault
    like any producer crash: the restart respawns or reconnects.
    """
    piped = Pipe(expr, scheduler=scheduler, options=options_from(options, knobs))
    return _supervised(piped, max_retries, backoff, sleep)


class _StageRun:
    """A supervised stage's function: its name, and the fault plan that
    each body run enters (see :func:`~repro.coexpr.patterns._stage_body`)."""

    def __init__(self, fn: Callable, plan: FaultPlan | None, key: Any, name: str) -> None:
        self.fn = fn
        self.plan = plan
        self.key = key
        self.__name__ = name

    def per_run(self) -> Callable[[Any], Any]:
        """Start one body run: enter the plan (which may fail the run
        before it takes anything) and map with *fn*, counting results."""
        fn, plan = self.fn, self.plan
        if plan is None:
            return fn
        ctx = plan.enter(self.key)

        def mapped(value: Any) -> Iterator[Any]:
            for result in apply_mapped(fn, value):
                ctx.on_item(result)
                yield result

        return mapped


def supervised_stage(
    fn: Callable[[Any], Any],
    upstream: Any,
    *,
    max_retries: int = 3,
    backoff: BackoffPolicy | None = None,
    scheduler: PipeScheduler | None = None,
    sleep: Callable[[float], None] = time.sleep,
    fault_plan: FaultPlan | None = None,
    stage_key: Any = None,
    name: str | None = None,
    options: PipeOptions | None = None,
    **knobs: Any,
) -> Pipe:
    """:func:`~repro.coexpr.patterns.stage` with :func:`supervise`'s
    restart budget: one pipeline stage whose crashes are retried in
    place.

    A stage's body takes from a shared upstream whose consumed items
    are gone, so a restart *resumes*: the refreshed body goes on from
    wherever the upstream is now.  An iterable *upstream* is snapshotted
    as one shared iterator for that reason.  An item the body had taken
    but not finished when it crashed is charged to that attempt
    (at-most-once per item); faults injected at body start (the
    :class:`FaultPlan` default) lose nothing.  An error out of the
    upstream itself is the upstream's, not a crash of this stage: it
    reaches the consumer as it was, and restarts nothing here.

    ``backend="process"`` is accepted, but a channel-fed stage (a live
    upstream pipe or the shared iterator in its environment) cannot
    cross a process boundary, so it degrades to the thread backend with
    a ``DEGRADED`` monitor event — the documented graceful-degradation
    rule.  True process stages come from
    :func:`supervise`/:class:`~repro.coexpr.dataparallel.DataParallel`
    over self-contained bodies.
    """
    if not isinstance(upstream, Pipe):
        upstream = iter(iter_source(upstream))
    name = name or getattr(fn, "__name__", "stage")
    run = _StageRun(fn, fault_plan, name if stage_key is None else stage_key, name)
    piped = stage(run, upstream, scheduler=scheduler, options=options_from(options, knobs))
    return _supervised(piped, max_retries, backoff, sleep)


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
) -> Pipe:
    """:func:`~repro.coexpr.patterns.pipeline` with supervised stages.

    Each stage gets its own restart budget; stage keys for the fault
    plan are the 1-based stage indices (0 is the unsupervised source).
    Cancellation propagates the whole chain: cancelling the returned
    pipe tears every stage and the source down, and an error no stage
    retries — the source's own, or a stage's exhausted budget — reaches
    the consumer.  The knob keywords build one :class:`PipeOptions`
    shared by the source and every stage, as in ``pipeline``.
    ``backend="process"`` crash-isolates the source; channel-fed stages
    degrade to threads per the rules in :mod:`repro.coexpr.proc`.

    ``backend="remote"`` supervises the chain as **one** remote pipe
    over the whole-pipeline body (the shape ``pipeline`` ships to the
    server): a per-stage chain of supervisors cannot replay, because
    every stage above a reconnected one would have to be rebuilt too.
    That body replays — a lost connection reconnects, the server
    re-expands the pipeline, and already-delivered results are skipped,
    so the consumer sees the uninterrupted sequence.  (A per-stage
    *fault_plan* does not apply in this shape; inject faults in the
    stage functions or kill server sessions instead.)
    """
    options = options_from(options, knobs)
    whole = _whole_chain(source, stages, options) is not None
    if not whole:
        stages = tuple(
            _StageRun(fn, fault_plan, index, f"stage-{index}:{getattr(fn, '__name__', 'fn')}")
            for index, fn in enumerate(stages, start=1)
        )
    piped = link = pipeline(source, *stages, scheduler=scheduler, options=options)
    # Each stage pipe links to the one above it through ``upstream``;
    # the top links are the stages (or the one whole-chain pipe).
    for _ in range(1 if whole else len(stages)):
        link = _supervised(link, max_retries, backoff, sleep).upstream
    return piped
