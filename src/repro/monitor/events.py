"""Monitoring events.

Each observable step of goal-directed evaluation maps onto one event kind,
mirroring Icon's classic monitoring vocabulary (as in Jeffery's Alamo/MT
Icon event model, which the paper's future-work points toward):

=========  =============================================================
enter      a node begins (or restarts) a pass of iteration
produce    a node yields a result (success)
suspend    a ``suspend``-ed result passes through the node (envelope)
resume     a node is re-entered after having produced (backtracking)
fail       a node's pass ends with no further result
=========  =============================================================
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


class EventKind:
    ENTER = "enter"
    PRODUCE = "produce"
    SUSPEND = "suspend"
    RESUME = "resume"
    FAIL = "fail"

    # Pipe lifecycle transitions (the supervision layer's vocabulary):
    # a worker starting and a cancellation (no payload), a supervised
    # restart (``{"attempt": ..., "delay": ..., "error": repr}``), a take
    # timing out (value = the timeout in seconds), and a retry budget
    # running out (value = the failure count).
    START = "start"
    RETRY = "retry"
    CANCEL = "cancel"
    TIMEOUT = "timeout"
    EXHAUST = "exhaust"

    # Batched transport: one event per producer-side flush, carrying
    # ``{"size": <elements moved>, "queued": <channel occupancy after>}``.
    BATCH = "batch"

    # Process-backed pipes (the crash-isolation tier): a child process
    # spawned for a worker (``{"pid": ...}``), the watchdog declaring a
    # worker lost (``{"reason": ..., "exitcode": ...}``), and the runtime
    # degrading a process request to the thread backend (value = reason).
    SPAWN = "spawn"
    WORKER_LOST = "worker-lost"
    DEGRADED = "degraded"

    # Remote pipes (the network tier): a client connecting to a
    # generator server (``{"address": ...}``), the server opening a
    # session for a request (``{"peer": ..., "name": ..., "server": ...}``),
    # and the client-side watchdog declaring the connection lost
    # (``{"reason": ..., "address": ...}``).
    NET_CONNECT = "net-connect"
    NET_SESSION = "net-session"
    NET_LOST = "net-lost"

    # Deadline propagation (the overload-protection layer): a budget
    # shipped across a process/socket boundary as remaining seconds
    # (``{"remaining": ..., "transport": "process" | "remote"}``) and a
    # budget running out (``{"where": "start" | "take" | "producer" |
    # "session", "remaining": 0.0}``) — ``start`` means the spawn was
    # short-circuited before any child forked or socket dialed.
    DEADLINE_PROPAGATED = "deadline-propagated"
    DEADLINE_EXPIRED = "deadline-expired"

    # Admission control and the client-side circuit breaker: a server
    # shedding a connection at capacity (``{"peer": ..., "active": ...,
    # "max_sessions": ..., "retry_after": ...}``), the breaker tripping
    # open for an address (``{"address": ..., "failures": ...,
    # "retry_after": ...}``), a half-open probe being admitted
    # (``{"address": ..., "failures": ...}``), and the breaker closing
    # again after a healthy stream (``{"address": ...}``).
    SHED = "shed"
    BREAKER_OPEN = "breaker-open"
    BREAKER_PROBE = "breaker-probe"
    BREAKER_CLOSE = "breaker-close"

    # The cluster tier (replicated generator servers): a lost stream
    # reconnecting to a *different* replica (``{"key": ..., "from": ...,
    # "to": ...}``), routing passing over a candidate replica without a
    # session (``{"key": ..., "skipped": ..., "reason": ...}``), and a
    # DataParallel chunk stranded on a dead/shed replica being re-run
    # (``{"key": ..., "delivered": ..., "reason": ..., "fallback": ...,
    # "address": ...}``).
    FAILOVER = "failover"
    REROUTE = "reroute"
    STEAL = "steal"

    # Live cluster membership: an address joining a pool's fleet
    # (``{"address": ..., "weight": ..., "source": "api" | "registry" |
    # "gossip" | "chaos"}``), an address leaving it (``{"address": ...,
    # "source": ...}``), and the health prober's verdict transitions —
    # a member probed back alive (``{"address": ...}``) and a member
    # declared dead after consecutive missed pings (``{"address": ...,
    # "reason": ..., "misses": ...}``).  Join/leave change *membership*;
    # up/down change *routability* of a member that stays in the fleet.
    MEMBER_JOIN = "member-join"
    MEMBER_LEAVE = "member-leave"
    MEMBER_UP = "member-up"
    MEMBER_DOWN = "member-down"

    # The async execution tier: a pipe body started as a task on an
    # event loop — the shared one for ``backend="async"``, the caller's
    # for ``AsyncPipe`` (``{"transport": "loop", "name": ...}``) — or an
    # event-loop server admitting a session
    # (``{"peer": ..., "name": ..., "server": ...}``) — one kind for
    # both sides, distinguished by the payload, mirroring how
    # NET_CONNECT/NET_SESSION split the threaded tier.
    ASYNC_SESSION = "async-session"

    # The optimizing compile target: one event per translated unit
    # (``{"optimized": bool, "lowered": [shape, ...], "fallbacks":
    # [shape, ...]}``) — which normalized shapes became native Python
    # generators and which deferred to the interpreted runtime.
    COMPILE = "compile"

    ITERATION = (ENTER, PRODUCE, SUSPEND, RESUME, FAIL)
    LIFECYCLE = (
        START,
        RETRY,
        CANCEL,
        TIMEOUT,
        EXHAUST,
        BATCH,
        SPAWN,
        WORKER_LOST,
        DEGRADED,
        NET_CONNECT,
        NET_SESSION,
        NET_LOST,
        DEADLINE_PROPAGATED,
        DEADLINE_EXPIRED,
        SHED,
        BREAKER_OPEN,
        BREAKER_PROBE,
        BREAKER_CLOSE,
        FAILOVER,
        REROUTE,
        STEAL,
        MEMBER_JOIN,
        MEMBER_LEAVE,
        MEMBER_UP,
        MEMBER_DOWN,
        ASYNC_SESSION,
        COMPILE,
    )
    ALL = ITERATION + LIFECYCLE


_sequence = itertools.count(1)


@dataclass(frozen=True)
class Event:
    """One monitoring event: what happened, where, with which value."""

    kind: str
    node: str          # the wrapped node's label (class name or custom)
    depth: int         # nesting depth within the instrumented tree
    value: Any = None  # the produced/suspended value, if any
    seq: int = field(default_factory=lambda: next(_sequence))

    def __str__(self) -> str:
        indent = "  " * self.depth
        if self.kind in (EventKind.PRODUCE, EventKind.SUSPEND):
            return f"{indent}{self.node}: {self.kind} {self.value!r}"
        if self.kind in EventKind.LIFECYCLE and self.value is not None:
            return f"{indent}{self.node}: {self.kind} {self.value!r}"
        return f"{indent}{self.node}: {self.kind}"


# ---------------------------------------------------------------------------
# The lifecycle bus — where pipes and the supervision layer report
# start/retry/cancel/timeout/exhaust transitions.  Tracers (or any
# callable) subscribe to observe supervision decisions; with no
# subscribers, emission is a single truth test.
# ---------------------------------------------------------------------------

_lifecycle_sinks: list = []


def lifecycle_enabled() -> bool:
    """Cheap guard so the hot path can skip building Event objects."""
    return bool(_lifecycle_sinks)


def emit_lifecycle(event: Event) -> None:
    """Deliver *event* to every subscribed sink (exceptions propagate)."""
    for sink in tuple(_lifecycle_sinks):
        sink(event)


def add_lifecycle_sink(sink) -> None:
    _lifecycle_sinks.append(sink)


def remove_lifecycle_sink(sink) -> None:
    try:
        _lifecycle_sinks.remove(sink)
    except ValueError:
        pass


@contextmanager
def lifecycle_sink(sink):
    """Subscribe *sink* (any ``Event -> None`` callable) for a ``with`` block."""
    add_lifecycle_sink(sink)
    try:
        yield sink
    finally:
        remove_lifecycle_sink(sink)
