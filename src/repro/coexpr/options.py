"""The ten pipe knobs, validated once (paper Section III.B's ``|>e``).

The paper's pipe has one knob, the queue bound.  This runtime has ten —
the bound, batching, the execution tier and its watchdog, the end-to-end
budget — and every composition (``stage``, ``pipeline``, ``supervise``,
``DataParallel``) passes the same ten on to the pipes it builds.
:class:`PipeOptions` is that bundle: built (and checked) once from the
keywords a caller writes, then handed on unchanged, so a pipeline's
stages, a supervisor's restarts and a map-reduce's chunk tasks share
one :class:`~repro.coexpr.deadline.Deadline` and one
:class:`~repro.net.cluster.ServerPool` because they share one object.

``docs/language.md`` ("Pipe options") tabulates each knob's default,
its rule and the tiers that read it.

:data:`TIERS` is the backend table: the module and function that start
each non-thread tier's worker, imported when a pipe on that tier
starts.  A start function returns its worker, or a string — the reason
the body cannot run there, and the pipe degrades to a thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .coalesce import Coalescer
from .deadline import deadline_from
from .wire import _is_number

#: Backend name -> (module, start function) for every tier but threads.
TIERS = {
    "process": ("repro.coexpr.proc", "start_process_worker"),
    "remote": ("repro.net.client", "start_remote_worker"),
    "async": ("repro.coexpr.aio", "start_async_worker"),
}

#: Seconds between liveness beats when ``heartbeat_interval`` is None.
DEFAULT_HEARTBEAT_INTERVAL = 0.1
#: With ``heartbeat_timeout=None`` a worker that stays silent this many
#: beat intervals (and at least a second) is lost.
TIMEOUT_INTERVALS = 10
#: How often a process or remote pump re-checks cancellation (and its
#: watchdog) while nothing arrives — bounds latency, not throughput.
POLL_SLICE = 0.05


@dataclass(frozen=True, slots=True)
class PipeOptions:
    """The knobs of one pipe, checked when built.

    Raises :class:`ValueError` naming the field for a ``capacity`` that
    is not an int >= 0, a ``batch``/``max_linger`` the
    :class:`~repro.coexpr.coalesce.Coalescer` rejects, an unknown
    ``backend`` (or ``"remote"`` without ``remote_address``), or a
    heartbeat field that is not None or a finite number > 0.
    ``deadline`` becomes a shared :class:`~repro.coexpr.deadline.
    Deadline` and ``remote_address`` a tuple or shared
    :class:`~repro.net.cluster.ServerPool`; both pass through when
    already normalized, so ``dataclasses.replace`` keeps sharing them.
    """

    capacity: int = 0
    take_timeout: float | None = None
    batch: int = 1
    max_linger: float | None = None
    backend: str = "thread"
    heartbeat_interval: float | None = None
    heartbeat_timeout: float | None = None
    mp_context: Any = None
    remote_address: Any = None
    deadline: Any = None
    #: The beat period and watchdog timeout the workers use, derived
    #: from the two heartbeat fields and their defaults.
    beat_interval: float = field(init=False, repr=False, compare=False)
    beat_timeout: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        capacity = self.capacity
        if type(capacity) is not int or capacity < 0:
            raise ValueError(f"capacity must be an int >= 0, got {capacity!r}")
        Coalescer(self.batch, self.max_linger)  # validates both
        if self.backend != "thread" and self.backend not in TIERS:
            raise ValueError(
                "backend must be 'thread', 'process', 'remote', or 'async'"
            )
        address = self.remote_address
        if address is None and self.backend == "remote":
            raise ValueError("backend='remote' requires remote_address")
        for name in ("heartbeat_interval", "heartbeat_timeout"):
            value = getattr(self, name)
            if value is not None and not (_is_number(value) and value > 0):
                raise ValueError(
                    f"{name} must be None or a finite number > 0, got {value!r}"
                )
        setattr_ = object.__setattr__
        setattr_(self, "deadline", deadline_from(self.deadline))
        if address is not None:
            from ..net.cluster import normalize_remote_address

            setattr_(self, "remote_address", normalize_remote_address(address))
        interval = self.heartbeat_interval or DEFAULT_HEARTBEAT_INTERVAL
        setattr_(self, "beat_interval", interval)
        timeout = self.heartbeat_timeout
        setattr_(
            self,
            "beat_timeout",
            timeout if timeout is not None else max(TIMEOUT_INTERVALS * interval, 1.0),
        )


#: The options of a pipe built with no knobs: checked once, shared by all.
DEFAULT_OPTIONS = PipeOptions()


def options_from(options: PipeOptions | None, knobs: dict) -> PipeOptions:
    """*options* as given (already checked), or one built from the knob
    keywords — never both."""
    if options is None:
        return PipeOptions(**knobs)
    if knobs:
        raise TypeError(f"pass options= or the knob keywords, not both: {sorted(knobs)}")
    return options
