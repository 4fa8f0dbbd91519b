"""The tracer — transparent probes over an iterator tree.

:meth:`Tracer.instrument` walks a translated expression tree and wraps
every :class:`~repro.runtime.iterator.IconIterator` child in a
:class:`TracedIterator`.  Probes are semantically transparent: they
delegate ``iterate`` and re-yield every result (including
:class:`~repro.runtime.failure.Suspension` envelopes and reference
results), emitting events as iteration enters, produces, resumes, and
fails.  Instrumentation happens *after* transformation — the "monitoring
within a transformational framework" of the paper's future work — so the
runtime itself carries zero monitoring overhead when tracing is off.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List

from ..runtime.failure import Suspension
from ..runtime.iterator import IconIterator
from .events import Event, EventKind


class TracedIterator(IconIterator):
    """A transparent probe around one node."""

    __slots__ = ("target", "tracer", "label", "depth")

    def __init__(
        self, target: IconIterator, tracer: "Tracer", label: str, depth: int
    ) -> None:
        super().__init__()
        self.target = target
        self.tracer = tracer
        self.label = label
        self.depth = depth

    def iterate(self) -> Iterator[Any]:
        emit = self.tracer.emit
        emit(Event(EventKind.ENTER, self.label, self.depth))
        produced = False
        for result in self.target.iterate():
            if produced:
                emit(Event(EventKind.RESUME, self.label, self.depth))
            if isinstance(result, Suspension):
                emit(
                    Event(
                        EventKind.SUSPEND, self.label, self.depth, result.value
                    )
                )
            else:
                emit(Event(EventKind.PRODUCE, self.label, self.depth, result))
            produced = True
            yield result
        emit(Event(EventKind.FAIL, self.label, self.depth))

    def __repr__(self) -> str:
        return f"TracedIterator({self.label})"


#: Node attributes that may hold child iterator nodes (union over the
#: runtime's combinator/control classes).
_CHILD_SLOTS = (
    "operands",
    "expr",
    "left",
    "right",
    "cond",
    "then",
    "orelse",
    "body",
    "final",
    "gen",
    "limit",
    "subject",
    "index",
    "low",
    "high",
    "start",
    "stop",
    "step",
    "target",
    "transmit",
    "do_clause",
    "args",
    "callee",
    "items",
    "value_iterator",
    "default",
    "branches",
)


class Tracer:
    """Collects events from an instrumented tree.

    ``sink`` (optional) receives each event as it happens (live
    monitoring); events are also accumulated in :attr:`events`.
    ``max_events`` bounds the buffer so tracing a long-running pipeline
    does not exhaust memory (oldest events are dropped).
    """

    def __init__(
        self,
        sink: Callable[[Event], None] | None = None,
        max_events: int = 100_000,
    ) -> None:
        self.sink = sink
        self.max_events = max_events
        self.events: List[Event] = []

    # -- collection -----------------------------------------------------------

    def emit(self, event: Event) -> None:
        self.events.append(event)
        if len(self.events) > self.max_events:
            del self.events[: len(self.events) // 2]
        if self.sink is not None:
            self.sink(event)

    def clear(self) -> None:
        self.events.clear()

    def lifecycle(self):
        """Context manager: also collect the lifecycle events every
        tier emits on the monitor bus (pipes, supervision, the process,
        network, cluster and async tiers, the compiler) while the block
        runs."""
        from .events import lifecycle_sink

        return lifecycle_sink(self.emit)

    # -- analysis --------------------------------------------------------------

    def counts(self) -> dict:
        """Event totals by kind."""
        out = {kind: 0 for kind in EventKind.ALL}
        for event in self.events:
            out[event.kind] += 1
        return out

    def summary(self) -> dict:
        """Every collected payload, ``{node: {kind: [payload, ...]}}``,
        in emission order — a count is ``len(...)``.

        One view for every tier: the payload fields are the emitter's,
        listed with each kind in :class:`~repro.monitor.events.EventKind`
        (an iteration event's payload is the produced value, or None)."""
        out: dict = {}
        for event in self.events:
            out.setdefault(event.node, {}).setdefault(event.kind, []).append(
                event.value
            )
        return out

    def compile_stats(self) -> dict:
        """Per-unit compile-target summary from collected ``compile``
        events: ``{unit: {compiles, optimized, lowered, fallbacks}}`` —
        how often the optimizer (:mod:`repro.lang.optimize`) considered
        the unit and lowered it to native Python generators, and the
        sorted shape names it lowered and deferred to the interpreted
        runtime."""
        out: dict = {}
        for unit, kinds in self.summary().items():
            payloads = kinds.get(EventKind.COMPILE)
            if payloads:
                out[unit] = {
                    "compiles": len(payloads),
                    "optimized": sum(1 for p in payloads if p["optimized"]),
                    "lowered": sorted({s for p in payloads for s in p["lowered"]}),
                    "fallbacks": sorted({s for p in payloads for s in p["fallbacks"]}),
                }
        return out

    def transcript(self, limit: int | None = None) -> str:
        """A readable, indented trace of the evaluation."""
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(str(event) for event in events)

    # -- instrumentation ----------------------------------------------------------

    def instrument(self, node: IconIterator, depth: int = 0) -> IconIterator:
        """Wrap *node* and (recursively, in place) its children."""
        if isinstance(node, TracedIterator):
            return node
        self._instrument_children(node, depth + 1)
        return TracedIterator(node, self, type(node).__name__, depth)

    def _instrument_children(self, node: IconIterator, depth: int) -> None:
        for slot in _CHILD_SLOTS:
            try:
                child = getattr(node, slot)
            except AttributeError:
                continue
            wrapped = self._wrap_value(child, depth)
            if wrapped is not child:
                try:
                    setattr(node, slot, wrapped)
                except AttributeError:
                    pass  # read-only slot: leave the child untraced

    def _wrap_value(self, child: Any, depth: int) -> Any:
        if isinstance(child, TracedIterator):
            return child
        if isinstance(child, IconIterator):
            return self.instrument(child, depth)
        if isinstance(child, tuple):
            wrapped = tuple(self._wrap_value(item, depth) for item in child)
            if any(w is not o for w, o in zip(wrapped, child)):
                return wrapped
            return child
        if isinstance(child, list):
            return [self._wrap_value(item, depth) for item in child]
        return child


def trace(node: IconIterator, sink: Callable[[Event], None] | None = None):
    """Convenience: instrument *node*, returning ``(wrapped, tracer)``."""
    tracer = Tracer(sink=sink)
    return tracer.instrument(node), tracer
