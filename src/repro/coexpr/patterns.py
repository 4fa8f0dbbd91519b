"""Pipeline and data-parallel composition patterns (paper Figure 2).

Figure 2 contrasts the two decompositions expressible with the calculus:

* **Pipeline** — ``f(! |> s)``: fixed-code; each stage owns a thread and
  an entire stream, data flows between stages through blocking queues.
* **Data parallel** — ``every (c = chunk(s)) do |> f(!c)``: fixed-data;
  each thread applies the whole function chain to its chunk
  (:mod:`repro.coexpr.dataparallel`).

:func:`stage` builds one pipeline stage (a pipe mapping a function over an
upstream); :func:`pipeline` chains stages.  The helpers use Icon
invocation semantics, so generator functions fan out naturally (one input
producing several outputs) and plain functions map one-to-one.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Callable, Iterator

from ..errors import ChannelClosedError
from ..runtime.failure import FAIL
from ..runtime.iterator import IconIterator
from .coexpression import CoExpression
from .dataparallel import apply_mapped, iter_source
from .options import PipeOptions, options_from
from .pipe import Pipe, UpstreamFailure
from .scheduler import PipeScheduler, default_scheduler


# Module-level bodies (not closures) so a process or remote backend can
# ship them by reference: pickling a module-level function costs only its
# qualified name, and the snapshot env carries the parameters.

def _source_body(src: Any) -> Iterator[Any]:
    yield from iter_source(src)


def _stage_body(up: Any, fn: Callable[[Any], Any]) -> Iterator[Any]:
    """Map *fn* over *up*: the body of every stage, supervised or not.

    An upstream pipe is taken without a timeout.  A stall above this
    stage is not a crash of it: a timeout raised here would end the
    stage and lose the rest of the stream, so only the outermost
    consumer's take times out (the upstream's deadline still bounds the
    wait).  Nor is the upstream's error: one raised by its take (or by
    a shared iterator's step) leaves as :class:`UpstreamFailure`, so a
    supervised stage passes it on instead of restarting over a dead
    upstream.  A supervised stage's function has a ``per_run`` method,
    called at each body start before the first take: its fault plan's
    run starts there."""
    if hasattr(fn, "per_run"):
        fn = fn.per_run()
    if isinstance(up, IconIterator) and hasattr(up, "take"):
        pull = partial(up.take, None)
    else:
        pull = partial(next, iter_source(up), FAIL)
    while True:
        try:
            value = pull()
        except Exception as error:  # noqa: BLE001 - the upstream's, passed on
            raise UpstreamFailure(error) from None
        if value is FAIL:
            return
        yield from apply_mapped(fn, value)


def _remote_pipeline_body(source: Any, stages: tuple) -> Iterator[Any]:
    """The whole chain as one portable body: on the server (or in a
    replayed supervised run) it re-expands into a local thread pipeline,
    so the stages still run concurrently — just on the far side of the
    socket instead of one socket per stage."""
    piped = pipeline(source, *stages)
    try:
        yield from piped.iterate()
    finally:
        piped.cancel()


def source_pipe(
    source: Any,
    *,
    scheduler: PipeScheduler | None = None,
    options: PipeOptions | None = None,
    **knobs: Any,
) -> Pipe:
    """``|> s`` — stream a source from its own worker.

    The knob keywords (or one ``options=``) are :class:`Pipe`'s; see
    the "Pipe options" table in ``docs/language.md``.
    """

    return Pipe(
        CoExpression(_source_body, lambda: (source,), name="source"),
        scheduler=scheduler,
        options=options_from(options, knobs),
    )


def stage(
    fn: Callable[[Any], Any],
    upstream: Any,
    *,
    scheduler: PipeScheduler | None = None,
    options: PipeOptions | None = None,
    **knobs: Any,
) -> Pipe:
    """``|> fn(!upstream)`` — one pipeline stage in its own thread.

    Maps *fn* (generator or plain function) over the upstream's elements
    and streams the results.  The knob keywords (or one ``options=``)
    are :class:`Pipe`'s; see the "Pipe options" table in
    ``docs/language.md``.

    When *upstream* is a pipe, the new stage records it as its
    ``upstream``: if this stage dies or is cancelled, cancellation
    propagates up the chain so no producer is left blocked on a full
    channel.  The same upstream keeps the stage off the process, remote
    and async tiers: a stage fed by an in-parent pipe degrades to a
    thread (``DEGRADED`` monitor event), while a stage over a
    self-contained source runs on the tier asked for.
    """

    name = getattr(fn, "__name__", "stage")
    piped = Pipe(
        CoExpression(_stage_body, lambda: (upstream, fn), name=name),
        scheduler=scheduler,
        options=options_from(options, knobs),
    )
    if hasattr(upstream, "cancel"):
        piped.upstream = upstream
    return piped


def _whole_chain(source: Any, stages: tuple, options: PipeOptions) -> Any:
    """The chain as one body when *options* ship it to a server
    (``backend="remote"`` with at least one stage), else None.

    The server re-expands it into a local thread pipeline and streams
    the final stage's results back over one connection: one socket hop
    for the chain, not one per stage — and a shape supervision can
    replay on reconnect."""
    if options.backend != "remote" or not stages:
        return None
    return CoExpression(
        _remote_pipeline_body, lambda: (source, stages), name=f"pipeline[{len(stages)}]"
    )


def pipeline(
    source: Any,
    *stages: Callable[[Any], Any],
    scheduler: PipeScheduler | None = None,
    options: PipeOptions | None = None,
    **knobs: Any,
) -> Pipe:
    """Chain *stages* over *source*, one thread per stage.

    ``pipeline(s, f, g)`` is ``|> g(! |> f(! |> s))``: consuming the
    returned pipe drives every stage concurrently.  With no stages the
    result is just the source pipe.

    The stages are linked for cancellation: when any stage crashes or
    the returned pipe is cancelled, every upstream producer is cancelled
    too (never orphaned blocked on a full channel).

    The knob keywords (see the "Pipe options" table in
    ``docs/language.md``) build one :class:`PipeOptions` that the source
    and every stage share — so one ``deadline`` budget and one server
    pool serve the whole chain, and ``take_timeout`` bounds a stall
    anywhere in it.  ``backend="process"`` isolates the source; the
    channel-fed stages above it degrade to threads.
    ``backend="remote"`` ships the whole chain as one body (see
    :func:`_whole_chain`), which degrades to the all-thread form if the
    source or a stage does not pickle.
    """
    options = options_from(options, knobs)
    chain = _whole_chain(source, stages, options)
    if chain is not None:
        return Pipe(chain, scheduler=scheduler, options=options)
    current: Pipe = source_pipe(source, scheduler=scheduler, options=options)
    for fn in stages:
        current = stage(fn, current, scheduler=scheduler, options=options)
    return current


def fan_out(
    upstream: Any,
    count: int,
    capacity: int = 0,
    scheduler: PipeScheduler | None = None,
) -> list[Pipe]:
    """Split one stream across *count* competing consumers.

    All returned pipes share the upstream pipe's output channel: each
    element goes to exactly one of them (work sharing, not broadcast).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    shared = upstream if isinstance(upstream, Pipe) else source_pipe(
        upstream, capacity=capacity, scheduler=scheduler
    )
    shared.start()
    return [
        Pipe(
            CoExpression(_source_body, lambda: (shared,), name=f"fanout-{index}"),
            capacity=capacity,
            scheduler=scheduler,
        )
        for index in range(count)
    ]


def merge(
    *upstreams: Any,
    capacity: int = 0,
    scheduler: PipeScheduler | None = None,
) -> Pipe:
    """Interleave several streams into one (completion order).

    Each upstream is drained by its own forwarder thread into a shared
    channel; the returned pipe yields items as they arrive.
    """
    out = Pipe(
        CoExpression(lambda: iter(()), name="merge"),
        capacity=capacity,
        scheduler=scheduler,
    )
    out._started = True  # forwarder threads below replace the usual worker

    sources = [
        up if isinstance(up, Pipe) else source_pipe(up, scheduler=scheduler)
        for up in upstreams
    ]
    remaining = len(sources)
    lock = threading.Lock()

    def forward(src: Pipe) -> None:
        nonlocal remaining
        try:
            while True:
                value = src.take()
                if value is FAIL:
                    return
                out.out.put(value)
        except ChannelClosedError:
            src.cancel()  # consumer abandoned the merge: stop this source
        finally:
            with lock:
                remaining -= 1
                if remaining == 0:
                    out.out.close()

    sched = scheduler or default_scheduler()
    for src in sources:
        sched.submit(lambda s=src: forward(s), name="merge")
    if not sources:
        out.out.close()
    return out
