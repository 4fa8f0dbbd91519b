"""Map-reduce built from concurrent generators (paper Figure 4).

The paper's Junicon ``DataParallel`` class::

    def chunk(e) { # Partition e into chunks
      chunk = [];
      while put(chunk, @e) do {
        if (*chunk >= chunkSize) then { suspend chunk; chunk = []; }};
      if (*chunk > 0) then { return chunk; };
    }
    def mapReduce(f,s,r,i) { # Map f over s and reduce with r
      var c, t, tasks = [];
      every (c = chunk(<>s)) do {
        t = |> { var x=i; every (x=r(x, f(!c) )); x };
        ((List) tasks)::add(t);
      };
      suspend ! (! tasks);
    }

This module is the host-level equivalent: chunk a source, spawn one pipe
per chunk that maps ``f`` over the chunk's elements and folds with ``r``,
then generate the per-chunk results *in order* ("subtly different from
conventional map-reduce in that it enforces ordering between the results
of the partitioned threads").

The **data-parallel** variant of Section VII (:meth:`DataParallel.map_flat`)
differs "only in performing summation over the sequence returned from
flattening the chunks, thus splitting out the reduction and effecting
serialization": the pipes only map; the caller reduces serially.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterator, List

from ..errors import PipeConnectionLost
from ..runtime.failure import FAIL
from ..runtime.iterator import IconIterator
from .coexpression import CoExpression
from .options import PipeOptions
from .pipe import Pipe
from .scheduler import PipeScheduler


def apply_mapped(fn: Callable[[Any], Any], value: Any) -> Iterator[Any]:
    """Apply a map function with Icon invocation semantics.

    Generator functions (Junicon methods, Python generator functions) have
    every result generated; a plain function contributes its single result,
    and :data:`FAIL` means no result.
    """
    result = fn(value)
    if isinstance(result, IconIterator):
        yield from result
        return
    if hasattr(result, "__next__"):
        yield from result
        return
    if result is not FAIL:
        yield result


def iter_source(source: Any) -> Iterator[Any]:
    """Normalize a source: iterable, iterator node, co-expression, pipe,
    or zero-argument factory of any of those."""
    if callable(source) and not isinstance(source, IconIterator):
        source = source()
    if isinstance(source, IconIterator):
        return iter(source)
    hook = getattr(source, "icon_promote", None)
    if hook is not None:
        return hook()
    return iter(source)


# Module-level task bodies (not closures) so the process and remote
# backends can ship them by reference; the co-expression env carries the
# chunk and the map/reduce parameters.

def _fold_chunk(
    chunk: List[Any],
    fn: Callable[[Any], Any],
    reducer: Callable[[Any, Any], Any],
    initial: Any,
) -> Iterator[Any]:
    accumulator = initial
    for value in chunk:
        for mapped in apply_mapped(fn, value):
            accumulator = reducer(accumulator, mapped)
    yield accumulator


def _flat_chunk(chunk: List[Any], fn: Callable[[Any], Any]) -> Iterator[Any]:
    for value in chunk:
        yield from apply_mapped(fn, value)


class DataParallel:
    """Chunked map-reduce over pipes (the paper's ``DataParallel``)."""

    def __init__(
        self,
        chunk_size: int = 1000,
        capacity: int = 0,
        scheduler: PipeScheduler | None = None,
        max_pending: int | None = None,
        **knobs: Any,
    ) -> None:
        """``chunk_size`` elements per task (Figure 4 uses 1000);
        ``max_pending`` (host extension) caps in-flight task pipes — the
        paper's version spawns one per chunk up front, which is
        ``max_pending=None``.

        ``capacity`` and the other knob keywords are :class:`Pipe`'s
        (see the "Pipe options" table in ``docs/language.md``), checked
        here and shared by every task pipe: one ``deadline`` bounds the
        whole run, and one server pool routes every chunk task and
        steal respawn.  ``batch`` mostly helps :meth:`map_flat`, whose
        tasks stream many elements per chunk.  Chunks are
        self-contained snapshots, so ``backend="process"`` folds them
        GIL-free in crash-isolated children and ``backend="remote"``
        ships them to generator servers; a lost child or connection
        surfaces through the ordered drain instead of hanging it."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 or None")
        self.chunk_size = chunk_size
        self.scheduler = scheduler
        self.max_pending = max_pending
        #: The task pipes' knobs, checked now rather than when the first
        #: chunk spawns.
        self.options = PipeOptions(capacity, **knobs)

    # -- Figure 4: chunk -------------------------------------------------------

    def chunk(self, source: Any) -> Iterator[List[Any]]:
        """Partition *source* into lists of at most ``chunk_size``."""
        block: List[Any] = []
        for value in iter_source(source):
            block.append(value)
            if len(block) >= self.chunk_size:
                yield block
                block = []
        if block:
            yield block

    # -- Figure 4: mapReduce ---------------------------------------------------

    def map_reduce(
        self,
        fn: Callable[[Any], Any],
        source: Any,
        reducer: Callable[[Any, Any], Any],
        initial: Any,
        backend: str | None = None,
    ) -> Iterator[Any]:
        """Map *fn* over each chunk in its own pipe, folding with
        *reducer* from *initial*; generate the chunk results in order.

        *backend* overrides the instance backend for this call:
        ``"process"`` folds every chunk in a crash-isolated child,
        GIL-free (the whole fold ships one accumulator back, so IPC
        volume is minimal — the best-suited shape for process tasks).
        """
        yield from self._run_tasks(
            _fold_chunk, (fn, reducer, initial), source, backend
        )

    # -- Section VII: the data-parallel (serialized reduction) variant ---------

    def map_flat(
        self,
        fn: Callable[[Any], Any],
        source: Any,
        backend: str | None = None,
    ) -> Iterator[Any]:
        """Map *fn* over chunks in parallel and flatten results in order;
        the reduction is left to the (serial) consumer."""
        yield from self._run_tasks(_flat_chunk, (fn,), source, backend)

    def reduce(
        self,
        fn: Callable[[Any], Any],
        source: Any,
        reducer: Callable[[Any, Any], Any],
        initial: Any,
        backend: str | None = None,
    ) -> Any:
        """Convenience: fold the ordered chunk results of
        :meth:`map_reduce` into a single value.

        Correct whenever *initial* is an identity of *reducer* (sums from
        0, concatenations from empty) — the usual map-reduce contract.
        """
        accumulator = initial
        for value in self.map_reduce(
            fn, source, reducer, initial=initial, backend=backend
        ):
            accumulator = reducer(accumulator, value)
        return accumulator

    # -- shared driver ----------------------------------------------------------

    def _spawn(
        self,
        task_body: Callable[..., Iterator[Any]],
        chunk: List[Any],
        extra: tuple,
        options: PipeOptions,
        name: str = "mapreduce-task",
    ) -> Pipe:
        coexpr = CoExpression(task_body, lambda: (chunk,) + extra, name=name)
        return Pipe(coexpr, scheduler=self.scheduler, options=options).start()

    @staticmethod
    def _pool(options: PipeOptions) -> Any:
        """The ServerPool routing this run's tasks (None when the run is
        single-server, local, or not remote at all)."""
        if options.backend != "remote":
            return None
        pool = options.remote_address
        return pool if hasattr(pool, "dial_candidates") else None

    def _task_name(self, index: int, options: PipeOptions) -> str:
        # Pooled tasks need distinct route keys: under one shared name
        # every chunk would hash to the same replica, defeating the
        # fan-out.  Single-server and local runs keep the classic name.
        if self._pool(options) is not None:
            return f"mapreduce-task-{index}"
        return "mapreduce-task"

    def _drain(
        self,
        holder: List[Any],
        task_body: Callable[..., Iterator[Any]],
        extra: tuple,
        options: PipeOptions,
    ) -> Iterator[Any]:
        """Drain one chunk task, stealing the chunk back on replica loss.

        ``holder`` is ``[pipe, chunk]`` — mutated in place on respawn so
        the caller's cancellation sweep always sees the live incarnation.
        A chunk stranded on a dead or shed replica
        (:class:`~repro.errors.PipeConnectionLost`, which covers
        :class:`~repro.errors.PipeServerBusy`) is *stolen*: re-spawned
        under the same route key, where pool suspicion routes it to the
        next live replica, and the replayed prefix is skipped so the
        consumer sees each result exactly once (chunk bodies are
        deterministic snapshots).  After ``2 * len(pool)`` steals the
        chunk falls back to the thread tier — the end of the
        replica → next replica → threads degradation order; the work is
        never silently dropped.
        """
        pool = self._pool(options)
        if pool is None:
            yield from holder[0].iterate()
            return
        delivered = 0
        skip = 0
        steals = 0
        while True:
            task = holder[0]
            try:
                while True:
                    value = task.take()
                    if value is FAIL:
                        return
                    if skip:
                        skip -= 1
                        continue
                    delivered += 1
                    yield value
            except PipeConnectionLost as error:
                steals += 1
                fallback = steals > 2 * len(pool)
                pool.note_steal(
                    task.coexpr.name,
                    delivered,
                    reason=error.reason or str(error),
                    fallback=fallback,
                    # The replica the chunk was stranded on — named in
                    # the STEAL event's payload.
                    address=pool.last_address(task.coexpr.name),
                )
                task.cancel()
                holder[0] = self._spawn(
                    task_body,
                    holder[1],
                    extra,
                    replace(options, backend="thread") if fallback else options,
                    name=task.coexpr.name,
                )
                skip = delivered

    def _run_tasks(
        self,
        task_body: Callable[..., Iterator[Any]],
        extra: tuple,
        source: Any,
        backend: str | None = None,
    ) -> Iterator[Any]:
        # A per-call backend shares the instance's deadline and pool.
        options = self.options
        if backend is not None:
            options = replace(options, backend=backend)
        # Cancellation propagates to siblings: if the drain stops early —
        # one task raised, or the consumer abandoned the generator — every
        # outstanding task pipe is cancelled, so no chunk worker is left
        # blocked on a bounded full channel.
        if self.max_pending is None:
            # The paper's shape: spawn a task per chunk, then drain in order.
            holders = [
                [self._spawn(task_body, chunk, extra, options,
                             name=self._task_name(index, options)), chunk]
                for index, chunk in enumerate(self.chunk(source))
            ]
            done = 0
            try:
                for holder in holders:
                    yield from self._drain(holder, task_body, extra, options)
                    done += 1
            finally:
                for holder in holders[done:]:
                    holder[0].cancel()
            return
        # Bounded-pending variant: a sliding window of live tasks.
        window: List[List[Any]] = []
        try:
            for index, chunk in enumerate(self.chunk(source)):
                window.append(
                    [self._spawn(task_body, chunk, extra, options,
                                 name=self._task_name(index, options)), chunk]
                )
                if len(window) >= self.max_pending:
                    yield from self._drain(window.pop(0), task_body, extra, options)
            while window:
                yield from self._drain(window.pop(0), task_body, extra, options)
        finally:
            for holder in window:
                holder[0].cancel()


def map_reduce(
    fn: Callable[[Any], Any],
    source: Any,
    reducer: Callable[[Any, Any], Any],
    initial: Any,
    chunk_size: int = 1000,
    **kwargs: Any,
) -> Iterator[Any]:
    """Functional shorthand for ``DataParallel(...).map_reduce(...)``."""
    return DataParallel(chunk_size, **kwargs).map_reduce(fn, source, reducer, initial)
