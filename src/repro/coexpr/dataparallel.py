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

from typing import Any, Callable, Iterator, List

from ..errors import PipeConnectionLost
from ..runtime.failure import FAIL
from ..runtime.iterator import IconIterator
from .coalesce import Coalescer
from .coexpression import CoExpression
from .deadline import deadline_from
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
        batch: int = 1,
        max_linger: float | None = None,
        backend: str = "thread",
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float | None = None,
        mp_context: Any = None,
        remote_address: Any = None,
        deadline: Any = None,
    ) -> None:
        """``chunk_size`` elements per task (Figure 4 uses 1000);
        ``capacity`` bounds each task pipe's output queue; ``max_pending``
        (host extension) caps in-flight task pipes — the paper's version
        spawns one per chunk up front, which is ``max_pending=None``.
        ``batch``/``max_linger`` turn on batched transport for every task
        pipe (see :class:`~repro.coexpr.pipe.Pipe`): mostly useful for
        :meth:`map_flat`, whose tasks stream many elements per chunk —
        :meth:`map_reduce` tasks emit a single fold each, so there is
        nothing to coalesce.

        ``backend="process"`` runs each chunk task in its own child
        process — chunks are self-contained snapshots, so this is the
        first *GIL-free* path through the map-reduce patterns: CPU-bound
        map functions genuinely parallelize, and a chunk worker that
        hard-crashes surfaces :class:`~repro.errors.PipeWorkerLost` on
        its heartbeat (watchdog knobs as on :class:`Pipe`) instead of
        hanging the ordered drain.

        ``backend="remote"`` ships each chunk task to the generator
        server at ``remote_address`` instead of a local child — the
        chunks are the same self-contained snapshots, so the shape that
        isolates cleanly also distributes cleanly; a dead connection
        surfaces :class:`~repro.errors.PipeConnectionLost`.

        ``deadline`` (seconds or a shared
        :class:`~repro.coexpr.deadline.Deadline`) bounds the whole run:
        every task pipe shares the one budget, an expired budget
        short-circuits further spawns, and an expired in-flight task
        raises :class:`~repro.errors.PipeDeadlineExceeded` through the
        ordered drain."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 or None")
        # Validated now, not when the first chunk task spawns.
        Coalescer(batch, max_linger)
        if backend not in ("thread", "process", "remote", "async"):
            raise ValueError(
                "backend must be 'thread', 'process', 'remote', or 'async'"
            )
        self.chunk_size = chunk_size
        self.capacity = capacity
        self.scheduler = scheduler
        self.max_pending = max_pending
        self.batch = batch
        self.max_linger = max_linger
        self.backend = backend
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.mp_context = mp_context
        if remote_address is not None:
            # Normalized once (list -> ServerPool): every chunk task —
            # and every steal respawn — shares the one pool, so a chunk
            # re-run after a replica death is routed around the corpse.
            from ..net.cluster import normalize_remote_address

            remote_address = normalize_remote_address(remote_address)
        self.remote_address = remote_address
        # Normalized once: every task pipe shares the ONE budget.
        self.deadline = deadline_from(deadline)

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
        backend: str,
        name: str = "mapreduce-task",
    ) -> Pipe:
        coexpr = CoExpression(task_body, lambda: (chunk,) + extra, name=name)
        return Pipe(
            coexpr,
            capacity=self.capacity,
            scheduler=self.scheduler,
            batch=self.batch,
            max_linger=self.max_linger,
            backend=backend,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            mp_context=self.mp_context,
            remote_address=self.remote_address,
            deadline=self.deadline,
        ).start()

    def _pool(self, backend: str) -> Any:
        """The ServerPool routing this run's tasks (None when the run is
        single-server, local, or not remote at all)."""
        if backend != "remote":
            return None
        pool = self.remote_address
        return pool if hasattr(pool, "dial_candidates") else None

    def _task_name(self, index: int, backend: str) -> str:
        # Pooled tasks need distinct route keys: under one shared name
        # every chunk would hash to the same replica, defeating the
        # fan-out.  Single-server and local runs keep the classic name.
        if self._pool(backend) is not None:
            return f"mapreduce-task-{index}"
        return "mapreduce-task"

    def _drain(
        self,
        holder: List[Any],
        task_body: Callable[..., Iterator[Any]],
        extra: tuple,
        backend: str,
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
        pool = self._pool(backend)
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
                    # The replica the chunk was stranded on — feeds the
                    # per-address breakdown in Tracer.cluster_stats().
                    address=pool.last_address(task.coexpr.name),
                )
                task.cancel()
                holder[0] = self._spawn(
                    task_body,
                    holder[1],
                    extra,
                    "thread" if fallback else backend,
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
        backend = backend if backend is not None else self.backend
        if backend not in ("thread", "process", "remote", "async"):
            raise ValueError(
                "backend must be 'thread', 'process', 'remote', or 'async'"
            )
        # Cancellation propagates to siblings: if the drain stops early —
        # one task raised, or the consumer abandoned the generator — every
        # outstanding task pipe is cancelled, so no chunk worker is left
        # blocked on a bounded full channel.
        if self.max_pending is None:
            # The paper's shape: spawn a task per chunk, then drain in order.
            holders = [
                [self._spawn(task_body, chunk, extra, backend,
                             name=self._task_name(index, backend)), chunk]
                for index, chunk in enumerate(self.chunk(source))
            ]
            done = 0
            try:
                for holder in holders:
                    yield from self._drain(holder, task_body, extra, backend)
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
                    [self._spawn(task_body, chunk, extra, backend,
                                 name=self._task_name(index, backend)), chunk]
                )
                if len(window) >= self.max_pending:
                    yield from self._drain(window.pop(0), task_body, extra, backend)
            while window:
                yield from self._drain(window.pop(0), task_body, extra, backend)
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
