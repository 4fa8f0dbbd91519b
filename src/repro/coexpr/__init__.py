"""Concurrency for generators — co-expressions, pipes, and map-reduce.

Implements the paper's calculus (Figure 1) over the goal-directed runtime:
co-expressions shadow their creation environment, pipes are generator
proxies running in separate threads behind blocking channels, futures are
singleton pipes, and :class:`DataParallel` builds map-reduce from chunks
of piped tasks (Figure 4).

Host-facing quickstart::

    from repro.coexpr import pipe, stage, pipeline

    import math
    squares = pipeline(range(10), lambda x: x * x, math.sqrt)
    assert list(squares) == [float(i) for i in range(10)]
"""

from .aio import AsyncChannel, AsyncPipe, event_loop
from .channel import CLOSED, Channel, RaiseEnvelope
from .coexpression import CoExpression, coexpr_of
from .deadline import Deadline, deadline_from
from .options import PipeOptions
from .pipe import Pipe
from .future import Future, MVar
from .scheduler import (
    PipeScheduler,
    WorkerHandle,
    default_scheduler,
    set_default_scheduler,
    use_scheduler,
)
from .calculus import (
    activate,
    coexpr,
    first_class,
    future,
    pipe,
    promote,
    refresh,
    results,
)
from .dataparallel import DataParallel, apply_mapped, iter_source, map_reduce
from .patterns import fan_out, merge, pipeline, source_pipe, stage
from .supervision import (
    NO_BACKOFF,
    BackoffPolicy,
    FaultPlan,
    supervise,
    supervised_pipeline,
    supervised_stage,
)

__all__ = [
    "CLOSED",
    "AsyncChannel",
    "AsyncPipe",
    "BackoffPolicy",
    "Channel",
    "CoExpression",
    "DataParallel",
    "Deadline",
    "FaultPlan",
    "Future",
    "MVar",
    "NO_BACKOFF",
    "Pipe",
    "PipeOptions",
    "PipeScheduler",
    "RaiseEnvelope",
    "WorkerHandle",
    "activate",
    "apply_mapped",
    "coexpr",
    "coexpr_of",
    "deadline_from",
    "default_scheduler",
    "event_loop",
    "fan_out",
    "first_class",
    "future",
    "iter_source",
    "map_reduce",
    "merge",
    "pipe",
    "pipeline",
    "promote",
    "refresh",
    "results",
    "set_default_scheduler",
    "source_pipe",
    "stage",
    "supervise",
    "supervised_pipeline",
    "supervised_stage",
    "use_scheduler",
]
