"""The network tier — generator pipelines served over sockets.

The paper's pipes stream generator results through blocking queues
between threads; :mod:`repro.coexpr.proc` moved the same envelope
traffic across a process boundary.  This package moves it across a
*machine* boundary: a :class:`GeneratorServer` hosts pipeline bodies
(shipped by pickle, or registered by name) and streams their results
back over TCP, speaking the shared wire vocabulary of
:mod:`repro.coexpr.wire` — batched data slices, cause-preserving
errors, close envelopes, and heartbeats — with credit-based flow
control standing in for the blocking queue's capacity bound.

Two client shapes:

* ``Pipe(..., backend="remote", remote_address=(host, port))`` — the
  transparent tier: the pipe's own body is pickled and shipped, and the
  consumer sees the identical element-at-a-time stream (degrading to
  the thread backend when the body cannot travel);
* :class:`RemotePipe` — a pipe over a factory the *server* registered
  by name, for bodies that only exist on the far side.

The **event-loop server** (:mod:`repro.net.aserver`) is the same wire
contract on a different substrate: :class:`AsyncGeneratorServer`
multiplexes every session as a coroutine pair on one loop thread, so
thousands of concurrent streams cost memory instead of OS threads —
and nothing client-side can tell which server answered.

A dead connection surfaces as
:class:`~repro.errors.PipeConnectionLost`, which supervision treats as
a retryable fault: reconnect and replay.  An *overloaded* server sheds
instead of hanging — it answers the dial with ``WIRE_BUSY`` and a
retry hint, surfacing :class:`~repro.errors.PipeServerBusy`; repeated
busy/lost outcomes trip a per-address :class:`CircuitBreaker` that
fails fast (and lets ``backend="remote"`` degrade to threads) until a
half-open probe finds the server healthy again.

The **cluster tier** (:mod:`repro.net.cluster`) replicates the server:
``remote_address=[addr1, addr2, ...]`` anywhere a single address is
accepted becomes a :class:`ServerPool` — consistent-hash placement
over a :class:`HashRing`, failover to the next live replica on
connection loss or shed (the supervised replay preserves the
exactly-once delivered prefix), and a degradation order of
replica → next replica → threads.

**Live membership** (:mod:`repro.net.membership`) unfreezes the fleet:
pools probe their members with ``WIRE_PING`` control frames (a
``MEMBER_DOWN`` verdict takes a replica off the ring, the next pong
puts it back), learn joins/leaves from a :class:`FileRegistry`
(``remote_address="registry:/path.json"``) or seed-based
:class:`GossipMembers` (``"gossip:host:port"``, answered by any
server's ``WIRE_PEERS``), carry per-member weights (vnode scaling for
heterogeneous hosts), and share dead-address memory process-wide so
two pools never each pay the same corpse's connect timeout.
"""

from .aserver import AsyncGeneratorServer
from .client import (
    CircuitBreaker,
    RemotePipe,
    breaker_for,
    drain_address,
    remote_unsafe_reason,
    reset_breakers,
    start_remote_worker,
)
from .cluster import HashRing, ServerPool, normalize_remote_address
from .membership import (
    FileRegistry,
    GossipMembers,
    HealthProber,
    StaticMembers,
    exchange_peers,
    membership_source,
)
from .server import GeneratorServer

__all__ = [
    "AsyncGeneratorServer",
    "CircuitBreaker",
    "FileRegistry",
    "GeneratorServer",
    "GossipMembers",
    "HashRing",
    "HealthProber",
    "RemotePipe",
    "ServerPool",
    "StaticMembers",
    "breaker_for",
    "drain_address",
    "exchange_peers",
    "membership_source",
    "normalize_remote_address",
    "remote_unsafe_reason",
    "reset_breakers",
    "start_remote_worker",
]
