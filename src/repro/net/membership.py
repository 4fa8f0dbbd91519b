"""Live cluster membership — health probes, registries, and gossip.

PR 6's cluster tier froze the fleet at construction: a
:class:`~repro.net.cluster.ServerPool` could route around a dead
replica but never grow, shrink, or heal.  This module supplies the
three missing pieces and the pool wires them together:

* **health probing** — :class:`HealthProber` keeps one persistent
  control connection per member and pings it with lightweight
  ``WIRE_PING``/``WIRE_PONG`` envelopes; consecutive misses drive a
  ``MEMBER_DOWN`` transition (the member leaves the ring but not the
  fleet), and the first pong after that drives ``MEMBER_UP``.  Active
  detection replaces the passive suspicion window as the primary
  liveness signal — suspicion still re-orders dials, probing changes
  *routability*.
* **membership sources** — :class:`StaticMembers` (the frozen list,
  for symmetry), :class:`FileRegistry` (an mtime-watched JSON file;
  the ``remote_address="registry:/path.json"`` spelling), and
  :class:`GossipMembers` (seed addresses; each poll is one push-pull
  ``WIRE_PEERS`` exchange with a live member).  A source feeds the
  pool's live ``add``/``remove``, which feed the ring's minimal-remap
  ``add``/``remove`` — streams in flight never re-route unless their
  keys actually moved.
* **shared health** — probe verdicts and dial failures are written to
  the address's one process-wide record, its circuit breaker
  (:func:`~repro.net.client.breaker_for`), as a down-mark with a TTL,
  so two pools routing over the same dead replica don't each pay the
  connect-timeout trip: the second pool demotes the address before
  ever dialing it.

**Trust note.**  Gossip is only as trustworthy as the servers you
seed: a ``WIRE_PEERS`` reply is an unauthenticated claim, so a hostile
or compromised replica can inject arbitrary addresses into any pool
that polls it.  Gossip is therefore *additive only* (it can introduce
members, never evict them) and belongs on the same trusted network the
wire protocol already assumes; registries and static lists are the
authoritative sources.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
from typing import Any, Iterable, List

from ..coexpr.wire import (
    WIRE_BUSY,
    WIRE_PEERS,
    WIRE_PING,
    WIRE_PONG,
    FrameError,
    SocketFramer,
)

__all__ = [
    "FileRegistry",
    "GossipMembers",
    "HealthProber",
    "StaticMembers",
    "exchange_peers",
    "membership_source",
    "parse_host_port",
]

#: Dial/receive budget for one control exchange (probe or gossip).
_CONTROL_TIMEOUT = 1.0


# ---------------------------------------------------------------------------
# Member parsing.  A member is ``((host, port), weight)``; the wire shape
# is the primitive triple ``[host, port, weight]`` (restricted-unpickler
# safe), and operators also write ``host:port`` strings and JSON dicts.
# ---------------------------------------------------------------------------


def parse_host_port(value: str) -> tuple:
    """``"host:port"`` → ``(host, port)`` (the CLI/seed spelling)."""
    host, _, port = value.rpartition(":")
    if not host:
        raise ValueError(f"not a host:port address: {value!r}")
    try:
        return (host, int(port))
    except ValueError:
        raise ValueError(f"not a host:port address: {value!r}") from None


def as_member(value: Any) -> tuple:
    """Normalize any member spelling to ``((host, port), weight)``.

    Accepts ``(host, port)`` / ``(host, port, weight)`` sequences,
    ``"host:port"`` strings, and ``{"host": ..., "port": ...,
    "weight": ...}`` dicts (the registry-file shape).  Weight defaults
    to 1.0 and must be a positive number.
    """
    weight = 1.0
    if isinstance(value, str):
        try:
            return (parse_host_port(value), weight)
        except ValueError:
            raise ValueError(f"not a cluster member: {value!r}") from None
    if isinstance(value, dict):
        host, port = value.get("host"), value.get("port")
        weight = value.get("weight", 1.0)
    else:
        try:
            parts = tuple(value)
        except TypeError:
            raise ValueError(f"not a cluster member: {value!r}") from None
        if len(parts) == 2:
            host, port = parts
        elif len(parts) == 3:
            host, port, weight = parts
        else:
            raise ValueError(f"not a cluster member: {value!r}")
    if (
        not isinstance(host, str)
        or not isinstance(port, int)
        or isinstance(port, bool)
        or not isinstance(weight, (int, float))
        or isinstance(weight, bool)
        or weight <= 0
    ):
        raise ValueError(f"not a cluster member: {value!r}")
    return ((host, port), float(weight))


def _wire_members(members: Iterable[tuple]) -> list:
    """``((host, port), weight)`` pairs → primitive wire triples."""
    return [[host, port, weight] for (host, port), weight in members]


def parse_wire_members(payload: Any) -> List[tuple]:
    """Decode a ``WIRE_PEERS`` payload, silently dropping malformed
    entries — gossip merges best-effort, it never tears a stream."""
    members: List[tuple] = []
    if not isinstance(payload, (list, tuple)):
        return members
    for entry in payload:
        try:
            members.append(as_member(entry))
        except ValueError:
            continue
    return members


# ---------------------------------------------------------------------------
# One-shot control exchanges.
# ---------------------------------------------------------------------------


def _dial_control(address: tuple, timeout: float) -> SocketFramer:
    sock = socket.create_connection(tuple(address), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(timeout)
    return SocketFramer(sock)


def exchange_peers(
    address: Any,
    known: Iterable[tuple] = (),
    timeout: float = _CONTROL_TIMEOUT,
) -> List[tuple]:
    """One push-pull gossip exchange with the server at *address*.

    Ships *known* (``((host, port), weight)`` pairs) as a
    ``WIRE_PEERS`` envelope — the server merges them into its fleet —
    and returns the server's fleet from the reply.  Raises ``OSError``
    when the exchange cannot complete (unreachable, busy, torn).
    """
    address, _ = as_member(address)
    framer = _dial_control(address, timeout)
    try:
        framer.send((WIRE_PEERS, _wire_members(known)))
        while True:
            envelope = framer.recv()
            if envelope[0] == WIRE_PEERS:
                payload = envelope[1] if len(envelope) > 1 else None
                return parse_wire_members(payload)
            if envelope[0] == WIRE_BUSY:
                raise OSError(f"peer {address} is shedding (busy)")
    except (EOFError, FrameError, TimeoutError) as error:
        raise OSError(f"peer exchange with {address} failed: {error!r}") from error
    finally:
        framer.close()


# ---------------------------------------------------------------------------
# The health prober.
# ---------------------------------------------------------------------------


class HealthProber:
    """Per-fleet ping state: persistent control connections + miss counts.

    Owned by a :class:`~repro.net.cluster.ServerPool`, which calls
    :meth:`probe` for each member every probe interval and applies the
    up/down transitions.  One connection per member persists across
    rounds (a probe is one envelope each way, not a dial); a torn or
    stale socket gets exactly one fresh redial within the same call, so
    a restarted server is seen alive on the first round after it binds.
    """

    def __init__(self, timeout: float = _CONTROL_TIMEOUT, failures: int = 2) -> None:
        if timeout <= 0:
            raise ValueError("probe timeout must be > 0")
        if failures < 1:
            raise ValueError("probe failures must be >= 1")
        self.timeout = timeout
        #: Consecutive misses before the owner declares MEMBER_DOWN.
        self.failures = failures
        self._nonces = itertools.count(1)
        self._lock = threading.Lock()
        self._conns: dict[tuple, SocketFramer] = {}
        self._misses: dict[tuple, int] = {}
        #: One ping/pong exchange in flight per address: two callers on
        #: one cached socket would read each other's pongs.
        self._exchanges: dict[tuple, threading.Lock] = {}

    def _drop(self, address: tuple) -> None:
        with self._lock:
            framer = self._conns.pop(address, None)
        if framer is not None:
            framer.close()

    def probe(self, address: tuple) -> bool:
        """One ping; True on pong (or busy — shedding is alive)."""
        with self._lock:
            exchange = self._exchanges.setdefault(address, threading.Lock())
        with exchange:
            for _ in range(2):  # a cached socket may be stale: one redial
                with self._lock:
                    framer = self._conns.get(address)
                if framer is None:
                    try:
                        framer = _dial_control(address, self.timeout)
                    except OSError:
                        return False
                    with self._lock:
                        self._conns[address] = framer
                nonce = next(self._nonces)
                try:
                    framer.sock.settimeout(self.timeout)
                    framer.send((WIRE_PING, nonce))
                    while True:
                        envelope = framer.recv()
                        if envelope[0] == WIRE_BUSY:
                            return True
                        if envelope[0] == WIRE_PONG and (
                            len(envelope) < 2 or envelope[1] == nonce
                        ):
                            return True
                        # Stray envelope (an older pong): keep reading.
                except (socket.timeout, TimeoutError):
                    # A live TCP path with a silent server — the wedged-
                    # replica case.  No redial: the next round retries.
                    self._drop(address)
                    return False
                except (OSError, EOFError, FrameError):
                    self._drop(address)
                    continue
            return False

    def record(self, address: tuple, alive: bool) -> int:
        """Update the consecutive-miss counter; returns its new value."""
        with self._lock:
            if alive:
                self._misses[address] = 0
                return 0
            misses = self._misses.get(address, 0) + 1
            self._misses[address] = misses
            return misses

    def forget(self, address: tuple) -> None:
        """A member left the fleet: drop its connection and counters."""
        self._drop(address)
        with self._lock:
            self._misses.pop(address, None)

    def close(self) -> None:
        with self._lock:
            framers = list(self._conns.values())
            self._conns.clear()
            self._misses.clear()
        for framer in framers:
            framer.close()


# ---------------------------------------------------------------------------
# Membership sources.
# ---------------------------------------------------------------------------


class StaticMembers:
    """The frozen fleet, as a source: initial members, no changes.

    Exists so every pool has *a* source shape to reason about; a plain
    address list reaches the pool through exactly this.
    """

    #: Authoritative sources may remove members; gossip may not.
    authoritative = True
    kind = "static"

    def __init__(self, members: Iterable[Any]) -> None:
        self._members = [as_member(value) for value in members]

    def initial(self) -> List[tuple]:
        return list(self._members)

    def poll(self, current: List[tuple]) -> List[tuple] | None:
        return None  # never changes

    def __repr__(self) -> str:
        return f"StaticMembers({len(self._members)} members)"


class FileRegistry:
    """An mtime-watched JSON membership file.

    The file is either a list of members (``[host, port]`` /
    ``[host, port, weight]`` / ``{"host": ..., "port": ...,
    "weight": ...}``) or ``{"members": [...]}``.  :meth:`poll` returns
    the parsed fleet only when the mtime moved; a missing or
    unparseable file returns None — the pool keeps its last good view
    rather than evicting everyone on a half-written update (writers
    should rename into place for atomicity anyway).
    """

    authoritative = True
    kind = "registry"

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._mtime: float | None = None

    def _read(self) -> List[tuple] | None:
        try:
            with open(self.path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if isinstance(payload, dict):
            payload = payload.get("members")
        if not isinstance(payload, list):
            return None
        try:
            return [as_member(entry) for entry in payload]
        except ValueError:
            return None

    def initial(self) -> List[tuple]:
        members = self._read()
        try:
            self._mtime = os.stat(self.path).st_mtime
        except OSError:
            self._mtime = None
        return members or []

    def poll(self, current: List[tuple]) -> List[tuple] | None:
        try:
            mtime = os.stat(self.path).st_mtime
        except OSError:
            return None
        if self._mtime is not None and mtime == self._mtime:
            return None
        members = self._read()
        if members is None:
            return None  # torn write: keep the last good view
        self._mtime = mtime
        return members

    def __repr__(self) -> str:
        return f"FileRegistry({self.path!r})"


class GossipMembers:
    """Seed-based peer discovery over ``WIRE_PEERS`` exchanges.

    Each poll pushes the pool's current view to up to *fanout* live
    members (current members first, then unlearned seeds) and merges
    their replies.  **Additive only** (``authoritative = False``): a
    reply introduces members, it never evicts them — a server's fleet
    view is an unauthenticated claim (see the module trust note), and
    a partial view from one peer must not shrink the pool.  Death is
    the prober's verdict, not gossip's.
    """

    authoritative = False
    kind = "gossip"

    def __init__(
        self,
        seeds: Iterable[Any],
        timeout: float = _CONTROL_TIMEOUT,
        fanout: int = 2,
    ) -> None:
        self.seeds = [as_member(value) for value in seeds]
        if not self.seeds:
            raise ValueError("GossipMembers needs at least one seed")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.timeout = timeout
        self.fanout = fanout

    def initial(self) -> List[tuple]:
        return list(self.seeds)

    def poll(self, current: List[tuple]) -> List[tuple] | None:
        known = {address: weight for address, weight in current}
        for address, weight in self.seeds:
            known.setdefault(address, weight)
        targets = [address for address, _ in current]
        targets += [
            address for address, _ in self.seeds if address not in set(targets)
        ]
        merged: dict[tuple, float] = dict(known)
        replies = 0
        for address in targets:
            if replies >= self.fanout:
                break
            try:
                fleet = exchange_peers(
                    address, known.items(), timeout=self.timeout
                )
            except OSError:
                continue
            replies += 1
            for peer, weight in fleet:
                merged[peer] = weight
        if not replies:
            return None
        return list(merged.items())

    def __repr__(self) -> str:
        seeds = ", ".join(f"{h}:{p}" for (h, p), _ in self.seeds)
        return f"GossipMembers([{seeds}])"


def membership_source(value: Any) -> Any:
    """Resolve a ``remote_address`` membership spelling to a source.

    * ``"registry:/path.json"`` → :class:`FileRegistry`;
    * ``"gossip:host:port[,host:port...]"`` → :class:`GossipMembers`;
    * an object with ``initial``/``poll`` passes through.
    """
    if isinstance(value, str):
        if value.startswith("registry:"):
            path = value[len("registry:"):]
            if not path:
                raise ValueError("registry: needs a file path")
            return FileRegistry(path)
        if value.startswith("gossip:"):
            seeds = value[len("gossip:"):]
            return GossipMembers(
                [parse_host_port(part) for part in seeds.split(",") if part]
            )
        raise ValueError(
            f"unknown membership source {value!r} "
            "(expected 'registry:/path.json' or 'gossip:host:port,...')"
        )
    if hasattr(value, "initial") and hasattr(value, "poll"):
        return value
    raise ValueError(f"not a membership source: {value!r}")
