"""The cluster tier — replicated generator servers behind one address.

``backend="remote"`` binds a pipeline to exactly one
:class:`~repro.net.server.GeneratorServer`: a single point of failure
and a vertical ceiling.  This module turns a *list* of addresses into a
routing layer with the same surface a single ``(host, port)`` pair has:

* :class:`HashRing` — consistent hashing with virtual nodes.  Factory
  placement is stable (the same pipeline name lands on the same replica
  run after run) and membership changes are minimal (removing a replica
  remaps only the keys it owned; every other key stays put).
* :class:`ServerPool` — the live routing state over a ring: per-address
  *suspicion* (a replica whose session just died or shed is routed
  around while its down-mark lasts — the mark lives on the address's
  process-wide :class:`~repro.net.client.CircuitBreaker`), per-key
  session memory (which replica served a stream last, and whether that
  session was lost), and the monitor-event vocabulary of recovery —
  ``REROUTE`` when placement skips a candidate, ``FAILOVER`` when a
  lost stream reconnects to a *different* replica, ``STEAL`` when
  :class:`~repro.coexpr.dataparallel.DataParallel` re-runs a chunk that
  was stranded on a dead or shed replica.

Failover deliberately *composes* with what is already there instead of
duplicating it: the per-address
:class:`~repro.net.client.CircuitBreaker` supplies liveness memory
between dials, supervision's reconnect+replay preserves the
exactly-once delivered prefix across the re-route, and the
:class:`~repro.coexpr.deadline.Deadline` wire rule already makes
budgets survive re-routing (only remaining seconds ever cross a
boundary).  The degradation order is **replica → next replica →
threads** — work is never silently lost: only when every replica is
down or shedding does a transparent pipe fall back to the thread tier
(the documented ``DEGRADED`` path), and a chunk task that exhausts its
steal budget re-runs locally.

Trust model: a pool is just N servers, so the single-server posture
applies to each replica — the wire is unauthenticated, and replicas
meant for untrusted clients should all run ``allow_spawn=False`` (the
restricted-unpickler posture); a pool is only as safe as its least
restricted member.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import threading
import time
from typing import Any, Iterable, List

from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from .client import breaker_for, drain_address
from .membership import HealthProber, as_member, membership_source

__all__ = ["HashRing", "ServerPool", "normalize_remote_address"]

#: Virtual nodes per ring member.  128 points keep the worst member's
#: key share within a few tens of percent of the mean (the hypothesis
#: suite pins a 2x bound), at ~1 µs of bisect per route.
_DEFAULT_VNODES = 128
#: Seconds a replica stays *suspect* (routed around) after a lost or
#: shed session.  Short on purpose: the circuit breaker carries the
#: longer memory, suspicion only has to outlive the immediate
#: reconnect so a supervised replay does not re-dial the corpse.
_DEFAULT_SUSPICION = 1.0
#: Probe cadence when a dynamic pool turns probing on without an
#: explicit interval (``remote_address="registry:..."`` / ``"gossip:..."``).
_DEFAULT_PROBE = 0.25
#: How often a source-backed pool polls its registry/gossip source.
_DEFAULT_REFRESH = 1.0


def _hash64(data: str) -> int:
    """Stable 64-bit hash (blake2b) — ``hash()`` is salted per process,
    which would re-shuffle placement on every restart."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hashing over hashable nodes with virtual points.

    Each node contributes ``vnodes`` points on a 64-bit ring; a key is
    owned by the first point clockwise from its own hash.  Two
    properties matter (and are hypothesis-tested):

    * **balance** — with enough virtual points, every node owns a share
      of the key space close to the mean;
    * **minimal remap** — removing a node reassigns *only* the keys
      that node owned; adding one steals keys only for the new node.

    Not thread-safe by itself; :class:`ServerPool` serializes access.
    """

    __slots__ = ("vnodes", "_points", "_owners", "_nodes", "_weights")

    def __init__(self, nodes: Iterable[Any] = (), vnodes: int = _DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[int] = []      # sorted ring positions
        self._owners: dict[int, Any] = {} # position -> node
        self._nodes: dict[Any, List[int]] = {}
        self._weights: dict[Any, float] = {}
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Any) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> tuple:
        return tuple(self._nodes)

    def weight(self, node: Any) -> float:
        """The weight *node* was added with (KeyError when absent)."""
        return self._weights[node]

    def add(self, node: Any, weight: float = 1.0) -> None:
        """Insert *node* (idempotent) with ``vnodes * weight`` points.

        Weight scales a member's share of the key space for
        heterogeneous hosts: a weight-2 replica owns twice the keys of
        a weight-1 one (the hypothesis suite pins the weighted 2x
        balance bound).  Very small weights still get one point — a
        member on the ring is always reachable by some key.
        """
        if weight <= 0:
            raise ValueError("weight must be > 0")
        if node in self._nodes:
            return
        points = []
        for index in range(max(1, round(self.vnodes * weight))):
            point = _hash64(f"{node!r}#{index}")
            while point in self._owners:  # 64-bit collision: nudge
                point = (point + 1) % (1 << 64)
            self._owners[point] = node
            bisect.insort(self._points, point)
            points.append(point)
        self._nodes[node] = points
        self._weights[node] = float(weight)

    def remove(self, node: Any) -> None:
        """Remove *node* (idempotent); only its keys are remapped."""
        points = self._nodes.pop(node, None)
        if points is None:
            return
        self._weights.pop(node, None)
        drop = set(points)
        self._points = [p for p in self._points if p not in drop]
        for point in points:
            del self._owners[point]

    def node_for(self, key: Any) -> Any:
        """The node owning *key* (the ring's primary placement)."""
        if not self._points:
            raise ValueError("hash ring is empty")
        index = bisect.bisect_right(self._points, _hash64(repr(key)))
        return self._owners[self._points[index % len(self._points)]]

    def preference(self, key: Any) -> List[Any]:
        """Every node, ordered by ring walk from *key*'s position.

        The failover order: the primary first, then the replica that
        would own the key if the primary vanished, and so on — so
        routing around a dead node lands exactly where a ring with that
        node removed would place the key (the minimal-remap property,
        applied at dial time).
        """
        if not self._points:
            return []
        start = bisect.bisect_right(self._points, _hash64(repr(key)))
        count = len(self._points)
        want = len(self._nodes)
        seen: set = set()
        order: List[Any] = []
        for step in range(count):
            node = self._owners[self._points[(start + step) % count]]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == want:
                    break
        return order


def _as_address(value: Any) -> tuple:
    """One ``(host, port)`` pair, normalized to a hashable tuple."""
    try:
        host, port = value
    except (TypeError, ValueError):
        raise ValueError(f"not a (host, port) address: {value!r}") from None
    if not isinstance(host, str) or not isinstance(port, int):
        raise ValueError(f"not a (host, port) address: {value!r}")
    return (host, port)


def _is_single_address(value: Any) -> bool:
    return (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and isinstance(value[0], str)
        and isinstance(value[1], int)
    )


def normalize_remote_address(value: Any) -> Any:
    """Accept every shape ``remote_address`` takes, everywhere.

    * ``None`` and an existing :class:`ServerPool` pass through;
    * a single ``(host, port)`` pair stays a plain tuple (the
      single-server tier, byte-for-byte the old behavior);
    * a list/tuple of pairs (optionally ``(host, port, weight)``
      triples) becomes a :class:`ServerPool` — the cluster tier;
    * a membership spelling — ``"registry:/path.json"``,
      ``"gossip:host:port,..."``, or a source object — becomes a pool
      with live membership (and probing on by default: dynamic fleets
      need an active liveness verdict, not just dial outcomes).

    Callers that spawn *many* pipes over one cluster (supervision's
    restarts, a pipeline's stages, DataParallel's chunk tasks) should
    normalize once and share the pool object, so suspicion and
    failover memory persist across spawns.
    """
    if value is None or isinstance(value, ServerPool):
        return value
    if isinstance(value, str) or (
        hasattr(value, "initial") and hasattr(value, "poll")
    ):
        return ServerPool(membership=value, probe_interval=_DEFAULT_PROBE)
    if _is_single_address(value):
        return _as_address(value)
    return ServerPool(value)


class ServerPool:
    """Replica routing state: a hash ring plus liveness memory.

    The pool answers one question — *which replicas should this key try,
    in what order?* — and records the outcomes that shape the next
    answer: a lost or shed session makes its address **suspect** for
    ``suspicion`` seconds (routed last, not never — the degradation
    order ends at the replica list, so a suspect is still dialed before
    any thread fallback), a healthy stream clears it, and a reconnect
    that lands on a different replica than the lost session is a
    **failover**, emitted on the monitor bus like every other routing
    outcome (:meth:`~repro.monitor.Tracer.summary` lists the payloads
    under ``pool:<name>``; a count is ``len(...)``).

    ``fault_plan`` (a :class:`~repro.coexpr.supervision.FaultPlan`)
    arms deterministic chaos: ``drop_connection`` / ``kill_server`` /
    ``churn_membership`` rules keyed by route key fire from the client
    pump, so tests drive failover without racing a real crash.

    **Live membership** (PR 8).  The fleet is no longer frozen:
    :meth:`add` / :meth:`remove` change it at runtime (each remaps only
    the keys the ring's minimal-remap property says must move), a
    *membership source* (``membership=`` — a
    :class:`~repro.net.membership.FileRegistry`,
    :class:`~repro.net.membership.GossipMembers`, or the string
    spellings ``"registry:/path.json"`` / ``"gossip:host:port,..."``)
    feeds those transitions from a background thread, and a **health
    prober** (``probe_interval=`` seconds; None = off) pings every
    member over persistent ``WIRE_PING`` control connections —
    ``probe_failures`` consecutive misses drive ``MEMBER_DOWN`` (the
    member leaves the *ring* but stays in the fleet, dialed only as a
    last resort), the next pong drives ``MEMBER_UP``.  Members carry
    **weights** (``(host, port, weight)`` triples): vnode counts scale
    proportionally, so a weight-2 host owns twice the key share.
    Suspicion is the down-mark on the address's process-wide record
    (:func:`~repro.net.client.breaker_for`): losses, dial failures and
    probe verdicts write it, so a second pool routing over the same
    dead replica demotes it without paying the connect-timeout trip.
    A pong clears the mark only when it reverses a ``MEMBER_DOWN``;
    a healthy stream always clears it.  Call :meth:`close` to stop the
    background thread (pools without a source or prober never start
    one).

    Thread-safe; one pool is meant to be shared by every pipe routed
    over the same replica fleet.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        addresses: Iterable[Any] = (),
        vnodes: int = _DEFAULT_VNODES,
        suspicion: float = _DEFAULT_SUSPICION,
        name: str | None = None,
        fault_plan: Any = None,
        membership: Any = None,
        probe_interval: float | None = None,
        probe_timeout: float = 1.0,
        probe_failures: int = 2,
        refresh_interval: float = _DEFAULT_REFRESH,
    ) -> None:
        if suspicion < 0:
            raise ValueError("suspicion must be >= 0")
        if probe_interval is not None and probe_interval <= 0:
            raise ValueError("probe_interval must be > 0 or None")
        if refresh_interval <= 0:
            raise ValueError("refresh_interval must be > 0")
        if isinstance(addresses, str) or (
            hasattr(addresses, "initial") and hasattr(addresses, "poll")
        ):
            if membership is not None:
                raise ValueError("pass the membership source only once")
            membership, addresses = addresses, ()
        self._source = (
            membership_source(membership) if membership is not None else None
        )
        members: List[tuple] = []  # ((host, port), weight), insertion order
        seen: set = set()
        for value in addresses:
            address, weight = as_member(value)
            if address not in seen:
                seen.add(address)
                members.append((address, weight))
        if self._source is not None:
            for address, weight in self._source.initial():
                if address not in seen:
                    seen.add(address)
                    members.append((address, weight))
        if not members and self._source is None:
            raise ValueError("ServerPool needs at least one address")
        self.name = name or f"pool-{next(self._ids)}"
        self.suspicion = suspicion
        #: Chaos hook: rules keyed by route key, entered by the client
        #: pump on every (re)connect — attempt numbers count sessions.
        self.fault_plan = fault_plan
        self.probe_interval = probe_interval
        self.refresh_interval = refresh_interval
        self._lock = threading.Lock()
        self._ring = HashRing(vnodes=vnodes)
        self._members: dict[tuple, float] = {}  # address -> weight
        self._down: dict[tuple, str] = {}       # address -> down reason
        for address, weight in members:
            self._members[address] = weight
            self._ring.add(address, weight=weight)
        self._last: dict[Any, tuple] = {}       # key -> last connected address
        self._lost: set = set()                 # keys whose last session died
        self._prober = (
            HealthProber(timeout=probe_timeout, failures=probe_failures)
            if probe_interval is not None
            else None
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if self._prober is not None or self._source is not None:
            # A plain daemon thread, not a scheduler worker: the pool is
            # routing infrastructure that outlives any one scheduler,
            # and close() is its teardown.
            self._thread = threading.Thread(
                target=self._membership_loop,
                name=f"membership-{self.name}",
                daemon=True,
            )
            self._thread.start()

    # -- membership ------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    @property
    def addresses(self) -> tuple:
        """Every fleet member (up or down), in join order."""
        with self._lock:
            return tuple(self._members)

    @property
    def up_addresses(self) -> tuple:
        """Members currently on the ring (not probed down)."""
        with self._lock:
            return tuple(a for a in self._members if a not in self._down)

    @property
    def down_addresses(self) -> tuple:
        """Members the prober has declared dead (off the ring, still in
        the fleet — the next pong brings them back)."""
        with self._lock:
            return tuple(self._down)

    def weight_of(self, address: Any) -> float:
        address, _ = as_member(address)
        with self._lock:
            return self._members[address]

    def add(self, member: Any, weight: float | None = None, source: str = "api") -> bool:
        """Join *member* to the fleet (idempotent); only the keys the
        new replica now owns are remapped.  *member* may carry its
        weight (``(host, port, weight)``); an explicit ``weight=``
        wins.  Returns True when the fleet actually changed."""
        address, parsed_weight = as_member(member)
        weight = parsed_weight if weight is None else float(weight)
        with self._lock:
            if address in self._members:
                return False
            self._members[address] = weight
            self._ring.add(address, weight=weight)
        self._emit(
            EventKind.MEMBER_JOIN,
            {"address": address, "weight": weight, "source": source},
        )
        return True

    def remove(self, member: Any, source: str = "api") -> bool:
        """Retire *member* (idempotent); only its keys are remapped.
        Returns True when the fleet actually changed."""
        address, _ = as_member(member)
        with self._lock:
            if address not in self._members:
                return False
            del self._members[address]
            self._ring.remove(address)
            self._down.pop(address, None)
        if self._prober is not None:
            self._prober.forget(address)
        self._emit(EventKind.MEMBER_LEAVE, {"address": address, "source": source})
        return True

    def mark_down(self, address: Any, reason: str, misses: int = 0) -> bool:
        """The prober's death verdict: *address* leaves the ring (its
        keys remap minimally) but stays a fleet member — dialed only
        after every up member, and restored by :meth:`mark_up`."""
        address, _ = as_member(address)
        with self._lock:
            if address not in self._members or address in self._down:
                return False
            self._down[address] = reason
            self._ring.remove(address)
        breaker_for(address).mark_down(reason, self._down_ttl())
        self._emit(
            EventKind.MEMBER_DOWN,
            {"address": address, "reason": reason, "misses": misses},
        )
        # Eager drain: every in-flight stream on the dead replica is
        # doomed — wake its watchdog now so failover starts within one
        # poll slice of the verdict, not one full heartbeat timeout.
        drain_address(address, f"marked down by health probe: {reason}")
        return True

    def mark_up(self, address: Any) -> bool:
        """A pong (or a healthy stream) on a down member: back on the
        ring, owning exactly the keys the weighted ring gives it."""
        address, _ = as_member(address)
        with self._lock:
            if address not in self._down:
                return False
            del self._down[address]
            self._ring.add(address, weight=self._members[address])
        breaker_for(address).mark_up()
        self._emit(EventKind.MEMBER_UP, {"address": address})
        return True

    def _down_ttl(self) -> float:
        """How long a probe's down-mark lives without refresh: a probing
        pool refreshes every round, so a few intervals outlive jitter;
        a non-probing pool falls back to its suspicion window."""
        if self.probe_interval is not None:
            return max(5 * self.probe_interval, self.suspicion)
        return self.suspicion

    # -- the background membership loop ---------------------------------------

    def _membership_loop(self) -> None:
        next_probe = next_refresh = time.monotonic()
        while not self._stop.is_set():
            now = time.monotonic()
            due = []
            if self._source is not None and now >= next_refresh:
                next_refresh = now + self.refresh_interval
                due.append(self.refresh)
            if self._prober is not None and now >= next_probe:
                next_probe = now + self.probe_interval
                due.append(self.probe_round)
            for step in due:
                try:
                    step()
                except Exception:  # noqa: BLE001 - a broken source/probe
                    pass  # must not kill the loop; the next tick retries
            waits = []
            if self._source is not None:
                waits.append(next_refresh - time.monotonic())
            if self._prober is not None:
                waits.append(next_probe - time.monotonic())
            self._stop.wait(max(0.005, min(waits)) if waits else 0.1)

    def refresh(self) -> None:
        """Poll the membership source once and apply the delta.

        Authoritative sources (registry, static) both add and remove;
        gossip is additive only — death is the prober's verdict, and an
        unauthenticated fleet claim must not evict members (see the
        membership module's trust note).
        """
        source = self._source
        if source is None:
            return
        with self._lock:
            current = list(self._members.items())
        desired = source.poll(current)
        if desired is None:
            return
        wanted = {address: weight for address, weight in desired}
        for address, weight in wanted.items():
            self.add((address[0], address[1]), weight=weight, source=source.kind)
        if getattr(source, "authoritative", True):
            for address, _ in current:
                if address not in wanted:
                    self.remove(address, source=source.kind)

    def probe_round(self) -> None:
        """Ping every member once and apply up/down transitions."""
        prober = self._prober
        if prober is None:
            return
        for address in self.addresses:
            if self._stop.is_set():
                return
            alive = prober.probe(address)
            misses = prober.record(address, alive)
            if alive:
                # Clears the down-mark only for a member that was down:
                # a pong does not outvote a loss another pool just saw.
                self.mark_up(address)
            elif misses >= prober.failures:
                reason = f"no pong after {misses} probes"
                if not self.mark_down(address, reason, misses=misses):
                    # Already down: refresh the mark so it outlives its
                    # TTL while the corpse stays dead.
                    breaker_for(address).mark_down(reason, self._down_ttl())

    def close(self) -> None:
        """Stop the membership thread and probe connections
        (idempotent).  Routing keeps working on the frozen state."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        if self._prober is not None:
            self._prober.close()

    def __enter__(self) -> "ServerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- routing ---------------------------------------------------------------

    def primary(self, key: Any) -> tuple:
        """The ring's placement for *key*, ignoring liveness."""
        with self._lock:
            return self._ring.node_for(key)

    def dial_candidates(self, key: Any) -> List[tuple]:
        """Replicas to try for *key*, in order: the ring's preference
        walk (up members only) with suspect addresses moved to the
        tail, then probed-down members last.

        Every fleet member appears — suspicion and even a MEMBER_DOWN
        verdict re-order, they never exclude: if the whole fleet is
        down the dial still tries each one (fast refusals) before the
        caller degrades to threads.  Suspicion is the address's
        process-wide down-mark, so another pool's dead-replica discovery
        demotes the address before this pool ever pays the trip.
        """
        with self._lock:
            preference = self._ring.preference(key)
            down = [address for address in self._members if address in self._down]
        suspect = [address for address in preference if self.suspected(address)]
        live = [address for address in preference if address not in suspect]
        return live + suspect + down

    def suspected(self, address: Any) -> bool:
        """Is *address* marked down — by this pool or any other?"""
        return breaker_for(address).is_down()

    def last_address(self, key: Any) -> tuple | None:
        """The replica the last successful dial for *key* landed on
        (None before any connect).  Lets a test — or an operator — ask
        *which* replica currently serves a stream, e.g. to kill it."""
        with self._lock:
            return self._last.get(key)

    # -- outcome notifications (the client pump and dial loop call these) ------

    def _emit(self, kind: str, value: dict) -> None:
        if lifecycle_enabled():
            emit_lifecycle(Event(kind, f"pool:{self.name}", 0, value))

    def note_lost(self, key: Any, address: Any, reason: str) -> None:
        """A session for *key* on *address* died or was shed."""
        with self._lock:
            self._lost.add(key)
        breaker_for(address).mark_down(reason, self.suspicion)

    def note_dial_failure(self, key: Any, address: Any, error: BaseException) -> None:
        """A dial for *key* to *address* failed; routing moves on."""
        reason = f"dial failed: {error!r}"
        breaker_for(address).mark_down(reason, self.suspicion)
        self.note_skip(key, address, reason)

    def note_skip(self, key: Any, address: Any, reason: str) -> None:
        """Routing for *key* passed over *address* without dialing
        (breaker open, suspect window)."""
        self._emit(
            EventKind.REROUTE, {"key": key, "skipped": address, "reason": reason}
        )

    def note_connect(self, key: Any, address: Any) -> None:
        """A dial for *key* landed on *address*.  A reconnect after a
        loss that lands on a *different* replica is the failover."""
        with self._lock:
            previous = self._last.get(key)
            recovered = key in self._lost
            self._last[key] = address
            self._lost.discard(key)
            failover = recovered and previous is not None and previous != address
        if failover:
            self._emit(
                EventKind.FAILOVER,
                {"key": key, "from": previous, "to": address},
            )

    def note_healthy(self, address: Any) -> None:
        """A stream on *address* proved the replica alive — stronger
        evidence than any probe, so it also reverses a MEMBER_DOWN."""
        breaker_for(address).mark_up()
        self.mark_up(address)

    def note_steal(
        self,
        key: Any,
        delivered: int,
        reason: str,
        fallback: bool = False,
        address: Any = None,
    ) -> None:
        """A DataParallel chunk stranded on a dead/shed replica is being
        re-run (*fallback* = on the thread tier, the end of the
        degradation order).  *address* is the replica the chunk was
        stranded on, when the caller knows it; the ``STEAL`` payload
        names it."""
        self._emit(
            EventKind.STEAL,
            {
                "key": key,
                "delivered": delivered,
                "reason": reason,
                "fallback": fallback,
                "address": address,
            },
        )

    # -- chaos -----------------------------------------------------------------

    def chaos_enter(self, key: Any) -> Any:
        """Enter the fault plan for one (re)connection of *key*; None
        when no plan is armed.  May raise the injected fault itself
        (a ``drop_connection`` rule with ``after_items=0``)."""
        plan = self.fault_plan
        if plan is None:
            return None
        return plan.enter(key)

    def __repr__(self) -> str:
        with self._lock:
            members = ", ".join(
                f"{h}:{p}" + ("!" if (h, p) in self._down else "")
                for h, p in self._members
            )
        return f"ServerPool({self.name}, [{members}])"
