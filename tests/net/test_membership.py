"""Live membership: probes, registries, gossip, weights, shared health.

Five layers of coverage:

* **Member parsing** — every spelling (`host:port`, pairs, weighted
  triples, registry dicts) normalizes to ``((host, port), weight)``;
  malformed gossip entries are dropped, not fatal.
* **Weighted ring properties** (hypothesis) — balance within 2x of the
  *weighted* fair share, and minimal remap preserved for weighted
  add/remove (the in-flight-streams guarantee).
* **Sources** — :class:`FileRegistry` mtime watching and torn-write
  tolerance; :class:`GossipMembers` push-pull discovery and its
  additive-only trust posture.
* **Health** — the shared :class:`AddressHealth` registry (TTL decay,
  cross-pool demotion) and :class:`HealthProber`-driven
  ``MEMBER_DOWN``/``MEMBER_UP`` transitions against real servers.
* **Integration** — deterministic ``churn_membership`` chaos, and a
  mid-stream fleet change that leaves the running stream untouched.
"""

from __future__ import annotations

import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coexpr.patterns import source_pipe
from repro.coexpr.supervision import NO_BACKOFF, FaultPlan, supervise
from repro.monitor import EventKind, Tracer
from repro.net import (
    FileRegistry,
    GeneratorServer,
    GossipMembers,
    HashRing,
    HealthProber,
    ServerPool,
    StaticMembers,
    exchange_peers,
    membership_source,
    probe_address,
    shared_health,
)
from repro.net.membership import (
    AddressHealth,
    as_member,
    parse_host_port,
    parse_wire_members,
)


def _wait_until(predicate, timeout=8.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestMemberParsing:
    def test_every_spelling_normalizes(self):
        assert as_member("10.0.0.1:4000") == (("10.0.0.1", 4000), 1.0)
        assert as_member(("10.0.0.1", 4000)) == (("10.0.0.1", 4000), 1.0)
        assert as_member(["10.0.0.1", 4000, 2.5]) == (("10.0.0.1", 4000), 2.5)
        assert as_member(
            {"host": "10.0.0.1", "port": 4000, "weight": 3}
        ) == (("10.0.0.1", 4000), 3.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense",
            "host:notaport",
            ("10.0.0.1",),
            ("10.0.0.1", 4000, 2.0, "extra"),
            ("10.0.0.1", "4000"),
            ("10.0.0.1", 4000, 0),
            ("10.0.0.1", 4000, -1.0),
            ("10.0.0.1", True),
            {"host": "10.0.0.1"},
            42,
        ],
    )
    def test_bad_members_rejected(self, bad):
        with pytest.raises(ValueError, match="not a cluster member"):
            as_member(bad)

    def test_parse_host_port(self):
        assert parse_host_port("::1:9000") == ("::1", 9000)
        with pytest.raises(ValueError, match="not a host:port"):
            parse_host_port("9000")

    def test_wire_members_drop_malformed(self):
        payload = [
            ["10.0.0.1", 4000, 1.0],
            ["bad"],
            "10.0.0.2:4001",
            None,
            ["10.0.0.3", 4002, -5],
        ]
        assert parse_wire_members(payload) == [
            (("10.0.0.1", 4000), 1.0),
            (("10.0.0.2", 4001), 1.0),
        ]
        assert parse_wire_members("not-a-list") == []


# Distinct fleets of (address, weight) members; weights span the
# heterogeneous-host range the docs recommend (a 0.5x box next to a
# 4x box), small enough that 128 vnodes keep the balance bound tight.
weighted_fleets = st.lists(
    st.tuples(
        st.integers(min_value=1024, max_value=65535).map(
            lambda port: ("10.0.0.1", port)
        ),
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    ),
    min_size=2,
    max_size=6,
    unique_by=lambda member: member[0],
)


class TestWeightedRingProperties:
    @settings(max_examples=25, deadline=None)
    @given(weighted_fleets)
    def test_balance_within_two_x_of_weighted_fair_share(self, fleet):
        ring = HashRing()
        for node, weight in fleet:
            ring.add(node, weight=weight)
        keys = [f"stream-{i}" for i in range(2000)]
        counts = {node: 0 for node, _ in fleet}
        for key in keys:
            counts[ring.node_for(key)] += 1
        total_weight = sum(weight for _, weight in fleet)
        for node, weight in fleet:
            fair = len(keys) * weight / total_weight
            assert counts[node] <= 2 * fair

    @settings(max_examples=25, deadline=None)
    @given(weighted_fleets, st.integers(min_value=0, max_value=5))
    def test_weighted_removal_remaps_only_the_removed_keys(self, fleet, pick):
        ring = HashRing()
        for node, weight in fleet:
            ring.add(node, weight=weight)
        keys = [f"stream-{i}" for i in range(500)]
        before = {key: ring.node_for(key) for key in keys}
        victim = fleet[pick % len(fleet)][0]
        ring.remove(victim)
        for key in keys:
            if before[key] != victim:
                assert ring.node_for(key) == before[key]

    @settings(max_examples=25, deadline=None)
    @given(weighted_fleets)
    def test_weighted_addition_steals_keys_only_for_the_new_node(self, fleet):
        ring = HashRing()
        for node, weight in fleet[:-1]:
            ring.add(node, weight=weight)
        keys = [f"stream-{i}" for i in range(500)]
        before = {key: ring.node_for(key) for key in keys}
        newcomer, weight = fleet[-1]
        ring.add(newcomer, weight=weight)
        for key in keys:
            after = ring.node_for(key)
            if after != before[key]:
                assert after == newcomer

    def test_weight_scales_points_and_is_retrievable(self):
        ring = HashRing(vnodes=128)
        ring.add("light", weight=1.0)
        ring.add("heavy", weight=2.0)
        assert ring.weight("light") == 1.0
        assert ring.weight("heavy") == 2.0
        assert len(ring._nodes["heavy"]) == 2 * len(ring._nodes["light"])
        with pytest.raises(ValueError, match="weight must be > 0"):
            ring.add("zero", weight=0)

    def test_tiny_weight_still_owns_a_point(self):
        ring = HashRing(vnodes=4)
        ring.add("speck", weight=0.01)
        assert len(ring._nodes["speck"]) == 1


class TestAddressHealth:
    def test_marks_expire_by_ttl(self):
        health = AddressHealth()
        health.mark_down(("10.0.0.1", 1), "dead", ttl=0.05)
        assert health.is_down(("10.0.0.1", 1))
        time.sleep(0.08)
        assert not health.is_down(("10.0.0.1", 1))

    def test_later_deadline_wins(self):
        health = AddressHealth()
        health.mark_down(("10.0.0.1", 1), "first", ttl=10.0)
        health.mark_down(("10.0.0.1", 1), "second", ttl=0.01)
        # The shorter re-mark must not cut the existing memory short.
        assert health.snapshot() == {("10.0.0.1", 1): "first"}

    def test_mark_up_clears_for_everyone(self):
        health = AddressHealth()
        health.mark_down(("10.0.0.1", 1), "dead", ttl=10.0)
        health.mark_up(("10.0.0.1", 1))
        assert not health.is_down(("10.0.0.1", 1))
        assert health.snapshot() == {}

    def test_one_pools_discovery_demotes_for_another(self):
        a, b = ("127.0.0.1", 1), ("127.0.0.1", 2)
        first = ServerPool([a, b], name="first")
        second = ServerPool([a, b], name="second")
        key = "k"
        primary = second.primary(key)
        # Only the *first* pool saw the loss...
        first.note_lost("other-stream", primary, "killed")
        assert not second.suspected(primary)
        # ...but the second routes around it via the shared registry.
        assert second.dial_candidates(key)[-1] == primary
        assert shared_health().is_down(primary)


class TestMembershipSources:
    def test_static_source_never_changes(self):
        source = StaticMembers(["10.0.0.1:1", ("10.0.0.2", 2, 2.0)])
        assert source.initial() == [
            (("10.0.0.1", 1), 1.0),
            (("10.0.0.2", 2), 2.0),
        ]
        assert source.poll(source.initial()) is None

    def test_registry_reads_both_file_shapes(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps([["10.0.0.1", 1], ["10.0.0.2", 2, 2.0]]))
        assert FileRegistry(str(path)).initial() == [
            (("10.0.0.1", 1), 1.0),
            (("10.0.0.2", 2), 2.0),
        ]
        path.write_text(json.dumps({
            "members": [{"host": "10.0.0.3", "port": 3, "weight": 1.5}]
        }))
        assert FileRegistry(str(path)).initial() == [(("10.0.0.3", 3), 1.5)]

    def test_registry_polls_only_on_mtime_change(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps([["10.0.0.1", 1]]))
        registry = FileRegistry(str(path))
        registry.initial()
        assert registry.poll([]) is None  # unchanged mtime: no re-read
        path.write_text(json.dumps([["10.0.0.1", 1], ["10.0.0.2", 2]]))
        os.utime(path, (time.time() + 5, time.time() + 5))
        assert registry.poll([]) == [
            (("10.0.0.1", 1), 1.0),
            (("10.0.0.2", 2), 1.0),
        ]

    def test_registry_keeps_last_good_view_on_torn_write(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps([["10.0.0.1", 1]]))
        registry = FileRegistry(str(path))
        registry.initial()
        path.write_text('{"members": [["10.0.0.1", 1], ["10.0')  # torn
        os.utime(path, (time.time() + 5, time.time() + 5))
        assert registry.poll([]) is None
        path.write_text(json.dumps([["10.0.0.9", 9]]))
        os.utime(path, (time.time() + 10, time.time() + 10))
        assert registry.poll([]) == [(("10.0.0.9", 9), 1.0)]

    def test_registry_missing_file_is_an_empty_start_not_a_crash(self, tmp_path):
        registry = FileRegistry(str(tmp_path / "absent.json"))
        assert registry.initial() == []
        assert registry.poll([]) is None

    def test_pool_follows_the_registry_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        a, b, c = ("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)
        path.write_text(json.dumps([list(a), list(b)]))
        tracer = Tracer()
        with tracer.lifecycle():
            pool = ServerPool(
                membership=f"registry:{path}", refresh_interval=0.02
            )
            try:
                assert set(pool.addresses) == {a, b}
                # A registry update: b retires, c (weighted) joins.
                path.write_text(json.dumps([list(a), [c[0], c[1], 2.0]]))
                os.utime(path, (time.time() + 5, time.time() + 5))
                assert _wait_until(lambda: set(pool.addresses) == {a, c})
                assert pool.weight_of(c) == 2.0
            finally:
                pool.close()
        events = tracer.summary()[f"pool:{pool.name}"]
        joins = events[EventKind.MEMBER_JOIN]
        leaves = events[EventKind.MEMBER_LEAVE]
        assert c in [join["address"] for join in joins]
        assert b in [leave["address"] for leave in leaves]
        assert {p["source"] for p in joins + leaves} == {"registry"}

    def test_source_string_spellings(self, tmp_path):
        registry = membership_source(f"registry:{tmp_path / 'f.json'}")
        assert isinstance(registry, FileRegistry)
        gossip = membership_source("gossip:10.0.0.1:1,10.0.0.2:2")
        assert isinstance(gossip, GossipMembers)
        assert gossip.seeds == [(("10.0.0.1", 1), 1.0), (("10.0.0.2", 2), 1.0)]
        with pytest.raises(ValueError, match="unknown membership source"):
            membership_source("zookeeper:whatever")
        with pytest.raises(ValueError, match="not a membership source"):
            membership_source(42)


class TestGossip:
    def test_known_peers_lists_self_first(self):
        with GeneratorServer(weight=2.0) as server:
            server.add_peer(("10.0.0.9", 4000), weight=3.0)
            host, port = server.address
            assert server.known_peers() == [
                [host, port, 2.0],
                ["10.0.0.9", 4000, 3.0],
            ]

    def test_advertise_overrides_the_gossiped_address(self):
        with GeneratorServer(advertise=("203.0.113.9", 4321)) as server:
            assert server.advertised_address == ("203.0.113.9", 4321)
            assert server.known_peers()[0] == ["203.0.113.9", 4321, 1.0]
            # Peers matching the advertised identity are "self": skipped.
            server.add_peer(("203.0.113.9", 4321))
            assert len(server.known_peers()) == 1

    def test_exchange_is_push_pull(self):
        with GeneratorServer(weight=2.0) as server:
            fleet = exchange_peers(
                server.address, [(("10.0.0.9", 4000), 3.0)]
            )
            # Pull: the reply leads with the server itself...
            assert fleet[0] == (tuple(server.address), 2.0)
            # ...push: and now includes the member we told it about.
            assert (("10.0.0.9", 4000), 3.0) in fleet
            assert server.known_peers()[1] == ["10.0.0.9", 4000, 3.0]

    def test_pool_discovers_the_fleet_from_one_seed(self):
        with GeneratorServer() as seed, GeneratorServer() as other:
            seed.add_peer(other.address)
            pool = ServerPool(
                membership=GossipMembers([seed.address]),
                refresh_interval=0.02,
            )
            try:
                assert _wait_until(
                    lambda: set(pool.addresses)
                    >= {tuple(seed.address), tuple(other.address)}
                )
            finally:
                pool.close()

    def test_gossip_is_additive_only(self):
        with GeneratorServer() as seed:
            pool = ServerPool(
                membership=GossipMembers([seed.address]),
                refresh_interval=0.02,
            )
            try:
                ghost = ("127.0.0.1", 9)
                pool.add(ghost)  # a member the seed knows nothing about
                time.sleep(0.1)  # several gossip rounds
                # An unauthenticated fleet claim must never evict.
                assert ghost in pool.addresses
                assert pool.stats()["leaves"] == 0
            finally:
                pool.close()

    def test_announce_introduces_a_replacement(self):
        with GeneratorServer() as seed, GeneratorServer() as fresh:
            fresh.add_peer(seed.address)
            assert fresh.announce() == 1
            # The seed now gossips the newcomer to any polling pool.
            peers = [tuple(entry[:2]) for entry in seed.known_peers()]
            assert tuple(fresh.address) in peers


class TestHealthProbing:
    def test_probe_address_against_live_and_dead(self):
        with GeneratorServer() as server:
            assert probe_address(server.address)
            address = server.address
        assert not probe_address(address, timeout=0.5)

    def test_probe_survives_the_restricted_unpickler(self):
        with GeneratorServer(allow_spawn=False) as server:
            assert probe_address(server.address)

    def test_probe_does_not_disturb_a_serving_session(self):
        with GeneratorServer() as server:
            piped = source_pipe(
                range(50), backend="remote", remote_address=server.address
            ).start()
            it = piped.iterate()
            first = [next(it) for _ in range(5)]
            assert probe_address(server.address)
            assert first + list(it) == list(range(50))

    def test_prober_counts_consecutive_misses(self):
        prober = HealthProber(timeout=0.2, failures=3)
        try:
            dead = ("127.0.0.1", 9)
            assert not prober.probe(dead)
            assert prober.record(dead, False) == 1
            assert prober.record(dead, False) == 2
            assert prober.record(dead, True) == 0  # a pong resets
            prober.forget(dead)
            assert prober.record(dead, False) == 1
        finally:
            prober.close()

    def test_pool_transitions_down_then_up(self):
        server = GeneratorServer()
        server.start()
        address = tuple(server.address)
        host, port = address
        tracer = Tracer()
        with tracer.lifecycle():
            pool = ServerPool(
                [address],
                probe_interval=0.05,
                probe_timeout=0.5,
                probe_failures=2,
            )
            try:
                assert _wait_until(lambda: address in pool.up_addresses)
                server.shutdown()
                # Two missed probes: MEMBER_DOWN, off the ring but
                # still a fleet member (dialed last, never excluded).
                assert _wait_until(lambda: address in pool.down_addresses)
                assert address in pool.addresses
                assert pool.dial_candidates("k") == [address]
                assert shared_health().is_down(address)
                # The replica restarts on its old port: first pong
                # brings it straight back.
                server = GeneratorServer(host=host, port=port)
                server.start()
                assert _wait_until(lambda: address in pool.up_addresses)
                assert not shared_health().is_down(address)
            finally:
                pool.close()
                server.shutdown()
        events = tracer.summary()[f"pool:{pool.name}"]
        downs, ups = events[EventKind.MEMBER_DOWN], events[EventKind.MEMBER_UP]
        assert address in [down["address"] for down in downs]
        assert address in [up["address"] for up in ups]

    def test_down_member_routes_last_up_members_first(self):
        a, b = ("127.0.0.1", 1), ("127.0.0.1", 2)
        pool = ServerPool([a, b])
        try:
            key = "k"
            primary = pool.primary(key)
            other = b if primary == a else a
            assert pool.mark_down(primary, reason="probe said so")
            assert pool.dial_candidates(key) == [other, primary]
            assert pool.primary(key) == other  # ring remapped minimally
            assert pool.mark_up(primary)
            assert pool.dial_candidates(key)[0] == primary
        finally:
            pool.close()

    def test_healthy_stream_reverses_member_down(self):
        a, b = ("127.0.0.1", 1), ("127.0.0.1", 2)
        pool = ServerPool([a, b])
        try:
            pool.mark_down(a, reason="probe said so")
            pool.note_healthy(a)  # a real stream beats any probe verdict
            assert a in pool.up_addresses
            assert pool.stats()["ups"] == 1
        finally:
            pool.close()


def double(x):
    return 2 * x


class TestChurnIntegration:
    def test_churn_membership_rule_fires_at_exact_position(self):
        with GeneratorServer() as one, GeneratorServer() as two:
            pool = ServerPool([one.address])
            ghost = ("127.0.0.1", 9)
            plan = FaultPlan().churn_membership(
                "source",
                pool,
                join=(two.address, (ghost[0], ghost[1], 2.0)),
                leave=(),
                after_items=5,
            )
            pool.fault_plan = plan
            piped = supervise(
                source_pipe(range(40)).coexpr,
                backend="remote",
                remote_address=pool,
                capacity=2,
                backoff=NO_BACKOFF,
            )
            received = list(piped.iterate())
            assert received == list(range(40))
            assert set(pool.addresses) == {
                tuple(one.address), tuple(two.address), ghost,
            }
            assert pool.weight_of(ghost) == 2.0
            stats = pool.stats()
            assert stats["joins"] == 2 and stats["leaves"] == 0

    def test_mid_stream_fleet_change_leaves_the_stream_intact(self):
        with GeneratorServer() as one, GeneratorServer() as two:
            pool = ServerPool([one.address, ("127.0.0.1", 9)])
            piped = supervise(
                source_pipe(range(60)).coexpr,
                backend="remote",
                remote_address=pool,
                capacity=2,
                backoff=NO_BACKOFF,
            )
            it = piped.iterate()
            head = [next(it) for _ in range(10)]
            serving = pool.last_address("source")
            # Live churn around the serving replica: a join and a
            # leave, neither touching the member the stream is on.
            pool.add(two.address)
            pool.remove(("127.0.0.1", 9))
            assert head + list(it) == list(range(60))
            assert pool.last_address("source") == serving  # no re-route
            assert piped.failures == 0
