"""The cluster tier: consistent-hash routing, failover, exactly-once.

Three layers of coverage:

* **Ring properties** (hypothesis) — balance (no member owns more than
  2x its fair share of keys) and minimal remap (removing a member moves
  only the keys it owned; adding one steals keys only for itself).
* **Pool unit tests** — normalization shapes, suspicion reordering,
  failover accounting, membership changes.
* **Integration** — real servers behind a :class:`ServerPool`:
  transparent pipes and pipelines over replica lists, deterministic
  failover via :class:`FaultPlan` chaos rules (dropped connections,
  killed servers), DataParallel chunk stealing with the
  replica → next replica → threads degradation order, and RemotePipe
  over a pool.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coexpr.coexpression import CoExpression
from repro.coexpr.dataparallel import DataParallel
from repro.coexpr.patterns import pipeline, source_pipe
from repro.coexpr.pipe import Pipe
from repro.coexpr.supervision import NO_BACKOFF, FaultPlan, supervise
from repro.errors import PipeConnectionLost
from repro.monitor import EventKind, Tracer
from repro.net import GeneratorServer, HashRing, RemotePipe, ServerPool
from repro.net.client import breaker_for
from repro.net.cluster import normalize_remote_address


# Module-level bodies: remote payloads pickle functions by qualified name.

def double(x):
    return 2 * x


def increment(x):
    return x + 1


def count_to(n):
    yield from range(n)


@pytest.fixture
def servers():
    with GeneratorServer() as one, GeneratorServer() as two, \
            GeneratorServer() as three:
        yield [one, two, three]


# A strategy of distinct (host, port) fleets, 2-8 replicas.
addresses = st.lists(
    st.integers(min_value=1024, max_value=65535).map(
        lambda port: ("10.0.0.1", port)
    ),
    min_size=2,
    max_size=8,
    unique=True,
)


class TestHashRingProperties:
    @settings(max_examples=25, deadline=None)
    @given(addresses)
    def test_balance_within_two_x_of_fair_share(self, nodes):
        ring = HashRing(nodes)
        keys = [f"stream-{i}" for i in range(2000)]
        counts: dict = {node: 0 for node in nodes}
        for key in keys:
            counts[ring.node_for(key)] += 1
        fair = len(keys) / len(nodes)
        assert max(counts.values()) <= 2 * fair

    @settings(max_examples=25, deadline=None)
    @given(addresses, st.integers(min_value=0, max_value=7))
    def test_removal_remaps_only_the_removed_nodes_keys(self, nodes, pick):
        ring = HashRing(nodes)
        keys = [f"stream-{i}" for i in range(500)]
        before = {key: ring.node_for(key) for key in keys}
        victim = nodes[pick % len(nodes)]
        ring.remove(victim)
        for key in keys:
            if before[key] != victim:
                assert ring.node_for(key) == before[key]

    @settings(max_examples=25, deadline=None)
    @given(addresses)
    def test_addition_steals_keys_only_for_the_new_node(self, nodes):
        ring = HashRing(nodes[:-1])
        keys = [f"stream-{i}" for i in range(500)]
        before = {key: ring.node_for(key) for key in keys}
        ring.add(nodes[-1])
        for key in keys:
            after = ring.node_for(key)
            if after != before[key]:
                assert after == nodes[-1]

    @settings(max_examples=25, deadline=None)
    @given(addresses)
    def test_preference_is_the_minimal_remap_failover_order(self, nodes):
        # preference[1] must be where the key would land if the primary
        # vanished: failing over along the walk IS the minimal remap.
        ring = HashRing(nodes)
        for key in ("a", "b", "stream-42"):
            order = ring.preference(key)
            assert order[0] == ring.node_for(key)
            assert sorted(order) == sorted(nodes)
            ring.remove(order[0])
            assert ring.node_for(key) == order[1]
            ring.add(order[0])


class TestNormalization:
    def test_none_and_pool_pass_through(self):
        assert normalize_remote_address(None) is None
        pool = ServerPool([("127.0.0.1", 1)])
        assert normalize_remote_address(pool) is pool

    def test_single_pair_stays_a_tuple(self):
        assert normalize_remote_address(("127.0.0.1", 9)) == ("127.0.0.1", 9)
        assert normalize_remote_address(["127.0.0.1", 9]) == ("127.0.0.1", 9)

    def test_list_of_pairs_becomes_a_pool(self):
        pool = normalize_remote_address(
            [("127.0.0.1", 1), ("127.0.0.1", 2)]
        )
        assert isinstance(pool, ServerPool)
        assert pool.addresses == (("127.0.0.1", 1), ("127.0.0.1", 2))

    def test_bad_member_rejected(self):
        with pytest.raises(ValueError, match="not a cluster member"):
            normalize_remote_address([("127.0.0.1", 1), "nonsense"])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one address"):
            ServerPool([])

    def test_duplicates_collapse(self):
        pool = ServerPool([("127.0.0.1", 1), ("127.0.0.1", 1)])
        assert len(pool) == 1


class TestServerPool:
    def test_suspicion_reorders_but_never_excludes(self):
        pool = ServerPool(
            [("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)]
        )
        primary = pool.primary("k")
        assert pool.dial_candidates("k")[0] == primary
        pool.note_lost("k", primary, "killed")
        candidates = pool.dial_candidates("k")
        assert candidates[-1] == primary          # demoted, not dropped
        assert sorted(candidates) == sorted(pool.addresses)
        pool.note_healthy(primary)
        assert pool.dial_candidates("k")[0] == primary

    def test_suspicion_expiry_restores_original_preference_order(self):
        # Regression: suspicion re-orders the walk (suspects to the
        # tail); once every window expires the *full original ring
        # order* must come back — not just the head — or placement
        # would drift after any transient blip.
        pool = ServerPool(
            [("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)],
            suspicion=0.05,
        )
        original = pool.dial_candidates("k")
        pool.note_lost("k", original[0], "killed")
        pool.note_dial_failure("k", original[1], OSError("refused"))
        demoted = pool.dial_candidates("k")
        assert demoted != original
        assert sorted(demoted) == sorted(original)  # re-ordered, never excluded
        assert demoted[-2:] in ([original[0], original[1]],
                                [original[1], original[0]])
        time.sleep(0.08)
        assert pool.dial_candidates("k") == original

    def test_suspicion_expires(self):
        pool = ServerPool(
            [("127.0.0.1", 1), ("127.0.0.1", 2)], suspicion=0.05
        )
        primary = pool.primary("k")
        pool.note_lost("k", primary, "killed")
        assert pool.suspected(primary)
        time.sleep(0.08)
        assert not pool.suspected(primary)
        assert pool.dial_candidates("k")[0] == primary

    def test_failover_is_lost_then_reconnect_elsewhere(self):
        a, b = ("127.0.0.1", 1), ("127.0.0.1", 2)
        pool = ServerPool([a, b])
        tracer = Tracer()

        def failovers():
            events = tracer.summary().get(f"pool:{pool.name}", {})
            return len(events.get(EventKind.FAILOVER, []))

        with tracer.lifecycle():
            pool.note_connect("k", a)
            assert failovers() == 0
            pool.note_lost("k", a, "killed")
            pool.note_connect("k", a)             # same replica: a retry,
            assert failovers() == 0               # not a failover
            pool.note_lost("k", a, "killed")
            pool.note_connect("k", b)
            assert failovers() == 1
        assert pool.last_address("k") == b

    def test_membership_changes(self):
        a, b = ("127.0.0.1", 1), ("127.0.0.1", 2)
        pool = ServerPool([a])
        pool.add(b)
        pool.add(b)                               # idempotent
        assert pool.addresses == (a, b)
        pool.remove(a)
        assert pool.addresses == (b,)
        assert pool.primary("anything") == b


class TestClusterTransparency:
    def test_pipeline_over_replica_list(self, servers):
        expected = list(pipeline(range(40), increment, double).iterate())
        piped = pipeline(
            range(40),
            increment,
            double,
            backend="remote",
            remote_address=[srv.address for srv in servers],
        )
        assert list(piped.iterate()) == expected
        assert piped.degraded is None
        assert sum(srv.stats["served"] for srv in servers) == 1

    def test_dataparallel_chunks_fan_out_across_replicas(self, servers):
        data = list(range(80))
        dp = DataParallel(
            chunk_size=10,
            backend="remote",
            remote_address=[srv.address for srv in servers],
        )
        expected = list(DataParallel(chunk_size=10).map_flat(double, data))
        assert list(dp.map_flat(double, data)) == expected
        # Distinct route keys per chunk: the fleet served all 8 tasks.
        assert sum(srv.stats["served"] for srv in servers) == 8

    def test_all_replicas_down_degrades_to_threads(self):
        piped = source_pipe(
            range(5),
            backend="remote",
            remote_address=[("127.0.0.1", 1), ("127.0.0.1", 2)],
        ).start()
        assert piped.degraded is not None
        assert "no replica reachable" in piped.degraded
        assert list(piped.iterate()) == list(range(5))


class TestFailover:
    def test_dropped_connection_fails_over_exactly_once(self, servers):
        plan = FaultPlan()
        plan.drop_connection("source", on_attempts=(1,), after_items=3)
        pool = ServerPool(
            [servers[0].address, servers[1].address], fault_plan=plan
        )
        tracer = Tracer()
        with tracer.lifecycle():
            piped = supervise(
                source_pipe(range(30)).coexpr,
                backend="remote",
                remote_address=pool,
                capacity=2,
                backoff=NO_BACKOFF,
                max_retries=3,
            )
            got = list(piped.iterate())
        assert got == list(range(30))             # exactly-once, in order
        assert piped.failures == 1
        (failover,) = tracer.summary()[f"pool:{pool.name}"][EventKind.FAILOVER]
        assert failover["from"] != failover["to"]
        assert {failover["from"], failover["to"]} <= set(pool.addresses)

    def test_killed_server_fails_over_to_next_replica(self, servers):
        pool = ServerPool([srv.address for srv in servers])
        victim_address = pool.primary("source")
        (victim,) = [s for s in servers if s.address == victim_address]
        plan = FaultPlan()
        plan.kill_server("source", victim, on_attempts=(1,), after_items=5)
        pool.fault_plan = plan
        piped = supervise(
            source_pipe(range(50)).coexpr,
            backend="remote",
            remote_address=pool,
            capacity=2,
            backoff=NO_BACKOFF,
            max_retries=3,
        )
        tracer = Tracer()
        with tracer.lifecycle():
            assert list(piped.iterate()) == list(range(50))
        assert len(tracer.summary()[f"pool:{pool.name}"][EventKind.FAILOVER]) == 1
        assert pool.last_address("source") != victim_address

    def test_budget_survives_rerouting(self, servers):
        # The deadline wire rule composes with failover: the replay on
        # the second replica runs under the same (remaining) budget.
        plan = FaultPlan()
        plan.drop_connection("source", on_attempts=(1,), after_items=2)
        pool = ServerPool(
            [servers[0].address, servers[1].address], fault_plan=plan
        )
        piped = supervise(
            source_pipe(range(20)).coexpr,
            backend="remote",
            remote_address=pool,
            capacity=2,
            backoff=NO_BACKOFF,
            max_retries=3,
            deadline=30.0,
        )
        tracer = Tracer()
        with tracer.lifecycle():
            assert list(piped.iterate()) == list(range(20))
        assert len(tracer.summary()[f"pool:{pool.name}"][EventKind.FAILOVER]) == 1


class TestWorkStealing:
    def test_stranded_chunk_is_stolen_exactly_once(self, servers):
        plan = FaultPlan()
        plan.drop_connection("mapreduce-task-1", on_attempts=(1,), after_items=1)
        pool = ServerPool(
            [servers[0].address, servers[1].address], fault_plan=plan
        )
        data = list(range(40))
        dp = DataParallel(chunk_size=10, backend="remote", remote_address=pool)
        expected = list(DataParallel(chunk_size=10).map_flat(double, data))
        tracer = Tracer()
        with tracer.lifecycle():
            got = list(dp.map_flat(double, data))
        assert got == expected                    # ordered, no dup, no gap
        steals = tracer.summary()[f"pool:{pool.name}"][EventKind.STEAL]
        assert [steal["key"] for steal in steals] == ["mapreduce-task-1"]

    def test_steal_budget_exhausts_to_thread_fallback(self, servers):
        # One replica, a connection that drops on every remote attempt:
        # after 2 * len(pool) steals the chunk re-runs on the thread
        # tier — degradation order replica -> next replica -> threads,
        # never silent loss.
        plan = FaultPlan()
        plan.drop_connection(
            "mapreduce-task-0", on_attempts=(1, 2, 3), after_items=0
        )
        pool = ServerPool([servers[0].address], fault_plan=plan)
        dp = DataParallel(chunk_size=100, backend="remote", remote_address=pool)
        tracer = Tracer()
        with tracer.lifecycle():
            assert list(dp.map_flat(double, range(10))) == [2 * x for x in range(10)]
        steals = tracer.summary()[f"pool:{pool.name}"][EventKind.STEAL]
        assert len(steals) == 3                   # 2 remote retries + fallback

    def test_one_lost_session_is_one_breaker_failure(self, servers):
        # A drop-at-connect reports the loss, then closes the socket; the
        # pump finds it closed.  Reporting that second sighting too opened
        # the threshold-3 breaker after two steals.
        plan = FaultPlan()
        plan.drop_connection("one-drop", on_attempts=(1,), after_items=0)
        address = servers[0].address
        pool = ServerPool([address], fault_plan=plan)
        pipe = Pipe(
            CoExpression(count_to, lambda: (5,), name="one-drop"),
            backend="remote",
            remote_address=pool,
        ).start()
        worker = pipe._tier_worker
        with pytest.raises(PipeConnectionLost, match="injected connection drop"):
            pipe.take()
        assert worker.join(5.0)  # the pump saw the closed socket and exited
        assert breaker_for(address)._failures == 1
        pipe.cancel(join=True, timeout=5.0)


class TestRemotePipePool:
    def test_remote_pipe_over_replica_list(self, servers):
        for srv in servers:
            srv.register("count", count_to)
        piped = RemotePipe(
            [srv.address for srv in servers], "count", args=(12,)
        )
        assert isinstance(piped.address, ServerPool)
        assert list(piped.iterate()) == list(range(12))

    def test_remote_pipe_all_replicas_down_raises(self):
        piped = RemotePipe(
            [("127.0.0.1", 1), ("127.0.0.1", 2)], "count", args=(3,)
        )
        with pytest.raises(PipeConnectionLost, match="no replica reachable"):
            piped.start()
        piped.cancel()
