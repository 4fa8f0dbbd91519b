"""Churn acceptance: the fleet changes under a live stream and the
stream never notices.

The PR's acceptance scenario with *real* process death and discovery:
three ``junicon-serve`` subprocesses behind a gossip-backed
:class:`ServerPool`, the replica currently serving the stream SIGKILLed
mid-flight, and a *fresh* replica started with ``--peer <survivor>`` so
gossip — not the client — introduces it to the pool.  The stream must
deliver the identical sequence exactly once with no client restart,
and ``Tracer.summary()`` must show both the death (a probed
``MEMBER_DOWN``) and the replacement (a gossiped ``MEMBER_JOIN``).

The deterministic in-process analogue — sustained churn at exact
stream positions via ``FaultPlan.churn_membership`` — rides along, so
CI failure here localizes: subprocess test red + in-process green
points at discovery/probing, both red points at routing.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.coexpr.patterns import source_pipe
from repro.coexpr.supervision import NO_BACKOFF, FaultPlan, supervise
from repro.monitor import EventKind, Tracer
from repro.net import GeneratorServer, GossipMembers, ServerPool


def _spawn_server(*extra: str) -> tuple:
    """One ``junicon-serve`` subprocess; returns (proc, (host, port))."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.cli", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("listening on "), f"unexpected banner: {line!r}"
    host, port = line.removeprefix("listening on ").rsplit(":", 1)
    return proc, (host, int(port))


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.stdout.close()
    proc.stderr.close()
    proc.wait(timeout=10)


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestChurnAcceptance:
    def test_kill_and_gossip_in_a_replacement_mid_stream(self):
        fleet = [_spawn_server() for _ in range(3)]
        replacement = None
        tracer = Tracer()
        pool = None
        try:
            addresses = [address for _, address in fleet]
            with tracer.lifecycle():
                pool = ServerPool(
                    membership=GossipMembers(addresses, timeout=0.5),
                    probe_interval=0.05,
                    probe_timeout=0.5,
                    probe_failures=2,
                    refresh_interval=0.05,
                )
                piped = supervise(
                    source_pipe(range(200)).coexpr,
                    backend="remote",
                    remote_address=pool,
                    capacity=2,
                    backoff=NO_BACKOFF,
                    max_retries=5,
                )
                it = piped.iterate()
                received = [next(it) for _ in range(5)]

                victim_address = pool.last_address("source")
                assert victim_address is not None
                (victim,) = [
                    proc for proc, address in fleet
                    if tuple(address) == tuple(victim_address)
                ]
                survivor = next(
                    address for address in addresses
                    if tuple(address) != tuple(victim_address)
                )
                victim.send_signal(signal.SIGKILL)
                victim.wait(timeout=10)

                # A *fresh* replica joins by announcing itself to a
                # survivor — the client never hears about it directly.
                replacement, fresh_address = _spawn_server(
                    "--peer", f"{survivor[0]}:{survivor[1]}"
                )

                # The pool must converge on its own: gossip introduces
                # the newcomer, the prober declares the corpse down.
                assert _wait_until(
                    lambda: tuple(fresh_address) in pool.addresses
                ), f"gossip never discovered {fresh_address}"
                assert _wait_until(
                    lambda: tuple(victim_address) in pool.down_addresses
                ), f"prober never declared {victim_address} down"

                # Drain the rest on the same client/iterator: identical
                # sequence, exactly once, no client restart.
                received += list(it)
            assert received == list(range(200))
            assert piped.failures >= 1

            events = tracer.summary()[f"pool:{pool.name}"]
            assert len(events[EventKind.FAILOVER]) >= 1
            joins = events[EventKind.MEMBER_JOIN]
            assert tuple(fresh_address) in [join["address"] for join in joins]
            leaves = events.get(EventKind.MEMBER_LEAVE, [])
            assert "gossip" in {p["source"] for p in joins + leaves}
            downs = events[EventKind.MEMBER_DOWN]
            assert tuple(victim_address) in [down["address"] for down in downs]
        finally:
            if pool is not None:
                pool.close()
            for proc, _ in fleet:
                _reap(proc)
            if replacement is not None:
                _reap(replacement)


class TestSustainedChurn:
    def test_stream_survives_churn_at_exact_positions(self):
        # The in-process sustained-churn rule: ghosts join and leave at
        # five exact stream positions while one real replica serves.
        # Membership churns 10 times under the stream; delivery stays
        # exactly-once and placement never leaves the live member.
        with GeneratorServer() as server:
            pool = ServerPool([server.address])
            ghosts = [("127.0.0.1", port) for port in range(2, 7)]
            plan = FaultPlan()
            for index, ghost in enumerate(ghosts):
                plan.churn_membership(
                    "source", pool,
                    join=(ghost,),
                    after_items=10 + 20 * index,
                )
                plan.churn_membership(
                    "source", pool,
                    leave=(ghost,),
                    after_items=20 + 20 * index,
                )
            pool.fault_plan = plan
            piped = supervise(
                source_pipe(range(120)).coexpr,
                backend="remote",
                remote_address=pool,
                capacity=2,
                backoff=NO_BACKOFF,
            )
            tracer = Tracer()
            with tracer.lifecycle():
                received = list(piped.iterate())
            assert received == list(range(120))
            events = tracer.summary()[f"pool:{pool.name}"]
            assert len(events[EventKind.MEMBER_JOIN]) == 5
            assert len(events[EventKind.MEMBER_LEAVE]) == 5
            assert pool.addresses == (tuple(server.address),)
            assert piped.failures == 0

    def test_churn_repeats_across_replay_attempts(self, tmp_path):
        # Churn composes with a real fault: attempt 1 drops the
        # connection after 30 items *and* churns at item 10; the replay
        # (attempt 2) churns again at its own item 10.  The sequence
        # still arrives exactly once.
        with GeneratorServer() as one, GeneratorServer() as two:
            pool = ServerPool([one.address])
            plan = (
                FaultPlan()
                .churn_membership(
                    "source", pool, join=(two.address,),
                    on_attempts=(1,), after_items=10,
                )
                .drop_connection("source", on_attempts=(1,), after_items=30)
                .churn_membership(
                    "source", pool, leave=(("127.0.0.1", 9),),
                    on_attempts=(2,), after_items=10,
                )
            )
            pool.fault_plan = plan
            tracer = Tracer()
            with tracer.lifecycle():
                pool.add(("127.0.0.1", 9))  # the member attempt 2 retires
                piped = supervise(
                    source_pipe(range(80)).coexpr,
                    backend="remote",
                    remote_address=pool,
                    capacity=2,
                    backoff=NO_BACKOFF,
                    max_retries=3,
                )
                received = list(piped.iterate())
            assert received == list(range(80))
            assert piped.failures == 1
            events = tracer.summary()[f"pool:{pool.name}"]
            # Two joins (the api-added ghost + the chaos-joined second
            # replica), one leave (attempt 2 retiring the ghost).
            assert len(events[EventKind.MEMBER_JOIN]) == 2
            assert len(events[EventKind.MEMBER_LEAVE]) == 1
            assert ("127.0.0.1", 9) not in pool.addresses


class TestOperatorSurface:
    def test_registry_file_drives_a_subprocess_fleet(self, tmp_path):
        # End to end through the string spelling: two real replicas in
        # a registry file, stream against "registry:/path", then update
        # the file mid-stream and watch the pool follow.
        fleet = [_spawn_server() for _ in range(2)]
        pool = None
        try:
            registry = tmp_path / "fleet.json"
            registry.write_text(
                json.dumps([list(address) for _, address in fleet])
            )
            pool = ServerPool(
                membership=f"registry:{registry}",
                probe_interval=0.1,
                probe_timeout=0.5,
                refresh_interval=0.05,
            )
            piped = supervise(
                source_pipe(range(50)).coexpr,
                backend="remote",
                remote_address=pool,
                capacity=2,
                backoff=NO_BACKOFF,
            )
            assert list(piped.iterate()) == list(range(50))
            # Operator retires the idle replica by editing the file.
            keep = pool.last_address("source")
            kept = [a for _, a in fleet if tuple(a) == tuple(keep)]
            registry.write_text(json.dumps([list(kept[0])]))
            os.utime(registry, (time.time() + 5, time.time() + 5))
            assert _wait_until(lambda: len(pool.addresses) == 1)
            assert pool.addresses == (tuple(keep),)
        finally:
            if pool is not None:
                pool.close()
            for proc, _ in fleet:
                _reap(proc)

    def test_advertise_flag_reaches_gossip(self):
        proc, address = _spawn_server(
            "--advertise", "203.0.113.7:4444", "--weight", "2.5"
        )
        try:
            from repro.net import exchange_peers

            fleet = exchange_peers(address, timeout=1.0)
            assert fleet[0] == (("203.0.113.7", 4444), 2.5)
        finally:
            _reap(proc)
