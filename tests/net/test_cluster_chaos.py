"""Cluster chaos acceptance: SIGKILL a replica mid-stream.

The PR's acceptance scenario with *real* process death — three
``junicon-serve`` subprocesses behind a :class:`ServerPool`, one of
them SIGKILLed while serving — plus the ``--stats-interval`` operator
surface.  The in-process (deterministic) failover coverage lives in
``test_cluster.py``; this file is the end-to-end proof that the same
recovery works when the replica really dies.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

from repro.coexpr.patterns import source_pipe
from repro.coexpr.supervision import NO_BACKOFF, supervise
from repro.monitor import EventKind, Tracer
from repro.net import ServerPool


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


@pytest.fixture
def replica_fleet():
    fleet = [_spawn_server() for _ in range(3)]
    try:
        yield fleet
    finally:
        for proc, _ in fleet:
            _reap(proc)


def _consume(remote_address, total=200, kill_after=None, fleet=None):
    """Stream ``range(total)`` under supervision; optionally SIGKILL the
    replica currently serving the stream after *kill_after* items."""
    piped = supervise(
        source_pipe(range(total)).coexpr,
        backend="remote",
        remote_address=remote_address,
        capacity=2,
        backoff=NO_BACKOFF,
        max_retries=5,
    )
    it = piped.iterate()
    if kill_after is None:
        return list(it), piped
    received = [next(it) for _ in range(kill_after)]
    serving = remote_address.last_address("source")
    assert serving is not None
    (victim,) = [proc for proc, address in fleet if address == serving]
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=10)
    received += list(it)
    return received, piped


class TestSigkillFailover:
    def test_killed_replica_yields_identical_sequence(self, replica_fleet):
        # Reference: the same stream against a single live server.
        reference, _ = _consume(replica_fleet[0][1])
        assert reference == list(range(200))

        pool = ServerPool([address for _, address in replica_fleet])
        tracer = Tracer()
        with tracer.lifecycle():
            received, piped = _consume(
                pool, kill_after=5, fleet=replica_fleet
            )
        # Identical sequence: no duplicates, no gaps, order preserved.
        assert received == reference
        assert piped.failures >= 1
        # Exactly one failover: the lost stream reconnected to a
        # different replica exactly once.
        (failover,) = tracer.summary()[f"pool:{pool.name}"][EventKind.FAILOVER]
        assert failover["from"] != failover["to"]


class TestStatsInterval:
    def test_stats_logged_to_stderr(self):
        proc, (host, port) = _spawn_server("--stats-interval", "0.05")
        try:
            piped = source_pipe(
                range(10), backend="remote", remote_address=(host, port)
            ).start()
            assert list(piped.iterate()) == list(range(10))
            import time

            time.sleep(0.2)  # a few logging ticks past the session
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=10)
            assert proc.returncode == 0
            assert "shutdown complete" in out
            lines = [l for l in err.splitlines() if l.startswith("stats ")]
            assert lines, f"no stats lines on stderr: {err!r}"
            assert f"stats {host}:{port} served=" in lines[-1]
            assert "served=1" in lines[-1]
        finally:
            _reap(proc)

    def test_rejects_non_positive_interval(self):
        from repro.net.cli import main

        with pytest.raises(SystemExit, match="stats-interval"):
            main(["--stats-interval", "0"])
