"""Live cluster membership: kill a replica, gossip in a replacement.

Three in-process :class:`~repro.net.GeneratorServer` replicas serve a
stream behind a gossip-backed, health-probed
:class:`~repro.net.ServerPool`.  Mid-stream, the replica currently
serving is shut down hard — the pool's prober declares it
``MEMBER_DOWN``, failover replays onto a survivor, and a *fresh*
replica announces itself to a surviving peer so gossip (not the
client) introduces it to the fleet.  The stream delivers the identical
sequence exactly once, with no client restart and no reconfiguration.
Run:

    python examples/cluster_membership.py
"""

import time

from repro.coexpr import PipeScheduler, source_pipe, use_scheduler
from repro.coexpr.supervision import NO_BACKOFF, supervise
from repro.monitor import EventKind, Tracer
from repro.net import GeneratorServer, GossipMembers, ServerPool

TOTAL = 200


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def main() -> None:
    scheduler = PipeScheduler()
    with use_scheduler(scheduler):
        # Three replicas that know each other (the gossip fleet).
        replicas = [GeneratorServer(weight=1.0).start() for _ in range(3)]
        for server in replicas:
            for peer in replicas:
                if peer is not server:
                    server.add_peer(peer.address)
        print("fleet:", ", ".join(f"{h}:{p}" for h, p in
                                  (s.address for s in replicas)))

        # The pool seeds gossip from ONE member and probes the rest
        # into view: discovery, not configuration.
        pool = ServerPool(
            membership=GossipMembers([replicas[0].address]),
            probe_interval=0.05,
            probe_timeout=0.5,
            probe_failures=2,
            refresh_interval=0.05,
        )
        tracer = Tracer()
        try:
            with tracer.lifecycle():
                wait_until(lambda: len(pool.addresses) == 3)
                print(f"gossip discovered {len(pool.addresses)} members "
                      "from 1 seed\n")

                piped = supervise(
                    source_pipe(range(TOTAL)).coexpr,
                    backend="remote",
                    remote_address=pool,
                    capacity=4,
                    backoff=NO_BACKOFF,
                    max_retries=5,
                )
                it = piped.iterate()
                received = [next(it) for _ in range(10)]

                # Kill the replica that is actually serving the stream.
                victim_address = pool.last_address("source")
                (victim,) = [s for s in replicas
                             if s.address == victim_address]
                print(f"killing the serving replica {victim_address} ...")
                victim.kill_sessions()
                victim.shutdown(wait=False)

                # A fresh replica joins by announcing itself to a
                # survivor — the client never hears about it directly.
                survivor = next(s for s in replicas if s is not victim)
                fresh = GeneratorServer(weight=2.0).start()
                fresh.add_peer(survivor.address)
                fresh.announce()
                print(f"fresh replica {fresh.address} (weight 2.0) "
                      f"announced itself to {survivor.address}")

                wait_until(lambda: tuple(fresh.address) in pool.addresses)
                wait_until(
                    lambda: tuple(victim_address) in pool.down_addresses
                )
                print("pool converged:", pool)

                received += list(it)

            ok = received == list(range(TOTAL))
            print(f"\nstream intact: {ok}  "
                  f"({len(received)} items, exactly once, no restart)")
            events = tracer.summary().get(f"pool:{pool.name}", {})
            joins = events.get(EventKind.MEMBER_JOIN, [])
            downs = events.get(EventKind.MEMBER_DOWN, [])
            failovers = events.get(EventKind.FAILOVER, [])
            weights = ", ".join(f"{h}:{p}={pool.weight_of((h, p)):g}"
                                for h, p in pool.addresses)
            print(f"pool events: failovers={len(failovers)} "
                  f"joins={len(joins)} downs={len(downs)} "
                  f"weights={{{weights}}}")
            print(f"membership events: joined={[j['address'] for j in joins]} "
                  f"went_down={[d['address'] for d in downs]} "
                  f"sources={sorted({j['source'] for j in joins})}")
        finally:
            pool.close()
            fresh.shutdown()
            for server in replicas:
                server.shutdown()
        leaked = scheduler.leaked(join_timeout=2.0)
        print(f"leaked workers/sessions after shutdown: {leaked}")


if __name__ == "__main__":
    main()
