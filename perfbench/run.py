"""The repo benchmark: Figure 6 rounds, remote streaming, tier start-up.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-light --seed 36 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
layer probes and a traced window of every workload and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every job's output matched its reference.  Full results (host
fingerprint, set-up times, errors) and, for traced runs, the spans are
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.registry import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=(*WORKLOADS, "all"),
        help="one workload, or 'all' to run each in turn (one result line each)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"corpus seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="timed window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no package source at {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # One core for the whole run, servers and forked workers included
    # (they inherit it): on a shared host each core's speed drifts on its
    # own, and the kernel in perfbench/speed.py can only measure the core
    # it runs on.  Set before any thread starts, so every thread has it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from perfbench.harness import run

    # A traced run covers every workload already, so it runs once.
    names = tuple(WORKLOADS) if args.workload == "all" and not args.trace else (args.workload,)
    codes = [run(ROOT, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
