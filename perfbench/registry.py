"""The benchmark's metric and workload registry.

One entry per name the benchmark emits.  ``BENCHMARK.json`` at the repo
root carries the subset of each entry its schema allows (name, unit,
better, and the end-to-end bound); the self-test keeps the two in step.
The fields kept only here are the ones later issues cite:

* ``layer`` — the module a per-layer metric measures;
* ``moves`` / ``on`` — for a per-layer metric, the end-to-end metric it
  should move and the workload it should move it on;
* ``flat`` — workloads where a change to that layer should move nothing.
"""

from __future__ import annotations

#: The repo's corpus seed (``generate_lines``' default) and the held-out
#: seed a later change uses to confirm a claim made on the default one.
DEFAULT_SEED = 36
HELD_OUT_SEED = 1879

#: Corpus shape shared by every workload: 120 lines x 8 words = 960 words.
LINES = 120
WORDS_PER_LINE = 8
WORDS = LINES * WORDS_PER_LINE

WORKLOADS = {
    "fig6-light": (
        "The paper's own program: lang/runtime, the per-element |> channel "
        "handoff and per-chunk pipe spawn do the work; wire and net do none."
    ),
    "remote-stream": (
        "Per-envelope (batch=1) vs amortized (batch=64) remote streaming on "
        "both server substrates, threaded and async; lang/runtime do almost "
        "nothing."
    ),
    "spawn-churn": (
        "Start, placement, teardown and restart of short pipes on every tier "
        "dominate; streaming is negligible (the control plane of pipe/net)."
    ),
}

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "items_per_s": ("items/s", "higher", 0.25),
    "job_p50_ms": ("ms", "lower", 0.25),
    "job_p90_ms": ("ms", "lower", 0.25),
    "first_item_p50_ms": ("ms", "lower", 0.25),
    "first_item_p90_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_job": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_FIG6_VARIANTS = ("sequential", "pipeline", "dataparallel", "mapreduce")


def _layer(unit, better, layer, moves, on, flat=()):
    return {
        "unit": unit,
        "better": better,
        "layer": layer,
        "moves": moves,
        "on": on,
        "flat": list(flat),
    }


def _per_layer() -> dict:
    out = {}
    for name in ("tokenize", "parse", "transform", "transform_opt", "load"):
        out[f"lang.{name}_ms"] = _layer("ms", "lower", "lang", "setup_s", "fig6-light")
    for name in ("lowered_shapes", "fallback_shapes"):
        out[f"lang.{name}"] = _layer(
            "count",
            "higher" if name == "lowered_shapes" else "lower",
            "lang",
            "items_per_s",
            "fig6-light",
            ["remote-stream"],
        )
    for name in ("seq_us_per_word", "seq_opt_us_per_word"):
        out[f"runtime.{name}"] = _layer(
            "us", "lower", "runtime", "items_per_s", "fig6-light",
            ["remote-stream", "spawn-churn"],
        )
    out["runtime.cache_hit_ratio"] = _layer(
        "ratio", "higher", "runtime", "items_per_s", "fig6-light"
    )
    for engine in ("interp", "opt"):
        for variant in _FIG6_VARIANTS:
            out[f"fig6.{engine}.{variant}_ms"] = _layer(
                "ms", "lower", "lang", "job_p50_ms", "fig6-light"
            )
    out["channel.handoff_ns"] = _layer(
        "ns", "lower", "coexpr.channel", "items_per_s", "fig6-light", ["spawn-churn"]
    )
    out["channel.slice_ns_per_item"] = _layer(
        "ns", "lower", "coexpr.channel", "items_per_s", "remote-stream"
    )
    out["pipe.thread_first_item_us"] = _layer(
        "us", "lower", "coexpr.pipe", "first_item_p50_ms", "spawn-churn"
    )
    out["pipe.thread_close_us"] = _layer(
        "us", "lower", "coexpr.scheduler", "job_p50_ms", "fig6-light"
    )
    out["aio.first_item_us"] = _layer(
        "us", "lower", "coexpr.aio", "first_item_p50_ms", "spawn-churn", ["fig6-light"]
    )
    out["aio.handoff_ns"] = _layer(
        "ns", "lower", "coexpr.aio", "first_item_p50_ms", "spawn-churn", ["fig6-light"]
    )
    out["proc.fork_first_item_ms"] = _layer(
        "ms", "lower", "coexpr.proc", "first_item_p90_ms", "spawn-churn"
    )
    out["proc.reap_ms"] = _layer(
        "ms", "lower", "coexpr.proc", "cpu_ms_per_job", "spawn-churn"
    )
    out["supervision.replay_ms"] = _layer(
        "ms", "lower", "coexpr.supervision", "job_p90_ms", "spawn-churn"
    )
    out["supervision.restarts"] = _layer(
        "count", "lower", "coexpr.supervision", "job_p90_ms", "spawn-churn"
    )
    for kind in ("encode_us", "decode_us"):
        for batch in ("b1", "b64"):
            out[f"wire.{kind}.{batch}"] = _layer(
                "us", "lower", "coexpr.wire", "items_per_s", "remote-stream",
                ["fig6-light"],
            )
    out["wire.decode_restricted_us.b64"] = _layer(
        "us", "lower", "coexpr.wire", "items_per_s", "remote-stream", ["fig6-light"]
    )
    for batch in ("b1", "b64"):
        out[f"wire.frame_bytes.{batch}"] = _layer(
            "bytes", "lower", "coexpr.wire", "items_per_s", "remote-stream",
            ["fig6-light"],
        )
    for substrate in ("thread", "async"):
        out[f"client.dial_ms.{substrate}"] = _layer(
            "ms", "lower", "net.client", "first_item_p50_ms", "remote-stream"
        )
    out["client.credit_rtt_us"] = _layer(
        "us", "lower", "net.client", "items_per_s", "remote-stream"
    )
    for substrate, layer in (("thread", "net.server"), ("async", "net.aserver")):
        for batch in ("b1", "b64"):
            out[f"server.{substrate}.us_per_item.{batch}"] = _layer(
                "us", "lower", layer, "items_per_s", "remote-stream", ["fig6-light"]
            )
        out[f"server.{substrate}.cpu_ms_per_stream"] = _layer(
            "ms", "lower", layer, "cpu_ms_per_job", "remote-stream"
        )
    out["net.mean_slice"] = _layer(
        "count", "higher", "net.client", "items_per_s", "remote-stream"
    )
    for name in ("preference_us.n2", "preference_us.n128", "dial_candidates_us"):
        out[f"cluster.{name}"] = _layer(
            "us", "lower", "net.cluster", "first_item_p50_ms", "spawn-churn",
            ["remote-stream"],
        )
    for name in ("emit_off_ns", "emit_on_ns"):
        out[f"monitor.{name}"] = _layer(
            "ns", "lower", "monitor", "items_per_s", "fig6-light",
            ["remote-stream", "spawn-churn"],
        )
    for workload in WORKLOADS:
        out[f"monitor.trace_overhead_pct.{workload}"] = _layer(
            "%", "lower", "monitor", "items_per_s", workload
        )
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this registry describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": e["unit"], "better": e["better"]}
            for n, e in PER_LAYER.items()
        ],
    }
