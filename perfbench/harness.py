"""Runs: set-up, timed windows, end-to-end and per-layer metrics."""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field

from repro.bench.workloads import generate_lines

from . import layers
from .host import fingerprint, own_cpu_s, own_peak_rss_mb
from .registry import END_TO_END, LINES, PER_LAYER, WORDS_PER_LINE
from .spans import NO_SPANS, SpanRecorder
from .speed import HostSpeed
from .workloads import WORKLOADS

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Host-speed samples taken before each set-up and after the last.
SETUP_SAMPLES = 5
#: Share of ``--seconds`` each of a traced run's six windows gets.
TRACE_WINDOW_SHARE = 0.12


@dataclass
class Window:
    """What one timed window measured.  ``job_slowdown`` is the host's
    slowdown around each job (see :mod:`perfbench.speed`), and
    ``first_item`` pairs each successful job's first-item time with it.
    The exponents come from the workload (:class:`Workload`)."""

    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    items: int = 0
    job_s: list = field(default_factory=list)
    job_slowdown: list = field(default_factory=list)
    first_item: list = field(default_factory=list)
    job_exponent: float = 1.0
    first_item_exponent: float = 1.0
    cpu_s: float = 0.0
    server_cpu_s: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return self.items / self.elapsed if self.elapsed else 0.0


def timed_window(workload, seconds: float, spans=NO_SPANS) -> Window:
    """Closed loop: run jobs back to back for *seconds*, then check that
    nothing they started is still running.  The host-speed kernel runs
    between jobs; its time and CPU are left out of the window's."""
    speed = HostSpeed()
    window = Window(
        job_exponent=workload.job_exponent,
        first_item_exponent=workload.first_item_exponent,
    )
    workload.spans = spans
    servers = workload.servers
    server_cpu = {server.kind: server.cpu_s() for server in servers}
    cpu = own_cpu_s()
    before = speed.sample()
    start = time.perf_counter()
    end = start + seconds
    try:
        while time.perf_counter() < end:
            window.attempted += 1
            spans.job = window.attempted
            first_item = None
            job_start = time.perf_counter()
            try:
                with spans.span("job"):
                    items, first_item = workload.job(window.attempted)
            except Exception as error:  # noqa: BLE001 - a failed job is counted
                window.failed += 1
                window.errors.append(repr(error))
            else:
                window.items += items
            window.job_s.append(time.perf_counter() - job_start)
            after = speed.sample()
            slowdown = (before + after) / 2
            before = after
            window.job_slowdown.append(slowdown)
            if first_item is not None:
                window.first_item.append((first_item, slowdown))
        window.elapsed = time.perf_counter() - start - speed.wall_s
        window.cpu_s = own_cpu_s() - cpu - speed.cpu_s
        for server in servers:
            window.server_cpu_s[server.kind] = server.cpu_s() - server_cpu[server.kind]
        window.cpu_s += sum(window.server_cpu_s.values())
        window.peak_rss_mb = own_peak_rss_mb() + sum(s.peak_rss_mb() for s in servers)
    finally:
        workload.spans = NO_SPANS
        spans.job = None
    problems = workload.quiesce()
    if problems:
        window.errors += problems
        window.failed = window.attempted
    return window


def _percentile(values: list, pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(window: Window, setup_s: float, scaled: bool) -> dict:
    """The end-to-end metrics, raw or with every time scaled to the
    reference host by the slowdown s measured around it: divided by
    s to the power the workload's time grows with."""
    if scaled:
        jobs = [t / s**window.job_exponent for t, s in zip(window.job_s, window.job_slowdown)]
        firsts = [t / s**window.first_item_exponent for t, s in window.first_item]
    else:
        jobs = list(window.job_s)
        firsts = [t for t, _ in window.first_item]
    # Busy time over the raw time it stands for: the window's slowdown.
    stretch = sum(window.job_s) / sum(jobs) if jobs else 1.0
    values = {
        "setup_s": setup_s,
        "items_per_s": window.items_per_s * stretch,
        "job_p50_ms": _percentile(jobs, 50) * 1e3,
        "job_p90_ms": _percentile(jobs, 90) * 1e3,
        "first_item_p50_ms": _percentile(firsts, 50) * 1e3,
        "first_item_p90_ms": _percentile(firsts, 90) * 1e3,
        "cpu_ms_per_job": window.cpu_s * 1e3 / max(window.attempted, 1) / stretch,
        "peak_rss_mb": window.peak_rss_mb,
    }
    return {name: (values[name], END_TO_END[name][0]) for name in END_TO_END}


def untraced_run(root: str, name: str, lines: list, seconds: float) -> tuple:
    """``SETUPS`` full set-ups (the last one is kept), then one window.
    The set-up time is scaled by the host's mean slowdown over the run:
    a set-up spans several speed phases, which a few samples around it
    catch worse than the hundreds the window takes."""
    setups = []
    slowdowns = []
    speed = HostSpeed()
    workload = None
    try:
        for attempt in range(SETUPS):
            slowdowns += [speed.sample() for _ in range(SETUP_SAMPLES)]
            start = time.perf_counter()
            workload = WORKLOADS[name](root, lines)
            try:
                workload.setup()
            except BaseException:
                workload.teardown()
                workload = None
                raise
            setups.append(time.perf_counter() - start)
            if attempt < SETUPS - 1:
                workload.teardown()
        slowdowns += [speed.sample() for _ in range(SETUP_SAMPLES)]
        window = timed_window(workload, seconds)
    finally:
        if workload is not None:
            workload.teardown()
    setup_s = statistics.median(setups)
    slowdowns += window.job_slowdown
    metrics = end_to_end(window, setup_s / statistics.fmean(slowdowns), scaled=True)
    raw = end_to_end(window, setup_s, scaled=False)
    detail = {
        "raw_metrics": {name: value for name, (value, _) in raw.items()},
        "slowdown": statistics.fmean(slowdowns),
        "setups_s": setups,
        "jobs": window.attempted,
        "errors": window.errors[:20],
    }
    return window.attempted, window.failed, metrics, detail


def traced_run(root: str, lines: list, seconds: float, spans: SpanRecorder) -> tuple:
    """Every per-layer metric: the standalone probes, then for each
    workload an untraced and a traced window (their ratio is the tracing
    overhead) plus the probes that need that workload's servers."""
    values = layers.probe_standalone(spans, lines)
    share = max(0.5, seconds * TRACE_WINDOW_SHARE)
    attempted = failed = 0
    errors = []
    for name, cls in WORKLOADS.items():
        workload = cls(root, lines)
        try:
            workload.setup()
            plain = timed_window(workload, share)
            workload.trace_begin()
            traced = timed_window(workload, share, spans)
            values.update(workload.trace_metrics(traced))
            if name == "remote-stream":
                layers.probe_client(spans, workload.servers)
        finally:
            workload.teardown()
        for window in (plain, traced):
            attempted += window.attempted
            failed += window.failed
            errors += window.errors[:10]
        values[f"monitor.trace_overhead_pct.{name}"] = (
            (plain.items_per_s - traced.items_per_s) / plain.items_per_s * 100.0
            if plain.items_per_s
            else 0.0
        )
    values.update(layers.span_metrics(spans))
    missing = [name for name in PER_LAYER if name not in values]
    if missing:
        errors.append(f"per-layer metrics not measured: {missing}")
        failed = max(failed, 1)
    metrics = {
        name: (values.get(name, 0.0), PER_LAYER[name]["unit"]) for name in PER_LAYER
    }
    return attempted, failed, metrics, {"errors": errors[:20]}


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> int:
    lines = generate_lines(LINES, WORDS_PER_LINE, seed=seed)
    host = fingerprint(root, seed)
    print(json.dumps({"host": host, "workload": workload, "trace": int(trace)}), flush=True)
    spans = SpanRecorder() if trace else None
    if trace:
        attempted, failed, metrics, detail = traced_run(root, lines, seconds, spans)
    else:
        attempted, failed, metrics, detail = untraced_run(root, workload, lines, seconds)
    correct = failed == 0
    out_dir = os.path.join(root, "perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as handle:
        json.dump(
            {
                "host": host,
                "workload": workload,
                "seconds": seconds,
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: value for name, (value, _) in metrics.items()},
                **detail,
            },
            handle,
            indent=1,
        )
    if spans is not None:
        spans.write(stem + "-spans.json")
    for line in detail.get("errors", ()):
        print(f"error: {line}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1
