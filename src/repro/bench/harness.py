"""Measurement harness — the JMH analogue (paper Section VII).

"The Java Microbenchmarking Harness (JMH) was used to measure the
performance of both suites ... with 20 warmup iterations and 20 test
iterations."  :func:`measure` reproduces the protocol: warmup passes,
timed passes, mean and a Student-t 99% confidence interval.
:func:`run_figure6` executes the full 8-variant × weight matrix and
normalizes "with respect to that of the Java parallel stream benchmark"
— here the native MapReduce — per weight class.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from .workloads import WEIGHTS, Weight, expected_total, generate_lines
from .native import NATIVE_VARIANTS
from .embedded import EMBEDDED_VARIANTS, EmbeddedSuite


def t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value (scipy, with a table fallback).

    scipy is imported here, not at module level: ``repro.bench`` is on
    the import path of every pipe body shipped from this package, and
    pulling scipy into a fresh server costs over a second.
    """
    try:
        from scipy import stats
    except ImportError:  # pragma: no cover - scipy is an install requirement
        pass
    else:
        return float(stats.t.ppf(0.5 + confidence / 2.0, dof))
    # Conservative fallback: 99% two-sided values for small dof.
    table = {1: 63.66, 2: 9.92, 3: 5.84, 4: 4.60, 5: 4.03, 10: 3.17, 19: 2.86}
    best = max(k for k in table if k <= max(dof, 1))
    return table[best]


@dataclass
class Measurement:
    """Timing result for one benchmark variant."""

    label: str
    times: List[float] = field(default_factory=list)
    result: float = 0.0

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.times) if len(self.times) > 1 else 0.0

    def ci(self, confidence: float = 0.99) -> float:
        """Half-width of the two-sided confidence interval on the mean."""
        n = len(self.times)
        if n < 2:
            return 0.0
        return t_critical(confidence, n - 1) * self.stdev / math.sqrt(n)


def measure(
    fn: Callable[[], float],
    label: str = "",
    warmup: int = 20,
    iterations: int = 20,
) -> Measurement:
    """Run *fn* with the paper's 20+20 protocol and collect timings."""
    result = 0.0
    for _ in range(warmup):
        result = fn()
    measurement = Measurement(label=label or getattr(fn, "__name__", "bench"))
    for _ in range(iterations):
        start = time.perf_counter()
        result = fn()
        measurement.times.append(time.perf_counter() - start)
    measurement.result = float(result)
    return measurement


@dataclass
class Figure6Row:
    """One bar of Figure 6."""

    suite: str          # "Junicon" (embedded) or "Native"
    variant: str        # Sequential / Pipeline / DataParallel / MapReduce
    weight: str         # light / heavy
    mean: float
    ci99: float
    normalized: float   # mean / native-MapReduce mean for the same weight

    def key(self) -> str:
        return f"{self.weight}/{self.suite}/{self.variant}"


@dataclass
class Figure6Result:
    rows: List[Figure6Row]
    corpus_lines: int
    warmup: int
    iterations: int
    chunk_size: int

    def row(self, weight: str, suite: str, variant: str) -> Figure6Row:
        for row in self.rows:
            if (row.weight, row.suite, row.variant) == (weight, suite, variant):
                return row
        raise KeyError((weight, suite, variant))

    # -- the paper's three claims (checked by EXPERIMENTS.md / tests) --------

    def overhead_ratios(self, weight: str) -> Dict[str, float]:
        """Junicon/native mean ratio per variant (claim C1: < 10x)."""
        out = {}
        for variant in EMBEDDED_VARIANTS:
            embedded = self.row(weight, "Junicon", variant).mean
            native = self.row(weight, "Native", variant).mean
            out[variant] = embedded / native
        return out

    def ordering(self, weight: str, suite: str) -> List[str]:
        """Variants sorted fastest-first within one suite (claim C3)."""
        rows = [
            self.row(weight, suite, variant) for variant in EMBEDDED_VARIANTS
        ]
        return [row.variant for row in sorted(rows, key=lambda r: r.mean)]


def run_figure6(
    weights: Sequence[str] = ("light", "heavy"),
    num_lines: int = 60,
    words_per_line: int = 8,
    warmup: int = 20,
    iterations: int = 20,
    chunk_size: int = 100,
    verify: bool = True,
) -> Figure6Result:
    """Measure all Figure 6 bars.

    Defaults are scaled down from the paper's testbed so the full matrix
    finishes in minutes on a laptop; pass a larger corpus for longer runs.
    """
    lines = generate_lines(num_lines=num_lines, words_per_line=words_per_line)
    rows: List[Figure6Row] = []
    for weight_name in weights:
        weight: Weight = WEIGHTS[weight_name]
        reference = expected_total(lines, weight) if verify else None
        measurements: Dict[str, Measurement] = {}

        for variant, fn in NATIVE_VARIANTS.items():
            label = f"Native/{variant}/{weight_name}"
            measurements[f"Native/{variant}"] = measure(
                lambda fn=fn: fn(lines, weight),
                label,
                warmup=warmup,
                iterations=iterations,
            )

        suite = EmbeddedSuite(lines, weight, chunk_size=chunk_size)
        for variant in EMBEDDED_VARIANTS:
            label = f"Junicon/{variant}/{weight_name}"
            measurements[f"Junicon/{variant}"] = measure(
                suite.variant(variant), label, warmup=warmup, iterations=iterations
            )

        if reference is not None:
            for key, measurement in measurements.items():
                if not math.isclose(measurement.result, reference, rel_tol=1e-9):
                    raise AssertionError(
                        f"{key} computed {measurement.result!r}, "
                        f"expected {reference!r}"
                    )

        baseline = measurements["Native/MapReduce"].mean
        for key, measurement in measurements.items():
            suite_name, variant = key.split("/")
            rows.append(
                Figure6Row(
                    suite=suite_name,
                    variant=variant,
                    weight=weight_name,
                    mean=measurement.mean,
                    ci99=measurement.ci(0.99),
                    normalized=measurement.mean / baseline,
                )
            )
    return Figure6Result(
        rows=rows,
        corpus_lines=num_lines,
        warmup=warmup,
        iterations=iterations,
        chunk_size=chunk_size,
    )
