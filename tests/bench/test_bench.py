"""Benchmark infrastructure: workloads, suites, measurement harness."""

import math
import os
import subprocess
import sys

import pytest

from repro.bench.workloads import (
    HEAVY,
    LIGHT,
    WEIGHTS,
    expected_total,
    generate_lines,
    hash_number_heavy,
    hash_number_light,
    word_to_number_heavy,
    word_to_number_light,
    _is_probable_prime,
)
from repro.bench.native import (
    NATIVE_VARIANTS,
    _chunks,
    native_dataparallel,
    native_mapreduce,
    native_pipeline,
    native_sequential,
)
from repro.bench.embedded import EMBEDDED_VARIANTS, EmbeddedSuite
from repro.bench.harness import Measurement, measure, run_figure6, t_critical
from repro.bench.report import check_claims, format_report


@pytest.fixture(scope="module")
def corpus():
    return generate_lines(num_lines=12, words_per_line=4)


@pytest.fixture(scope="module")
def light_expected(corpus):
    return expected_total(corpus, LIGHT)


class TestWorkloads:
    def test_corpus_deterministic(self):
        assert generate_lines(5, 3, seed=1) == generate_lines(5, 3, seed=1)
        assert generate_lines(5, 3, seed=1) != generate_lines(5, 3, seed=2)

    def test_corpus_shape(self, corpus):
        assert len(corpus) == 12
        assert all(len(line.split()) == 4 for line in corpus)

    def test_words_are_base36(self, corpus):
        for line in corpus:
            for word in line.split():
                int(word, 36)  # must not raise

    def test_light_components(self):
        assert word_to_number_light("10") == 36
        assert hash_number_light(49) == 7.0

    def test_heavy_word_is_probable_prime_scaled(self):
        value = word_to_number_heavy("zz")
        assert value > 10 ** 9  # big-int territory

    def test_heavy_hash_finite(self):
        assert math.isfinite(hash_number_heavy(word_to_number_heavy("abcd")))

    def test_miller_rabin_on_knowns(self):
        primes = [2, 3, 5, 7, 97, 104729, 2 ** 61 - 1]
        composites = [1, 4, 100, 561, 104730, 2 ** 61 - 3]
        assert all(_is_probable_prime(p) for p in primes)
        assert not any(_is_probable_prime(c) for c in composites)

    def test_weights_registry(self):
        assert set(WEIGHTS) == {"light", "heavy"}
        assert WEIGHTS["light"] is LIGHT and WEIGHTS["heavy"] is HEAVY

    def test_workloads_import_leaves_scipy_unloaded(self):
        # Pipe bodies shipped from this module are imported by fresh
        # servers; scipy would cost them over a second of start-up.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.bench.workloads; "
                "print('scipy' in sys.modules)",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "False"


class TestNativeSuite:
    def test_all_variants_agree(self, corpus, light_expected):
        for name, fn in NATIVE_VARIANTS.items():
            assert fn(corpus, LIGHT) == pytest.approx(light_expected), name

    def test_heavy_agreement(self, corpus):
        expected = expected_total(corpus, HEAVY)
        assert native_sequential(corpus, HEAVY) == pytest.approx(expected)
        assert native_pipeline(corpus, HEAVY) == pytest.approx(expected)

    def test_chunking(self):
        chunks = _chunks(["a b c", "d e"], 2)
        assert chunks == [["a", "b"], ["c", "d"], ["e"]]

    def test_chunk_size_parameter(self, corpus, light_expected):
        assert native_mapreduce(corpus, LIGHT, chunk_size=5) == pytest.approx(
            light_expected
        )
        assert native_dataparallel(corpus, LIGHT, chunk_size=5) == pytest.approx(
            light_expected
        )

    def test_empty_corpus(self):
        for fn in NATIVE_VARIANTS.values():
            assert fn([], LIGHT) == 0.0


class TestEmbeddedSuite:
    def test_all_variants_agree(self, corpus, light_expected):
        suite = EmbeddedSuite(corpus, LIGHT, chunk_size=7)
        for name in EMBEDDED_VARIANTS:
            assert suite.variant(name)() == pytest.approx(light_expected), name

    def test_reconfigure_without_recompile(self, corpus):
        suite = EmbeddedSuite(corpus, LIGHT)
        light_total = suite.sequential()
        suite.configure(corpus, HEAVY)
        heavy_total = suite.sequential()
        assert heavy_total != pytest.approx(light_total)
        assert heavy_total == pytest.approx(expected_total(corpus, HEAVY))

    def test_chunk_size_affects_task_count(self, corpus, light_expected):
        small = EmbeddedSuite(corpus, LIGHT, chunk_size=2)
        assert small.mapreduce() == pytest.approx(light_expected)

    def test_variant_lookup_rejects_unknown(self, corpus):
        suite = EmbeddedSuite(corpus, LIGHT)
        with pytest.raises(KeyError):
            suite.variant("Quantum")


class TestMeasurementHarness:
    def test_measure_protocol(self):
        calls = []

        def bench():
            calls.append(1)
            return 42.0

        result = measure(bench, "demo", warmup=3, iterations=5)
        assert len(calls) == 8
        assert len(result.times) == 5
        assert result.result == 42.0
        assert result.label == "demo"

    def test_statistics(self):
        m = Measurement("x", times=[1.0, 2.0, 3.0])
        assert m.mean == 2.0
        assert m.stdev == 1.0
        assert m.ci(0.99) > 0

    def test_ci_zero_for_single_sample(self):
        assert Measurement("x", times=[1.0]).ci() == 0.0

    def test_t_critical_reasonable(self):
        assert 2.5 < t_critical(0.99, 19) < 3.5
        assert t_critical(0.95, 19) < t_critical(0.99, 19)


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure6(
            weights=("light",),
            num_lines=8,
            words_per_line=4,
            warmup=1,
            iterations=3,
            chunk_size=10,
        )

    def test_eight_bars_per_weight(self, result):
        assert len(result.rows) == 8
        suites = {(row.suite, row.variant) for row in result.rows}
        assert len(suites) == 8

    def test_normalization_baseline_is_one(self, result):
        baseline = result.row("light", "Native", "MapReduce")
        assert baseline.normalized == pytest.approx(1.0)

    def test_row_lookup(self, result):
        row = result.row("light", "Junicon", "Pipeline")
        assert row.suite == "Junicon"
        with pytest.raises(KeyError):
            result.row("light", "Junicon", "Nope")

    def test_overhead_ratios_positive(self, result):
        ratios = result.overhead_ratios("light")
        assert set(ratios) == set(EMBEDDED_VARIANTS)
        assert all(value > 0 for value in ratios.values())

    def test_ordering_is_permutation(self, result):
        assert sorted(result.ordering("light", "Junicon")) == sorted(
            EMBEDDED_VARIANTS
        )

    def test_verification_catches_wrong_totals(self, monkeypatch):
        """verify=True cross-checks every variant against the reference;
        a sabotaged variant must be caught."""
        import repro.bench.harness as harness_mod

        broken = dict(harness_mod.NATIVE_VARIANTS)
        broken["Sequential"] = lambda lines, weight: 123.456
        monkeypatch.setattr(harness_mod, "NATIVE_VARIANTS", broken)
        with pytest.raises(AssertionError, match="Sequential"):
            run_figure6(
                weights=("light",),
                num_lines=3,
                words_per_line=2,
                warmup=0,
                iterations=1,
                chunk_size=5,
            )

    def test_report_formatting(self, result):
        text = format_report(result)
        assert "Figure 6" in text
        assert "Junicon" in text and "Native" in text
        assert "C3" in text

    def test_claims_structure(self, result):
        claims = check_claims(result)
        assert any(key.startswith("C1/") for key in claims)
        assert "C3 (ordering consistent)" in claims
        for passed, detail in claims.values():
            assert isinstance(passed, bool) and isinstance(detail, str)

    def test_json_export(self, result, tmp_path):
        import json

        from repro.bench.report import write_json

        path = tmp_path / "figure6.json"
        write_json(result, str(path))
        payload = json.loads(path.read_text())
        assert len(payload["rows"]) == 8
        assert payload["protocol"]["iterations"] == 3
        assert all("normalized" in row for row in payload["rows"])
        assert payload["claims"]
