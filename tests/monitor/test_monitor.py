"""Monitoring — transparent probes over translated programs."""

import pytest

from repro.runtime.combinators import IconProduct
from repro.runtime.iterator import IconGenerator, IconValue
from repro.monitor import (
    Event,
    EventKind,
    TracedIterator,
    Tracer,
    emit_lifecycle,
    trace,
)


def gen(*values):
    return IconGenerator(lambda: values)


class TestTransparency:
    def test_results_unchanged(self):
        node, _tracer = trace(IconProduct(gen(1, 2), gen(10, 20)))
        assert list(node) == [10, 20, 10, 20]

    def test_language_results_unchanged(self, interp):
        baseline = interp.results("(1 to 2) * (4 to 7)")
        tracer = Tracer()
        node = tracer.instrument(interp.expression("(1 to 2) * (4 to 7)"))
        assert list(node) == baseline

    def test_refs_pass_through_untouched(self):
        from repro.runtime.refs import IconVar
        from repro.runtime.iterator import IconVarIterator

        cell = IconVar("x")
        cell.set(1)
        node, _ = trace(IconVarIterator(cell))
        results = list(node.iterate())
        assert results == [cell]  # the *reference*, not a copy

    def test_suspension_envelopes_pass_through(self, interp):
        interp.load("def sus() { suspend 1 to 3; }")
        tracer = Tracer()
        node = tracer.instrument(interp.expression("sus()"))
        assert list(node) == [1, 2, 3]

    def test_double_instrument_is_idempotent(self):
        tracer = Tracer()
        node = tracer.instrument(gen(1))
        again = tracer.instrument(node)
        assert again is node


class TestEvents:
    def test_enter_produce_fail_lifecycle(self):
        node, tracer = trace(gen("a"))
        list(node)
        kinds = [event.kind for event in tracer.events]
        assert kinds == [EventKind.ENTER, EventKind.PRODUCE, EventKind.FAIL]

    def test_resume_on_backtracking(self):
        node, tracer = trace(gen(1, 2))
        list(node)
        kinds = [event.kind for event in tracer.events]
        assert kinds == ["enter", "produce", "resume", "produce", "fail"]

    def test_values_recorded(self):
        node, tracer = trace(gen(7, 8))
        list(node)
        produced = [e.value for e in tracer.events if e.kind == "produce"]
        assert produced == [7, 8]

    def test_depth_reflects_nesting(self):
        node, tracer = trace(IconProduct(gen(1), gen(2)))
        list(node)
        depths = {e.node: e.depth for e in tracer.events}
        assert depths["IconProduct"] == 0
        assert depths["IconGenerator"] == 1

    def test_event_str_indents(self):
        event = Event("produce", "IconValue", depth=2, value=5)
        assert str(event).startswith("    ")
        assert "5" in str(event)

    def test_sequence_numbers_increase(self):
        node, tracer = trace(gen(1, 2, 3))
        list(node)
        seqs = [e.seq for e in tracer.events]
        assert seqs == sorted(seqs)


class TestAnalysis:
    def test_counts(self):
        node, tracer = trace(IconProduct(gen(1, 2), gen(3)))
        list(node)
        counts = tracer.counts()
        # product: 2 results; left gen: 2; right gen: 2 passes x 1 result
        assert counts["produce"] == 2 + 2 + 2
        assert counts["fail"] >= 3

    def test_per_node_hotspots(self):
        node, tracer = trace(IconProduct(gen(1, 2, 3), gen(0)))
        list(node)
        summary = tracer.summary()
        assert len(summary["IconGenerator"]["produce"]) == 3 + 3
        assert len(summary["IconProduct"]["produce"]) == 3

    def test_transcript_readable(self):
        node, tracer = trace(gen("x"))
        list(node)
        text = tracer.transcript()
        assert "IconGenerator: produce 'x'" in text

    def test_transcript_limit(self):
        node, tracer = trace(gen(1, 2, 3))
        list(node)
        assert len(tracer.transcript(limit=2).splitlines()) == 2

    def test_clear(self):
        node, tracer = trace(gen(1))
        list(node)
        tracer.clear()
        assert tracer.events == []


class TestSummary:
    def test_groups_by_node_then_kind(self):
        tracer = Tracer()
        tracer.emit(Event(EventKind.SPAWN, "pipe:a", 0, {"pid": 1}))
        tracer.emit(Event(EventKind.SHED, "server:s", 0, {"active": 2}))
        tracer.emit(Event(EventKind.WORKER_LOST, "pipe:a", 0, {"exitcode": 9}))
        assert tracer.summary() == {
            "pipe:a": {
                EventKind.SPAWN: [{"pid": 1}],
                EventKind.WORKER_LOST: [{"exitcode": 9}],
            },
            "server:s": {EventKind.SHED: [{"active": 2}]},
        }

    def test_payloads_in_emission_order(self):
        tracer = Tracer()
        for size in (3, 1, 2):
            tracer.emit(Event(EventKind.BATCH, "pipe:p", 0, {"size": size}))
        flushes = tracer.summary()["pipe:p"][EventKind.BATCH]
        assert [flush["size"] for flush in flushes] == [3, 1, 2]

    def test_trimmed_events_are_not_counted(self):
        tracer = Tracer(max_events=4)
        for attempt in range(5):
            retry = Event(EventKind.RETRY, "supervise:s", 0, {"attempt": attempt})
            tracer.emit(retry)
        # The fifth event overflowed the buffer, which kept its newer half.
        retries = tracer.summary()["supervise:s"][EventKind.RETRY]
        assert [retry["attempt"] for retry in retries] == [2, 3, 4]
        assert len(retries) == tracer.counts()[EventKind.RETRY]

    def test_iteration_and_lifecycle_side_by_side(self):
        node, tracer = trace(gen(7))
        with tracer.lifecycle():
            list(node)
            emit_lifecycle(Event(EventKind.START, "pipe:p", 0))
        summary = tracer.summary()
        assert summary["IconGenerator"] == {
            "enter": [None],
            "produce": [7],
            "fail": [None],
        }
        assert summary["pipe:p"] == {EventKind.START: [None]}


class TestLiveSinkAndBounds:
    def test_sink_receives_events_live(self):
        seen = []
        node, _tracer = trace(gen(1, 2), sink=seen.append)
        stepper = node.iterate()
        next(stepper)
        assert [e.kind for e in seen] == ["enter", "produce"]

    def test_event_buffer_bounded(self):
        tracer = Tracer(max_events=10)
        node = tracer.instrument(IconGenerator(lambda: range(100)))
        list(node)
        assert len(tracer.events) <= 11

    def test_goal_directed_failure_visible(self, interp):
        """Monitoring shows *why* an expression failed — the debugging
        story of the paper's future work."""
        tracer = Tracer()
        node = tracer.instrument(interp.expression("(1 to 3) & (5 < 4)"))
        assert list(node) == []
        counts = tracer.counts()
        assert counts["produce"] >= 3   # the range kept producing
        assert counts["fail"] >= 4      # the comparison kept failing


class TestInstrumentedLanguagePrograms:
    def test_backtracking_profile(self, interp):
        """Resumes reveal the backtracking the search performed."""
        tracer = Tracer()
        node = tracer.instrument(
            interp.expression("(a := 1 to 5) & (a % 2 == 0) & a")
        )
        assert list(node) == [2, 4]
        assert tracer.counts()["resume"] > 0
