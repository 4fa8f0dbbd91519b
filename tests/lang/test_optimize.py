"""Unit and golden-file tests for the optimizing compile target.

The golden files under ``tests/lang/goldens/`` pin the exact Python the
optimizer emits for representative programs — including one *fallback*
golden proving an uncovered shape (string scanning) defers cleanly to an
embedded interpreted subtree rather than miscompiling, and one
*whole-method* fallback (an ``initial`` clause) where the optimizer
declines the unit entirely.

Regenerate after an intentional emitter change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/lang/test_optimize.py

and review the diff like any other source change.
"""

import os
import pathlib

import pytest

from repro.lang.optimize import emit_method_optimized, resolve_optimize
from repro.lang.parser import parse
from repro.lang.transform import CodeWriter, transform_program

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS", "") not in ("", "0")

#: (name, junicon source, expected-lowered) — one method per program.
GOLDEN_PROGRAMS = [
    (
        "counting",
        "def counting() { suspend 1 to 10; }",
        True,
    ),
    (
        "squares_every",
        "def squares() { local i; every i := 1 to 8 do suspend i * i; }",
        True,
    ),
    (
        "conjunction_filter",
        "def keep() { local x; suspend (x := 1 to 12) & x % 3 == 0 & x; }",
        True,
    ),
    (
        "limited_alternation",
        'def pick() { suspend (1 | "two" | 3) \\ 2; }',
        True,
    ),
    (
        "while_accumulate",
        """
        def totals(n) {
            local total, i;
            total = 0; i = 0;
            while (i := i + 1) <= n do {
                total := total + i;
                suspend total;
            };
        }
        """,
        True,
    ),
    (
        "fallback_scan",
        '''
        def words(s) {
            s ? while tab(upto(&letters)) do
                suspend tab(many(&letters)) \\ 1;
        }
        ''',
        True,
    ),
    (
        "pipe_factory",
        """
        def sums() {
            local c, t, tasks;
            tasks = [];
            every c = [1, 2, 3] | [10, 20] do {
                t = |> { local x; x = 0; every x +:= !c; x };
                tasks::append(t);
            };
            suspend ! (! tasks);
        }
        """,
        True,
    ),
    (
        "first_class_activate",
        """
        def steps(n) {
            local c;
            c = <> (1 to n);
            while @c < n do { if @c == n then return "even"; };
            ^c;
            return @c;
        }
        """,
        True,
    ),
    (
        "whole_method_fallback",
        """
        def counter() {
            initial count := 0;
            count := count + 1;
            return count;
        }
        """,
        False,
    ),
]


def _lower(source: str):
    """Run just the optimizer's method emitter over one declaration."""
    program = parse(source)
    method = program.body[0]
    writer = CodeWriter()
    lowered = emit_method_optimized(writer, method, module_globals=set())
    return lowered, writer.text()


@pytest.mark.parametrize(
    "name,source,expect_lowered",
    GOLDEN_PROGRAMS,
    ids=[entry[0] for entry in GOLDEN_PROGRAMS],
)
def test_golden_emission(name, source, expect_lowered):
    lowered, text = _lower(source)
    assert lowered == expect_lowered, (
        f"{name}: lowered={lowered}, expected {expect_lowered}"
    )
    header = f"# lowered: {lowered}\n# source: {' '.join(source.split())}\n"
    rendered = header + text
    golden_path = GOLDEN_DIR / f"{name}.py.golden"
    if REGEN:
        golden_path.write_text(rendered, encoding="utf-8")
    expected = golden_path.read_text(encoding="utf-8")
    assert rendered == expected, (
        f"{name}: emitted code drifted from {golden_path}; if the change "
        "is intentional, regenerate with REPRO_REGEN_GOLDENS=1 and review "
        "the diff"
    )


def test_fallback_golden_embeds_interpreted_tree():
    """The scan golden must actually contain an embedded interpreted
    subtree (the `_eN = IconScan(...)` hoist) — that is what 'defers
    cleanly' means, and what keeps the golden honest as coverage grows."""
    _, text = _lower(dict((e[0], e[1]) for e in GOLDEN_PROGRAMS)["fallback_scan"])
    assert "IconScan" in text
    assert ".iterate()" in text


def test_golden_programs_still_run():
    """Goldens are not just text: each lowerable program must execute and
    produce results through the full optimized pipeline."""
    expectations = {
        "counting": ("counting()", list(range(1, 11))),
        "squares_every": ("squares()", [i * i for i in range(1, 9)]),
        "conjunction_filter": ("keep()", [3, 6, 9, 12]),
        "limited_alternation": ("pick()", [1, "two"]),
        "fallback_scan": (None, None),
        "pipe_factory": ("sums()", [6, 30]),
    }
    for name, source, expect_lowered in GOLDEN_PROGRAMS:
        if name not in expectations:
            continue
        call, expected = expectations[name]
        code = transform_program(source, optimize=True)
        namespace: dict = {}
        exec(compile(code, f"<golden-{name}>", "exec"), namespace)
        if call is None:
            result = list(namespace["words"]("the quick brown fox"))
            assert result == ["the", "quick", "brown", "fox"]
        else:
            assert list(namespace[call[:-2]]()) == expected


# -- knob resolution ---------------------------------------------------------


def test_resolve_optimize(monkeypatch):
    assert resolve_optimize(True) is True
    assert resolve_optimize(False) is False
    monkeypatch.delenv("REPRO_OPTIMIZE", raising=False)
    assert resolve_optimize("auto") is False
    for value in ("1", "true", "on", "yes"):
        monkeypatch.setenv("REPRO_OPTIMIZE", value)
        assert resolve_optimize("auto") is True
    monkeypatch.setenv("REPRO_OPTIMIZE", "off")
    assert resolve_optimize("auto") is False


def test_interpreter_optimize_knob():
    from repro.lang.interp import JuniconInterpreter

    interp = JuniconInterpreter(optimize=True)
    interp.run("def g() { suspend 1 to 4; }")
    assert "[optimized]" in (interp.namespace["g"].__doc__ or "")
    assert interp.results("g()") == [1, 2, 3, 4]

    plain = JuniconInterpreter()
    plain.run("def g() { suspend 1 to 4; }")
    assert "[optimized]" not in (plain.namespace["g"].__doc__ or "")
    assert plain.results("g()") == [1, 2, 3, 4]


# -- the COMPILE event / monitor integration ---------------------------------


def test_compile_events_and_stats():
    from repro.monitor.tracer import Tracer

    tracer = Tracer()
    with tracer.lifecycle():
        transform_program(
            """
            def fast() { suspend 1 to 3; }
            def scanning(s) { s ? suspend tab(upto(&letters)) \\ 1; }
            """,
            optimize=True,
        )
    stats = tracer.compile_stats()
    assert stats["fast"]["optimized"] == 1
    assert stats["fast"]["fallbacks"] == []
    assert stats["scanning"]["optimized"] == 1
    assert "Scan" in str(stats["scanning"]["fallbacks"])


def test_figure6_program_has_no_fallback_shapes():
    """The paper's own program (Figures 3-4) lowers whole: the calculus
    shapes it uses (``::``, ``|>``, ``@``, ``<>``) are all native."""
    from repro.bench.embedded import JUNICON_PROGRAM
    from repro.monitor.tracer import Tracer

    tracer = Tracer()
    with tracer.lifecycle():
        transform_program(JUNICON_PROGRAM, optimize=True)
    stats = tracer.compile_stats()
    assert {name for name, s in stats.items() if s["optimized"] != 1} == set()
    assert {name: s["fallbacks"] for name, s in stats.items() if s["fallbacks"]} == {}
    for shape in ("native-invoke", "pipe", "activate", "first-class"):
        assert any(shape in s["lowered"] for s in stats.values()), shape


def test_returns_in_the_body_frame_yield():
    """A ``return`` in the procedure's own generator frame yields its
    value and returns; one inside a helper still raises the signal."""
    _, text = _lower(
        "def f(n) { if n > 0 then return n; return (n | 1) \\ 1 & 2; }"
    )
    assert "ReturnSignal" not in text
    _, text = _lower("def f(n) { suspend { if n > 5 then return n; n } \\ 1; }")
    assert "raise ReturnSignal(" in text
    assert "IconReturn" not in text


def test_compile_event_records_whole_method_fallback():
    from repro.monitor.tracer import Tracer

    tracer = Tracer()
    with tracer.lifecycle():
        transform_program(
            """
            def once() {
                initial setup := 1;
                return setup;
            }
            """,
            optimize=True,
        )
    stats = tracer.compile_stats()
    assert stats["once"]["compiles"] == 1
    assert stats["once"]["optimized"] == 0
    assert stats["once"]["fallbacks"], "fallback reasons should be recorded"


def test_compile_stats_pinned():
    """The per-unit summary for a fixed program, field for field: a
    unit compiled twice merges its shapes, sorted and without repeats."""
    from repro.monitor.tracer import Tracer

    tracer = Tracer()
    with tracer.lifecycle():
        transform_program(
            """
            def fast() { suspend 1 to 3; }
            def scanning(s) { s ? suspend tab(upto(&letters)) \\ 1; }
            def once() {
                initial setup := 1;
                return setup;
            }
            def fast() { suspend 1 to 4; }
            """,
            optimize=True,
        )
    assert tracer.compile_stats() == {
        "fast": {
            "compiles": 2,
            "optimized": 2,
            "lowered": ["block", "suspend", "to-by"],
            "fallbacks": [],
        },
        "scanning": {
            "compiles": 1,
            "optimized": 1,
            "lowered": ["block"],
            "fallbacks": ["Scan"],
        },
        "once": {
            "compiles": 1,
            "optimized": 0,
            "lowered": [],
            "fallbacks": ["initial-clause"],
        },
    }
