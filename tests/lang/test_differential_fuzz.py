"""Grammar fuzzing over the three execution engines.

The fixed corpus in ``test_differential.py`` pins known shapes; this
harness generates *well-formed* Junicon programs from a bounded grammar
of deterministic operations (no ``?`` random, no mutable keywords) and
cross-checks the full result sequence on all three engines:

* interactive (`JuniconInterpreter`),
* compiled (`transform_program`),
* optimized (`transform_program(optimize=True)`).

The grammar deliberately mixes shapes the optimizer lowers natively
(alternation, conjunction, limitation, to-by, arithmetic, every/while)
so fuzzing exercises both the lowered code paths *and* the
interpreted/optimized boundary.

``REPRO_HYPOTHESIS_EXAMPLES`` scales the example count (default 30; CI's
differential job runs more).  ``derandomize=True`` keeps runs
reproducible under the suite watchdog.  Shrunk failures print the
offending Junicon source via :func:`hypothesis.note`.
"""

import os

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.lang.interp import JuniconInterpreter
from repro.lang.transform import transform_program

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "30"))

# -- the grammar -------------------------------------------------------------
#
# Expressions are built as source strings, fully parenthesized so operator
# precedence cannot differ between what the fuzzer meant and what the
# parser built.  All leaves are small: ranges yield at most 5 results and
# literals stay single-digit, so even a product of several generators
# stays well under the test watchdog.

_literals = st.integers(0, 6).map(str)
_ranges = st.tuples(st.integers(1, 3), st.integers(3, 5)).map(
    lambda t: f"({t[0]} to {t[1]})"
)
_stepped = st.sampled_from(
    ["(1 to 5 by 2)", "(2 to 8 by 3)", "(5 to 1 by -2)", "(9 to 3 by -3)"]
)


def _extend(children):
    binary = st.sampled_from(["+", "-", "*", "|", "&", "<", "<=", ">", ">="])
    pair = st.tuples(children, binary, children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    )
    limited = st.tuples(children, st.integers(1, 4)).map(
        lambda t: f"({t[0]} \\ {t[1]})"
    )
    modulo = st.tuples(children, st.integers(2, 5)).map(
        lambda t: f"({t[0]} % {t[1]})"
    )
    negated = children.map(lambda e: f"(not {e})")
    return st.one_of(pair, limited, modulo, negated)


def _expressions(extra_atoms=()):
    base = st.one_of(_literals, _ranges, _stepped, *map(st.just, extra_atoms))
    return st.recursive(base, _extend, max_leaves=6)


#: Four program templates: a bare suspend, an every-loop over a bound
#: variable the expression may reference, a while-loop counter, and the
#: calculus (``|<>``, ``@``, ``!``, ``<>``, ``^``, ``|>``) around it.
_programs = st.one_of(
    _expressions().map(lambda e: f"def gen() {{ suspend {e}; }}"),
    _expressions(extra_atoms=("i",)).map(
        lambda e: f"def gen() {{ local i; every i := 1 to 4 do suspend {e}; }}"
    ),
    _expressions(extra_atoms=("i",)).map(
        lambda e: "def gen() { local i; i = 0; "
        f"while (i := i + 1) <= 3 do suspend {e}; }}"
    ),
    # The concurrency calculus over a snapshot: |<> and |> copy i = 2,
    # <> reads the live i = 5.
    _expressions(extra_atoms=("i",)).map(
        lambda e: f"def gen() {{ local i, c; i = 2; c = |<> {e}; i = 5; "
        f"suspend @c | ! c | ! <> {e} | @(^c) | ! |> {e}; }}"
    ),
)


# -- the engines -------------------------------------------------------------


def _run_interactive(source: str) -> list:
    interp = JuniconInterpreter()
    interp.run(source)
    return interp.results("gen()")


def _run_compiled(source: str, optimize: bool) -> list:
    code = transform_program(source, optimize=optimize)
    namespace: dict = {}
    exec(compile(code, "<fuzz>", "exec"), namespace)
    return list(namespace["gen"]())


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=_programs)
def test_fuzzed_programs_agree(program):
    note(f"junicon source: {program}")
    interactive = _run_interactive(program)
    compiled = _run_compiled(program, optimize=False)
    optimized = _run_compiled(program, optimize=True)
    assert compiled == interactive, (
        f"compiled diverged on: {program}\n"
        f"  interactive: {interactive!r}\n  compiled: {compiled!r}"
    )
    assert optimized == interactive, (
        f"optimized diverged on: {program}\n"
        f"  interactive: {interactive!r}\n  optimized: {optimized!r}"
    )


@settings(
    max_examples=max(EXAMPLES // 3, 10),
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=_programs)
def test_fuzzed_programs_are_lowered(program):
    """The fuzz grammar stays inside the optimizer's covered shapes: every
    generated program must actually take the native-generator path (no
    silent whole-method fallback), so the agreement test above genuinely
    exercises lowered code."""
    note(f"junicon source: {program}")
    code = transform_program(program, optimize=True)
    namespace: dict = {}
    exec(compile(code, "<fuzz>", "exec"), namespace)
    doc = namespace["gen"].__doc__ or ""
    assert "[optimized]" in doc, f"not lowered: {program}"
