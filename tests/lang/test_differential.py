"""Differential testing: interactive vs compiled vs optimized engines.

The harness has three genuinely distinct execution paths over the same
grammar and runtime:

* the **interactive** path (`JuniconInterpreter.run`) — declarations are
  emitted one at a time (`emit_method`/`emit_class`) and each statement
  is compiled to a standalone iterator expression and evaluated;
* the **compiled** path (`transform_program`) — the whole translation
  unit becomes one Python module, exec'd in a fresh namespace, with
  module-level global hoisting and a shared method-body cache;
* the **optimized** path (`transform_program(optimize=True)`) —
  procedures lower to native Python generator functions
  (:mod:`repro.lang.optimize`), with shape-by-shape fallback to the
  interpreted runtime for uncovered constructs.

Future performance work (batching, caching, code-shape changes) lands in
one path first; this corpus pins the engines against each other so a
divergence in *result sequences* — not just first results — fails loudly.

``REPRO_HYPOTHESIS_EXAMPLES`` has no effect here (the corpus is fixed),
but the corpus is deliberately generator-heavy: alternation,
backtracking, scanning, lists, recursion, co-expressions, and pipes.
"""

import pytest

from repro.lang.interp import JuniconInterpreter
from repro.lang.transform import transform_program

#: (name, declarations, expression) — the expression is evaluated for its
#: FULL result sequence on both engines.  Every program is deterministic.
CORPUS = [
    (
        "counting",
        "def gen() { suspend 1 to 10; }",
        "gen()",
    ),
    (
        "squares-every",
        "def gen() { local i; every i := 1 to 8 do suspend i * i; }",
        "gen()",
    ),
    (
        "alternation",
        'def gen() { suspend 1 | "two" | 3 | "four"; }',
        "gen()",
    ),
    (
        "goal-directed-product",
        "def gen() { suspend (1 to 3) * (4 to 6); }",
        "gen()",
    ),
    (
        "conjunction-filter",
        "def gen() { local x; suspend (x := 1 to 12) & x % 3 == 0 & x; }",
        "gen()",
    ),
    (
        "backtracking-pairs",
        "def gen() { local a, b; suspend (a := 1 to 4) & (b := 1 to 4) & (a + b == 5) & [a, b]; }",
        "gen()",
    ),
    (
        "limitation",
        "def gen() { suspend (1 to 100) \\ 7; }",
        "gen()",
    ),
    (
        "recursion-fib",
        """
        def fib(n) {
            if n < 2 then return n;
            return fib(n - 1) + fib(n - 2);
        }
        def gen() { local i; every i := 0 to 10 do suspend fib(i); }
        """,
        "gen()",
    ),
    (
        "mutual-recursion",
        """
        def isEven(n) { if n == 0 then return "yes"; return isOdd(n - 1); }
        def isOdd(n) { if n == 0 then fail; return isEven(n - 1); }
        def gen() { local i; every i := 0 to 6 do suspend isEven(i); }
        """,
        "gen()",
    ),
    (
        "prime-filter",
        """
        def isprime(n) {
            local d;
            if n < 2 then fail;
            every d := 2 to n - 1 do { if n % d == 0 then fail; };
            return n;
        }
        def gen() { suspend isprime(1 to 30); }
        """,
        "gen()",
    ),
    (
        "list-build-promote",
        """
        def gen() {
            local c, i;
            c = [];
            every i := 1 to 5 do put(c, i * 10);
            suspend ! c;
        }
        """,
        "gen()",
    ),
    (
        "list-size-subscript",
        """
        def gen() {
            local c;
            c = [7, 8, 9];
            suspend *c | c[1] | c[3] | c[-1];
        }
        """,
        "gen()",
    ),
    (
        "while-accumulate",
        """
        def gen() {
            local total, i;
            total = 0; i = 0;
            while (i := i + 1) <= 10 do {
                total := total + i;
                suspend total;
            };
        }
        """,
        "gen()",
    ),
    (
        "if-else-parity",
        """
        def parity(n) { if n % 2 == 0 then return "even"; return "odd"; }
        def gen() { suspend parity(1 to 6); }
        """,
        "gen()",
    ),
    (
        "case-dispatch",
        """
        def describe(x) {
            return case x of {
                0: "zero";
                1 | 2 | 3: "small";
                default: "big"
            };
        }
        def gen() { suspend describe(0 to 5); }
        """,
        "gen()",
    ),
    (
        "string-ops",
        """
        def gen() {
            local s;
            every s := "alpha" | "beta" | "gamma" do
                suspend s || "-" || *s;
        }
        """,
        "gen()",
    ),
    (
        "string-scanning",
        '''
        def words(s) {
            s ? while tab(upto(&letters)) do
                suspend tab(many(&letters)) \\ 1;
        }
        def gen() { suspend words("the quick brown fox"); }
        ''',
        "gen()",
    ),
    (
        "nested-every-break",
        """
        def gen() {
            local i, j;
            every i := 1 to 4 do {
                every j := 1 to 4 do {
                    if j > i then break;
                    suspend [i, j];
                };
            };
        }
        """,
        "gen()",
    ),
    (
        "repeated-alternation-limited",
        "def gen() { suspend |3 \\ 5; }",
        "gen()",
    ),
    (
        "coexpression-stepping",
        """
        def gen() {
            local c;
            c = <> (10 to 50 by 10);
            suspend @c | @c | @c;
        }
        """,
        "gen()",
    ),
    (
        "string-sections",
        """
        def gen() {
            local s;
            s = "abcdefgh";
            suspend s[2:5] | s[3+:2] | s[1] | s[-2];
        }
        """,
        "gen()",
    ),
    (
        "pipe-promotion",
        "def gen() { suspend 2 * ! |> (1 to 20); }",
        "gen()",
    ),
    (
        "generator-args",
        """
        def double(x) { return x * 2; }
        def gen() { suspend double(1 to 5) + 100; }
        """,
        "gen()",
    ),
    (
        "table-access",
        """
        def gen() {
            local t, k;
            t = table();
            t["a"] := 1; t["b"] := 2; t["c"] := 3;
            every k := "a" | "b" | "c" do suspend t[k];
        }
        """,
        "gen()",
    ),
    (
        "scan-digits",
        '''
        def nums(s) {
            s ? while tab(upto(&digits)) do
                suspend tab(many(&digits)) \\ 1;
        }
        def gen() { suspend nums("ab12cd345ef6"); }
        ''',
        "gen()",
    ),
    (
        "scan-first-word",
        '''
        def firstWord(s) {
            s ? { tab(upto(&letters)); return tab(many(&letters)); };
        }
        def gen() { suspend firstWord("  hello world") | firstWord("foo bar"); }
        ''',
        "gen()",
    ),
    (
        "nested-coexpressions",
        """
        def gen() {
            local a, b;
            a = <> (1 to 5);
            b = <> (10 to 50 by 10);
            suspend @a + @b | @a + @b | @a;
        }
        """,
        "gen()",
    ),
    (
        "limitation-under-alternation",
        "def gen() { suspend ((1 to 10) | (20 to 30)) \\ 13; }",
        "gen()",
    ),
    (
        "split-limitation-alternation",
        "def gen() { suspend (1 to 5) \\ 2 | (6 to 9) \\ 3; }",
        "gen()",
    ),
    (
        "hofstadter-mutual",
        """
        def hofF(n) { if n == 0 then return 1; return n - hofM(hofF(n - 1)); }
        def hofM(n) { if n == 0 then return 0; return n - hofF(hofM(n - 1)); }
        def gen() { local i; every i := 0 to 10 do suspend hofF(i); }
        """,
        "gen()",
    ),
    (
        "pipe-fed-generator",
        """
        def doubleAll(p) { suspend 2 * ! p; }
        def gen() { suspend doubleAll(|> (1 to 8)); }
        """,
        "gen()",
    ),
    (
        "to-by-descending",
        "def gen() { suspend 10 to 1 by -2; }",
        "gen()",
    ),
    (
        "to-by-step",
        "def gen() { local i; every i := 2 to 20 by 3 do suspend i; }",
        "gen()",
    ),
    (
        "until-loop",
        """
        def gen() {
            local i;
            i = 0;
            until i >= 5 do { i := i + 1; suspend i * 3; };
        }
        """,
        "gen()",
    ),
    (
        "repeat-break",
        """
        def gen() {
            local i;
            i = 0;
            repeat {
                i := i + 1;
                if i > 6 then break;
                suspend i;
            };
        }
        """,
        "gen()",
    ),
    (
        "next-statement",
        """
        def gen() {
            local i;
            every i := 1 to 10 do {
                if i % 2 == 0 then next;
                suspend i;
            };
        }
        """,
        "gen()",
    ),
    (
        "while-break",
        """
        def gen() {
            local i;
            i = 0;
            while 1 do {
                i := i + 1;
                if i > 4 then break;
                suspend i * i;
            };
        }
        """,
        "gen()",
    ),
    (
        "augmented-assignment",
        """
        def gen() {
            local total, i;
            total = 1;
            every i := 1 to 5 do { total *:= 2; suspend total; };
        }
        """,
        "gen()",
    ),
    (
        "not-expression",
        """
        def gen() {
            local i;
            every i := 1 to 8 do { if not (i % 3 == 0) then suspend i; };
        }
        """,
        "gen()",
    ),
    (
        "null-tests",
        """
        def gen() {
            local x, y;
            y = 5;
            if /x then suspend "x-null";
            if \\y then suspend y;
        }
        """,
        "gen()",
    ),
    (
        "keyword-fail-alternation",
        "def gen() { suspend 1 | &fail | 3; }",
        "gen()",
    ),
    (
        "comparison-yields-operand",
        "def gen() { suspend 3 <= (1 to 8); }",
        "gen()",
    ),
    (
        "lexical-comparison",
        """
        def gen() {
            local s;
            every s := "pear" | "apple" | "fig" do {
                if s << "mango" then suspend s;
            };
        }
        """,
        "gen()",
    ),
    (
        "repeated-alternation-assign",
        """
        def gen() {
            local i;
            i = 0;
            suspend | (i := i + 1) \\ 6;
        }
        """,
        "gen()",
    ),
    (
        "generator-in-list-literal",
        """
        def gen() {
            local l;
            l = [1 to 3, 99];
            suspend ! l;
        }
        """,
        "gen()",
    ),
    (
        "procedure-failure-skip",
        """
        def half(n) { if n % 2 == 0 then return n / 2; fail; }
        def gen() { suspend half(1 to 10); }
        """,
        "gen()",
    ),
    (
        "return-inside-every",
        """
        def root(n) { local i; every i := 1 to 10 do { if i * i > n then return i; }; }
        def gen() { suspend root(10) | root(50) | root(1000) | root(0); }
        """,
        "gen()",
    ),
    (
        "return-inside-while",
        """
        def down(n) {
            while n > 0 do { if n % 7 == 0 then return n; n := n - 1; };
            return "none";
        }
        def gen() { suspend down(20) | down(6) | down(15); }
        """,
        "gen()",
    ),
    (
        "return-of-failure-ends-the-call",
        """
        def stop(n) { return n < 0; suspend 99; }
        def bare() { return; suspend 99; }
        def gen() { suspend stop(1) | stop(-5) | (/bare() & "null") | 7; }
        """,
        "gen()",
    ),
    (
        "return-inside-a-helper",
        """
        def f(n) { suspend { if n > 5 then return n * 10; n } \\ 1; suspend 0; }
        def gen() { suspend f(7) | f(3); }
        """,
        "gen()",
    ),
    (
        "first-class-step-past-end-and-restart",
        """
        def gen() {
            local c;
            c = <> (1 to 3);
            suspend @c | @c;
            ^c;
            suspend @c | @c | @c | @c | "end" | @c | ! c;
        }
        """,
        "gen()",
    ),
    (
        "coexpression-snapshot-and-transmit",
        """
        def gen() {
            local x, c;
            x = 1;
            c = |<> (x + (1 to 3));
            x = 100;
            suspend @c | (5 @ c) | x | @c | "done" | *c | @(^c);
        }
        """,
        "gen()",
    ),
    (
        "pipe-size-after-drain",
        "def gen() { local p; p = |> (1 to 5); every !p; suspend *p | type(p); }",
        "gen()",
    ),
    (
        "native-append",
        """
        def gen() {
            local tasks, t;
            tasks = [];
            every t = 1 to 4 do tasks::append(t * t);
            suspend ! tasks | tasks::index(9);
        }
        """,
        "gen()",
    ),
    (
        "pipes-from-one-site",
        """
        def add(a, b) { return a + b; }
        def gen() {
            local c, t, tasks;
            tasks = [];
            every c = [1, 2, 3] | [10, 20] do {
                t = |> { local x; x = 0; every x = add(x, !c); x };
                tasks::append(t);
            };
            suspend ! (! tasks);
        }
        """,
        "gen()",
    ),
]


def run_interactive(decls: str, expr: str) -> list:
    """Engine A: per-declaration emission + per-statement evaluation."""
    interp = JuniconInterpreter()
    interp.run(decls)
    return interp.results(expr)


def run_compiled(decls: str, expr: str) -> list:
    """Engine B: whole-unit `transform_program` exec'd as one module."""
    code = transform_program(decls)
    namespace: dict = {}
    exec(compile(code, "<differential>", "exec"), namespace)
    assert expr.endswith("()"), "corpus expressions are zero-arg calls"
    return list(namespace[expr[:-2]]())


def run_optimized(decls: str, expr: str) -> list:
    """Engine C: `transform_program(optimize=True)` — procedures lower to
    native Python generators where the optimizer covers them, falling
    back shape-by-shape to the interpreted runtime elsewhere."""
    code = transform_program(decls, optimize=True)
    namespace: dict = {}
    exec(compile(code, "<differential-optimized>", "exec"), namespace)
    assert expr.endswith("()"), "corpus expressions are zero-arg calls"
    return list(namespace[expr[:-2]]())


ENGINES = {
    "interactive": run_interactive,
    "compiled": run_compiled,
    "optimized": run_optimized,
}


@pytest.mark.parametrize(
    "name,decls,expr", CORPUS, ids=[entry[0] for entry in CORPUS]
)
def test_engines_agree(name, decls, expr):
    """The 3-way matrix: every engine yields the identical full sequence."""
    sequences = {label: run(decls, expr) for label, run in ENGINES.items()}
    reference = sequences["interactive"]
    for label, sequence in sequences.items():
        assert sequence == reference, (
            f"{name}: {label} {sequence!r} != interactive {reference!r}"
        )
    assert reference, f"{name}: corpus entry produced no results on any engine"


@pytest.mark.parametrize(
    "literal, identity",
    [("<> (1 to 3)", "alias"), ("|<> (1 to 3)", "copy"), ("|> (1 to 3)", "copy")],
)
@pytest.mark.parametrize("engine", list(ENGINES))
def test_refresh_is_a_restarted_generator(engine, literal, identity):
    # Expected values, not only agreement: ``^c`` is the refreshed
    # generator itself — the same type as ``c``, and promoting it
    # starts over — never the first result of one (once every engine
    # bound ``d`` to an integer for a ``<>e`` or ``|>e`` value).  A
    # ``<>e`` value has no snapshot, so it is restarted in place and
    # ``d`` is ``c``; a co-expression or pipe gives a new object.
    decls = f"""
        def f() {{
            local c, d;
            c := {literal};
            @c;
            d := ^c;
            suspend (type(d) ~== "integer" & type(d) == type(c) & "same") |
                (d === c & "alias") | (d ~=== c & "copy") | !d;
        }}
    """
    assert ENGINES[engine](decls, "f()") == ["same", identity, 1, 2, 3]


def test_corpus_is_reasonably_sized():
    # The pin only bites if the corpus keeps covering the dialect.
    assert len(CORPUS) >= 40


def test_optimizer_lowers_most_of_the_corpus():
    """The 3-way matrix is only a differential if engine C genuinely takes
    the optimized path: most corpus entry points must compile to native
    generators (their docstrings carry the ``[optimized]`` marker), not
    silently fall back whole-method to the interpreted emitter."""
    lowered = 0
    for _, decls, expr in CORPUS:
        code = transform_program(decls, optimize=True)
        namespace: dict = {}
        exec(compile(code, "<differential-optimized>", "exec"), namespace)
        doc = namespace[expr[:-2]].__doc__ or ""
        if "[optimized]" in doc:
            lowered += 1
    assert lowered >= len(CORPUS) * 3 // 4, (
        f"only {lowered}/{len(CORPUS)} corpus entry points were lowered"
    )


# ---------------------------------------------------------------------------
# Engine C: the network tier.  The same corpus programs stream their
# result sequences through a loopback generator server — the remote
# transport (framing, batching, credit flow control) must be invisible:
# byte-for-byte the sequence the local engines produce.
# ---------------------------------------------------------------------------

#: Corpus entries replayed over the wire.  Generator-heavy picks: deep
#: backtracking, recursion, pipe promotion, and string scanning all
#: stress envelope ordering differently.
REMOTE_CORPUS = [
    "counting",
    "goal-directed-product",
    "backtracking-pairs",
    "recursion-fib",
    "pipe-promotion",
    "string-sections",
]


def _compiled_program(decls: str, expr: str):
    """Server-side factory: compile and run a program for its sequence."""
    code = transform_program(decls)
    namespace: dict = {}
    exec(compile(code, "<remote-differential>", "exec"), namespace)
    return namespace[expr[:-2]]()


def _server_classes():
    from repro.net import AsyncGeneratorServer, GeneratorServer

    return [GeneratorServer, AsyncGeneratorServer]


@pytest.fixture(
    scope="module", params=_server_classes(), ids=["threaded", "async"]
)
def gen_server(request):
    # Both server substrates host the corpus: the event-loop server must
    # be as invisible on the wire as the threaded one.
    with request.param() as server:
        server.register("program", _compiled_program)
        yield server


@pytest.mark.parametrize(
    "name,decls,expr",
    [entry for entry in CORPUS if entry[0] in REMOTE_CORPUS],
    ids=[entry[0] for entry in CORPUS if entry[0] in REMOTE_CORPUS],
)
def test_remote_backend_agrees(name, decls, expr, gen_server):
    from repro.net import RemotePipe

    local = run_compiled(decls, expr)
    remote = list(
        RemotePipe(gen_server.address, "program", args=(decls, expr)).iterate()
    )
    assert remote == local == run_interactive(decls, expr), (
        f"{name}: remote {remote!r} != local {local!r}"
    )


def test_remote_corpus_is_reasonably_sized():
    names = {entry[0] for entry in CORPUS}
    assert set(REMOTE_CORPUS) <= names
    assert len(REMOTE_CORPUS) >= 4
