"""The optimizing compile target — Junicon methods as native generators.

The default transformer (:mod:`repro.lang.transform`) builds a runtime
tree of :class:`~repro.runtime.iterator.IconIterator` nodes and interprets
it per element.  This pass recognizes the common normalized shapes —
alternation, products, ``every``/``do``, limitation, sequencing, to-by
ranges, arithmetic/comparison operations, invocation chains, ``case``,
loops, ``suspend``-only bodies, and the concurrency calculus (``::``,
``<>``, ``|<>``, ``|>``, ``@``, ``^``) — and emits one straight Python
generator function per procedure: results travel by ``yield``, products
become nested ``for`` loops, a ``return`` in the procedure's own frame
yields its value and returns, and ``break``/``next``/``fail`` (and a
``return`` from a helper) ride the same control signals the runtime
already uses, so no per-step iterator objects are allocated on the
lowered paths.  A co-expression or pipe body becomes a generator
function over shadow cells and fresh temporaries (:meth:`factory`).

What the pass does *not* understand it does not guess at: any unsupported
subtree (string scanning, subscripts/sections/fields, reversible
assignment and swaps, embedded host code, ``suspend`` inside a
co-expression, ...) is compiled by the existing :class:`ExpressionCompiler`
into a runtime tree hoisted once per body construction and driven with
``.iterate()`` in place — a shape-by-shape fallback sharing the same
reified cells and temporaries, so lowered and interpreted fragments
interoperate inside one procedure.  Procedures using ``initial`` clauses
or ``static`` locals fall back wholesale to the interpreted target.

Observable deviations (pinned by the differential corpus): optimized
procedures deliver *dereferenced values* where the interpreted path may
suspend assignable references; both spellings are indistinguishable to a
caller, which dereferences results anyway.  A lowered ``<>e`` is an
:class:`~repro.runtime.iterator.IconGenerator`, so ``type(<>e)`` names
that class rather than the root node of ``e``'s interpreted tree.

Per translated unit a ``COMPILE`` event (shapes lowered vs fallbacks) is
emitted on the monitor bus; :meth:`repro.monitor.tracer.Tracer.compile_stats`
aggregates them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, List, Optional, Set, Tuple

from ..errors import TransformError
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.types import Cset
from . import ast_nodes as ast
from .normalize import BoundIn, TempRef, count_temps, normalize_expr
from .transform import (
    BINARY_FN,
    UNARY_FN,
    CodeWriter,
    ExpressionCompiler,
    Scope,
    collect_locals,
    referenced_names,
    referenced_temps,
)

#: value functions whose result can be FAIL (comparisons return their right
#: operand or fail; ``?0`` fails) — lowered uses must guard.
CAN_FAIL = {
    "iops.num_lt",
    "iops.num_le",
    "iops.num_gt",
    "iops.num_ge",
    "iops.num_ne",
    "iops.lex_lt",
    "iops.lex_le",
    "iops.lex_gt",
    "iops.lex_ge",
    "iops.value_eq",
    "iops.value_ne",
    "iops.random_of",
}


class Unsupported(Exception):
    """A shape the optimizer does not lower (the raiser names it)."""


def contains_suspend(node: ast.Node) -> bool:
    """True when any descendant is a ``suspend`` statement.

    Such subtrees must stay lexically inside the procedure's generator
    frame (their results ``yield`` to the caller), so they can never move
    into a helper generator; conservative for co-expression literals,
    whose inner suspends would actually be fine to relocate.
    """
    return any(isinstance(n, ast.Suspend) for n in ast.walk(node))


def resolve_optimize(value) -> bool:
    """Resolve the ``optimize=True|False|"auto"`` knob to a decision.

    ``"auto"`` consults the ``REPRO_OPTIMIZE`` environment variable
    (truthy spellings: 1/true/on/yes) and defaults to off.
    """
    if value == "auto" or value is None:
        flag = os.environ.get("REPRO_OPTIMIZE", "").strip().lower()
        return flag in ("1", "true", "on", "yes")
    return bool(value)


def _emit_compile_event(unit: str, optimized: bool, lowered, fallbacks) -> None:
    if not lifecycle_enabled():
        return
    emit_lifecycle(
        Event(
            EventKind.COMPILE,
            node=unit,
            depth=0,
            value={
                "optimized": optimized,
                "lowered": sorted(set(lowered)),
                "fallbacks": sorted(set(fallbacks)),
            },
        )
    )


# A continuation receives the writer and a Python expression producing one
# (already dereferenced) result value; it emits the consuming code.
Continuation = Callable[[CodeWriter, str], None]


class GeneratorLowering:
    """Lower one normalized method body into native generator code.

    The emitter is continuation-passing: ``results(w, node, k)`` writes
    code that invokes ``k`` once per result of *node*.  Every lowering is
    transactional — when a sub-shape raises :class:`Unsupported`, the
    partial emission rolls back and the whole sub-tree is embedded as an
    interpreted runtime node instead.
    """

    def __init__(self, method: ast.MethodDecl, module_globals: Set[str] | None = None) -> None:
        self.method = method
        self.body = normalize_expr(method.body)
        self.locals_list = collect_locals(method.body, method.params, None, module_globals)
        self.scope = Scope(locals_map={name: f"{name}_r" for name in self.locals_list})
        #: the interpreted compiler, for embedded fallback subtrees — it
        #: resolves against the same scope, so fallbacks share the cells
        self.rc = ExpressionCompiler(self.scope)
        self.temps = count_temps(self.body)
        self.hoists: List[str] = []
        self.helpers: List[List[str]] = []
        self.lowered: List[str] = []
        self.fallbacks: List[str] = []
        self._counter = 0
        #: True while emitting into the procedure's own ``_gen`` frame,
        #: where a ``return`` can yield its value and return; helpers and
        #: co-expression factories raise a ReturnSignal instead
        self._body_frame = True

    # -- bookkeeping -----------------------------------------------------------

    def fresh(self, prefix: str = "_v") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    @contextmanager
    def block(self, w: CodeWriter):
        """An indented suite that is never syntactically empty."""
        w.indent()
        mark = len(w.lines)
        yield
        if len(w.lines) == mark:
            w.emit("pass")
        w.dedent()

    @contextmanager
    def frame(self):
        """Emit into a nested function scope (a co-expression factory):
        hoists and helpers made meanwhile are collected apart, to be
        defined inside that function, so they close over its cells."""
        saved = self.hoists, self.helpers, self._body_frame
        self.hoists, self.helpers, self._body_frame = [], [], False
        try:
            yield self.hoists, self.helpers
        finally:
            self.hoists, self.helpers, self._body_frame = saved

    def _snapshot(self, w: CodeWriter) -> tuple:
        return (
            len(w.lines),
            w.depth,
            len(self.hoists),
            len(self.helpers),
            len(self.lowered),
            len(self.fallbacks),
        )

    def _rollback(self, w: CodeWriter, snap: tuple) -> None:
        del w.lines[snap[0]:]
        w.depth = snap[1]
        del self.hoists[snap[2]:]
        del self.helpers[snap[3]:]
        del self.lowered[snap[4]:]
        del self.fallbacks[snap[5]:]

    def materialize(self, w: CodeWriter, expr: str) -> str:
        """Pin *expr* into a variable unless it already is one."""
        if expr.isidentifier():
            return expr
        var = self.fresh()
        w.emit(f"{var} = {expr}")
        return var

    # -- atomic values ---------------------------------------------------------

    def atom_value(self, node: ast.Node) -> str:
        """Call-time value of an atomic node (normalized call positions)."""
        if isinstance(node, ast.Literal) and isinstance(node.value, Cset):
            var = self.fresh("_c")
            self.hoists.append(f"{var} = Cset({node.value.string()!r})")
            return var
        return self.rc.value(node)

    # -- fallback embedding ----------------------------------------------------

    def embed_node(self, node: ast.Node) -> str:
        """Hoist *node* as an interpreted runtime tree, built once."""
        code = self.rc.c(node)
        var = self.fresh("_e")
        self.hoists.append(f"{var} = {code}")
        self.fallbacks.append(type(node).__name__)
        return var

    def _embed_results(self, w: CodeWriter, node: ast.Node, k: Continuation) -> None:
        var = self.embed_node(node)
        r = self.fresh("_r")
        w.emit(f"for {r} in {var}.iterate():")
        with self.block(w):
            if contains_suspend(node):
                # Suspension envelopes are caller results: yield them from
                # the procedure's generator frame, exactly as the
                # interpreted root would after unwrapping.
                w.emit(f"if isinstance({r}, Suspension):")
                with self.block(w):
                    w.emit(f"yield deref({r}.value)")
                w.emit("else:")
                with self.block(w):
                    k(w, f"deref({r})")
            else:
                k(w, f"deref({r})")

    def _embed_statement(self, w: CodeWriter, node: ast.Node, bounded: bool) -> None:
        var = self.embed_node(node)
        r = self.fresh("_r")
        w.emit(f"for {r} in {var}.iterate():")
        with self.block(w):
            if contains_suspend(node):
                w.emit(f"if isinstance({r}, Suspension):")
                with self.block(w):
                    w.emit(f"yield deref({r}.value)")
                if bounded:
                    w.emit("else:")
                    with self.block(w):
                        w.emit("break")
            elif bounded:
                w.emit("break")
            else:
                w.emit("pass")

    # -- simple (deterministic, at-most-one-result) expressions ---------------

    def simple(self, node: ast.Node, allow_fail: bool = True) -> Optional[Tuple[str, bool]]:
        """``(python_expr, can_fail)`` for a single-result expression.

        Covers atoms, compositions of non-generating value operations, and
        plain assignment of a simple value (``Ref.set`` returns the value,
        which is what makes assignment an expression here).  Returns None
        when the node can generate, signal, or is otherwise not simple.
        """
        if isinstance(node, ast.Literal):
            if isinstance(node.value, Cset):
                return None  # needs hoisting; not worth it inline
            return repr(node.value), False
        if isinstance(node, ast.NullLit):
            return "None", False
        if isinstance(node, TempRef):
            return f"_t{node.index}.get()", False
        if isinstance(node, ast.Keyword):
            if node.name == "fail":
                return None
            return self.rc.value(node), False
        if isinstance(node, ast.Name):
            kind = self.scope.resolve(node.id)
            if kind[0] not in ("local", "global"):
                return None
            return self.rc.value(node), False
        if isinstance(node, ast.Unary) and node.op in UNARY_FN:
            operand = self.simple(node.operand, allow_fail=False)
            if operand is None:
                return None
            fn = UNARY_FN[node.op]
            can_fail = fn in CAN_FAIL
            if can_fail and not allow_fail:
                return None
            return f"{fn}({operand[0]})", can_fail
        if isinstance(node, ast.Binary) and node.op in BINARY_FN:
            left = self.simple(node.left, allow_fail=False)
            right = self.simple(node.right, allow_fail=False)
            if left is None or right is None:
                return None
            fn = BINARY_FN[node.op]
            can_fail = fn in CAN_FAIL
            if can_fail and not allow_fail:
                return None
            return f"{fn}({left[0]}, {right[0]})", can_fail
        if isinstance(node, ast.Assign) and node.op in ("=", ":="):
            cell = self._assign_cell(node.target)
            if cell is None:
                return None
            value = self.simple(node.value, allow_fail=False)
            if value is None:
                return None
            return f"{cell}.set({value[0]})", False
        return None

    def _assign_cell(self, target: ast.Node) -> Optional[str]:
        """The generated cell expression for a directly assignable target."""
        if isinstance(target, TempRef):
            return f"_t{target.index}"
        if isinstance(target, ast.Name):
            kind = self.scope.resolve(target.id)
            if kind[0] == "local":
                return kind[1]
            if kind[0] == "global":
                self.rc.globals_used.add(target.id)
                return f"_g_{target.id}"
        return None

    # -- bounded evaluation (first result or FAIL) -----------------------------

    def bounded(self, w: CodeWriter, node: ast.Node) -> str:
        """Emit code computing *node*'s first result; returns the variable
        (holding FAIL on failure)."""
        s = self.simple(node)
        if s is not None:
            var = self.fresh()
            w.emit(f"{var} = {s[0]}")
            return var
        if isinstance(node, ast.Assign) and node.op in ("=", ":="):
            cell = self._assign_cell(node.target)
            if cell is not None:
                var = self.bounded(w, node.value)
                w.emit(f"if {var} is not FAIL:")
                with self.block(w):
                    w.emit(f"{cell}.set({var})")
                return var
        if isinstance(node, ast.ListLit):
            return self._bounded_list(w, node)
        if isinstance(node, ast.Invoke):
            return self._bounded_invoke(w, node)
        chain = self._bounded_chain(w, node)
        if chain is not None:
            return chain
        if isinstance(node, _SINGLETONS):
            # Straight-line code (or, embedded, a loop run exactly once).
            out: List[str] = []
            self.results(w, node, lambda bw, v: out.append(self.materialize(bw, v)))
            return out[0]
        if contains_suspend(node):
            raise Unsupported("suspend in bounded position")
        helper = self.helper(node)
        var = self.fresh()
        w.emit(f"{var} = first_result({helper}())")
        return var

    def _bounded_list(self, w: CodeWriter, node: ast.ListLit) -> str:
        self.lowered.append("list")
        parts = []
        for item in node.items:
            if isinstance(item, ast.Literal) and not isinstance(item.value, Cset):
                parts.append(repr(item.value))
            elif isinstance(item, ast.NullLit):
                parts.append("None")
            else:
                v = self.bounded(w, item)
                parts.append(f"None if {v} is FAIL else {v}")
        var = self.fresh()
        w.emit(f"{var} = [{', '.join(parts)}]")
        return var

    def _bounded_invoke(self, w: CodeWriter, node: ast.Invoke) -> str:
        self.lowered.append("invoke")
        callee = self.atom_value(node.callee)
        args = "".join(f", {self.atom_value(arg)}" for arg in node.args)
        var = self.fresh()
        w.emit(f"{var} = first_result(call_results({callee}{args}))")
        return var

    def _bounded_chain(self, w: CodeWriter, node: ast.Node) -> Optional[str]:
        """Fast path for a normalized call chain ``(t0 in e0) & ... & f(...)``
        whose bindings are simple: no backtracking is possible, so the
        bound expression is straight-line assignments plus one call."""
        parts = _flatten_product(node)
        if len(parts) < 2 or not isinstance(parts[-1], ast.Invoke):
            return None
        bindings = []
        for part in parts[:-1]:
            if not isinstance(part, BoundIn):
                return None
            expr = self.simple(part.expr, allow_fail=False)
            if expr is None:
                return None
            bindings.append((part.index, expr[0]))
        for index, expr in bindings:
            w.emit(f"_t{index}.set({expr})")
        return self._bounded_invoke(w, parts[-1])

    # -- helper generators -----------------------------------------------------

    def helper(self, node: ast.Node) -> str:
        """Compile *node* into a method-scope generator function ``_hN``.

        Helpers close over the reified cells/temporaries/hoists only, never
        over the main generator's frame, so they can be re-invoked freely.
        Suspend-bearing subtrees are refused: their yields belong to the
        procedure's own generator frame.
        """
        if contains_suspend(node):
            raise Unsupported("suspend inside helper")
        name = self.fresh("_h")
        hw = CodeWriter()
        hw.emit(f"def {name}():")
        hw.indent()
        mark = len(hw.lines)
        saved, self._body_frame = self._body_frame, False
        try:
            self.results(hw, node, lambda w, v: w.emit(f"yield {v}"))
        finally:
            self._body_frame = saved
        _ensure_generator(hw, mark)
        hw.dedent()
        self.helpers.append(hw.lines)
        return name

    def factory(self, body: ast.Node) -> Tuple[str, str]:
        """Compile a co-expression *body* into a generator function
        ``_fN(*snapshot)``; returns ``(name, env_getter)`` for
        ``CoExpression(name, env_getter)``.

        Section V.D's copied environment: each call rebinds the locals the
        body references to shadow cells over the snapshot values, and the
        normalization temporaries it references to fresh ones, so two
        instances from one site (pipes made in a loop) share no state.
        Hoists and helpers are defined inside the factory, over those
        cells.  ``None`` stands for "no snapshot" (no locals referenced).
        """
        if contains_suspend(body):
            raise Unsupported("suspend inside co-expression")
        shadowed = sorted(
            name
            for name in referenced_names(body)
            if self.scope.resolve(name)[0] == "local"
        )
        cells = [self.scope.locals_map[name] for name in shadowed]
        name = self.fresh("_f")
        gw = CodeWriter()
        with self.frame() as (hoists, helpers):
            self.results(gw, body, lambda w, v: w.emit(f"yield {v}"))
        _ensure_generator(gw, 0)
        fw = CodeWriter()
        fw.emit(f"def {name}({', '.join(f'_sv{i}' for i in range(len(cells)))}):")
        fw.indent()
        for i, (local, cell) in enumerate(zip(shadowed, cells)):
            fw.emit(f"{cell} = shadow(_sv{i}, {local!r})")
        for index in sorted(referenced_temps(body)):
            fw.emit(f"_t{index} = IconTmp()")
        for line in hoists:
            fw.emit(line)
        for helper_lines in helpers:
            for line in helper_lines:
                fw.emit(line)
        for line in gw.lines:
            fw.emit(line)
        fw.dedent()
        self.helpers.append(fw.lines)
        if not cells:
            return name, "None"
        return name, f"lambda: ({', '.join(f'{cell}.get()' for cell in cells)},)"

    # -- result-sequence emission ----------------------------------------------

    def results(self, w: CodeWriter, node: ast.Node, k: Continuation) -> None:
        """Emit code invoking *k* once per result of *node* (transactional:
        unsupported shapes roll back and embed the interpreted tree)."""
        snap = self._snapshot(w)
        try:
            self._results(w, node, k)
        except Unsupported:
            self._rollback(w, snap)
            self._embed_results(w, node, k)

    def _results(self, w: CodeWriter, node: ast.Node, k: Continuation) -> None:
        s = self.simple(node)
        if s is not None:
            expr, can_fail = s
            if isinstance(node, (ast.Literal, ast.NullLit)):
                k(w, expr)
                return
            var = self.materialize(w, expr)
            if can_fail:
                w.emit(f"if {var} is not FAIL:")
                with self.block(w):
                    k(w, var)
            else:
                k(w, var)
            return
        handler = getattr(self, f"_r_{type(node).__name__}", None)
        if handler is None:
            raise Unsupported(type(node).__name__)
        handler(w, node, k)

    # atoms that are not simple

    def _r_Keyword(self, w: CodeWriter, node: ast.Keyword, k: Continuation) -> None:
        if node.name == "fail":
            self.lowered.append("keyword-fail")
            return  # &fail: no results
        raise Unsupported("keyword")

    def _r_ListLit(self, w: CodeWriter, node: ast.ListLit, k: Continuation) -> None:
        k(w, self._bounded_list(w, node))

    # the concurrency calculus (paper Figure 1)

    def _r_NativeInvoke(self, w: CodeWriter, node: ast.NativeInvoke, k: Continuation) -> None:
        # ``o::m(...)``: a plain host call, its result promoted to a singleton.
        self.lowered.append("native-invoke")
        subject = self.atom_value(node.subject)
        args = ", ".join(self.atom_value(arg) for arg in node.args)
        var = self.fresh()
        w.emit(f"{var} = deref(({subject}).{node.name}({args}))")
        k(w, var)

    def _r_FirstClass(self, w: CodeWriter, node: ast.FirstClass, k: Continuation) -> None:
        # ``<>e``: an iterator node over a helper sharing this frame's
        # cells, so ``@`` steps it, ``^`` restarts it and ``!`` re-runs it.
        helper = self.helper(node.expr)
        self.lowered.append("first-class")
        var = self.fresh()
        w.emit(f"{var} = IconGenerator({helper})")
        k(w, var)

    def _r_CoExprLit(self, w: CodeWriter, node: ast.Node, k: Continuation) -> None:
        # ``|<>e``, and ``|>e`` as the pipe over it.
        factory, getter = self.factory(node.expr)
        pipe = isinstance(node, ast.PipeLit)
        self.lowered.append("pipe" if pipe else "co-expression")
        var = self.fresh()
        suffix = ".create_pipe()" if pipe else ""
        w.emit(f"{var} = CoExpression({factory}, {getter}){suffix}")
        k(w, var)

    _r_PipeLit = _r_CoExprLit

    def _r_Activate(self, w: CodeWriter, node: ast.Activate, k: Continuation) -> None:
        self.lowered.append("activate")

        def step(aw: CodeWriter, target: str) -> None:
            t = self.materialize(aw, target)
            sent = "None"
            if node.transmit is not None:
                sent = self.bounded(aw, node.transmit)
                aw.emit(f"if {sent} is not FAIL:")
                aw.indent()
            out = self.fresh()
            aw.emit(f"{out} = deref(activate_value({t}, {sent}))")
            aw.emit(f"if {out} is not FAIL:")
            with self.block(aw):
                k(aw, out)
            if node.transmit is not None:
                aw.dedent()

        self.results(w, node.target, step)

    # operators

    def _r_BoundIn(self, w: CodeWriter, node: BoundIn, k: Continuation) -> None:
        def bind(bw: CodeWriter, v: str) -> None:
            vv = self.materialize(bw, v)
            bw.emit(f"_t{node.index}.set({vv})")
            k(bw, vv)

        self.results(w, node.expr, bind)

    def _r_Unary(self, w: CodeWriter, node: ast.Unary, k: Continuation) -> None:
        op = node.op
        if op == "!":
            self.lowered.append("promote")

            def promote(pw: CodeWriter, v: str) -> None:
                p = self.fresh("_r")
                pw.emit(f"for {p} in promote_value({v}):")
                with self.block(pw):
                    k(pw, f"deref({p})")

            self.results(w, node.operand, promote)
            return
        if op == "not":
            self.lowered.append("not")
            v = self.bounded(w, node.operand)
            w.emit(f"if {v} is FAIL:")
            with self.block(w):
                k(w, "None")
            return
        if op in ("/", "\\"):
            self.lowered.append("null-test")
            test = "is None" if op == "/" else "is not None"

            def null_test(nw: CodeWriter, v: str) -> None:
                vv = self.materialize(nw, v)
                nw.emit(f"if {vv} {test}:")
                with self.block(nw):
                    k(nw, vv)

            self.results(w, node.operand, null_test)
            return
        if op == ".":
            # results are already dereferenced in lowered code
            self.results(w, node.operand, k)
            return
        if op == "|":
            self.lowered.append("repeat-alt")
            w.emit("while True:")
            with self.block(w):
                flag = self.fresh("_p")
                w.emit(f"{flag} = False")

                def produced(fw: CodeWriter, v: str) -> None:
                    fw.emit(f"{flag} = True")
                    k(fw, v)

                self.results(w, node.operand, produced)
                w.emit(f"if not {flag}:")
                with self.block(w):
                    w.emit("break")
            return
        if op in UNARY_FN:
            fn = UNARY_FN[op]
            self.lowered.append("operation")

            def apply(uw: CodeWriter, v: str) -> None:
                out = self.fresh()
                uw.emit(f"{out} = {fn}({v})")
                if fn in CAN_FAIL:
                    uw.emit(f"if {out} is not FAIL:")
                    with self.block(uw):
                        k(uw, out)
                else:
                    k(uw, out)

            self.results(w, node.operand, apply)
            return
        raise Unsupported(f"unary {op}")

    def _r_Binary(self, w: CodeWriter, node: ast.Binary, k: Continuation) -> None:
        op = node.op
        if op == "&":
            self.lowered.append("product")
            self.results(w, node.left, lambda pw, _v: self.results(pw, node.right, k))
            return
        if op == "|":
            self.lowered.append("alternation")
            self.results(w, node.left, k)
            self.results(w, node.right, k)
            return
        if op == "\\":
            self._r_limit(w, node, k)
            return
        if op in BINARY_FN:
            fn = BINARY_FN[op]
            self.lowered.append("operation")

            def with_left(lw: CodeWriter, a: str) -> None:
                # IconOperation fixes the left value once per left result,
                # then iterates the right operand.
                aa = self.materialize(lw, a)

                def with_right(rw: CodeWriter, b: str) -> None:
                    out = self.fresh()
                    rw.emit(f"{out} = {fn}({aa}, {b})")
                    if fn in CAN_FAIL:
                        rw.emit(f"if {out} is not FAIL:")
                        with self.block(rw):
                            k(rw, out)
                    else:
                        k(rw, out)

                self.results(lw, node.right, with_right)

            self.results(w, node.left, with_left)
            return
        raise Unsupported(f"binary {op}")

    def _r_limit(self, w: CodeWriter, node: ast.Binary, k: Continuation) -> None:
        self.lowered.append("limitation")
        quota = self.bounded(w, node.right)
        helper = self.helper(node.left)
        w.emit(f"if {quota} is not FAIL:")
        with self.block(w):
            qn = self.fresh()
            w.emit(f"{qn} = int({quota})")
            w.emit(f"if {qn} > 0:")
            with self.block(w):
                count = self.fresh("_n")
                w.emit(f"{count} = 0")
                r = self.fresh("_r")
                w.emit(f"for {r} in {helper}():")
                with self.block(w):
                    k(w, r)
                    w.emit(f"{count} += 1")
                    w.emit(f"if {count} >= {qn}:")
                    with self.block(w):
                        w.emit("break")

    def _r_ToBy(self, w: CodeWriter, node: ast.ToBy, k: Continuation) -> None:
        self.lowered.append("to-by")

        def walk(sw: CodeWriter, start: str, stop: str, step) -> None:
            i = self.fresh("_i")
            limit = self.fresh()
            sw.emit(f"{i} = iops.need_number({start})")
            sw.emit(f"{limit} = iops.need_number({stop})")
            if step is None:
                # `to` without `by`: ascending by 1, no sign dispatch
                sw.emit(f"while {i} <= {limit}:")
                with self.block(sw):
                    k(sw, i)
                    sw.emit(f"{i} += 1")
                return
            st = self.fresh()
            sw.emit(f"{st} = iops.need_number({step})")
            sw.emit(f"if {st} == 0:")
            with self.block(sw):
                sw.emit('raise iops.IconValueError("to-by: by clause of 0")')
            sw.emit(f"if {st} > 0:")
            with self.block(sw):
                sw.emit(f"while {i} <= {limit}:")
                with self.block(sw):
                    k(sw, i)
                    sw.emit(f"{i} += {st}")
            sw.emit("else:")
            with self.block(sw):
                sw.emit(f"while {i} >= {limit}:")
                with self.block(sw):
                    k(sw, i)
                    sw.emit(f"{i} += {st}")

        def with_start(aw: CodeWriter, a: str) -> None:
            a2 = self.materialize(aw, a)

            def with_stop(bw: CodeWriter, b: str) -> None:
                if node.step is None:
                    walk(bw, a2, b, None)
                else:
                    self.results(bw, node.step, lambda cw, c: walk(cw, a2, b, c))

            self.results(aw, node.stop, with_stop)

        self.results(w, node.start, with_start)

    def _r_Assign(self, w: CodeWriter, node: ast.Assign, k: Continuation) -> None:
        cell = self._assign_cell(node.target)
        if cell is None:
            raise Unsupported("assign target")
        op = node.op
        if op in ("=", ":="):
            self.lowered.append("assign")

            def store(awr: CodeWriter, v: str) -> None:
                vv = self.materialize(awr, v)
                awr.emit(f"{cell}.set({vv})")
                k(awr, vv)

            self.results(w, node.value, store)
            return
        if op.endswith(":=") and op[:-2] in BINARY_FN:
            self.lowered.append("augmented-assign")
            fn = BINARY_FN[op[:-2]]

            def augment(awr: CodeWriter, v: str) -> None:
                out = self.fresh()
                awr.emit(f"{out} = {fn}({cell}.get(), {v})")
                # A failing augmentation vetoes this assignment and moves
                # on to the value expression's next result (IconAssign).
                awr.emit(f"if {out} is not FAIL:")
                with self.block(awr):
                    awr.emit(f"{cell}.set({out})")
                    k(awr, out)

            self.results(w, node.value, augment)
            return
        raise Unsupported(f"assign {op}")

    def _r_Invoke(self, w: CodeWriter, node: ast.Invoke, k: Continuation) -> None:
        self.lowered.append("invoke")
        callee = self.atom_value(node.callee)
        args = "".join(f", {self.atom_value(arg)}" for arg in node.args)
        r = self.fresh("_r")
        w.emit(f"for {r} in call_results({callee}{args}):")
        with self.block(w):
            k(w, r)

    # control constructs in expression position

    def _r_Block(self, w: CodeWriter, node: ast.Block, k: Continuation) -> None:
        self.lowered.append("block")
        parts = _sequence_parts(node)
        if not parts:
            k(w, "None")  # an empty block succeeds with the null value
            return
        for part in parts[:-1]:
            self.statement(w, part, bounded=True)
        self.results(w, parts[-1], k)

    def _r_If(self, w: CodeWriter, node: ast.If, k: Continuation) -> None:
        self.lowered.append("if")
        cond = self.bounded(w, node.cond)
        w.emit(f"if {cond} is not FAIL:")
        with self.block(w):
            self.results(w, node.then, k)
        if node.orelse is not None:
            w.emit("else:")
            with self.block(w):
                self.results(w, node.orelse, k)

    def _r_Case(self, w: CodeWriter, node: ast.Case, k: Continuation) -> None:
        self._case(w, node, lambda bw, body: self.results(bw, body, k))

    def _case(self, w: CodeWriter, node: ast.Case, run_body) -> None:
        self.lowered.append("case")
        subject = self.bounded(w, node.subject)
        w.emit(f"if {subject} is not FAIL:")
        with self.block(w):
            matched = self.fresh("_m")
            w.emit(f"{matched} = False")
            for selector, body in node.branches:
                helper = self.helper(selector)
                w.emit(f"if not {matched}:")
                with self.block(w):
                    cand = self.fresh("_r")
                    w.emit(f"for {cand} in {helper}():")
                    with self.block(w):
                        w.emit(f"if case_match({cand}, {subject}):")
                        with self.block(w):
                            w.emit(f"{matched} = True")
                            w.emit("break")
                    w.emit(f"if {matched}:")
                    with self.block(w):
                        run_body(w, body)
            if node.default is not None:
                w.emit(f"if not {matched}:")
                with self.block(w):
                    run_body(w, node.default)

    # -- statement emission ----------------------------------------------------

    def statement(self, w: CodeWriter, node: ast.Node, bounded: bool = True) -> None:
        """Emit *node* as a statement.  ``bounded`` evaluation stops at the
        first outcome (non-final statements); the procedure root's final
        statement is fully iterated (``bounded=False``), matching
        :class:`~repro.runtime.invoke.IconMethodBody`."""
        snap = self._snapshot(w)
        try:
            self._statement(w, node, bounded)
        except Unsupported:
            self._rollback(w, snap)
            self._embed_statement(w, node, bounded)

    def _drain_break(self, w: CodeWriter, signal: str, bounded: bool) -> None:
        r = self.fresh("_r")
        w.emit(f"for {r} in break_results({signal}):")
        with self.block(w):
            w.emit("break" if bounded else "pass")

    def _statement(self, w: CodeWriter, node: ast.Node, bounded: bool) -> None:
        if isinstance(node, ast.Block):
            self.lowered.append("block")
            parts = _sequence_parts(node)
            for part in parts[:-1]:
                self.statement(w, part, bounded=True)
            if parts:
                self.statement(w, parts[-1], bounded)
            return
        if isinstance(node, ast.Suspend):
            self.lowered.append("suspend")
            if node.expr is None:
                w.emit("yield None")
                if node.do_clause is not None:
                    self.statement(w, node.do_clause, bounded=True)
                return

            def deliver(sw: CodeWriter, v: str) -> None:
                sw.emit(f"yield {v}")
                if node.do_clause is not None:
                    self.statement(sw, node.do_clause, bounded=True)

            self.results(w, node.expr, deliver)
            return
        if isinstance(node, ast.Return):
            self.lowered.append("return")
            if not self._body_frame:
                # Out of a helper or factory: the body wrapper catches it.
                if node.expr is None:
                    w.emit("raise ReturnSignal(None)")
                    return
                v = self.bounded(w, node.expr)
                # FAIL rides the signal: the body wrapper turns it into failure.
                w.emit(f"raise ReturnSignal({v})")
                return
            s = self.simple(node.expr) if node.expr is not None else ("None", False)
            if s is not None and not s[1]:
                w.emit(f"yield {s[0]}")
            else:
                v = self.bounded(w, node.expr)
                w.emit(f"if {v} is not FAIL:")
                with self.block(w):
                    w.emit(f"yield {v}")
            w.emit("return")
            return
        if isinstance(node, ast.Fail):
            self.lowered.append("fail")
            w.emit("raise FailSignal()")
            return
        if isinstance(node, ast.Break):
            self.lowered.append("break")
            if node.expr is None:
                w.emit("raise BreakSignal(None)")
                return
            # The signal carries the un-evaluated value expression; the
            # catching loop iterates it lazily, as the runtime does.
            var = self.fresh("_e")
            self.hoists.append(f"{var} = {self.rc.c(node.expr)}")
            w.emit(f"raise BreakSignal({var})")
            return
        if isinstance(node, ast.NextStmt):
            self.lowered.append("next")
            w.emit("raise NextSignal()")
            return
        if isinstance(node, ast.VarDecl):
            if node.kind != "local":
                raise Unsupported("static declaration")
            for name, init in zip(node.names, node.inits):
                if init is not None:
                    assign = ast.Assign(
                        line=node.line,
                        op=":=",
                        target=ast.Name(line=node.line, id=name),
                        value=init,
                    )
                    self.statement(w, assign, bounded=True)
            return
        if isinstance(node, ast.GlobalDecl):
            return  # scope-only; no runtime effect
        if isinstance(node, ast.If):
            self.lowered.append("if")
            cond = self.bounded(w, node.cond)
            w.emit(f"if {cond} is not FAIL:")
            with self.block(w):
                self.statement(w, node.then, bounded)
            if node.orelse is not None:
                w.emit("else:")
                with self.block(w):
                    self.statement(w, node.orelse, bounded)
            return
        if isinstance(node, (ast.While, ast.Until)):
            self._loop(w, node, bounded)
            return
        if isinstance(node, ast.RepeatLoop):
            self.lowered.append("repeat")
            signal = self.fresh("_s")
            w.emit("while True:")
            with self.block(w):
                w.emit("try:")
                with self.block(w):
                    self.statement(w, node.body, bounded=True)
                w.emit("except NextSignal:")
                with self.block(w):
                    w.emit("continue")
                w.emit(f"except BreakSignal as {signal}:")
                with self.block(w):
                    self._drain_break(w, signal, bounded)
                    w.emit("break")
            return
        if isinstance(node, ast.Every):
            self._every(w, node, bounded)
            return
        if isinstance(node, ast.Case):
            self._case(w, node, lambda bw, body: self.statement(bw, body, bounded))
            return
        # A plain expression in statement position.
        if bounded:
            if contains_suspend(node):
                raise Unsupported("suspend in bounded statement")
            self.bounded(w, node)
        else:
            self.results(w, node, lambda rw, _v: rw.emit("pass"))

    def _loop(self, w: CodeWriter, node, bounded: bool) -> None:
        until = isinstance(node, ast.Until)
        self.lowered.append("until" if until else "while")
        s1 = self.fresh("_s")
        s2 = self.fresh("_s")
        w.emit("while True:")
        with self.block(w):
            w.emit("try:")
            with self.block(w):
                cond = self.bounded(w, node.cond)
            w.emit("except NextSignal:")
            with self.block(w):
                w.emit("continue")
            w.emit(f"except BreakSignal as {s1}:")
            with self.block(w):
                self._drain_break(w, s1, bounded)
                w.emit("break")
            stop_test = "is not FAIL" if until else "is FAIL"
            w.emit(f"if {cond} {stop_test}:")
            with self.block(w):
                w.emit("break")
            if node.body is not None:
                w.emit("try:")
                with self.block(w):
                    self.statement(w, node.body, bounded=True)
                w.emit("except NextSignal:")
                with self.block(w):
                    w.emit("continue")
                w.emit(f"except BreakSignal as {s2}:")
                with self.block(w):
                    self._drain_break(w, s2, bounded)
                    w.emit("break")

    def _every(self, w: CodeWriter, node: ast.Every, bounded: bool) -> None:
        helper = self.helper(node.gen)
        self.lowered.append("every")
        s1 = self.fresh("_s")
        s2 = self.fresh("_s")
        r = self.fresh("_r")
        w.emit("try:")
        with self.block(w):
            w.emit(f"for {r} in {helper}():")
            with self.block(w):
                if node.body is not None:
                    w.emit("try:")
                    with self.block(w):
                        self.statement(w, node.body, bounded=True)
                    w.emit("except NextSignal:")
                    with self.block(w):
                        w.emit("continue")
                    w.emit(f"except BreakSignal as {s1}:")
                    with self.block(w):
                        self._drain_break(w, s1, bounded)
                        w.emit("break")
        w.emit(f"except BreakSignal as {s2}:")
        with self.block(w):
            self._drain_break(w, s2, bounded)


#: shapes with exactly one result, evaluated in straight-line code
_SINGLETONS = (ast.NativeInvoke, ast.FirstClass, ast.CoExprLit, ast.PipeLit)


def _ensure_generator(w: CodeWriter, mark: int) -> None:
    """Make the function whose body starts at line *mark* a generator."""
    if not any("yield" in line for line in w.lines[mark:]):
        w.emit("return")
        w.emit("yield None  # unreachable; makes this a generator")


def _flatten_product(node: ast.Node) -> List[ast.Node]:
    if isinstance(node, ast.Binary) and node.op == "&":
        return _flatten_product(node.left) + _flatten_product(node.right)
    return [node]


def _sequence_parts(node: ast.Block) -> List[ast.Node]:
    parts: List[ast.Node] = []
    for stmt in node.body:
        if isinstance(stmt, ast.GlobalDecl):
            continue
        parts.append(stmt)
    return parts


# ---------------------------------------------------------------------------
# Method assembly (the optimized sibling of transform.emit_method).
# ---------------------------------------------------------------------------


def emit_method_optimized(
    writer: CodeWriter,
    method: ast.MethodDecl,
    module_globals: Set[str] | None = None,
) -> bool:
    """Emit *method* as a native generator function; True on success.

    Returns False (emitting nothing) for whole-method fallbacks — the
    caller then uses :func:`repro.lang.transform.emit_method`.  Either way
    one ``COMPILE`` event describes the outcome.
    """
    reasons = _whole_method_fallback_reasons(method)
    if reasons:
        _emit_compile_event(method.name, False, [], reasons)
        return False
    low = GeneratorLowering(method, module_globals)
    gen = CodeWriter()
    try:
        low.statement(gen, low.body, bounded=False)
    except TransformError:
        _emit_compile_event(method.name, False, [], ["transform-error"])
        return False
    _ensure_generator(gen, 0)

    name = method.name
    writer.emit(f"def {name}(*_args):")
    writer.indent()
    writer.emit(
        f'"""junicon method {name}({", ".join(method.params)}) [optimized]"""'
    )
    writer.emit(f"_body = _method_cache.get_free({name!r})")
    writer.emit("if _body is not None:")
    writer.indent()
    writer.emit("return _body.reset().unpack_args(*_args)")
    writer.dedent()
    writer.emit("# Reified parameters and locals")
    for local in low.locals_list:
        writer.emit(f"{local}_r = IconVar({local!r}).local()")
    if low.temps:
        writer.emit("# Normalization temporaries")
        for index in range(low.temps):
            writer.emit(f"_t{index} = IconTmp()")
    if low.rc.globals_used:
        writer.emit("# Hoisted global references")
        for gname in sorted(low.rc.globals_used):
            writer.emit(f"_g_{gname} = GlobalRef(_ns, {gname!r})")
    if low.hoists:
        writer.emit("# Hoisted constants and interpreted fallback subtrees")
        for line in low.hoists:
            writer.emit(line)
    for helper_lines in low.helpers:
        for line in helper_lines:
            writer.emit(line)
    writer.emit("# Unpack (variadic) parameters into the reified cells")
    writer.emit("def _unpack(*_p):")
    writer.indent()
    for position, param in enumerate(method.params):
        writer.emit(
            f"{param}_r.set(_p[{position}] if len(_p) > {position} else None)"
        )
    for local in low.locals_list[len(method.params):]:
        writer.emit(f"{local}_r.set(None)")
    writer.emit("return None")
    writer.dedent()
    writer.emit("# Method body, lowered to one native generator")
    writer.emit("def _gen():")
    writer.indent()
    for line in gen.lines:
        writer.emit(line)
    writer.dedent()
    writer.emit("_body = IconOptimizedBody(_gen, _unpack)")
    writer.emit(f"_body.set_cache(_method_cache, {name!r})")
    writer.emit("return _body.unpack_args(*_args)")
    writer.dedent()
    writer.emit(f"{name}._icon_function = True")
    writer.emit()
    _emit_compile_event(name, True, low.lowered, low.fallbacks)
    return True


def _whole_method_fallback_reasons(method: ast.MethodDecl) -> List[str]:
    reasons = []
    for descendant in ast.walk(method.body):
        if isinstance(descendant, ast.InitialClause):
            reasons.append("initial-clause")
        elif isinstance(descendant, ast.VarDecl) and descendant.kind == "static":
            reasons.append("static-locals")
    return sorted(set(reasons))
