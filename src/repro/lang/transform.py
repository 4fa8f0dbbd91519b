"""Transformation of Junicon into host Python (paper Sections V, VI).

The transformer turns normalized ASTs into Python source that builds
runtime iterator trees, mirroring the shape of the paper's Figure 5:

* a method compiles to a host function that pops a cached body or
  constructs one (reified parameter cells, normalization temporaries, an
  unpack closure, the body tree), parks it in a
  :class:`~repro.runtime.cache.MethodBodyCache`, and returns it;
* classes expose fields in dual plain/reified form and methods as host
  methods returning iterators (Section V.C);
* co-expressions and pipes synthesize a factory over the shadowed local
  environment (Section V.D);
* expression regions compile to a single Python expression (an
  immediately-invoked lambda carrying the region's temporaries) so they
  can be spliced verbatim into host code — host names are referenced
  directly through closures, which is what gives seamless interop.

Two public entry points: :func:`transform_program` (module mode) and
:func:`transform_expression` (inline expression mode).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..errors import TransformError
from . import ast_nodes as ast
from .normalize import BoundIn, TempRef, count_temps, normalize_expr
from .parser import parse, parse_expression

# Dialect operator → value function in repro.runtime.operations (as `iops`).
BINARY_FN = {
    "+": "iops.plus",
    "-": "iops.minus",
    "*": "iops.times",
    "/": "iops.divide",
    "%": "iops.modulo",
    "^": "iops.power",
    "<": "iops.num_lt",
    "<=": "iops.num_le",
    ">": "iops.num_gt",
    ">=": "iops.num_ge",
    "~=": "iops.num_ne",
    "<<": "iops.lex_lt",
    "<<=": "iops.lex_le",
    ">>": "iops.lex_gt",
    ">>=": "iops.lex_ge",
    "==": "iops.value_eq",
    "~==": "iops.value_ne",
    "===": "iops.value_eq",
    "~===": "iops.value_ne",
    "||": "iops.concat",
    "|||": "iops.list_concat",
    "++": "iops.union",
    "--": "iops.difference",
    "**": "iops.intersection",
}

UNARY_FN = {
    "-": "iops.negate",
    "+": "iops.numerate",
    "*": "iops.size",
    "~": "iops.complement",
    "?": "iops.random_of",
    "^": "_jrefresh",  # ^c: the refreshed value itself, one result
}


class Scope:
    """Name-resolution context for one compilation unit."""

    def __init__(
        self,
        locals_map: Dict[str, str] | None = None,
        fields: Set[str] | None = None,
        has_self: bool = False,
        inline: bool = False,
        dynamic_self: bool = False,
    ) -> None:
        #: junicon name -> generated cell variable name
        self.locals_map = dict(locals_map or {})
        self.fields = set(fields or ())
        self.has_self = has_self
        self.inline = inline
        #: embedded ``context="class"`` regions: the host class's members
        #: are unknown, so unresolved reads fall back to self at call time
        self.dynamic_self = dynamic_self

    def resolve(self, name: str) -> tuple:
        if name in ("this", "self"):
            if self.has_self:
                return ("self",)
            if self.inline:
                # In an inline expression region `this` is the host `self`.
                return ("host", "self")
        if name in self.locals_map:
            return ("local", self.locals_map[name])
        if name in self.fields:
            return ("field", name)
        if self.inline:
            return ("host", name)
        if self.dynamic_self:
            return ("dynamic", name)
        return ("global", name)


def collect_locals(
    body: ast.Node,
    params: Sequence[str],
    fields: Set[str] | None = None,
    module_globals: Set[str] | None = None,
) -> List[str]:
    """Icon's locality rule: parameters, declared locals, and every name
    that is assigned anywhere in the body (unless declared global there).

    Class *fields* take precedence over implicit assignment-locality —
    ``count = count + 1`` in a method updates the field — but an explicit
    ``local count`` declaration shadows the field.
    """
    declared_global: Set[str] = set(module_globals or ())
    fields = fields or set()
    names: List[str] = list(params)
    seen: Set[str] = set(params)

    def note(name: str, implicit: bool) -> None:
        if implicit and (name in fields or name in declared_global):
            return
        if name not in seen:
            seen.add(name)
            names.append(name)

    for node in ast.walk(body):
        if isinstance(node, ast.GlobalDecl):
            declared_global.update(node.names)
        elif isinstance(node, ast.VarDecl):
            for name in node.names:
                note(name, implicit=False)
        elif isinstance(node, ast.Assign) and isinstance(node.target, ast.Name):
            note(node.target.id, implicit=True)
    # An in-procedure `global g` always wins: the name stays global even
    # when assigned (declaring it both global and local is contradictory).
    local_global = {
        name
        for node in ast.walk(body)
        if isinstance(node, ast.GlobalDecl)
        for name in node.names
    }
    return [name for name in names if name not in local_global]


def referenced_names(node: ast.Node) -> Set[str]:
    """All identifier references below *node* (reads and write targets)."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def referenced_temps(node: ast.Node) -> Set[int]:
    return {
        n.index for n in ast.walk(node) if isinstance(n, (TempRef, BoundIn))
    }


class ExpressionCompiler:
    """Compile a normalized AST into a Python constructor expression."""

    def __init__(self, scope: Scope) -> None:
        self.scope = scope
        #: global names referenced — the emitter hoists one GlobalRef per
        #: name into the preamble so closures don't allocate per call
        self.globals_used: set = set()

    # -- closure-value compilation (atomic positions) -------------------------

    def value(self, node: ast.Node) -> str:
        """Python expression for an *atomic* node's value at call time."""
        if isinstance(node, ast.Literal):
            return repr(node.value)
        if isinstance(node, ast.NullLit):
            return "None"
        if isinstance(node, TempRef):
            return f"_t{node.index}.get()"
        if isinstance(node, ast.Keyword):
            return f"KeywordRef({node.name!r}).get()"
        if isinstance(node, ast.NativeCode):
            return f"({node.code.strip()})"
        if isinstance(node, ast.Name):
            kind = self.scope.resolve(node.id)
            if kind[0] == "self":
                return "self"
            if kind[0] == "local":
                return f"{kind[1]}.get()"
            if kind[0] == "field":
                return f"self.{kind[1]}"
            if kind[0] == "host":
                if kind[1] == "self":
                    return "self"
                return (
                    f"host_lookup((lambda: {kind[1]}), (lambda: self), "
                    f"{kind[1]!r})"
                )
            if kind[0] == "dynamic":
                return f"class_lookup(self, _ns, {node.id!r})"
            self.globals_used.add(node.id)
            return f"_g_{node.id}.get()"
        raise TransformError(
            f"non-atomic node {type(node).__name__} in value position", node.line
        )

    # -- iterator-constructor compilation ---------------------------------------

    def c(self, node: ast.Node) -> str:  # noqa: C901 - a big dispatch is clearest
        method = getattr(self, f"_c_{type(node).__name__}", None)
        if method is None:
            raise TransformError(
                f"cannot transform {type(node).__name__}", getattr(node, "line", 0)
            )
        return method(node)

    # atoms

    def _c_Literal(self, node: ast.Literal) -> str:
        from ..runtime.types import Cset

        if isinstance(node.value, Cset):
            return f"IconValue(Cset({node.value.string()!r}))"
        return f"IconValue({node.value!r})"

    def _c_NullLit(self, node: ast.NullLit) -> str:
        return "IconNullIterator()"

    def _c_Name(self, node: ast.Name) -> str:
        kind = self.scope.resolve(node.id)
        if kind[0] == "self":
            return "IconValue(self)"
        if kind[0] == "local":
            return f"IconVarIterator({kind[1]})"
        if kind[0] == "field":
            return f"IconVarIterator(FieldRef(self, {kind[1]!r}))"
        if kind[0] == "host":
            if kind[1] == "self":
                return "IconLazy(lambda: self)"
            return (
                f"IconLazy(lambda: host_lookup((lambda: {kind[1]}), "
                f"(lambda: self), {kind[1]!r}))"
            )
        if kind[0] == "dynamic":
            return f"IconLazy(lambda: class_lookup(self, _ns, {node.id!r}))"
        self.globals_used.add(node.id)
        return f"IconVarIterator(_g_{node.id})"

    def _c_TempRef(self, node: TempRef) -> str:
        return f"IconVarIterator(_t{node.index})"

    def _c_Keyword(self, node: ast.Keyword) -> str:
        if node.name == "fail":
            return "IconFail()"
        return f"IconVarIterator(KeywordRef({node.name!r}))"

    def _c_NativeCode(self, node: ast.NativeCode) -> str:
        # Host code lifted "into a singleton iterator over its closure".
        return f"IconLazy(lambda: ({node.code.strip()}))"

    def _c_ListLit(self, node: ast.ListLit) -> str:
        items = ", ".join(self.c(item) for item in node.items)
        return f"ListBuild({items})"

    # operators

    def _c_Unary(self, node: ast.Unary) -> str:
        operand = self.c(node.operand)
        if node.op == "!":
            return f"IconPromote({operand})"
        if node.op == "not":
            return f"IconNot({operand})"
        if node.op == "/":
            return f"IconNullTest({operand})"
        if node.op == "\\":
            return f"IconNonNullTest({operand})"
        if node.op == ".":
            return f"IconDeref({operand})"
        if node.op == "=":
            return f"IconInvokeIterator(lambda: tab_match({operand}.first()))"
        if node.op == "|":
            return f"IconRepeatAlt({operand})"
        fn = UNARY_FN.get(node.op)
        if fn is None:
            raise TransformError(f"unknown unary operator {node.op!r}", node.line)
        return f"IconOperation({fn}, {operand}, name={node.op!r})"

    def _c_Binary(self, node: ast.Binary) -> str:
        if node.op == "&":
            left = (
                self._c_bound(node.left)
                if isinstance(node.left, BoundIn)
                else self.c(node.left)
            )
            return f"IconProduct({left}, {self.c(node.right)})"
        if node.op == "|":
            return f"IconConcat({self.c(node.left)}, {self.c(node.right)})"
        if node.op == "\\":
            return f"IconLimit({self.c(node.left)}, {self.c(node.right)})"
        fn = BINARY_FN.get(node.op)
        if fn is None:
            raise TransformError(f"unknown binary operator {node.op!r}", node.line)
        return (
            f"IconOperation({fn}, {self.c(node.left)}, {self.c(node.right)}, "
            f"name={node.op!r})"
        )

    def _c_bound(self, node: BoundIn) -> str:
        return f"IconIn(_t{node.index}, {self.c(node.expr)})"

    def _c_BoundIn(self, node: BoundIn) -> str:
        return self._c_bound(node)

    def _c_Assign(self, node: ast.Assign) -> str:
        target = self.c(node.target)
        value = self.c(node.value)
        op = node.op
        if op in ("=", ":="):
            return f"IconAssign({target}, {value})"
        if op == "<-":
            return f"IconRevAssign({target}, {value})"
        if op == ":=:":
            return f"IconSwap({target}, {value})"
        if op == "<->":
            return f"IconRevSwap({target}, {value})"
        if op.endswith(":="):
            base = op[:-2]
            fn = BINARY_FN.get(base)
            if fn is None:
                raise TransformError(f"unknown augmented op {op!r}", node.line)
            return f"IconAssign({target}, {value}, augment={fn})"
        raise TransformError(f"unknown assignment {op!r}", node.line)

    def _c_ToBy(self, node: ast.ToBy) -> str:
        if node.step is None:
            return f"IconToBy({self.c(node.start)}, {self.c(node.stop)})"
        return (
            f"IconToBy({self.c(node.start)}, {self.c(node.stop)}, "
            f"{self.c(node.step)})"
        )

    def _c_Scan(self, node: ast.Scan) -> str:
        return f"IconScan({self.c(node.subject)}, {self.c(node.body)})"

    def _c_Activate(self, node: ast.Activate) -> str:
        if node.transmit is None:
            return f"IconActivate({self.c(node.target)})"
        return f"IconActivate({self.c(node.target)}, {self.c(node.transmit)})"

    # the concurrency literals

    def _c_FirstClass(self, node: ast.FirstClass) -> str:
        return f"IconLazy(lambda: ({self.c(node.expr)}))"

    def _c_CoExprLit(self, node: ast.CoExprLit) -> str:
        return f"IconLazy(lambda: {self._coexpr(node.expr)})"

    def _c_PipeLit(self, node: ast.PipeLit) -> str:
        return f"IconLazy(lambda: {self._coexpr(node.expr)}.create_pipe())"

    def _coexpr(self, body: ast.Node) -> str:
        """Synthesize ``CoExpression(factory, env_getter)`` with shadowing.

        The factory takes the snapshot values and rebinds the referenced
        local cells to fresh shadow cells of the same (generated) names,
        and the referenced normalization temporaries to fresh ones —
        Python's lexical scoping then makes the body expression compile
        identically inside and outside the co-expression, and two
        co-expressions made at one site share no state.
        """
        shadowed = sorted(
            name
            for name in referenced_names(body)
            if self.scope.resolve(name)[0] == "local"
        )
        cells = [self.scope.locals_map[name] for name in shadowed]
        temps = [f"_t{index}" for index in sorted(referenced_temps(body))]
        body_code = self.c(body)
        if cells or temps:
            rebinds = [
                f"shadow(_sv{i}, {name!r})" for i, name in enumerate(shadowed)
            ] + ["IconTmp()"] * len(temps)
            body_code = (
                f"(lambda {', '.join(cells + temps)}: {body_code})"
                f"({', '.join(rebinds)})"
            )
        if not cells:
            return f"CoExpression(lambda: {body_code})"
        values = ", ".join(f"_sv{i}" for i in range(len(cells)))
        getter = ", ".join(f"{cell}.get()" for cell in cells)
        return (
            f"CoExpression((lambda {values}: {body_code}), "
            f"(lambda: ({getter},)))"
        )

    # primaries

    def _c_Invoke(self, node: ast.Invoke) -> str:
        callee = self.value(node.callee)
        args = ", ".join(self.value(arg) for arg in node.args)
        call = f"invoke_value({callee}{', ' if args else ''}{args})"
        return f"IconInvokeIterator(lambda: {call})"

    def _c_NativeInvoke(self, node: ast.NativeInvoke) -> str:
        subject = self.value(node.subject)
        args = ", ".join(self.value(arg) for arg in node.args)
        return f"IconLazy(lambda: ({subject}).{node.name}({args}))"

    def _c_Field(self, node: ast.Field) -> str:
        return f"IconField({self.c(node.subject)}, {node.name!r})"

    def _c_Index(self, node: ast.Index) -> str:
        return f"IconIndex({self.c(node.subject)}, {self.c(node.index)})"

    def _c_Section(self, node: ast.Section) -> str:
        return (
            f"IconSection({self.c(node.subject)}, {self.c(node.low)}, "
            f"{self.c(node.high)}, mode={node.mode!r})"
        )

    # control constructs

    def _c_Block(self, node: ast.Block) -> str:
        statements = [stmt for stmt in node.body]
        parts = []
        for stmt in statements:
            if isinstance(stmt, ast.VarDecl):
                parts.extend(self._var_decl_inits(stmt))
            elif isinstance(stmt, ast.GlobalDecl):
                continue  # scope-only; no runtime effect
            else:
                parts.append(self.c(stmt))
        if not parts:
            return "IconNullIterator()"
        if len(parts) == 1:
            return f"IconSequence({parts[0]})"
        joined = ", ".join(parts)
        return f"IconSequence({joined})"

    def _var_decl_inits(self, node: ast.VarDecl) -> List[str]:
        out = []
        for name, init in zip(node.names, node.inits):
            if init is None:
                continue
            target = self.c(ast.Name(line=node.line, id=name))
            out.append(f"IconAssign({target}, {self.c(init)})")
        return out

    def _c_If(self, node: ast.If) -> str:
        if node.orelse is None:
            return f"IconIf({self.c(node.cond)}, {self.c(node.then)})"
        return (
            f"IconIf({self.c(node.cond)}, {self.c(node.then)}, "
            f"{self.c(node.orelse)})"
        )

    def _c_While(self, node: ast.While) -> str:
        if node.body is None:
            return f"IconWhile({self.c(node.cond)})"
        return f"IconWhile({self.c(node.cond)}, {self.c(node.body)})"

    def _c_Until(self, node: ast.Until) -> str:
        if node.body is None:
            return f"IconUntil({self.c(node.cond)})"
        return f"IconUntil({self.c(node.cond)}, {self.c(node.body)})"

    def _c_Every(self, node: ast.Every) -> str:
        if node.body is None:
            return f"IconEvery({self.c(node.gen)})"
        return f"IconEvery({self.c(node.gen)}, {self.c(node.body)})"

    def _c_RepeatLoop(self, node: ast.RepeatLoop) -> str:
        return f"IconRepeat({self.c(node.body)})"

    def _c_Case(self, node: ast.Case) -> str:
        branches = ", ".join(
            f"({self.c(sel)}, {self.c(body)})" for sel, body in node.branches
        )
        default = f", default={self.c(node.default)}" if node.default else ""
        return f"IconCase({self.c(node.subject)}, [{branches}]{default})"

    def _c_Suspend(self, node: ast.Suspend) -> str:
        expr = self.c(node.expr) if node.expr is not None else "IconNullIterator()"
        if node.do_clause is None:
            return f"IconSuspend({expr})"
        return f"IconSuspend({expr}, {self.c(node.do_clause)})"

    def _c_Return(self, node: ast.Return) -> str:
        if node.expr is None:
            return "IconReturn()"
        return f"IconReturn({self.c(node.expr)})"

    def _c_Fail(self, node: ast.Fail) -> str:
        return "IconFailStmt()"

    def _c_Break(self, node: ast.Break) -> str:
        if node.expr is None:
            return "IconBreak()"
        return f"IconBreak({self.c(node.expr)})"

    def _c_NextStmt(self, node: ast.NextStmt) -> str:
        return "IconNext()"

    def _c_VarDecl(self, node: ast.VarDecl) -> str:
        inits = self._var_decl_inits(node)
        if not inits:
            return "IconNullIterator()"
        if len(inits) == 1:
            return inits[0]
        return f"IconSequence({', '.join(inits)})"

    def _c_GlobalDecl(self, node: ast.GlobalDecl) -> str:
        return "IconNullIterator()"

    def _c_InitialClause(self, node) -> str:
        # The once-flag `_initial_flag` is in scope only inside methods
        # (a mutable default argument); emit_method guarantees it when an
        # initial clause is present.
        return f"IconInitial(_initial_flag, {self.c(node.expr)})"


# ---------------------------------------------------------------------------
# Module-mode emission.
# ---------------------------------------------------------------------------


class CodeWriter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append(("    " * self.depth + text) if text else "")

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        self.depth -= 1

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


PRELUDE = (
    "from repro.lang.prelude import *\n"
    "from repro.coexpr.calculus import refresh as _jrefresh\n"
    "_ns = globals()\n"
)


def emit_method(
    writer: CodeWriter,
    method: ast.MethodDecl,
    fields: Set[str] | None = None,
    in_class: bool = False,
    dynamic_self: bool = False,
    module_globals: Set[str] | None = None,
) -> None:
    """Emit one Junicon method as a host function (Figure 5's shape)."""
    body = normalize_expr(method.body)
    locals_list = collect_locals(
        method.body, method.params, fields, module_globals
    )
    scope = Scope(
        locals_map={name: f"{name}_r" for name in locals_list},
        fields=fields or set(),
        has_self=in_class,
        dynamic_self=dynamic_self and in_class,
    )
    compiler = ExpressionCompiler(scope)
    body_code = compiler.c(body)
    temps = count_temps(body)

    has_initial = any(
        isinstance(descendant, ast.InitialClause)
        for descendant in ast.walk(method.body)
    )
    static_names = [
        name
        for descendant in ast.walk(method.body)
        if isinstance(descendant, ast.VarDecl) and descendant.kind == "static"
        for name in descendant.names
    ]
    self_param = "self, " if in_class else ""
    flag_param = ", _initial_flag=[False]" if has_initial else ""
    static_param = ", _statics={}" if static_names else ""
    writer.emit(
        f"def {method.name}({self_param}*_args{flag_param}{static_param}):"
    )
    writer.indent()
    writer.emit(f'"""junicon method {method.name}({", ".join(method.params)})"""')
    if in_class:
        # Works both for generated classes (which create the cache in
        # __init__) and for host classes with embedded methods.
        writer.emit("_cache = getattr(self, '_method_cache', None)")
        writer.emit("if _cache is None:")
        writer.indent()
        writer.emit("try:")
        writer.indent()
        writer.emit("_cache = self._method_cache = MethodBodyCache()")
        writer.dedent()
        writer.emit("except AttributeError:  # __slots__ host class")
        writer.indent()
        writer.emit("_cache = _method_cache")
        writer.dedent()
        writer.dedent()
        cache_expr = "_cache"
    else:
        cache_expr = "_method_cache"
    writer.emit(f"_body = {cache_expr}.get_free({method.name!r})")
    writer.emit("if _body is not None:")
    writer.indent()
    writer.emit("return _body.reset().unpack_args(*_args)")
    writer.dedent()
    writer.emit("# Reified parameters and locals")
    for name in locals_list:
        if name in static_names:
            # Icon static: one persistent cell per method, shared by all
            # (cached) bodies — backed by the mutable default argument.
            writer.emit(
                f"{name}_r = _statics.setdefault({name!r}, "
                f"IconVar({name!r}).local())"
            )
        else:
            writer.emit(f"{name}_r = IconVar({name!r}).local()")
    if temps:
        writer.emit("# Normalization temporaries")
        for index in range(temps):
            writer.emit(f"_t{index} = IconTmp()")
    if compiler.globals_used:
        writer.emit("# Hoisted global references")
        for name in sorted(compiler.globals_used):
            writer.emit(f"_g_{name} = GlobalRef(_ns, {name!r})")
    writer.emit("# Unpack (variadic) parameters into the reified cells")
    writer.emit("def _unpack(*_p):")
    writer.indent()
    for position, name in enumerate(method.params):
        writer.emit(
            f"{name}_r.set(_p[{position}] if len(_p) > {position} else None)"
        )
    for name in locals_list[len(method.params):]:
        if name not in static_names:
            writer.emit(f"{name}_r.set(None)")
    writer.emit("return None")
    writer.dedent()
    writer.emit("# Method body")
    writer.emit(f"_body = IconMethodBody({body_code}, _unpack)")
    writer.emit(f"_body.set_cache({cache_expr}, {method.name!r})")
    writer.emit("return _body.unpack_args(*_args)")
    writer.dedent()
    writer.emit(f"{method.name}._icon_function = True")
    writer.emit()


def emit_class(
    writer: CodeWriter,
    decl: ast.ClassDecl,
    module_globals: Set[str] | None = None,
) -> None:
    field_names: List[str] = []
    for var_decl in decl.fields:
        field_names.extend(var_decl.names)
    bases = ", ".join(decl.supers) if decl.supers else ""
    writer.emit(f"class {decl.name}({bases}):")
    writer.indent()
    writer.emit(f'"""junicon class {decl.name}"""')
    writer.emit()
    writer.emit("def __init__(self, *args, **kwargs):")
    writer.indent()
    if decl.supers:
        writer.emit("super().__init__()")
    writer.emit("self._method_cache = MethodBodyCache()")
    for name in field_names:
        writer.emit(f"self.{name} = None")
    if field_names:
        writer.emit(f"_order = {tuple(field_names)!r}")
        writer.emit("for _name, _value in zip(_order, args):")
        writer.indent()
        writer.emit("setattr(self, _name, _value)")
        writer.dedent()
        writer.emit("for _name, _value in kwargs.items():")
        writer.indent()
        writer.emit("setattr(self, _name, _value)")
        writer.dedent()
        writer.emit("# Reified duals (paper V.C): name_r aliases the field")
        for name in field_names:
            writer.emit(
                f"self.{name}_r = IconVar({name!r}, "
                f"(lambda s=self: s.{name}), "
                f"(lambda v, s=self: setattr(s, {name!r}, v)))"
            )
    # Field initializers run after the duals exist.
    init_scope = Scope(fields=set(field_names), has_self=True)
    init_compiler = ExpressionCompiler(init_scope)
    for var_decl in decl.fields:
        for name, init in zip(var_decl.names, var_decl.inits):
            if init is not None:
                node = normalize_expr(init)
                temps = count_temps(node)
                init_code = init_compiler.c(node)
                binders = [f"_t{i}=IconTmp()" for i in range(temps)] + [
                    f"_g_{g}=GlobalRef(_ns, {g!r})"
                    for g in sorted(init_compiler.globals_used)
                ]
                init_compiler.globals_used.clear()
                writer.emit(
                    f"self.{name} = (lambda {', '.join(binders)}: "
                    f"{init_code})().first()"
                )
    writer.dedent()
    writer.emit()
    for method in decl.methods:
        if method.name.startswith("__native_"):
            # Verbatim host code embedded at class level.
            native = method.body.body[0]
            assert isinstance(native, ast.NativeCode)
            for line in native.code.strip("\n").splitlines():
                writer.emit(line.rstrip())
            writer.emit()
            continue
        emit_method(
            writer,
            method,
            fields=set(field_names),
            in_class=True,
            module_globals=module_globals,
        )
    if not decl.methods and not field_names:
        writer.emit("pass")
    writer.dedent()
    writer.emit()


def emit_record(writer: CodeWriter, decl: ast.RecordDecl) -> None:
    writer.emit(f"class {decl.name}:")
    writer.indent()
    writer.emit(f'"""junicon record {decl.name}({", ".join(decl.fields)})"""')
    writer.emit(f"_fields = {tuple(decl.fields)!r}")
    writer.emit("def __init__(self, *args):")
    writer.indent()
    for position, name in enumerate(decl.fields):
        writer.emit(
            f"self.{name} = args[{position}] if len(args) > {position} else None"
        )
    writer.dedent()
    writer.emit("def icon_type(self):")
    writer.indent()
    writer.emit(f"return {decl.name!r}")
    writer.dedent()
    writer.dedent()
    writer.emit()


def transform_program(
    source: str,
    native_blocks=None,
    known_globals: Set[str] | None = None,
    optimize=False,
) -> str:
    """Translate a Junicon translation unit into a Python module source.

    ``known_globals`` seeds the global-name context (names declared
    ``global`` in earlier inputs of the same session); declarations in
    *this* unit are added to it (the set is mutated for the caller).

    ``optimize`` selects the compile target for module-level procedures:
    ``False`` (default) builds interpreted iterator trees, ``True`` lowers
    supported shapes to native Python generators (see
    :mod:`repro.lang.optimize`), and ``"auto"`` consults the
    ``REPRO_OPTIMIZE`` environment variable.  Class methods and top-level
    statements always use the interpreted target.
    """
    from .optimize import emit_method_optimized, resolve_optimize

    optimizing = resolve_optimize(optimize)
    program = parse(source, native_blocks)
    module_globals: Set[str] = known_globals if known_globals is not None else set()
    for node in program.body:
        if isinstance(node, ast.GlobalDecl):
            module_globals.update(node.names)
    writer = CodeWriter()
    writer.emit('"""Generated by repro.lang.transform — edit the Junicon '
                'source instead."""')
    for line in PRELUDE.strip().splitlines():
        writer.emit(line)
    writer.emit("_method_cache = MethodBodyCache()")
    writer.emit()
    statement_counter = 0
    for node in program.body:
        if isinstance(node, ast.ClassDecl):
            emit_class(writer, node, module_globals=module_globals)
        elif isinstance(node, ast.RecordDecl):
            emit_record(writer, node)
        elif isinstance(node, ast.MethodDecl):
            if not (
                optimizing
                and emit_method_optimized(
                    writer, node, module_globals=module_globals
                )
            ):
                emit_method(writer, node, module_globals=module_globals)
        elif isinstance(node, ast.GlobalDecl):
            for name in node.names:
                writer.emit(f"_ns.setdefault({name!r}, None)")
            writer.emit()
        elif isinstance(node, ast.NativeCode):
            for line in node.code.strip("\n").splitlines():
                writer.emit(line.rstrip())
            writer.emit()
        else:
            # Top-level statement: evaluated (bounded) at module exec time.
            scope = Scope()  # all names global at top level
            normalized = normalize_expr(node)
            temps = count_temps(normalized)
            compiler = ExpressionCompiler(scope)
            name = f"_stmt_{statement_counter}"
            statement_counter += 1
            writer.emit(f"def {name}():")
            writer.indent()
            body_expr = compiler.c(normalized)
            for index in range(temps):
                writer.emit(f"_t{index} = IconTmp()")
            for gname in sorted(compiler.globals_used):
                writer.emit(f"_g_{gname} = GlobalRef(_ns, {gname!r})")
            writer.emit(f"return {body_expr}")
            writer.dedent()
            writer.emit(f"{name}().first()")
            writer.emit()
    return writer.text()


def transform_expression(source: str, native_blocks=None) -> str:
    """Translate one Junicon expression into a single Python expression.

    The result is an immediately-invoked lambda whose default arguments
    carry the region's temporaries and region-local variables; names that
    are only *read* resolve to the host scope through ordinary closures.
    """
    node = parse_expression(source, native_blocks)
    normalized = normalize_expr(node)
    assigned = sorted(
        {
            n.target.id
            for n in ast.walk(normalized)
            if isinstance(n, ast.Assign) and isinstance(n.target, ast.Name)
        }
    )
    scope = Scope(
        locals_map={name: f"_jx_{name}" for name in assigned},
        inline=True,
    )
    compiler = ExpressionCompiler(scope)
    body = compiler.c(normalized)
    temps = count_temps(normalized)
    binders = (
        [f"_jx_{name}=IconVar({name!r}).local()" for name in assigned]
        + [f"_t{index}=IconTmp()" for index in range(temps)]
        + [
            f"_g_{g}=GlobalRef(_ns, {g!r})"
            for g in sorted(compiler.globals_used)
        ]
    )
    if binders:
        return f"(lambda {', '.join(binders)}: {body})()"
    return f"({body})"
