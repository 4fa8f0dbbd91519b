"""Runtime support for generated code — name resolution, keyword refs,
list construction, and invocation dispatch.

The transformer (see :mod:`repro.lang.transform`) emits Python that calls
into this module:

* :class:`GlobalRef` — a variable in the generated module's namespace,
  falling back to Icon's :data:`~repro.runtime.functions.BUILTINS` for
  reads; undeclared globals read as the null value, exactly like Icon.
* :class:`KeywordRef` — an assignable ``&keyword`` (``&pos``,
  ``&subject``, ``&random``).
* :class:`ListBuild` — the ``[e1, e2, …]`` literal: each element is a
  bounded expression contributing its first result (or null on failure).
* :func:`invoke_value` — the invocation dispatcher for already-bound
  values (normalized calls), including Icon's integer *mutual evaluation*.
* :func:`shadow` — make the shadowed local cell a co-expression factory
  receives (Section V.D's copied environment).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, MutableMapping

from ..errors import IconNotAFunctionError
from ..runtime.failure import FAIL, Suspension
from ..runtime.functions import BUILTINS, keyword, set_keyword
from ..runtime.invoke import IconOptimizedBody
from ..runtime.iterator import IconIterator, as_iterator
from ..runtime.refs import IconVar, Ref, deref


class GlobalRef(Ref):
    """A named slot in a generated module's namespace.

    Reads fall back to the Icon builtin table, then to the null value;
    writes always go to the namespace (creating the global, as Icon does
    for declared globals).
    """

    __slots__ = ("namespace", "name")

    def __init__(self, namespace: MutableMapping[str, Any], name: str) -> None:
        self.namespace = namespace
        self.name = name

    def get(self) -> Any:
        if self.name in self.namespace:
            return self.namespace[self.name]
        if self.name in BUILTINS:
            return BUILTINS[self.name]
        builtins_ns = self.namespace.get("__builtins__")
        if isinstance(builtins_ns, dict) and self.name in builtins_ns:
            return builtins_ns[self.name]
        if builtins_ns is not None and hasattr(builtins_ns, self.name):
            return getattr(builtins_ns, self.name)
        return None

    def set(self, value: Any) -> Any:
        self.namespace[self.name] = value
        return value


def global_value(namespace: MutableMapping[str, Any], name: str) -> Any:
    """Read a global (closure form used inside invocation lambdas)."""
    return GlobalRef(namespace, name).get()


class KeywordRef(Ref):
    """An Icon keyword as an (possibly assignable) variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def get(self) -> Any:
        return keyword(self.name)

    def set(self, value: Any) -> Any:
        return set_keyword(self.name, value)


class ListBuild(IconIterator):
    """``[e1, e2, …]`` — build a list from bounded element expressions.

    Each element contributes its first result; a failing element
    contributes the null value (Icon's behaviour for list literals with
    failing expressions is to error, but null is friendlier for a dialect
    used in embedding — the difference is documented).
    """

    __slots__ = ("items",)

    def __init__(self, *items: Any) -> None:
        super().__init__()
        self.items = tuple(as_iterator(item) for item in items)

    def iterate(self) -> Iterator[list]:
        values = []
        for item in self.items:
            first = item.first()
            values.append(None if first is FAIL else first)
        yield values


def invoke_value(callee: Any, *args: Any) -> Any:
    """Invoke an already-bound callee over already-bound argument values.

    This is the residual call left after normalization; the surrounding
    :class:`~repro.runtime.invoke.IconInvokeIterator` delegates iteration
    to the returned value (generator function results and Junicon method
    bodies) or promotes it to a singleton (plain host results).

    Icon mutual evaluation: an integer callee selects among the arguments.
    """
    if isinstance(callee, Ref):
        callee = callee.get()
    if callable(callee):
        # Fast paths: normalized call sites bind at most a few arguments,
        # and they arrive as plain values (the IconIn bindings deref).
        if not args:
            return callee()
        if len(args) == 1:
            a = args[0]
            return callee(a.get() if isinstance(a, Ref) else a)
        if len(args) == 2:
            a, b = args
            return callee(
                a.get() if isinstance(a, Ref) else a,
                b.get() if isinstance(b, Ref) else b,
            )
        return callee(*[deref(arg) for arg in args])
    if isinstance(callee, int) and not isinstance(callee, bool):
        position = callee if callee > 0 else len(args) + callee + 1
        if 1 <= position <= len(args):
            return deref(args[position - 1])
        return FAIL
    if isinstance(callee, str):
        # Icon string invocation: "write"(x) resolves the procedure name.
        resolved = BUILTINS.get(callee)
        if callable(resolved):
            return invoke_value(resolved, *args)
        return FAIL
    raise IconNotAFunctionError(f"invocation of a {type(callee).__name__} value")


def call_results(callee: Any, *args: Any) -> Iterable[Any]:
    """An invocation's results, already dereferenced, as an iterable.

    The optimizing compile target (:mod:`repro.lang.optimize`) lowers a
    normalized call site to ``for v in call_results(f, a, b): ...``.
    Delegation follows :func:`invoke_value`: generator-function results
    and Junicon method bodies are iterated; plain host results are
    singletons; :data:`FAIL` is empty.  The call is made now, and no
    frame is added where none is needed: a lowered Junicon body's own
    ``iterate()`` is returned as it is (it yields dereferenced values),
    and only an interpreted body or a host iterator gets a deref'ing
    generator around it.
    """
    result = invoke_value(callee, *args)
    if result is FAIL:
        return ()
    if isinstance(result, IconIterator):
        if isinstance(result, IconOptimizedBody):
            return result.iterate()
        return _dereferenced(result.iterate())
    if hasattr(result, "__next__"):
        return _dereferenced(result)
    return (result.get() if isinstance(result, Ref) else result,)


def _dereferenced(results: Iterable[Any]) -> Iterator[Any]:
    for item in results:
        yield deref(item)


def first_result(results: Any) -> Any:
    """The first result of an iterable, or :data:`FAIL` when exhausted.

    Bounded-expression support for lowered code: the generated helper
    generator is driven one step and closed, mirroring
    ``IconIterator.first`` without a node allocation.
    """
    for value in results:
        return value
    return FAIL


def break_results(signal: Any) -> Iterator[Any]:
    """Iterate a ``break e`` signal's value expression, dereferenced.

    :class:`~repro.runtime.failure.BreakSignal` carries the *un-evaluated*
    value node; lowered loops drain it lazily — fully in result position,
    one bounded step in statement position — matching ``IconWhile`` /
    ``IconEvery``.  A bare ``break`` (no value) yields nothing.
    """
    if signal.value_iterator is None:
        return
    for value in as_iterator(signal.value_iterator).iterate():
        if isinstance(value, Suspension):
            value = value.value
        yield deref(value)


def host_lookup(thunk: Any, self_thunk: Any, name: str) -> Any:
    """Late-bound name resolution for inline expression regions.

    Tries, in order: the host lexical scope (*thunk* is a closure reading
    the bare name), an attribute of the host ``self`` (Figure 3's embedded
    expressions call sibling Junicon methods unqualified), and the Icon
    builtin table.  Resolves to the null value when nothing matches, as
    Icon does for unbound variables.
    """
    try:
        return thunk()
    except NameError:
        pass
    try:
        owner = self_thunk()
    except NameError:
        owner = None
    if owner is not None and hasattr(owner, name):
        return getattr(owner, name)
    return BUILTINS.get(name)


def class_lookup(owner: Any, namespace: MutableMapping[str, Any], name: str) -> Any:
    """Late-bound resolution inside an embedded ``context="class"`` region.

    The host class's members are unknown to the (grammar-oblivious)
    embedder, so bare names resolve at call time: an attribute of the host
    instance first (sibling methods, fields), then the module namespace,
    then the Icon builtins, then null.
    """
    if owner is not None and hasattr(owner, name):
        return getattr(owner, name)
    return GlobalRef(namespace, name).get()


class IconInitial(IconIterator):
    """``initial e`` — run the bounded expression once per procedure ever.

    The once-flag is a shared mutable cell (generated code passes the
    method's mutable default argument), so every constructed body of the
    same method observes the same "already ran" state.
    """

    __slots__ = ("flag", "expr")

    def __init__(self, flag: list, expr: Any) -> None:
        super().__init__()
        self.flag = flag
        self.expr = as_iterator(expr)

    def iterate(self):
        if not self.flag[0]:
            self.flag[0] = True
            self.expr.first()
        yield None  # the clause itself succeeds with the null value


def shadow(value: Any, name: str = "") -> IconVar:
    """A fresh local cell holding a copied value (co-expression shadowing)."""
    cell = IconVar(name).local()
    cell.set(value)
    return cell
