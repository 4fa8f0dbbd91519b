"""Invocation — generator functions, native calls, method bodies (V.C-D).

Icon invocation ``f(e1, e2)`` iterates the cross product of the function
expression and the argument expressions, then invokes.  What happens to the
call's result depends on what was invoked (paper Section V.A):

* an embedded (Junicon) generator function returns an iterator — iteration
  is *delegated* to it;
* a plain host method's result is *promoted to a singleton iterator*.

Host Python is friendlier than Java here: a Python generator function's
call result is itself a suspendable iterator, so delegation extends to any
host function that returns a generator — plain Python generator functions
participate in goal-directed evaluation unmodified.  The ``::`` operator
(native invocation) always forces the promote-to-singleton rule, exactly as
the paper uses it to differentiate Java method calls.

:class:`IconMethodBody` is the procedure-body wrapper emitted by the
transformer (Figure 5): it owns parameter unpacking, converts
``return``/``fail`` signals and suspension envelopes into caller-visible
results, and parks finished bodies in a :class:`MethodBodyCache`.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterator

from ..errors import IconNotAFunctionError
from .cache import MethodBodyCache
from .failure import FAIL, FailSignal, ReturnSignal, Suspension
from .iterator import IconIterator, as_iterator
from .refs import deref


def icon_function(fn: Callable) -> Callable:
    """Mark a host function as a goal-directed generator function.

    The call result (an iterator/generator, or :data:`FAIL` for immediate
    failure) has its iteration delegated instead of being promoted to a
    singleton.  Python generator functions are auto-detected even without
    the decorator; use it for functions that *return* iterators indirectly.
    """
    fn._icon_function = True  # type: ignore[attr-defined]
    return fn


def is_generator_function(fn: Any) -> bool:
    """True when invoking *fn* should delegate iteration to its result."""
    if getattr(fn, "_icon_function", False):
        return True
    target = getattr(fn, "__func__", fn)
    return inspect.isgeneratorfunction(target)


def iterate_call_result(result: Any) -> Iterator[Any]:
    """Iterate whatever an invocation produced (delegation rules)."""
    if result is FAIL:
        return
    if isinstance(result, IconIterator):
        yield from result.iterate()
        return
    if hasattr(result, "__next__"):  # a live generator/iterator: delegate
        yield from result
        return
    yield result


class IconInvokeIterator(IconIterator):
    """Delegate iteration to the value produced by a closure (Figure 5).

    The normalizer reduces every call to ``IconInvokeIterator(lambda:
    f_tmp.deref()(x_tmp.deref(), ...))``; each pass re-invokes the closure,
    which re-reads the bound temporaries — that is what makes products
    re-evaluate calls during backtracking.
    """

    __slots__ = ("closure",)

    def __init__(self, closure: Callable[[], Any]) -> None:
        super().__init__()
        self.closure = closure

    def iterate(self) -> Iterator[Any]:
        # Inlined iterate_call_result: this is the hottest path in
        # translated code (once per invocation per backtrack), and the
        # plain-value case should not pay for an extra generator frame.
        result = self.closure()
        if result is FAIL:
            return
        if isinstance(result, IconIterator):
            yield from result.iterate()
        elif hasattr(result, "__next__"):
            yield from result
        else:
            yield result


class IconInvoke(IconIterator):
    """``f(e1, ..., en)`` — full invocation over operand generators.

    Used by the interpreter and by hand-written host code; generated code
    uses the normalized :class:`IconInvokeIterator` form instead.  Icon's
    *mutual evaluation* is included: when the "function" is an integer
    ``i``, the call yields the value of the i-th argument.
    """

    __slots__ = ("callee", "args", "native")

    def __init__(self, callee: Any, *args: Any, native: bool = False) -> None:
        super().__init__()
        self.callee = as_iterator(callee)
        self.args = tuple(as_iterator(arg) for arg in args)
        self.native = native

    def iterate(self) -> Iterator[Any]:
        for callee_result in self.callee.iterate():
            callee = deref(callee_result)
            yield from self._cross(callee, 0, [])

    def _cross(self, callee: Any, index: int, values: list) -> Iterator[Any]:
        if index == len(self.args):
            yield from self._apply(callee, values)
            return
        for result in self.args[index].iterate():
            values.append(deref(result))
            yield from self._cross(callee, index + 1, values)
            values.pop()

    def _apply(self, callee: Any, values: list) -> Iterator[Any]:
        if isinstance(callee, int) and not isinstance(callee, bool):
            # Mutual evaluation: i(e1, ..., en) selects the i-th argument.
            position = callee if callee > 0 else len(values) + callee + 1
            if 1 <= position <= len(values):
                yield values[position - 1]
            return
        if isinstance(callee, str):
            # String invocation: resolve the procedure name (builtins).
            from .functions import BUILTINS

            resolved = BUILTINS.get(callee)
            if callable(resolved):
                yield from self._apply(resolved, values)
            return
        if not callable(callee):
            raise IconNotAFunctionError(
                f"invocation of a {type(callee).__name__} value"
            )
        result = callee(*values)
        if self.native and not isinstance(result, IconIterator):
            if result is not FAIL:
                yield result
            return
        if (
            isinstance(result, IconIterator)
            or is_generator_function(callee)
            or hasattr(result, "__next__")
        ):
            yield from iterate_call_result(result)
        elif result is not FAIL:
            yield result


class _CachedBody(IconIterator):
    """What both procedure-body wrappers share: the unpack closure that
    rebinds the reified parameters, and the :class:`MethodBodyCache` slot
    a finished body parks in."""

    __slots__ = ("_unpack", "_cache", "_cache_key")

    def __init__(self, unpack: Callable[..., Any] | None = None) -> None:
        super().__init__()
        self._unpack = unpack
        self._cache: MethodBodyCache | None = None
        self._cache_key: str = ""

    # Fluent API mirroring the paper's generated code.

    def set_unpack_closure(self, unpack: Callable[..., Any]) -> "_CachedBody":
        self._unpack = unpack
        return self

    def unpack_args(self, *args: Any) -> "_CachedBody":
        if self._unpack is not None:
            self._unpack(*args)
        return self

    def set_cache(self, cache: MethodBodyCache, key: str) -> "_CachedBody":
        self._cache = cache
        self._cache_key = key
        return self

    # Aliases so emitted code can read like the paper's Figure 5.
    setUnpackClosure = set_unpack_closure
    unpackArgs = unpack_args
    setCache = set_cache


class IconOptimizedBody(_CachedBody):
    """The root wrapper of an *optimized* (natively lowered) procedure body.

    The optimizing compile target (:mod:`repro.lang.optimize`) emits the
    procedure body as one straight Python generator function — results are
    yielded directly instead of travelling in :class:`Suspension`
    envelopes, so :class:`IconMethodBody`'s discard-ordinary-results rule
    does not apply.  A ``return`` lowered in that function's own frame
    yields its value and returns; what remains shared with the
    interpreted wrapper is the outer contract: ``return``/``fail`` signals
    raised by helpers and embedded fallback subtrees convert to a final
    result / failure, and finished bodies recycle through the same
    :class:`MethodBodyCache`.

    Every result :meth:`iterate` yields is already dereferenced, so
    :func:`~repro.lang.environment.call_results` hands it to lowered call
    sites as it is.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], Iterator[Any]], unpack: Callable[..., Any] | None = None) -> None:
        super().__init__(unpack)
        self._fn = fn

    def iterate(self) -> Iterator[Any]:
        try:
            yield from self._fn()
        except ReturnSignal as signal:
            if signal.value is not FAIL:
                yield deref(signal.value)
        except FailSignal:
            pass
        finally:
            if self._cache is not None:
                self._cache.release(self._cache_key, self)

    def __iter__(self) -> Iterator[Any]:
        # The host-facing pass needs no unwrap/deref layer: see iterate.
        return self.iterate()


class IconMethodBody(_CachedBody):
    """The root wrapper of a translated procedure body.

    Drives the body statements, unwrapping :class:`Suspension` envelopes
    into caller-visible results, converting ``return``/``fail`` signals,
    and recycling itself through the :class:`MethodBodyCache` when done.
    Falling off the end of a procedure **fails** (no results), per Icon.
    """

    __slots__ = ("body",)

    def __init__(self, body: Any, unpack: Callable[..., Any] | None = None) -> None:
        super().__init__(unpack)
        self.body = as_iterator(body)

    def iterate(self) -> Iterator[Any]:
        try:
            for result in self.body.iterate():
                if isinstance(result, Suspension):
                    yield result.value
                # Ordinary results of the trailing statement are discarded:
                # a procedure only produces results via suspend/return.
        except ReturnSignal as signal:
            if signal.value is not FAIL:
                yield signal.value
        except FailSignal:
            pass
        finally:
            if self._cache is not None:
                self._cache.release(self._cache_key, self)
