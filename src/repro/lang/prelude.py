"""Names available to generated code (the transformer's runtime prelude).

Generated modules begin with ``from repro.lang.prelude import *`` and host
files with embedded expression regions get the same import injected.  The
exported set is the exact vocabulary :mod:`repro.lang.transform` emits —
runtime node constructors, the operations module (as ``iops``), and the
environment helpers.
"""

from ..runtime import operations as iops
from ..runtime.failure import (
    FAIL,
    BreakSignal,
    FailSignal,
    NextSignal,
    ReturnSignal,
    Suspension,
)
from ..runtime.cache import MethodBodyCache
from ..runtime.combinators import (
    IconBound,
    IconConcat,
    IconEvery,
    IconIn,
    IconLimit,
    IconNot,
    IconProduct,
    IconRepeatAlt,
    IconSequence,
)
from ..runtime.control import (
    IconBreak,
    IconCase,
    IconFailStmt,
    IconIf,
    IconNext,
    IconRepeat,
    IconReturn,
    IconSuspend,
    IconUntil,
    IconWhile,
    case_match,
)
from ..runtime.access import IconField, IconIndex, IconSection
from ..runtime.invoke import IconInvokeIterator, IconMethodBody, IconOptimizedBody
from ..runtime.iterator import (
    IconFail,
    IconGenerator,
    IconIterator,
    IconLazy,
    IconNullIterator,
    IconValue,
    IconVarIterator,
)
from ..runtime.operations import (
    IconAssign,
    IconDeref,
    IconNonNullTest,
    IconNullTest,
    IconOperation,
    IconRevAssign,
    IconRevSwap,
    IconSwap,
    IconToBy,
)
from ..runtime.promote import IconActivate, IconPromote, activate_value, promote_value
from ..runtime.refs import FieldRef, IconTmp, IconVar, deref
from ..runtime.scanning import IconScan, tab_match
from ..runtime.types import Cset
from ..runtime.functions import BUILTINS
from ..coexpr.coexpression import CoExpression
from ..coexpr.pipe import Pipe
from ..coexpr.calculus import refresh as _jrefresh
from .environment import (
    GlobalRef,
    IconInitial,
    break_results,
    call_results,
    class_lookup,
    first_result,
    KeywordRef,
    ListBuild,
    global_value,
    host_lookup,
    invoke_value,
    shadow,
)

__all__ = [
    "_jrefresh",
    "BUILTINS",
    "BreakSignal",
    "CoExpression",
    "Cset",
    "FAIL",
    "FailSignal",
    "FieldRef",
    "GlobalRef",
    "IconActivate",
    "IconAssign",
    "IconBound",
    "IconBreak",
    "IconCase",
    "IconConcat",
    "IconDeref",
    "IconEvery",
    "IconFail",
    "IconFailStmt",
    "IconField",
    "IconGenerator",
    "IconIf",
    "IconIn",
    "IconIndex",
    "IconInitial",
    "IconInvokeIterator",
    "IconIterator",
    "IconLazy",
    "IconLimit",
    "IconMethodBody",
    "IconNext",
    "IconNonNullTest",
    "IconNot",
    "IconNullIterator",
    "IconNullTest",
    "IconOperation",
    "IconOptimizedBody",
    "IconProduct",
    "IconPromote",
    "IconRepeat",
    "IconRepeatAlt",
    "IconReturn",
    "IconRevAssign",
    "IconRevSwap",
    "IconScan",
    "IconSection",
    "IconSequence",
    "IconSuspend",
    "IconSwap",
    "IconTmp",
    "IconToBy",
    "IconUntil",
    "IconValue",
    "IconVar",
    "IconVarIterator",
    "IconWhile",
    "KeywordRef",
    "ListBuild",
    "MethodBodyCache",
    "NextSignal",
    "Pipe",
    "ReturnSignal",
    "Suspension",
    "activate_value",
    "break_results",
    "call_results",
    "case_match",
    "class_lookup",
    "deref",
    "first_result",
    "global_value",
    "host_lookup",
    "invoke_value",
    "iops",
    "promote_value",
    "shadow",
    "tab_match",
]
