"""Procedure bodies shared by pipes that run at the same time.

Two ``|>`` bodies made at one site in a loop both call the same
procedures, and both pipes are started before either is taken, so their
worker threads interleave.  Two things must hold on both engines:

* the method-body cache stays consistent while threads park and pop
  bodies of the same procedures (its free stacks are shared, and it
  takes no lock) — and, below the language, it never hands one parked
  body to two callers;
* each pipe runs over its own copy of the enclosing body's state — the
  shadowed locals *and* the normalization temporaries — so the sums are
  exact.  ``cache_disabled`` separates this from the cache: every call
  then builds a fresh body, and only the co-expression's own state is
  shared or not.
"""

import sys
import threading

import pytest

from repro.lang.interp import JuniconInterpreter
from repro.runtime.cache import MethodBodyCache

PROGRAM = r"""
def ident(v) { return v; }
def add(a, b) { return a + b; }
def sums(chunks) {
    local c, t, tasks, out;
    tasks = [];
    every c = !chunks do {
        t = |> { local x; x = 0; every x = add(x, ident(!c)); x };
        t::start();
        tasks::append(t);
    };
    out = [];
    every t = !tasks do put(out, @t);
    return out;
}
"""

#: Long enough that the two workers are switched many times mid-stream.
CHUNKS = [[1] * 10000, [1000] * 10000]
EXPECTED = [10000, 10000000]


def _sums(optimize: bool) -> list:
    interp = JuniconInterpreter(optimize=optimize)
    interp.load(PROGRAM)
    interp.namespace["CHUNKS"] = CHUNKS
    return interp.results("sums(CHUNKS)")


@pytest.mark.parametrize("optimize", [False, True], ids=["interp", "opt"])
def test_body_cache_survives_concurrent_pipes(optimize):
    assert _sums(optimize) == [EXPECTED]


@pytest.mark.parametrize("optimize", [False, True], ids=["interp", "opt"])
def test_pipes_from_one_site_share_no_temporaries(optimize, cache_disabled):
    assert _sums(optimize) == [EXPECTED]


class _Body:
    __slots__ = ("busy",)

    def __init__(self):
        self.busy = False


def test_cache_hands_each_parked_body_to_one_caller():
    cache = MethodBodyCache(max_per_method=4)
    errors = []

    def worker():
        try:
            for _ in range(5000):
                body = cache.get_free("m") or _Body()
                assert not body.busy, "one parked body handed to two callers"
                body.busy = True
                body.busy = False
                cache.release("m", body)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
