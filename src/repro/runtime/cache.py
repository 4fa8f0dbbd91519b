"""Method-body cache (paper Figure 5: "For optimization the iterator body
is cached in a stack upon method return, and then reused").

Building a method body allocates the full tree of iterator nodes plus the
reified parameter cells.  Because a body is reusable after it finishes (its
``iterate`` restarts from scratch and ``unpack_args`` rebinds parameters),
completed bodies are parked per method name and handed back to later
invocations.  Concurrent invocations are safe: a body is only in the cache
while *no* invocation is using it, so two overlapping calls simply build
two bodies.

Each free stack is a dict keyed by the parked body's identity: its
insertion order is the stack order, ``popitem`` pops the most recent body,
and a store, a pop and a membership test are each one atomic operation
under CPython.  So the per-call fast path takes no lock and never walks
the stack (method calls are the hottest operation in translated code, and
pipes call methods from many threads), and a body released twice is
still parked once, since its key is its identity.

The cache can be disabled globally (``enabled=False``) — the ablation bench
A3 measures exactly this switch.
"""

from __future__ import annotations

from typing import Any, Dict


class MethodBodyCache:
    """A per-instance stack cache of free method bodies, keyed by name."""

    #: Class-wide switch (ablation A3); instances also take a local flag.
    enabled_globally: bool = True

    def __init__(self, max_per_method: int = 8, enabled: bool = True) -> None:
        if max_per_method < 0:
            raise ValueError("max_per_method must be >= 0")
        self.max_per_method = max_per_method
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._free: Dict[str, Dict[int, Any]] = {}

    def get_free(self, key: str) -> Any | None:
        """Pop a free body for *key*, or None (caller then builds one)."""
        if not (self.enabled and MethodBodyCache.enabled_globally):
            self.misses += 1
            return None
        free = self._free.get(key)
        if free:
            try:
                body = free.popitem()[1]  # atomic under CPython
            except KeyError:  # another thread took the last one
                self.misses += 1
                return None
            self.hits += 1
            return body
        self.misses += 1
        return None

    def release(self, key: str, body: Any) -> None:
        """Return a finished body to the free stack; past
        ``max_per_method`` the oldest parked body is dropped.

        Double-release of the same body is tolerated: it keeps its one
        entry, so no two invocations ever share its reified cells.
        """
        if not (self.enabled and MethodBodyCache.enabled_globally):
            return
        free = self._free.get(key)
        if free is None:
            free = self._free.setdefault(key, {})
        free[id(body)] = body
        if len(free) > self.max_per_method:
            try:
                del free[next(iter(free))]
            except (KeyError, RuntimeError, StopIteration):
                pass  # another thread emptied or resized the stack first

    def clear(self) -> None:
        self._free.clear()

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}

    # The paper's generated Java calls `getFree`; keep the alias so the
    # emitted Python can read like Figure 5.
    getFree = get_free
