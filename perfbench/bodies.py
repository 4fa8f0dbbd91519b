"""Pipe bodies the benchmark ships to other processes.

The process and remote tiers pickle a body by import path, so these live
at module level in a module a server subprocess can import (the
benchmark puts the checkout root on its ``PYTHONPATH``).
"""

from __future__ import annotations

import time


def word_numbers(lines, word_to_number):
    """Stage 1 of the Figure 6 pipeline split: one number per word."""
    for line in lines:
        for word in line.split():
            yield word_to_number(word)


def count_up(n):
    """``0, 1, ..., n-1`` — checked against ``list(range(n))``."""
    for i in range(n):
        yield i


class RaiseOnce:
    """A ``count_up`` body that raises once, after ``fail_at`` items.

    The instance is the co-expression's factory, so a supervised restart
    calls the same object again: the second run finds ``raised_at`` set
    and streams to the end, while the supervisor replays past the
    delivered prefix.
    """

    def __init__(self, n: int, fail_at: int) -> None:
        self.n = n
        self.fail_at = fail_at
        self.raised_at: float | None = None

    def __call__(self):
        for i in range(self.n):
            if i == self.fail_at and self.raised_at is None:
                self.raised_at = time.perf_counter()
                raise InjectedFault(f"injected fault at item {i}")
            yield i


class InjectedFault(RuntimeError):
    """The fault a :class:`RaiseOnce` body raises."""
