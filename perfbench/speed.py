"""Host speed: a fixed pure-Python kernel timed around every job.

On a shared host a core runs either at full speed or, while another
tenant shares it, about 1.8 times slower, switching every few tenths of
a second to a few seconds; CPU time stretches with it.  Two runs of the
same code minutes apart then differ by a fifth or more.  The kernel
below uses no code of the program: it is a fixed amount of interpreter
work (generator steps, calls, dict updates, small integers).  Timed just
before and just after each job, its time over :data:`REFERENCE_S` is the
host's slowdown during that job, and each timed end-to-end figure is
scaled back to a host on which the kernel takes :data:`REFERENCE_S`.  A
change in the program moves the scaled figures; a change in the host's
speed mostly does not.  The full result keeps the raw figures too.
"""

from __future__ import annotations

import time

#: Kernel iterations per sample: about 1 ms on a 2-CPU x86 VM with
#: CPython 3.11 when its core is not shared.
KERNEL_STEPS = 4500
#: Seconds the kernel takes on the reference host.
REFERENCE_S = 0.001


def _steps(n: int):
    for i in range(n):
        yield i


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def kernel(n: int = KERNEL_STEPS) -> int:
    table: dict = {}
    total = 0
    for i in _steps(n):
        key = i % 97
        table[key] = table.get(key, 0) + 1
        total += _mix(i, key)
    return total + len(table)


class HostSpeed:
    """Times the kernel, and adds up the wall and CPU time it took, so
    that a window can leave them out of its own figures."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def sample(self) -> float:
        """The host's slowdown now: kernel time over :data:`REFERENCE_S`."""
        cpu = time.process_time()
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu
        self.wall_s += elapsed
        return elapsed / REFERENCE_S
