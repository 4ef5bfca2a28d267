"""Reference speed: a fixed pure-Python kernel, timed next to every measurement.

The machine the benchmark was defined on is shared, and its speed moves by
up to 60% within a minute: the same op, repeated, took 44 ms in one
five-second window and 72 ms in the next, and CPU time moved with it.  A
fixed kernel timed between the ops moves the same way, so the op time over
the kernel time stayed within about 3% over the same windows.

Every end-to-end timing is therefore reported at reference speed: the wall
time times ``REF_MS`` over the kernel's time measured around it.  At a speed
where the kernel takes ``REF_MS`` the two agree.  The kernel is integer
elimination on lists of ints, the kind of work ``zlattice`` does, and runs
with the garbage collector off, so the program's heap cannot change its time.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_MS = 1.0
"""The kernel's time at reference speed, in ms."""

_N = 9
_ROUNDS = 5


def _kernel() -> int:
    """Row-reduce a fixed integer matrix ``_ROUNDS`` times; return |det|."""
    det = 0
    for r in range(_ROUNDS):
        x = 12345 + r
        rows = []
        for _ in range(_N):
            row = []
            for _ in range(_N):
                x = (x * 1103515245 + 12345) % 2147483648
                row.append(x % 19 - 9)
            rows.append(row)
        det = 1
        for c in range(_N):
            while True:
                live = [i for i in range(c, _N) if rows[i][c]]
                if not live:
                    det = 0
                    break
                p = min(live, key=lambda i: abs(rows[i][c]))
                rows[c], rows[p] = rows[p], rows[c]
                pivot, clear = rows[c], True
                for i in range(c + 1, _N):
                    q = rows[i][c] // pivot[c]
                    if q:
                        rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
                    clear = clear and not rows[i][c]
                if clear:
                    det *= abs(pivot[c])
                    break
    return det


def sample_ms() -> float:
    """Wall time of one kernel run, in ms, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def local_ref_ms(samples: list[float], i: int, half: int = 3) -> float:
    """Kernel time around the interval between ``samples[i]`` and ``samples[i + 1]``.

    The median of up to ``half`` samples before it and ``half`` after it, so
    that one interrupted kernel run does not set an op's scale.
    """
    return statistics.median(samples[max(0, i + 1 - half):i + 1 + half])


def timed(fn) -> tuple[float, float]:
    """Run ``fn()``; return its wall time in s and the kernel time around it in ms."""
    before = [sample_ms() for _ in range(3)]
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return wall, statistics.median(before + [sample_ms() for _ in range(3)])
