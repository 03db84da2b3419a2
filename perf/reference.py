"""The reference kernel that the benchmark's times are expressed against.

This machine shares its cores with other tenants, and their load changes the
speed of a core by up to a factor of two for tens of seconds at a time.  The
slowdown is in throughput, not in lost time slices (steal stays near 1%), so
CPU time inflates with wall time and neither can be compared between runs.

The benchmark therefore times this fixed kernel next to every program
operation, in the same process, and scales each operation's time by
``REF_S / kernel time``.  A slower core slows both, and the quotient cancels
most of it.  The result is in seconds at reference speed: the time the
operation would take on a core where one kernel call takes ``REF_S``.
The kernel mixes the kinds of work the program does: interpreted Python on
dicts and tuples, numpy permutation composition with byte keys, and
memory-bound gathers and dict updates, which contention slows the most.  It
is part of the benchmark and never changes with the program.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REF_S = 0.025  # seconds of one kernel call at reference speed

_RNG = np.random.default_rng(12345)
_PERM = _RNG.permutation(4096)
_IDENT = np.arange(4096)
_BIG = _RNG.permutation(1 << 18).astype(np.int32)
_KEYS = _RNG.integers(0, 1 << 30, 60000).tolist()
_TABLE = {k: i & 255 for i, k in enumerate(_KEYS)}
_PAIRS = {(a, b): a ^ b for a in range(2048) for b in range(8)}
# the kernel allocates nothing large, so that its time does not depend on
# the state of the program's heap (glibc serves large blocks by fresh mmap
# until the program has freed some, and then from its heap)
_OUT = (np.empty_like(_PERM), np.empty_like(_PERM))
_BIG_OUT = (np.empty_like(_BIG), np.empty_like(_BIG))


def kernel() -> int:
    # interpreted Python: integer arithmetic and lookups by tuple key
    s = acc = 0
    for i in range(11000):
        s = (s * 1103515245 + 12345) & 0x7FFFFFFF
        acc += _PAIRS[(s & 2047, i & 7)]
    # numpy: compose a permutation and hash its byte keys
    x = _IDENT
    for j in range(170):
        x = np.take(_PERM, x, out=_OUT[j & 1])
        acc ^= hash(x.tobytes())
    # memory-bound: gathers through a 1 MiB permutation, and lookups in a
    # dict that outgrows the caches, as the coset tables and element sets do
    y = _BIG
    for j in range(6):
        y = np.take(_BIG, y, out=_BIG_OUT[j & 1])
    for k in _KEYS:
        acc += _TABLE[k]
    return acc + int(y[0])


def measure(reps: int = 1) -> float:
    """Seconds of one kernel call, the median of reps calls."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def scaled(seconds: float, ref: float) -> float:
    """seconds measured while a kernel call took ref, at reference speed."""
    return seconds * REF_S / ref
