"""The benchmark's clock: call times scaled to one speed of the machine.

The machine's speed drifts by a third or more within seconds and between
runs (README.md), and a call's raw time follows it.  So every timed call
is bracketed by a fixed pure-Python loop, which does the kind of work the
solvers do (max, min and mean updates over a graph of slotted objects),
and its time is divided by the
mean time of the loops just before and after it and multiplied by
``REF_MS``: the call's time on a machine where the loop takes ``REF_MS``.
A change of the program moves that figure as it moves the raw time; a
change of the machine's speed moves the loop with it.  Next to a long
call the loop runs several times, for about ``REF_SHARE`` of the call's
time, so that the speed it reads is not that of one instant.  The raw times are
kept in the run details, and ``host.ref_loop_ms`` gives the loop's own
time, so scaled figures convert back to the machine's milliseconds.
"""

from __future__ import annotations

import time

# About the loop's median time on the 2-core 2.1 GHz Xeon VM the
# benchmark was built on.
REF_MS = 3.0
REF_SHARE = 0.05
MAX_LOOPS = 32


class _Node:
    __slots__ = ("kind", "succ")

    def __init__(self, kind: int, succ: tuple[int, int]):
        self.kind, self.succ = kind, succ


# A fixed graph of 2000 nodes of three kinds, two successors each.
_NODES = [_Node(i % 3, ((i * 7 + 1) % 2000, (i * 13 + 5) % 2000)) for i in range(2000)]


def ref_loop_ms() -> float:
    """Time of a fixed pure-Python loop, in ms: ten sweeps of max, min
    and mean updates over ``_NODES``."""
    start = time.perf_counter()
    for _ in range(10):
        values = [0.0] * len(_NODES)
        for i, node in enumerate(_NODES):
            a, b = node.succ
            va, vb = values[a], values[b]
            if node.kind == 0:
                values[i] = va if va >= vb else vb
            elif node.kind == 1:
                values[i] = va if va <= vb else vb
            else:
                values[i] = (va + vb) / 2 + 0.001
    return (time.perf_counter() - start) * 1000.0


def reference_ms(*call_ms: float) -> float:
    """Mean time of the loop at a boundary next to calls of ``call_ms``
    (scaled ms): one run, or more for a long call."""
    loops = max(1, min(MAX_LOOPS, round(REF_SHARE * max(call_ms, default=0.0) / REF_MS)))
    return sum(ref_loop_ms() for _ in range(loops)) / loops


def scaled(ms: float, before: float, after: float) -> float:
    """``ms`` at the speed where the loop takes ``REF_MS``, given the
    loop's times just before and after the call."""
    return ms * REF_MS * 2.0 / (before + after)


def timed(fn, *args):
    """Result of ``fn(*args)``, its raw time in ms and that time scaled."""
    before = ref_loop_ms()
    start = time.perf_counter()
    result = fn(*args)
    ms = (time.perf_counter() - start) * 1000.0
    return result, ms, scaled(ms, before, reference_ms(ms * REF_MS / before))
