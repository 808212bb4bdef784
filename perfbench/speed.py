"""A gauge of the machine's speed, for scaling measured times.

On a shared host the same pure-Python work runs up to a third faster or
slower from one half-minute to the next, as neighbours come and go.  The
benchmark therefore runs a fixed unit of its own pure-Python work (dict
updates, a tuple-stack DFS, dicts keyed by tuples: the shapes heckelab's
hot loops have) between the ops it times, and scales each measured time
by NOMINAL_MS over the unit's time measured next to it.  A scaled time
reads as the time at the speed the unit runs in NOMINAL_MS.  The unit
does not call heckelab, so a change to the library cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_MS = 2.5  # the unit's time on the reference machine, typical speed
NEAREST = 5       # probes whose median gives the speed at a moment


def _unit() -> int:
    d: dict = {}
    s = 0
    for i in range(6000):
        d[i & 1023] = s
        s = (s * 31 + i) & 0xFFFF
    todo = [(0, 0, 0)]
    fixed = 0
    while todo:
        i, u, ones = todo.pop()
        if i == 11:
            fixed += u == 0
            continue
        v = (u * 7 + i) % 11
        todo.append((i + 1, v, ones + 1))
        todo.append((i + 1, u, ones))
    acc: dict = {}
    for a in range(60):
        key = tuple((a * j) % 7 for j in range(6))
        poly = {e: (a * e) % 5 + 1 for e in range(8)}
        old = acc.get(key)
        acc[key] = poly if old is None else {
            e: old.get(e, 0) + poly.get(e, 0) for e in set(old) | set(poly)}
    total = 0
    for _ in range(40):
        for p in acc.values():
            for e, c in p.items():
                total += c * c * e
    return s + fixed + total


def probe_ms() -> float:
    """Time of one unit, in ms, with the garbage collector held off so
    that the heap the caller has built cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _unit()
        return (time.perf_counter() - t) * 1e3
    finally:
        if enabled:
            gc.enable()


def factors(times: list, probes: list) -> list:
    """For each moment in times, NOMINAL_MS over the median unit time of
    the NEAREST probes (pairs [moment, ms]) taken closest to it."""
    out = []
    for t in times:
        near = sorted(probes, key=lambda p: abs(p[0] - t))[:NEAREST]
        out.append(NOMINAL_MS / statistics.median(ms for _, ms in near))
    return out
