"""A fixed pure-Python task that measures how fast the machine runs right now.

The task mixes the two kinds of work triminor does: a bitset maximum-clique
search (integer bit operations and recursion, like the minor kernel) and
partition refinement by neighbour-count signatures (tuples, dicts and
sorting, like canonical labelling).  It runs on one fixed random graph and
shares no code with triminor, so a change to the program under test cannot
change it.

A shared virtual machine can run 1.5x slower for minutes at a time.  The
benchmark runs this task on the same CPU as the program, between calls, and
scales the measured times by ``REFERENCE_S / mean task time``.
"""

from __future__ import annotations

import random
import time

# Time of one pass at the reference speed.  It sets only the scale of the
# scaled times; the same constant on both sides of a comparison cancels.
REFERENCE_S = 0.07

_N = 70


def _graph() -> list[int]:
    rng = random.Random(5)
    adj = [0] * _N
    for u in range(_N):
        for v in range(u + 1, _N):
            if rng.random() < 0.6:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _graph()


def max_clique_size(adj: list[int]) -> int:
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            expand(size + 1, cand & adj[v])

    expand(0, (1 << len(adj)) - 1)
    return best


def refine_cells(adj: list[int], rounds: int = 3) -> list[list[int]]:
    cells = [list(range(len(adj)))]
    for _ in range(rounds):
        masks = [sum(1 << v for v in cell) for cell in cells]
        out = []
        for cell in cells:
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            out.extend(groups[sig] for sig in sorted(groups))
        cells = out
    return cells


def calibrate() -> float:
    """Seconds taken by one pass of the task."""
    t0 = time.perf_counter()
    for _ in range(8):
        max_clique_size(_ADJ)
    for _ in range(24):
        refine_cells(_ADJ)
    return time.perf_counter() - t0
