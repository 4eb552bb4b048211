"""Exact clique search on bitmask graphs."""

from __future__ import annotations

from .graphs import Graph


def max_clique(g: Graph) -> list[int]:
    """One maximum clique, found by branch and bound with greedy colour bounds."""
    best: list[int] = []

    def greedy_bound(cand: int) -> int:
        colors = 0
        while cand:
            colors += 1
            avail = cand
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~g.adj[v] & ~low
                cand ^= low
        return colors

    def expand(current: list[int], cand: int) -> None:
        nonlocal best
        if not cand:
            if len(current) > len(best):
                best = current[:]
            return
        if len(current) + greedy_bound(cand) <= len(best):
            return
        while cand:
            if len(current) + cand.bit_count() <= len(best):
                return
            v = cand.bit_length() - 1  # take highest bit, then forbid it
            cand &= ~(1 << v)
            expand(current + [v], cand & g.adj[v])

    expand([], (1 << g.n) - 1)
    return best


def has_clique(g: Graph, size: int) -> list[int] | None:
    """A clique with exactly `size` vertices, or None."""
    found: list[int] | None = None

    def expand(current: list[int], cand: int) -> bool:
        nonlocal found
        if len(current) == size:
            found = current[:]
            return True
        if len(current) + cand.bit_count() < size:
            return False
        while cand:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            if expand(current + [v], cand & g.adj[v]):
                return True
            if len(current) + 1 + cand.bit_count() < size:
                return False
        return False

    if size <= 0:
        return []
    expand([], (1 << g.n) - 1)
    return found
