"""The one exact clique search on bitmask graphs, shared by
`minors.has_minor`, which asks it for a clique witness, and the colourer."""

from __future__ import annotations

from .graphs import Graph


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
