"""Exact graph colouring by clique-bounded backtracking."""

from __future__ import annotations

from typing import NamedTuple

from .cliques import has_clique
from .graphs import Graph, bits

EXACT_COLORING_LIMIT = 20


class ChromaticResult(NamedTuple):
    """Exact chromatic number with one optimal proper colouring."""

    chi: int
    coloring: tuple[int, ...]


def _try_k_coloring(g: Graph, k: int, clique: list[int]) -> list[int] | None:
    """Backtracking k-colouring; the clique is pre-coloured, new colours are
    introduced in canonical order to kill colour permutation symmetry."""
    n = g.n
    color = [-1] * n
    for i, v in enumerate(clique):
        color[v] = i

    def pick() -> tuple[int, set[int]]:
        # the most saturated uncoloured vertex, with its neighbours' colours
        best, best_key, best_seen = -1, (-1, -1), set()
        for v in range(n):
            if color[v] >= 0:
                continue
            seen = {color[w] for w in bits(g.adj[v]) if color[w] >= 0}
            key = (len(seen), g.adj[v].bit_count())
            if key > best_key:
                best, best_key, best_seen = v, key, seen
        return best, best_seen

    def rec(remaining: int, used: int) -> bool:
        if remaining == 0:
            return True
        v, forbidden = pick()
        for c in range(used):
            if c not in forbidden:
                color[v] = c
                if rec(remaining - 1, used):
                    return True
        if used < k:
            color[v] = used
            if rec(remaining - 1, used + 1):
                return True
        color[v] = -1
        return False

    if rec(n - len(clique), len(clique)):
        return color
    return None


def chromatic_number(g: Graph) -> ChromaticResult:
    """Exact chromatic number.  The clique grows by asking has_clique for
    one more vertex until there is none, so it is a maximum one; it is
    pre-coloured, and k climbs from its size to the first k that colours,
    so every smaller k is below the clique number or was refuted."""
    if g.n > EXACT_COLORING_LIMIT:
        raise ValueError(f"exact colouring capped at n={EXACT_COLORING_LIMIT}")
    clique: list[int] = []
    while (larger := has_clique(g, len(clique) + 1)) is not None:
        clique = larger
    k = len(clique)
    while (attempt := _try_k_coloring(g, k, clique)) is None:
        k += 1
    return ChromaticResult(k, tuple(attempt))


def is_proper_coloring(g: Graph, coloring) -> bool:
    return all(coloring[u] != coloring[v] for u, v in g.edges())
