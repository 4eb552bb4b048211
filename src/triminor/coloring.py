"""Exact graph colouring by clique-bounded backtracking."""

from __future__ import annotations

from typing import NamedTuple

from .cliques import max_clique
from .graphs import Graph, bits

EXACT_COLORING_LIMIT = 20


class ChromaticResult(NamedTuple):
    """Exact chromatic number with one optimal proper colouring."""

    chi: int
    coloring: tuple[int, ...]


def _greedy_dsatur(g: Graph) -> list[int]:
    """DSATUR greedy colouring; an upper bound and a starting certificate."""
    n = g.n
    color = [-1] * n
    neighbour_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if color[u] < 0),
            key=lambda u: (len(neighbour_colors[u]), g.adj[u].bit_count(), -u),
        )
        c = 0
        while c in neighbour_colors[v]:
            c += 1
        color[v] = c
        for w in bits(g.adj[v]):
            neighbour_colors[w].add(c)
    return color


def _try_k_coloring(g: Graph, k: int, clique: list[int]) -> list[int] | None:
    """Backtracking k-colouring; the clique is pre-coloured, new colours are
    introduced in canonical order to kill colour permutation symmetry."""
    n = g.n
    color = [-1] * n
    for i, v in enumerate(clique):
        color[v] = i

    def pick() -> int:
        best, best_key = -1, (-1, -1)
        for v in range(n):
            if color[v] >= 0:
                continue
            sat = len({color[w] for w in bits(g.adj[v]) if color[w] >= 0})
            key = (sat, g.adj[v].bit_count())
            if key > best_key:
                best, best_key = v, key
        return best

    def rec(remaining: int, used: int) -> bool:
        if remaining == 0:
            return True
        v = pick()
        forbidden = {color[w] for w in bits(g.adj[v]) if color[w] >= 0}
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

    if len(clique) > k:
        return None
    if rec(n - len(clique), len(clique)):
        return color
    return None


def chromatic_number(g: Graph) -> ChromaticResult:
    """Exact chromatic number, certified by an exhausted (chi-1)-search."""
    if g.n > EXACT_COLORING_LIMIT:
        raise ValueError(f"exact colouring capped at n={EXACT_COLORING_LIMIT}")
    if g.edge_count == 0:
        return ChromaticResult(1, (0,) * g.n)
    clique = max_clique(g)
    upper = _greedy_dsatur(g)
    ub = max(upper) + 1
    if len(clique) == ub:
        return ChromaticResult(ub, tuple(upper))
    for k in range(len(clique), ub):
        attempt = _try_k_coloring(g, k, clique)
        if attempt is not None:
            return ChromaticResult(k, tuple(attempt))
    return ChromaticResult(ub, tuple(upper))


def is_proper_coloring(g: Graph, coloring) -> bool:
    return all(coloring[u] != coloring[v] for u, v in g.edges())
