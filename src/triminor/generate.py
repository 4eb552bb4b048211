"""Isomorph-free exhaustive generation by canonical edge augmentation.

Graphs on n vertices grow edge by edge from the empty graph.  A child is
accepted only when the edge just added lies in the automorphism orbit of the
child's canonical deletion edge (the orbit minimising an invariant key), so
every isomorphism class is produced exactly once with no global seen-set.
Hereditary pruning cuts whole subtrees: a predicate that can never be
repaired by further edge additions (degree caps, edge caps, forbidden clique
minors) rejects a graph together with all its supergraphs.

Generation under a minimum-degree constraint runs on the complement side
when that is cheaper: graphs with min degree >= d on n vertices are exactly
the complements of graphs with max degree <= n-1-d, and the latter class is
usually far smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .canon import pair_cert, pair_orbits
from .graphs import Graph, complement, from_rows, mader_edge_cap
from .minors import EXHAUSTIVE_HOST_LIMIT, kr_minor_verdict

PRUNE_IDS = ("none", "K4", "K5", "K6", "K7", "K8")


@dataclass(frozen=True)
class GenSpec:
    """Declarative enumeration job.

    min_degree applies to completed (emitted) graphs; prune is a hereditary
    predicate id; max_edges an optional cap on emitted edge counts.
    """

    n: int
    min_degree: int = 0
    prune: str = "none"
    max_edges: int | None = None

    def __post_init__(self):
        if self.prune not in PRUNE_IDS:
            raise ValueError(f"unknown prune id {self.prune!r}, have {PRUNE_IDS}")
        if not 1 <= self.n <= 64:
            raise ValueError(f"n={self.n} outside 1..64")
        if self.max_edges is not None and self.max_edges < 0:
            raise ValueError(f"max_edges {self.max_edges} is negative")
        if self.min_degree >= self.n:
            raise ValueError(f"min_degree {self.min_degree} infeasible for n={self.n}")
        if self.prune != "none" and self.n > EXHAUSTIVE_HOST_LIMIT:
            raise ValueError(
                f"minor-pruned generation capped at n={EXHAUSTIVE_HOST_LIMIT}"
            )
        if self.prune == "none" and self.max_edges is None and self.n > 10:
            if self.min_degree < self.n - 5:
                raise ValueError(
                    "unconstrained generation beyond n=10 needs an edge cap"
                )

    def prune_order(self) -> int | None:
        return None if self.prune == "none" else int(self.prune[1:])


def _edge_invariant(g: Graph, u: int, v: int) -> tuple[int, int, int]:
    du, dv = g.adj[u].bit_count(), g.adj[v].bit_count()
    if du > dv:
        du, dv = dv, du
    return du, dv, (g.adj[u] & g.adj[v]).bit_count()


def _orbit_reps(g: Graph, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The least pair of each automorphism orbit of the given vertex pairs."""
    return sorted(min(o) for o in pair_orbits(g, pairs))


def _is_canonical_child(g: Graph, added: tuple[int, int]) -> bool:
    """Accept g iff the added edge lies in the canonical deletion orbit.

    The canonical deletion edge minimises (invariant, pair certificate),
    an isomorphism-invariant key, so exactly one augmentation orbit leading
    to each child class is ever accepted.  Pair certificates are computed
    only when another edge ties the added one on the invariant.
    """
    inv_added = _edge_invariant(g, *added)
    ties = []
    for u, v in g.edges():
        inv = _edge_invariant(g, u, v)
        if inv < inv_added:
            return False
        if inv == inv_added and (u, v) != added:
            ties.append((u, v))
    if not ties:
        return True
    cert_added = pair_cert(g, *added)
    return all(pair_cert(g, u, v) >= cert_added for u, v in ties)


def _with_edge(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows), g.edge_count + 1)


def _any_graph(g: Graph) -> bool:
    return True


def orderly_stream(
    n: int, keep: Callable[[Graph], bool], keep_after: Callable[[Graph], bool] = _any_graph
) -> Iterator[Graph]:
    """All graphs on n vertices passing the hereditary predicates `keep` and
    `keep_after`, one per isomorphism class, in deterministic level (edge
    count) order.

    A child is asked `keep` before the canonical test and `keep_after` only
    once that test accepts it, so a cheap predicate (a degree or edge cap)
    saves canonical tests, and a costly one (a minor verdict) is asked once
    per class instead of once per orbit of augmentations.
    """
    empty = from_rows(n, [0] * n)
    if not (keep(empty) and keep_after(empty)):
        return
    level = [empty]
    yield empty
    while level:
        nxt: list[Graph] = []
        for parent in level:
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not parent.adj[u] >> v & 1
            ]
            for u, v in _orbit_reps(parent, non_edges):
                child = _with_edge(parent, u, v)
                if keep(child) and _is_canonical_child(child, (u, v)) and keep_after(child):
                    nxt.append(child)
        level = nxt
        yield from level


def generate(spec: GenSpec) -> Iterator[Graph]:
    """One representative per isomorphism class meeting the GenSpec."""
    r = spec.prune_order()
    n = spec.n
    comp_cap = n - 1 - spec.min_degree
    comp_budget = n * comp_cap // 2
    if spec.max_edges is not None:
        direct_budget = spec.max_edges
    elif r is not None:
        direct_budget = max(mader_edge_cap(n, r), 0)
    else:
        direct_budget = n * (n - 1) // 2

    def under_edge_cap(g: Graph) -> bool:
        return spec.max_edges is None or g.edge_count <= spec.max_edges

    def minor_free(g: Graph) -> bool:
        return r is None or not kr_minor_verdict(g, r)

    if comp_budget < direct_budget:
        # complement side: max-degree cap is the hereditary prune
        def keep(s: Graph) -> bool:
            return all(row.bit_count() <= comp_cap for row in s.adj)

        for s in orderly_stream(n, keep):
            g = complement(s)
            if under_edge_cap(g) and minor_free(g):
                yield g
    else:
        for g in orderly_stream(n, under_edge_cap, minor_free):
            if g.min_degree() >= spec.min_degree or g.n == 1:
                yield g


def generate_count(spec: GenSpec) -> int:
    return sum(1 for _ in generate(spec))
