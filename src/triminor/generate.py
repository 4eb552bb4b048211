"""Isomorph-free exhaustive generation by canonical edge augmentation.

Graphs on n vertices grow edge by edge from the empty graph.  A child is
accepted only when the edge just added lies in the automorphism orbit of the
child's canonical deletion edge (the orbit minimising an invariant key), so
every isomorphism class is produced exactly once with no global seen-set.
The filters run cheapest first, which changes no output (McKay,
"Isomorph-free exhaustive generation", 1998): degree and edge caps are read
off the parent, so a capped augmentation is never built; the invariant part
of that test runs on every other augmentation from the parent's own
invariants and hands the edges that tie on it to the certificate part; and
the parent's automorphism search runs only on the augmentations it keeps.
Hereditary pruning cuts whole subtrees: a predicate that can never be
repaired by further edge additions (degree caps, edge caps, forbidden clique
minors) rejects a graph together with all its supergraphs.

Generation under a minimum-degree constraint runs on the complement side
when that is cheaper: graphs with min degree >= d on n vertices are exactly
the complements of graphs with max degree <= n-1-d, and the latter class is
usually far smaller.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator

from .canon import pair_cert, pair_orbits
from .graphs import Graph, bits, complement, from_rows, mader_edge_cap
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


def _invariant_survivors(
    parent: Graph, non_edges: list[tuple[int, int]]
) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """The non-edges uv of parent whose child parent + uv has no edge with a
    smaller invariant than uv, read off the parent's invariants, each
    mapped to the other edges of that child that tie with uv, in
    `Graph.edges` order.  The invariant of an edge xw is (smaller degree,
    larger degree, common neighbours) of x and w, compared in that order.

    Adding uv raises the degrees of u and v by one, and on an edge xw with
    x in {u, v} it adds the other end of uv to the neighbours of x.  Every
    other edge keeps its invariant, so the least of those is that of the
    first parent edge, in invariant order, away from u and v, and the ties
    among them are the parent edges away from u and v with uv's invariant.
    Invariants are compared as integers: with each field below 128,
    (d1, d2, common) orders as d1 << 14 | d2 << 7 | common does.
    """
    adj = parent.adj
    deg = [row.bit_count() for row in adj]
    ranked = []
    for x, row in enumerate(adj):
        dx = deg[x]
        for w in bits(row >> x + 1 << x + 1):
            dw = deg[w]
            key = dx << 14 | dw << 7 if dx <= dw else dw << 14 | dx << 7
            ranked.append((key | (row & adj[w]).bit_count(), 1 << x | 1 << w))
    ranked.sort()
    survivors = {}
    for u, v in non_edges:
        du, dv = deg[u] + 1, deg[v] + 1
        added = du << 14 | dv << 7 if du <= dv else dv << 14 | du << 7
        added |= (adj[u] & adj[v]).bit_count()
        ends = 1 << u | 1 << v
        smaller = False
        for key, mask in ranked:
            if not mask & ends:
                smaller = key < added
                break
        ties = []
        for x, y, dx in ((u, v, du), (v, u, dv)):
            if smaller:
                break
            row = adj[x] | 1 << y
            for w in bits(adj[x]):
                dw = deg[w]
                key = dx << 14 | dw << 7 if dx <= dw else dw << 14 | dx << 7
                key |= (row & adj[w]).bit_count()
                if key < added:
                    smaller = True
                    break
                if key == added:
                    ties.append((x, w) if x < w else (w, x))
        if not smaller:
            lo = bisect_left(ranked, (added,))
            hi = bisect_left(ranked, (added + 1,), lo)
            ties += [
                ((mask & -mask).bit_length() - 1, mask.bit_length() - 1)
                for _, mask in ranked[lo:hi] if not mask & ends
            ]
            survivors[u, v] = sorted(ties)
    return survivors


def _orbit_reps(g: Graph, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The least pair of each automorphism orbit of the given vertex pairs."""
    return sorted(min(o) for o in pair_orbits(g, pairs))


def _is_canonical_child(
    g: Graph, added: tuple[int, int], ties: list[tuple[int, int]]
) -> bool:
    """Accept g iff the added edge lies in the canonical deletion orbit,
    given that no edge of g has a smaller invariant than the added one and
    `ties` lists the others that share it (see `_invariant_survivors`).

    The canonical deletion edge minimises (invariant, pair certificate),
    an isomorphism-invariant key, so exactly one augmentation orbit leading
    to each child class is ever accepted.  Pair certificates are computed
    only when another edge ties the added one on the invariant.
    """
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
    n: int,
    max_degree: int | None = None,
    max_edges: int | None = None,
    keep_after: Callable[[Graph], bool] = _any_graph,
) -> Iterator[Graph]:
    """All graphs on n vertices with maximum degree at most `max_degree` and
    at most `max_edges` edges (None: no cap) that pass the hereditary
    predicate `keep_after`, one per isomorphism class, in deterministic
    level (edge count) order.

    Per parent, the filters run cheapest first.  The caps are read off the
    parent: a level at the edge cap gets no children, and only the non-edges
    whose two ends are both below the degree cap are augmented.  The
    invariant part of the canonical test runs on each of those, from the
    parent's invariants (`_invariant_survivors`); the automorphism search
    (`_orbit_reps`) runs on what survives, and only when two or more pairs
    do; the least pair of each orbit then meets the pair-certificate part of
    the canonical test (`_is_canonical_child`), against the tied edges the
    invariant test found, and `keep_after` only once that accepts it.
    The caps and the invariant test are isomorphism-invariant, so what
    survives them is a union of orbits, and its orbit reps are those of all
    the non-edges that survive, in the same order: the order of the filters
    changes no output.  `keep_after` (a minor verdict) is asked once per
    class instead of once per orbit of augmentations.
    """
    empty = from_rows(n, [0] * n)
    if not keep_after(empty):
        return
    level = [empty]
    yield empty
    while level and (max_edges is None or level[0].edge_count < max_edges):
        nxt: list[Graph] = []
        for parent in level:
            open_ends = (1 << n) - 1
            if max_degree is not None:
                open_ends = sum(1 << v for v, row in enumerate(parent.adj)
                                if row.bit_count() < max_degree)
            non_edges = [
                (u, v)
                for u in bits(open_ends)
                for v in bits(open_ends & ~parent.adj[u] & ~((2 << u) - 1))
            ]
            survivors = _invariant_survivors(parent, non_edges)
            reps = list(survivors)
            for u, v in reps if len(reps) < 2 else _orbit_reps(parent, reps):
                child = _with_edge(parent, u, v)
                if (_is_canonical_child(child, (u, v), survivors[u, v])
                        and keep_after(child)):
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
        # complement side: the max-degree cap is the hereditary prune
        for s in orderly_stream(n, max_degree=comp_cap):
            g = complement(s)
            if under_edge_cap(g) and minor_free(g):
                yield g
    else:
        for g in orderly_stream(n, max_edges=spec.max_edges, keep_after=minor_free):
            if g.min_degree() >= spec.min_degree or g.n == 1:
                yield g


def generate_count(spec: GenSpec) -> int:
    return sum(1 for _ in generate(spec))
