"""Isomorph-free exhaustive generation by canonical edge augmentation.

Graphs on n vertices grow edge by edge from the empty graph.  A child is
accepted only when the edge just added lies in the automorphism orbit of the
child's canonical deletion edge (the orbit minimising an invariant key), so
every isomorphism class is produced exactly once with no global seen-set.
The key is, in order, the edge invariant, the cell key (the cells of the
edge's ends in the child's refined partition) and the pair certificate.
The filters run cheapest first, which changes no output (McKay,
"Isomorph-free exhaustive generation", 1998): degree and edge caps are read
off the parent, so a capped augmentation is never built; the invariant part
of that test runs on every other augmentation from the parent's own
invariants and hands the edges that tie on it to the rest of the test; the
parent's automorphism search runs only on the augmentations it keeps; and
a child with a tie that the cell key leaves gets one search of its own
automorphism group, which settles every tie in the added edge's orbit and
leaves only the others to compare by pair certificate.  The child keeps
those generators for its own expansion, which then needs no search.  The
stream is depth-first, each child expanded before its next sibling, so it
holds one path of parents and their pending siblings, not an edge level.
Orbits are walked by `canon.orbit`, the one orbit walk the apex sweeps use
too.
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
from typing import Callable, Iterator, NamedTuple

from .canon import automorphisms, cell_positions, orbit, pair_cert
from .graphs import Graph, bits, complement, from_rows, mader_edge_cap
from .minors import EXHAUSTIVE_HOST_LIMIT, PRUNE_IDS, kr_minor_verdict


class _GenFields(NamedTuple):
    n: int
    min_degree: int = 0
    prune: str = "none"
    max_edges: int | None = None


class GenSpec(_GenFields):
    """Declarative enumeration job.

    min_degree applies to completed (emitted) graphs; prune is a hereditary
    predicate id; max_edges an optional cap on emitted edge counts.
    """

    __slots__ = ()

    def __new__(cls, n: int, min_degree: int = 0, prune: str = "none",
                max_edges: int | None = None):
        if prune not in PRUNE_IDS:
            raise ValueError(f"unknown prune id {prune!r}, have {PRUNE_IDS}")
        if not 1 <= n <= 64:
            raise ValueError(f"n={n} outside 1..64")
        if max_edges is not None and max_edges < 0:
            raise ValueError(f"max_edges {max_edges} is negative")
        if min_degree < 0:
            raise ValueError(f"min_degree {min_degree} is negative")
        if min_degree >= n:
            raise ValueError(f"min_degree {min_degree} infeasible for n={n}")
        if prune != "none" and n > EXHAUSTIVE_HOST_LIMIT:
            raise ValueError(
                f"minor-pruned generation capped at n={EXHAUSTIVE_HOST_LIMIT}"
            )
        if prune == "none" and max_edges is None and n > 10:
            if min_degree < n - 5:
                raise ValueError(
                    "unconstrained generation beyond n=10 needs an edge cap"
                )
        return super().__new__(cls, n, min_degree, prune, max_edges)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through this, so a replaced spec is checked too
        return cls(*iterable)

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
        m = row >> x + 1 << x + 1
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
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
        if smaller:
            continue
        ties = []
        for x, y, dx in ((u, v, du), (v, u, dv)):
            if smaller:
                break
            row = adj[x] | 1 << y
            m = adj[x]
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
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


def _orbit_reps(
    g: Graph, pairs: list[tuple[int, int]], gens: list[tuple[int, ...]] | None
) -> list[tuple[int, int]]:
    """The first pair of each automorphism orbit of the given vertex pairs.
    The pairs come in lexicographic order, so that is each orbit's least.
    `gens` generates the automorphism group of g, or is None to search it."""
    if gens is None:
        gens = automorphisms(g, [list(range(g.n))])
    seen: set[int] = set()
    reps = []
    for u, v in pairs:
        mask = 1 << u | 1 << v
        if mask not in seen:
            reps.append((u, v))
            seen |= orbit(mask, gens)
    return reps


def _is_canonical_child(
    g: Graph, added: tuple[int, int], ties: list[tuple[int, int]]
) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Whether g is accepted, that is whether the added edge lies in the
    canonical deletion orbit, given that no edge of g has a smaller
    invariant than the added one and `ties` lists the others that share it
    (see `_invariant_survivors`); and, for an accepted g whose test searched
    its automorphism group, its generators, else None.

    The canonical deletion edge minimises (invariant, cell key, pair
    certificate), an isomorphism-invariant key, so exactly one augmentation
    orbit leading to each child class is ever accepted.  The cell key of an
    edge is the sorted pair of its ends' `cell_positions`, computed only
    when another edge ties the added one on the invariant.  When a tie also
    shares the added edge's cell key, one search of g's automorphism group
    starts from those refined cells: the ties in the added edge's orbit
    share its pair certificate, so only the others are compared with it,
    each by its own full pair certificate.
    """
    if not ties:
        return True, None
    pos = cell_positions(g)
    key_added = sorted((pos[added[0]], pos[added[1]]))
    same = []
    for u, v in ties:
        key = sorted((pos[u], pos[v]))
        if key < key_added:
            return False, None
        if key == key_added:
            same.append((u, v))
    if not same:
        return True, None
    cells: list[list[int]] = [[] for _ in range(max(pos) + 1)]
    for v, i in enumerate(pos):
        cells[i].append(v)
    gens = automorphisms(g, cells, refined=True)
    in_orbit = orbit(1 << added[0] | 1 << added[1], gens)
    rest = [(u, v) for u, v in same if 1 << u | 1 << v not in in_orbit]
    if rest:
        cert_added = pair_cert(g, *added)
        if any(pair_cert(g, u, v) < cert_added for u, v in rest):
            return False, None
    return True, gens


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
    depth-first preorder, siblings in the order of their orbit reps.

    Per parent, the filters run cheapest first.  The caps are read off the
    parent: a parent at the edge cap gets no children, and only the
    non-edges whose two ends are both below the degree cap are augmented.
    The invariant part of the canonical test runs on each of those, from the
    parent's invariants (`_invariant_survivors`); the automorphism search
    (`_orbit_reps`) runs on what survives, and only when two or more pairs
    do, and `canon.orbit` walks its generators over the surviving pairs'
    masks; the least pair of each orbit then meets the rest of the canonical
    test (`_is_canonical_child`) against the tied edges the invariant test
    found: the refined-cell key, then the child's automorphism group, then
    pair certificates for the ties outside the added edge's orbit.
    `keep_after` is asked only once that accepts it.  The generators of a
    child whose test searched its group stay with the child on the stack,
    and `_orbit_reps` uses them in place of its own search when that child
    is expanded as a parent.
    The caps and the invariant test are isomorphism-invariant, so what
    survives them is a union of orbits, and its orbit reps are those of all
    the non-edges that survive, in the same order: the order of the filters
    changes no output.  `keep_after` (a minor verdict) is asked once per
    class instead of once per orbit of augmentations.
    """
    empty = from_rows(n, [0] * n)
    if not keep_after(empty):
        return
    # graphs to expand, each with the generators its canonical test found
    stack: list[tuple[Graph, list[tuple[int, ...]] | None]] = [(empty, None)]
    while stack:
        parent, gens = stack.pop()
        yield parent
        if max_edges is not None and parent.edge_count >= max_edges:
            continue
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
        if len(reps) > 1:
            reps = _orbit_reps(parent, reps, gens)
        children = []
        for u, v in reps:
            child = _with_edge(parent, u, v)
            accepted, child_gens = _is_canonical_child(child, (u, v), survivors[u, v])
            if accepted and keep_after(child):
                children.append((child, child_gens))
        stack.extend(reversed(children))


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
            if g.min_degree() >= spec.min_degree:
                yield g


def generate_count(spec: GenSpec) -> int:
    return sum(1 for _ in generate(spec))
