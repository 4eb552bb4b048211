"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (triple enumeration, permutation
search, recursive contraction, exhaustive cuts) and shares no code with the
search routines it checks.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb, prod

from triminor.graphs import Graph, contract_edge, from_rows, make_graph


def triangles_on_edge_brute(g: Graph, u: int, v: int) -> int:
    """Count triangles through uv by enumerating all vertex triples."""
    count = 0
    for a, b, c in itertools.combinations(range(g.n), 3):
        if {u, v} <= {a, b, c}:
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
                count += 1
    return count


def total_triangles_brute(g: Graph) -> int:
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    )


def isomorphic_brute(g: Graph, h: Graph) -> bool:
    """Permutation search with degree-sequence prefilter."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    gdeg = [g.degree(v) for v in range(g.n)]
    hdeg = [h.degree(v) for v in range(h.n)]

    def extend(mapping: list[int], used: int) -> bool:
        i = len(mapping)
        if i == g.n:
            return True
        for w in range(h.n):
            if used >> w & 1 or gdeg[i] != hdeg[w]:
                continue
            if all((g.adj[i] >> j & 1) == (h.adj[w] >> mapping[j] & 1) for j in range(i)):
                mapping.append(w)
                if extend(mapping, used | 1 << w):
                    return True
                mapping.pop()
        return False

    return extend([], 0)


def subset_orbits_brute(g: Graph, subsets, cells=None) -> set[frozenset]:
    """Orbits of the vertex subsets (sorted tuples) under every automorphism
    that maps each of `cells` onto itself (default: one cell of all
    vertices), found by trying all vertex permutations (one that maps every
    edge onto an edge is an automorphism, since it is a bijection on the
    finite edge set)."""
    edges = g.edges()
    autos = [
        perm
        for perm in itertools.permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in edges)
    ]
    # a permutation that maps all cells but the first onto themselves maps
    # the first onto itself too
    for cell in (cells or [])[1:]:
        autos = [perm for perm in autos if all(perm[v] in cell for v in cell)]
    return {
        frozenset(tuple(sorted(map(perm.__getitem__, subset))) for perm in autos)
        for subset in subsets
    }


def minor_brute(g: Graph, h: Graph, memo: dict | None = None) -> bool:
    """Minor test by recursion over single edge contractions: h is a minor
    of g iff h is a subgraph of some contraction of g.  The memo is keyed on
    the labelled graphs, so no canonical form is trusted."""
    if memo is None:
        memo = {}
    if g.n < h.n or g.edge_count < h.edge_count:
        return False
    key = (g.adj, h.adj)
    if key in memo:
        return memo[key]
    result = _has_subgraph_brute(g, h) or any(
        minor_brute(contract_edge(g, u, v)[0], h, memo) for u, v in g.edges()
    )
    memo[key] = result
    return result


def kr_minor_brute(g: Graph, r: int, memo: dict | None = None) -> bool:
    """Complete-minor test: minor_brute with the clique on r vertices."""
    clique = make_graph(r, list(itertools.combinations(range(r), 2)))
    return minor_brute(g, clique, memo)


def _has_subgraph_brute(g: Graph, h: Graph) -> bool:
    """Some injective map of V(h) into V(g) sends every edge of h onto an
    edge of g.  Every vertex order of a clique is the same pattern, so for a
    complete h only the vertex sets of g are tried."""
    h_edges = h.edges()
    if len(h_edges) == h.n * (h.n - 1) // 2:
        maps = itertools.combinations(range(g.n), h.n)
    else:
        maps = itertools.permutations(range(g.n), h.n)
    return any(all(g.has_edge(phi[a], phi[b]) for a, b in h_edges) for phi in maps)


def _connected_brute(g: Graph, vertices: list[int]) -> bool:
    """Whether g restricted to `vertices` is connected, by a search from the
    first one over `has_edge`."""
    seen = {vertices[0]}
    todo = [vertices[0]]
    while todo:
        u = todo.pop()
        for w in vertices:
            if w not in seen and g.has_edge(u, w):
                seen.add(w)
                todo.append(w)
    return len(seen) == len(vertices)


def vertex_connectivity_brute(g: Graph) -> int:
    """Smallest vertex cut by exhaustive subset enumeration."""
    if not _connected_brute(g, list(range(g.n))):
        return 0
    if all(g.has_edge(u, v) for u, v in itertools.combinations(range(g.n), 2)):
        return g.n - 1
    for k in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), k):
            remaining = [v for v in range(g.n) if v not in cut]
            if len(remaining) > 1 and not _connected_brute(g, remaining):
                return k
    return g.n - 1


def st_separator_brute(g: Graph, s: int, t: int) -> int:
    """Fewest vertices, other than s and t, whose deletion leaves no s-t
    path, by exhaustive subset enumeration (s and t non-adjacent)."""
    others = [v for v in range(g.n) if v not in (s, t)]
    for k in range(len(others) + 1):
        for cut in itertools.combinations(others, k):
            seen = {s, *cut}
            todo = [s]
            while todo:
                u = todo.pop()
                for w in range(g.n):
                    if w not in seen and g.has_edge(u, w):
                        seen.add(w)
                        todo.append(w)
            if t not in seen:
                return k
    raise ValueError(f"{s} and {t} are adjacent")


def chromatic_brute(g: Graph) -> int:
    """Smallest k admitting a proper colouring, by exhaustive assignment."""
    for k in range(1, g.n + 1):
        if _colorable_brute(g, k, [None] * g.n, 0):
            return k
    raise AssertionError("unreachable")


def clique_number_brute(g: Graph) -> int:
    """Size of a largest vertex set whose pairs are all edges, by trying
    every vertex subset, largest first."""
    for size in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return 0


def _colorable_brute(g, k, colors, v):
    if v == g.n:
        return True
    for c in range(k):
        if all(colors[w] != c for w in range(v) if g.has_edge(v, w)):
            colors[v] = c
            if _colorable_brute(g, k, colors, v + 1):
                return True
    colors[v] = None
    return False


def random_graph_for_tests(n: int, rng, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return make_graph(n, edges)


def all_graphs_on(n: int):
    """Every labeled graph on n vertices (n <= 6 in practice)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield from_rows(n, rows)


def orbit_classes_on(n: int):
    """Isomorphism classes of n-vertex graphs by explicit permutation orbits.

    Returns (class_count, labels) where labels maps each upper-triangle bit
    encoding to its class id.
    """
    pairs = list(itertools.combinations(range(n), 2))
    npairs = len(pairs)
    index = {pair: k for k, pair in enumerate(pairs)}
    perm_maps = []
    for perm in itertools.permutations(range(n)):
        perm_maps.append(
            [index[tuple(sorted((perm[i], perm[j])))] for (i, j) in pairs]
        )
    labels = [-1] * (1 << npairs)
    classes = 0
    for code in range(1 << npairs):
        if labels[code] != -1:
            continue
        for pm in perm_maps:
            image = 0
            for k in range(npairs):
                if code >> k & 1:
                    image |= 1 << pm[k]
            labels[image] = classes
        classes += 1
    return classes, labels


def graph_from_code(n: int, code: int) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    rows = [0] * n
    for k, (i, j) in enumerate(pairs):
        if code >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return from_rows(n, rows)


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return tuple(inv)


def group_order(n: int, gens) -> int:
    """The order of the permutation group on range(n) that `gens` generate
    (perm[v] is the image of v), by a plain deterministic Schreier-Sims
    (Sims 1970; Seress, *Permutation Group Algorithms*, 2003): grow a base
    and a strong generating set until every Schreier generator sifts to the
    identity, then multiply the basic orbit lengths."""
    identity = tuple(range(n))
    base: list[int] = []
    strong: list[tuple[int, ...]] = []

    def add(h):
        strong.append(h)
        if all(h[b] == b for b in base):
            base.append(next(x for x in range(n) if h[x] != x))

    def levels():
        """Per base point: the strong generators fixing the points before
        it, and its orbit under them, each point mapped to a permutation
        that takes the base point there."""
        out = []
        for i, b in enumerate(base):
            level = [s for s in strong if all(s[c] == c for c in base[:i])]
            trans = {b: identity}
            queue = [b]
            for x in queue:
                for s in level:
                    if s[x] not in trans:
                        trans[s[x]] = tuple(s[y] for y in trans[x])
                        queue.append(s[x])
            out.append((b, level, trans))
        return out

    def sift(h, chain):
        for b, _, trans in chain:
            t = trans.get(h[b])
            if t is None:
                break
            inv = _inverse(t)
            h = tuple(inv[y] for y in h)
        return h

    def schreier_generators(chain):
        for b, level, trans in chain:
            for t in trans.values():
                for s in level:
                    st = tuple(s[y] for y in t)
                    inv = _inverse(trans[st[b]])
                    yield tuple(inv[y] for y in st)

    for g in gens:
        if tuple(g) != identity:
            add(tuple(g))
    while True:
        chain = levels()
        residues = (sift(h, chain) for h in schreier_generators(chain))
        h = next((h for h in residues if h != identity), None)
        if h is None:
            return prod(len(trans) for _, _, trans in chain)
        add(h)


def labelled_graph_counts(n: int, max_degree: int | None = None) -> list[int]:
    """The labelled graphs on range(n) with maximum degree at most
    `max_degree` (None: any), by edge count: entry m counts those with m
    edges.  Unconstrained, that is C(C(n, 2), m).  Under a degree cap it is
    a dynamic programme over the multiset of residual degrees: a vertex of
    largest residual degree picks how many neighbours it gets from each
    residual class, weighted by the binomial number of ways to pick them,
    and leaves."""
    pairs = comb(n, 2)
    if max_degree is None:
        return [comb(pairs, m) for m in range(pairs + 1)]
    size = min(pairs, n * max_degree // 2) + 1

    @cache
    def count(classes: tuple[int, ...]) -> tuple[int, ...]:
        # classes[c]: how many vertices have residual degree c; classes[0]
        # is kept 0, since a vertex with no room left takes no edge
        out = [0] * size
        top = max((c for c, k in enumerate(classes) if k), default=0)
        if top == 0:
            out[0] = 1
            return tuple(out)
        rest = list(classes)
        rest[top] -= 1
        for picks in itertools.product(*(range(min(k, top) + 1) for k in rest)):
            edges = sum(picks)
            if edges > top:
                continue
            after = [k - j for k, j in zip(rest, picks)]
            for c, j in enumerate(picks[1:], 1):
                after[c - 1] += j
            after[0] = 0
            weight = prod(comb(k, j) for k, j in zip(rest, picks))
            for m, x in enumerate(count(tuple(after))[:size - edges]):
                out[m + edges] += weight * x
        return tuple(out)

    start = [0] * (max_degree + 1)
    start[max_degree] = n
    return list(count(tuple(start)))
