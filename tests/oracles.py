"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (triple enumeration, permutation
search, recursive contraction, exhaustive cuts) and shares no code with the
search routines it checks.
"""

from __future__ import annotations

import itertools

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


def pair_orbits_brute(g: Graph, pairs) -> set[frozenset]:
    """Orbits of the vertex pairs under every automorphism, found by trying
    all vertex permutations (one that maps every edge onto an edge is an
    automorphism, since it is a bijection on the finite edge set)."""
    edges = g.edges()
    autos = [
        perm
        for perm in itertools.permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in edges)
    ]
    return {
        frozenset(tuple(sorted((perm[u], perm[v]))) for perm in autos)
        for u, v in pairs
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


def vertex_connectivity_brute(g: Graph) -> int:
    """Smallest vertex cut by exhaustive subset enumeration."""
    if not g.is_connected():
        return 0
    full = (1 << g.n) - 1
    if all(g.adj[v] == full ^ (1 << v) for v in range(g.n)):
        return g.n - 1
    for k in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), k):
            remaining = [v for v in range(g.n) if v not in cut]
            sub_rows = []
            pos = {v: i for i, v in enumerate(remaining)}
            for v in remaining:
                row = 0
                for w in remaining:
                    if g.has_edge(v, w):
                        row |= 1 << pos[w]
                sub_rows.append(row)
            sub = from_rows(len(remaining), sub_rows)
            if len(remaining) > 1 and not sub.is_connected():
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
