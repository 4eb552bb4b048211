"""Immutable small-graph kernel: bit-packed adjacency, triangles, contraction.

Graphs are simple and loopless, at most 64 vertices, so every adjacency row
fits in one machine word and neighbourhood intersections are single AND +
popcount operations.
"""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple

MAX_VERTICES = 64


class Graph(NamedTuple):
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]
    edge_count: int

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min(self.adj[v].bit_count() for v in range(self.n))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.adj), reverse=True))


def bits(mask: int) -> list[int]:
    """Positions of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def from_rows(n: int, rows: list[int] | tuple[int, ...]) -> Graph:
    """Build a Graph from trusted adjacency rows (no validation)."""
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(n, tuple(rows), m)


def make_graph(n: int, edges: list[tuple[int, int]] | tuple) -> Graph:
    """Graph with exactly the given edges; duplicates collapse.

    Raises ValueError for n outside 1..64, endpoints out of range, or loops.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return from_rows(n, rows)


def validate(g: Graph) -> None:
    """Assert the structural invariants of a Graph value."""
    assert 1 <= g.n <= MAX_VERTICES
    full = (1 << g.n) - 1
    for u in range(g.n):
        assert g.adj[u] & ~full == 0, "bits set at positions >= n"
        assert not g.adj[u] >> u & 1, "diagonal bit set"
        for v in bits(g.adj[u]):
            assert g.adj[v] >> u & 1, "asymmetric adjacency"
    assert g.edge_count == sum(r.bit_count() for r in g.adj) // 2


# ---------------------------------------------------------------------------
# Named constructions


def complete(r: int) -> Graph:
    if not 1 <= r <= MAX_VERTICES:
        raise ValueError(f"vertex count {r} outside 1..{MAX_VERTICES}")
    full = (1 << r) - 1
    return from_rows(r, [full ^ (1 << v) for v in range(r)])


def complete_multipartite(*parts: int) -> Graph:
    n = sum(parts)
    if not 1 <= n <= MAX_VERTICES or any(p < 1 for p in parts):
        raise ValueError(f"bad part sizes {parts}")
    rows = []
    start = 0
    full = (1 << n) - 1
    for p in parts:
        part_mask = ((1 << p) - 1) << start
        rows.extend([full & ~part_mask] * p)
        start += p
    return from_rows(n, rows)


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return make_graph(10, edges)


def petersen_complement() -> Graph:
    return complement(petersen())


def double_axle_wheel(c: int) -> Graph:
    """Cycle on c vertices plus two mutually non-adjacent hubs joined to it."""
    if c < 3:
        raise ValueError(f"cycle length {c} must be at least 3")
    edges = [(i, (i + 1) % c) for i in range(c)]
    for hub in (c, c + 1):
        edges.extend((hub, i) for i in range(c))
    return make_graph(c + 2, edges)


def k_tree(k: int, n: int, seed: int) -> Graph:
    """Random k-tree: start from K_k, join each new vertex to a random k-clique."""
    if k < 1 or n < k or n > MAX_VERTICES:
        raise ValueError(f"need 1 <= k <= n <= {MAX_VERTICES}, got k={k} n={n}")
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(k):
        for v in range(u + 1, k):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    cliques = [tuple(range(k))]
    for w in range(k, n):
        base = cliques[rng.randrange(len(cliques))]
        for u in base:
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        for u in base:
            cliques.append(tuple(x for x in base if x != u) + (w,))
    return from_rows(n, rows)


# ---------------------------------------------------------------------------
# Triangles


def total_triangles(g: Graph) -> int:
    acc = 0
    for u, v in g.edges():
        acc += (g.adj[u] & g.adj[v]).bit_count()
    return acc // 3


class EdgeTriangleReport(NamedTuple):
    """Per-edge triangle counts over qualifying edges, plus the minimizing edge."""

    counts: tuple[tuple[tuple[int, int], int], ...]
    edge: tuple[int, int]
    min_count: int
    degree_cap: int | None


def min_triangle_edge(g: Graph, degree_cap: int | None = None) -> EdgeTriangleReport:
    """Minimum triangle count over edges with an endpoint of degree <= cap.

    Without a cap every edge qualifies.  Ties break on the lexicographically
    smallest (u, v).  Raises ValueError when no edge qualifies.
    """
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    counts = []
    best = None
    for u, v in g.edges():
        if degree_cap is not None and min(g.degree(u), g.degree(v)) > degree_cap:
            continue
        t = (g.adj[u] & g.adj[v]).bit_count()
        counts.append(((u, v), t))
        if best is None or t < best[1]:
            best = ((u, v), t)
    if best is None:
        raise ValueError(f"no edge has an endpoint of degree <= {degree_cap}")
    return EdgeTriangleReport(tuple(counts), best[0], best[1], degree_cap)


# ---------------------------------------------------------------------------
# Contraction / induced / complement


def contract_edge(g: Graph, u: int, v: int) -> tuple[Graph, dict[int, int]]:
    """Contract edge uv into a single vertex, collapsing parallel edges.

    Returns the contracted graph on n-1 contiguous labels together with the
    old-label -> new-label map (u and v share an image).
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    relabel = {}
    new = 0
    for w in range(g.n):
        if w == v:
            continue
        relabel[w] = new
        new += 1
    relabel[v] = relabel[u]
    rows = [0] * (g.n - 1)
    for a in range(g.n):
        for b in bits(g.adj[a]):
            ra, rb = relabel[a], relabel[b]
            if ra != rb:
                rows[ra] |= 1 << rb
                rows[rb] |= 1 << ra
    return from_rows(g.n - 1, rows), relabel


def induced(g: Graph, vertices) -> Graph:
    """Induced subgraph on the given vertex set, relabelled in sorted order."""
    sub = sorted(set(vertices))
    if not sub:
        raise ValueError("empty vertex set")
    if any(not 0 <= v < g.n for v in sub):
        raise ValueError(f"vertices {sub} not all within 0..{g.n - 1}")
    pos = {v: i for i, v in enumerate(sub)}
    rows = [0] * len(sub)
    for i, v in enumerate(sub):
        for w in bits(g.adj[v]):
            if w in pos:
                rows[i] |= 1 << pos[w]
    return from_rows(len(sub), rows)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    return Graph(g.n, tuple(rows), comb(g.n, 2) - g.edge_count)


# ---------------------------------------------------------------------------
# Edge bounds


def mader_edge_cap(n: int, r: int) -> int:
    """Maximum edge count a graph on n vertices without a complete minor on r
    vertices can have: (r-2)n - C(r-1, 2) for r <= 7 (Mader 1968), and
    6n - 20 for r = 8 and n >= 8 (Jorgensen 1994), attained by
    K_{2,2,2,2,2}.  Raises ValueError for r > 8, where the bound has
    exceptional graphs and is not given by one formula."""
    if r > 8:
        raise ValueError(f"no edge cap for r={r} > 8")
    if r == 8:
        return 6 * n - 20
    return (r - 2) * n - comb(r - 1, 2)
