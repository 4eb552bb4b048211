"""Canonical certificates deciding isomorphism for small graphs.

The certificate is the lexicographically minimal row-major upper triangle
over all vertex orderings compatible with iterated neighbourhood
refinement: refine an ordered partition to stability, branch on every
vertex of the first non-singleton cell, and keep the minimal leaf.  The
minimum ranges over a full coset of the automorphism group, so equal
certificates are exactly isomorphic graphs.  Graphs stay tiny here (the
hot paths are at most 16 vertices), which keeps full branching affordable
and auditable.
"""

from __future__ import annotations

from math import comb

from .graphs import Graph


def _mask(cell: list[int]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(
    adj: tuple[int, ...], cells: list[list[int]], splitters: list[list[int]] | None = None
) -> list[list[int]]:
    """Split cells by neighbour counts until stable, keeping order.

    Each round groups the vertices of every cell by their numbers of
    neighbours in each splitter, in partition order, and puts the groups in
    the order of those counts.  The first round's splitters are `splitters`,
    or every cell when it is None; each later round's are the parts of the
    cells the round before split, less the last part of each.  That gives
    the same ordered partition as counting into every cell each round: a
    count into a cell no round split is constant on every cell, and the
    last part's count is its parent cell's count, constant on every cell,
    less the counts into the parts before it, so neither can separate or
    reorder two groups.  Pass `[[v]]` after individualising v out of an
    equitable partition.
    """
    if splitters is None:
        splitters = cells
    while splitters:
        masks = [_mask(c) for c in splitters]
        out: list[list[int]] = []
        splitters = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                # the counts as 7-bit digits of one integer: a count is at
                # most 63, so the integers order as the tuples of counts do
                row = adj[v]
                sig = 0
                for m in masks:
                    sig = sig << 7 | (row & m).bit_count()
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
                continue
            parts = [groups[sig] for sig in sorted(groups)]
            out.extend(parts)
            splitters.extend(parts[:-1])
        cells = out
    return cells


def _triangle_key(adj: tuple[int, ...], lab: list[int]) -> int:
    """Row-major upper-triangle bits of the relabelled matrix, as one integer."""
    key = 0
    for i, vi in enumerate(lab):
        row = adj[vi]
        for vj in lab[i + 1:]:
            key = key << 1 | (row >> vj & 1)
    return key


def _transposition(n: int, a: int, b: int) -> list[int]:
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return perm


def _min_key(g: Graph, cells: list[list[int]], autos: list[list[int]] | None = None) -> int:
    """Minimal triangle key over all refinement-compatible orderings.

    Each search node holds an equitable ordered partition; a branch splits
    a vertex v off the first non-singleton cell and refines with v alone as
    the splitter, since counts into every other cell, and into the rest of
    v's old cell, are already constant on each cell.

    When `autos` is a list, permutations generating the automorphisms of g
    that preserve the initial cells are appended to it: the map from the
    best leaf to each later leaf with an equal key, and the transposition
    of each twin skipped by twin pruning with the twin that was kept.
    Together they generate the group, because the minimal leaves form one
    coset of it and every pruned subtree is a twin transposition's image of
    a searched one.
    """
    nbits = comb(g.n, 2)
    if g.edge_count in (0, nbits):
        if autos is not None:
            # every permutation inside a cell is an automorphism
            for cell in cells:
                autos.extend(_transposition(g.n, a, b) for a, b in zip(cell, cell[1:]))
        return 0 if g.edge_count == 0 else (1 << nbits) - 1
    adj = g.adj
    best: int | None = None
    best_lab: list[int] = []

    def rec(cells: list[list[int]]) -> None:
        nonlocal best, best_lab
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            lab = [c[0] for c in cells]
            key = _triangle_key(adj, lab)
            if best is None or key < best:
                best, best_lab = key, lab
            elif key == best and autos is not None:
                perm = [0] * g.n
                for a, b in zip(best_lab, lab):
                    perm[a] = b
                autos.append(perm)
            return
        rest = cells[idx]
        tail = cells[idx + 1:]
        head = cells[:idx]
        # twins are exchanged by an automorphism (equal open neighbourhoods,
        # or equal closed neighbourhoods when adjacent), so one branch per
        # twin class still reaches every minimal leaf
        seen_open: dict[int, int] = {}
        seen_closed: dict[int, int] = {}
        for v in rest:
            open_sig = adj[v]
            closed_sig = adj[v] | 1 << v
            kept = seen_open.get(open_sig, seen_closed.get(closed_sig))
            if kept is not None:
                if autos is not None:
                    autos.append(_transposition(g.n, v, kept))
                continue
            seen_open[open_sig] = v
            seen_closed[closed_sig] = v
            other = [w for w in rest if w != v]
            rec(_refine(adj, head + [[v], other] + tail, [[v]]))

    rec(_refine(adj, cells))
    assert best is not None
    return best


def canonical_cert(g: Graph) -> bytes:
    """Relabelling-invariant certificate: n, then the minimal triangle bits."""
    key = _min_key(g, [list(range(g.n))])
    nbytes = (comb(g.n, 2) + 7) // 8
    return bytes([g.n]) + key.to_bytes(nbytes, "big")


def pair_cert(g: Graph, u: int, v: int) -> bytes:
    """Certificate of g with the pair {u, v} distinguished.

    Equal results for pairs {u,v} and {x,y} of the same graph mean some
    automorphism maps one pair onto the other, so this groups edges (or
    non-edges) into automorphism orbits.
    """
    rest = [w for w in range(g.n) if w != u and w != v]
    cells = [[u, v]] + ([rest] if rest else [])
    key = _min_key(g, cells)
    nbytes = (comb(g.n, 2) + 7) // 8
    return key.to_bytes(nbytes, "big")


def automorphisms(g: Graph, cells: list[list[int]]) -> list[tuple[int, ...]]:
    """Distinct permutations generating the automorphisms of g that map
    every cell onto itself, from one canonical search.

    `cells` partitions V(g) into non-empty lists; perm[v] is the image of v.
    """
    autos: list[list[int]] = []
    _min_key(g, cells, autos)
    # searches often reach one automorphism along several leaves
    return list(dict.fromkeys(map(tuple, autos)))


def pair_orbits(g: Graph, pairs: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Automorphism orbits of the vertex pairs `pairs`, from one search.

    `pairs` must be closed under the automorphisms of g (all edges, all
    non-edges, or all pairs, say).  Each orbit lists its pairs in input
    order, and the orbits come in the order of their first pair.
    """
    autos = automorphisms(g, [list(range(g.n))])
    index = {pair: i for i, pair in enumerate(pairs)}
    seen = [False] * len(pairs)
    orbits: list[list[tuple[int, int]]] = []
    for start in range(len(pairs)):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        for i in members:
            u, v = pairs[i]
            for perm in autos:
                a, b = perm[u], perm[v]
                j = index[(a, b) if a < b else (b, a)]
                if not seen[j]:
                    seen[j] = True
                    members.append(j)
        orbits.append([pairs[i] for i in sorted(members)])
    return orbits


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_cert(g) == canonical_cert(h)
