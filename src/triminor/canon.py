"""Canonical certificates deciding isomorphism for small graphs.

The certificate is the lexicographically minimal row-major upper triangle
over all vertex orderings compatible with iterated neighbourhood
refinement: refine an ordered partition to stability, branch on the
vertices of the first non-singleton cell, and keep the minimal leaf.  A
node whose non-singleton cells are all twin classes is a leaf already,
since every order inside a twin class gives the same key.  The minimum
ranges over a full coset of the automorphism group, so equal certificates
are exactly isomorphic graphs.  The search prunes only subtrees that an
automorphism it has already met maps onto searched ones, so the minimum
does not change.  The automorphism group has a search of its own over the
same tree: it compares each leaf with the first one by the adjacency
rows, builds no certificate, and cuts the nodes whose cell sizes differ
from the first path's; the permutations it meets generate the group.
Graphs stay tiny here (the hot paths are at most 16 vertices), which
keeps both searches affordable and auditable.
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


def _twin_classes(adj: tuple[int, ...], cells: list[list[int]], start: int) -> bool:
    """Whether every cell from index `start` on with more than one vertex is
    a class of twins: all its vertices have one open neighbourhood, or one
    closed neighbourhood."""
    for cell in cells[start:]:
        if len(cell) > 1:
            row = adj[cell[0]]
            for v in cell:
                if adj[v] != row:
                    break
            else:
                continue
            row |= 1 << cell[0]
            for v in cell:
                if adj[v] | 1 << v != row:
                    return False
    return True


def _preserves_rows(adj: tuple[int, ...], perm: list[int]) -> bool:
    """Whether the bijection perm maps every edge of the graph onto an edge,
    so, edges being finite, is an automorphism."""
    for a, row in enumerate(adj):
        image = adj[perm[a]]
        row &= ~((2 << a) - 1)
        while row:
            low = row & -row
            row ^= low
            if not image >> perm[low.bit_length() - 1] & 1:
                return False
    return True


def _search(
    adj: tuple[int, ...], cells: list[list[int]], group: bool
) -> tuple[int, list[list[int]]]:
    """Search the refinement tree below the equitable ordered partition
    `cells`; return the key of the best leaf (-1 for the group search) and
    the automorphisms met.

    Each search node holds an equitable ordered partition; a branch splits
    a vertex v off the first non-singleton cell and refines with v alone as
    the splitter, since counts into every other cell, and into the rest of
    v's old cell, are already constant on each cell.  A node whose
    non-singleton cells are all twin classes is a leaf, labelled by its
    cells in order: every order inside a twin class is the image of an
    automorphism that fixes the rest, so every leaf below the node has the
    same key, and the consecutive transpositions of each class generate
    those automorphisms.

    The two searches differ in what a leaf is compared with, because they
    want different things from the tree.  The certificate search (`group`
    false) needs the minimal leaf, so it builds the triangle key of every
    leaf, keeps the least, and records the map from it to each later leaf
    with an equal key.  The group search needs only one leaf per coset of
    the group, so it keeps the first leaf, records the map from it to each
    later leaf that preserves every adjacency row, and builds no key.  An
    image of the first leaf lies on a path whose partitions have, depth by
    depth, the cell sizes of the first path's, so the group search also cuts
    each node whose cell sizes differ from those of the first-path node at
    its depth, or that lies deeper than the first leaf (McKay, "Practical
    graph isomorphism", 1981).

    Both searches record the automorphisms they meet and prune by them
    (McKay & Piperno, "Practical graph isomorphism, II", 2014): the maps
    between leaves, and the transpositions of twins, one for each twin
    skipped by twin pruning and for consecutive vertices of each twin class
    at a leaf, unless those recorded already join the two twins.  A branch
    on v is skipped when a recorded automorphism that fixes every vertex
    individualised above the node maps v onto a sibling already searched or
    skipped; and a leaf that meets an automorphism returns the search to the
    deepest node whose individualised vertices it fixes, since the
    automorphism maps a searched sibling's subtree onto the one being
    searched.  Either way the skipped subtree is the image of a searched
    one with the same leaf keys, so the minimal key does not change.  The
    group search's permutations generate the automorphisms that preserve
    the cells: at each node of the first path, each child in the orbit of
    the first path's child is reached by a product of recorded permutations
    that fix the node's individualised vertices, and the first leaf's own
    stabiliser is generated by its twin transpositions.  No permutation is
    recorded twice.
    """
    n = len(adj)
    everyone = (1 << n) - 1
    # each automorphism met so far, with the mask of the vertices it fixes
    found: list[tuple[list[int], int]] = []
    # the vertices that the recorded twin transpositions join, by label
    joined = list(range(n))
    # the cell sizes of the first path's nodes, by depth (group search)
    shapes: list[list[int]] = []
    ref: list[int] = []  # the leaf the others are compared with
    best = -1  # its key (certificate search)
    # the fixed-point mask of the automorphism a leaf just met, until the
    # search is back at the deepest node whose individualised vertices it fixes
    jump: int | None = None

    def record_twins(a: int, b: int) -> None:
        old, new = joined[b], joined[a]
        if old != new:
            for v in range(n):
                if joined[v] == old:
                    joined[v] = new
            found.append((_transposition(n, a, b), everyone ^ (1 << a | 1 << b)))

    def leaf(cells: list[list[int]]) -> None:
        nonlocal ref, best, jump
        lab = []
        for cell in cells:
            lab += cell
            if len(cell) > 1:
                for a, b in zip(cell, cell[1:]):
                    record_twins(a, b)
        if group:
            if not ref:
                ref = lab
                return
        else:
            key = _triangle_key(adj, lab)
            if not ref or key < best:
                ref, best = lab, key
                return
            if key > best:
                return
        perm = [0] * n
        fixed = 0
        for a, b in zip(ref, lab):
            perm[a] = b
            if a == b:
                fixed |= 1 << a
        if group and not _preserves_rows(adj, perm):
            return
        found.append((perm, fixed))
        jump = fixed

    def rec(cells: list[list[int]], path: int, depth: int) -> None:
        nonlocal jump
        if group:
            shape = list(map(len, cells))
            if not ref:
                shapes.append(shape)
            elif depth >= len(shapes) or shape != shapes[depth]:
                return
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            leaf(cells)
            return
        if _twin_classes(adj, cells, idx):
            leaf(cells)
            return
        rest = cells[idx]
        tail = cells[idx + 1:]
        head = cells[:idx]
        # twins are exchanged by an automorphism (equal open neighbourhoods,
        # or equal closed neighbourhoods when adjacent), so one branch per
        # twin class meets every leaf key
        seen_open: dict[int, int] = {}
        seen_closed: dict[int, int] = {}
        searched = 0
        for v in rest:
            open_sig = adj[v]
            closed_sig = adj[v] | 1 << v
            kept = seen_open.get(open_sig, seen_closed.get(closed_sig))
            if kept is not None:
                record_twins(v, kept)
                continue
            seen_open[open_sig] = v
            seen_closed[closed_sig] = v
            # a sibling skipped below is the image of a searched one, so it
            # counts as searched for the siblings after it
            for perm, fixed in found:
                if fixed & path == path and searched >> perm[v] & 1:
                    break
            else:
                other = rest[:]
                other.remove(v)
                rec(_refine(adj, head + [[v], other] + tail, [[v]]), path | 1 << v, depth + 1)
                if jump is not None:
                    if jump & path != path:
                        return
                    jump = None
            searched |= 1 << v

    rec(cells, 0, 0)
    return best, [perm for perm, _ in found]


def _min_key(g: Graph, cells: list[list[int]]) -> int:
    """Minimal triangle key over all refinement-compatible orderings (the
    certificate search of `_search`)."""
    return _search(g.adj, _refine(g.adj, cells), False)[0]


def canonical_cert(g: Graph) -> bytes:
    """Relabelling-invariant certificate: n, then the minimal triangle bits."""
    key = _min_key(g, [list(range(g.n))])
    nbytes = (comb(g.n, 2) + 7) // 8
    return bytes([g.n]) + key.to_bytes(nbytes, "big")


def cell_positions(g: Graph) -> list[int]:
    """The index of each vertex's cell in the stable refinement of the unit
    partition, the root of every canon search.  Refinement orders its cells
    by neighbour counts alone, so an isomorphism maps each vertex to one
    with the same index."""
    pos = [0] * g.n
    for i, cell in enumerate(_refine(g.adj, [list(range(g.n))])):
        for v in cell:
            pos[v] = i
    return pos


def _pair_cells(n: int, u: int, v: int) -> list[list[int]]:
    rest = [w for w in range(n) if w != u and w != v]
    return [[u, v]] + ([rest] if rest else [])


def pair_cert(g: Graph, u: int, v: int) -> bytes:
    """Certificate of g with the pair {u, v} distinguished.

    Equal results for pairs {u,v} and {x,y} of the same graph mean some
    automorphism maps one pair onto the other, so this groups edges (or
    non-edges) into automorphism orbits.  The results for one graph have
    one length, so they compare as their keys do.
    """
    key = _min_key(g, _pair_cells(g.n, u, v))
    nbytes = (comb(g.n, 2) + 7) // 8
    return key.to_bytes(nbytes, "big")


def automorphisms(
    g: Graph, cells: list[list[int]], refined: bool = False
) -> list[tuple[int, ...]]:
    """A small set of distinct permutations generating the automorphisms of
    g that map every cell onto itself: those the group search of `_search`
    meets, at most one per skipped branch, returning leaf or pair of twins
    it joins.  It compares each leaf with the first by its adjacency rows,
    and builds no certificate.

    `cells` partitions V(g) into non-empty lists; perm[v] is the image of v.
    The search starts from the stable refinement of `cells`; pass
    `refined=True` when they are that already (as `cell_positions` gives
    them, grouped by position), and they are not refined again.
    """
    if not refined:
        cells = _refine(g.adj, cells)
    return [tuple(perm) for perm in _search(g.adj, cells, True)[1]]


def _subset_orbit(mask: int, gens: list[tuple[int, ...]]) -> set[int]:
    seen = {mask}
    todo = [mask]
    while todo:
        s = todo.pop()
        for perm in gens:
            image, m = 0, s
            while m:
                low = m & -m
                m ^= low
                image |= 1 << perm[low.bit_length() - 1]
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def _pair_orbit(mask: int, gens: list[tuple[int, ...]]) -> set[int]:
    seen = {mask}
    todo = [mask]
    while todo:
        s = todo.pop()
        a = (s & -s).bit_length() - 1
        b = s.bit_length() - 1
        for perm in gens:
            image = 1 << perm[a] | 1 << perm[b]
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def orbit(mask: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The orbit of the vertex subset `mask` (a bitmask) under the group that
    the permutations `gens` generate, as bitmasks; perm[v] is the image of
    v, as `automorphisms` returns them.  A two-vertex mask is walked by
    mapping its two ends directly; a larger one bit by bit."""
    if gens and 2 * mask.bit_count() > len(gens[0]):
        # each permutation maps the complement onto the image's complement,
        # and the complement has fewer vertices to map
        everyone = (1 << len(gens[0])) - 1
        return {everyone ^ s for s in orbit(everyone ^ mask, gens)}
    if mask.bit_count() == 2:
        return _pair_orbit(mask, gens)
    return _subset_orbit(mask, gens)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_cert(g) == canonical_cert(h)
