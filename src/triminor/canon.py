"""Canonical certificates deciding isomorphism for small graphs.

The certificate is the lexicographically minimal row-major upper triangle
over all vertex orderings compatible with iterated neighbourhood
refinement: refine an ordered partition to stability, branch on the
vertices of the first non-singleton cell, and keep the minimal leaf.  The
minimum ranges over a full coset of the automorphism group, so equal
certificates are exactly isomorphic graphs.  The search prunes only
subtrees that an automorphism it has already met maps onto searched ones,
so it still meets that whole coset up to those automorphisms, and the ones
it met generate the group.  Graphs stay tiny here (the hot paths are at
most 16 vertices), which keeps the search affordable and auditable.
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


def _min_key(
    g: Graph,
    cells: list[list[int]],
    autos: list[list[int]] | None = None,
    bound: int = -1,
) -> int:
    """Minimal triangle key over all refinement-compatible orderings, or
    the key of the first leaf at or below `bound`, where the search stops.

    Each search node holds an equitable ordered partition; a branch splits
    a vertex v off the first non-singleton cell and refines with v alone as
    the splitter, since counts into every other cell, and into the rest of
    v's old cell, are already constant on each cell.

    The search records the automorphisms it meets: the map from the best
    leaf to each later leaf with an equal key, and the transposition of
    each twin skipped by twin pruning with the twin that was kept.  It
    prunes by them (McKay & Piperno, "Practical graph isomorphism, II",
    2014).  A branch on v is skipped when a recorded automorphism that
    fixes every vertex individualised above the node maps v onto a sibling
    already searched; and a leaf that meets an automorphism returns the
    search to the deepest node whose individualised vertices it fixes,
    since the automorphism maps a searched sibling's subtree onto the one
    being searched.  Either way the skipped subtree is the image of a
    searched one with the same leaf keys, so neither the minimal key nor
    the first leaf at or below `bound` changes.  When `autos` is a list,
    the recorded permutations are appended to it; they generate the
    automorphisms of g that preserve the initial cells, because the
    minimal leaves form one coset of that group and every skipped subtree
    is a recorded automorphism's image of a searched one.  A search that
    stops at `bound` may not have met every minimal leaf, so give `bound`
    only without `autos`.
    """
    nbits = comb(g.n, 2)
    if g.edge_count in (0, nbits):
        if autos is not None:
            # every permutation inside a cell is an automorphism
            for cell in cells:
                autos.extend(_transposition(g.n, a, b) for a, b in zip(cell, cell[1:]))
        return 0 if g.edge_count == 0 else (1 << nbits) - 1
    adj = g.adj
    everyone = (1 << g.n) - 1
    best: int | None = None
    best_lab: list[int] = []
    # each automorphism met so far, with the mask of the vertices it fixes
    found: list[tuple[list[int], int]] = []
    # the fixed-point mask of the automorphism a leaf just met, until the
    # search is back at the deepest node whose individualised vertices it fixes
    jump: int | None = None

    def rec(cells: list[list[int]], path: int) -> None:
        nonlocal best, best_lab, jump
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            lab = [c[0] for c in cells]
            key = _triangle_key(adj, lab)
            if best is None or key < best:
                best, best_lab = key, lab
            elif key == best:
                perm = [0] * g.n
                fixed = 0
                for a, b in zip(best_lab, lab):
                    perm[a] = b
                    if a == b:
                        fixed |= 1 << a
                found.append((perm, fixed))
                jump = fixed
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
                found.append((_transposition(g.n, v, kept), everyone ^ (1 << v | 1 << kept)))
                continue
            if any(searched >> perm[v] & 1 for perm, fixed in found if fixed & path == path):
                continue
            seen_open[open_sig] = v
            seen_closed[closed_sig] = v
            other = [w for w in rest if w != v]
            rec(_refine(adj, head + [[v], other] + tail, [[v]]), path | 1 << v)
            if jump is not None:
                if jump & path != path:
                    return
                jump = None
            searched |= 1 << v
            if best <= bound:
                return

    rec(_refine(adj, cells), 0)
    assert best is not None
    if autos is not None:
        autos.extend(perm for perm, _ in found)
    return best


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
    non-edges) into automorphism orbits.
    """
    key = _min_key(g, _pair_cells(g.n, u, v))
    nbytes = (comb(g.n, 2) + 7) // 8
    return key.to_bytes(nbytes, "big")


def pair_cert_below(g: Graph, u: int, v: int, cert: bytes) -> bool:
    """Whether pair_cert(g, u, v) < cert, where cert is the pair certificate
    of another pair {x, y} of g.

    The search stops at its first leaf at or below cert.  A smaller leaf
    answers yes.  An equal one answers no, and puts {u, v} in the orbit of
    {x, y}: both leaves put the pair first, so mapping the leaf of cert
    onto it is an automorphism taking {x, y} to {u, v}.
    """
    bound = int.from_bytes(cert, "big")
    return _min_key(g, _pair_cells(g.n, u, v), bound=bound) < bound


def automorphisms(g: Graph, cells: list[list[int]]) -> list[tuple[int, ...]]:
    """A small set of distinct permutations generating the automorphisms of
    g that map every cell onto itself: those one pruned canonical search
    meets (see `_min_key`), at most one per skipped branch or returning
    leaf.

    `cells` partitions V(g) into non-empty lists; perm[v] is the image of v.
    """
    autos: list[list[int]] = []
    _min_key(g, cells, autos)
    # twin pruning can meet one transposition at several nodes
    return list(dict.fromkeys(map(tuple, autos)))


def orbit(mask: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The orbit of the vertex subset `mask` (a bitmask) under the group that
    the permutations `gens` generate, as bitmasks; perm[v] is the image of
    v, as `automorphisms` returns them."""
    if gens and 2 * mask.bit_count() > len(gens[0]):
        # each permutation maps the complement onto the image's complement,
        # and the complement has fewer vertices to map
        everyone = (1 << len(gens[0])) - 1
        return {everyone ^ s for s in orbit(everyone ^ mask, gens)}
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


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_cert(g) == canonical_cert(h)
