"""Exact minor containment by branch-set backtracking, plus the structural
subroutines built on it: apex augmentations and vertex connectivity.

A minor model of h in g assigns to every vertex of h a branch set: the sets
are disjoint, each induces a connected subgraph of g, and every edge of h is
realised by at least one host edge between the corresponding sets.  For a
non-complete pattern the search (_search_model) places branch sets one
pattern vertex at a time, enumerating candidate connected subsets of the
unused vertices and pruning on vertex budget and on required adjacency to
already-placed sets.  Complete minors have one search (_clique_model),
asked by kr_minor_verdict after its edge-count shortcuts and by has_minor
after a clique test: a greedy contraction probe that can only answer yes,
and only with a contraction model (see _contraction_probe); an exact peel
that only deletes low-degree simplicial vertices (see _peel_for_clique);
and last, on each component of what the peel leaves, read from the host's
own rows, a narrower search that is exact on its own, a component that is
a clique included: on a connected host the branch sets can be taken
to partition the vertices, and the next part is grown from the uncovered
vertex with the fewest uncovered neighbours (see _partition_model).  That
search also cuts every branch whose uncovered vertices have too few edges
to hold the parts still to place: a spanning tree in each and an edge
between each pair.  The bound is necessary for any completion, so it cuts
only branches that fail anyway, and the first model found is the same with
or without it.  No verdict is cached: the sweeps that ask the kernel no
longer ask about one class twice.  The apex sweep asks only about apex
subsets that its earlier answers do not settle: it grows every subset the
kernel finds minor-free into a maximal one, and a minor persists when the
subset grows, so the images of those maximal subsets answer all their
subsets.  Hosts stay at or below 16 vertices, where these exhaustive
searches are fast.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .canon import automorphisms, orbit
from .cliques import has_clique
from .graphs import Graph, bits, from_rows, mader_edge_cap

EXHAUSTIVE_HOST_LIMIT = 16
# the prune ids `generate.GenSpec` takes, kept here so that the CLI's parser
# can offer them without importing `generate`
PRUNE_IDS = ("none", "K4", "K5", "K6", "K7", "K8")


class MinorWitness(NamedTuple):
    """Branch-set model: branch_sets[i] realises pattern vertex i."""

    pattern: Graph
    branch_sets: tuple[frozenset[int], ...]


def validate_minor_witness(g: Graph, w: MinorWitness) -> None:
    """Independently re-check a witness against the model invariants;
    raise ValueError naming the first one it breaks.

    Deliberately shares nothing with the search: plain set/BFS arithmetic.
    """
    sets = [set(s) for s in w.branch_sets]
    if len(sets) != w.pattern.n:
        raise ValueError("not one branch set per pattern vertex")
    seen: set[int] = set()
    for s in sets:
        if not s:
            raise ValueError("empty branch set")
        if not all(0 <= v < g.n for v in s):
            raise ValueError("branch set outside host")
        if s & seen:
            raise ValueError("branch sets overlap")
        seen |= s
        # connectivity by BFS over explicit neighbour lists
        todo = [next(iter(s))]
        reached = {todo[0]}
        while todo:
            u = todo.pop()
            for v in s:
                if v not in reached and g.has_edge(u, v):
                    reached.add(v)
                    todo.append(v)
        if reached != s:
            raise ValueError("branch set not connected")
    for i in range(w.pattern.n):
        for j in range(i + 1, w.pattern.n):
            if w.pattern.has_edge(i, j) and not any(
                g.has_edge(u, v) for u in sets[i] for v in sets[j]
            ):
                raise ValueError(f"pattern edge ({i},{j}) not realised")


def _search_model(g: Graph, h: Graph) -> list[int] | None:
    """Branch-set masks realising h in g, or None.  has_minor sends only
    non-complete patterns here; complete ones go to _clique_model.

    Pruning: per-set growth budget from the remaining vertex pool, required
    adjacency to placed sets checked during growth, and placed sets that
    future pattern vertices must attach to keep a live frontier.
    """
    n, p = g.n, h.n
    if p > n or h.edge_count > g.edge_count:
        return None
    adj = g.adj
    order = sorted(range(p), key=lambda v: -h.adj[v].bit_count())
    req = [
        tuple(j for j in range(i) if h.adj[order[i]] >> order[j] & 1)
        for i in range(p)
    ]
    # attach_after[i][j]: bags at positions >= i that pattern-attach to bag j.
    # Remaining bags are disjoint vertex sets, so a placed bag j must keep at
    # least that many distinct free vertices in its host neighbourhood.
    attach_after = [[0] * p for _ in range(p + 1)]
    for i in range(p - 1, -1, -1):
        row_i = h.adj[order[i]]
        for j in range(p):
            attach_after[i][j] = attach_after[i + 1][j] + (
                1 if row_i >> order[j] & 1 else 0
            )
    sets: list[int] = [0] * p
    zones: list[int] = [0] * p  # host neighbourhood of each placed set

    def place(i: int, free: int) -> bool:
        if i == p:
            return True
        spare = free.bit_count() - (p - i)
        if spare < 0:
            return False
        cap_row = attach_after[i]
        for j in range(i):
            if (zones[j] & free).bit_count() < cap_row[j]:
                return False
        needed = [zones[j] for j in req[i]]
        cap_next = attach_after[i + 1]

        def grow(s_mask: int, nbhd: int, allowed: int, budget: int) -> bool:
            unmet = 0
            for z in needed:
                if not s_mask & z:
                    if not allowed & z:
                        return False
                    unmet += 1
            if not unmet:
                rest = free & ~s_mask
                ok = True
                for j in range(i):
                    if cap_next[j] and (zones[j] & rest).bit_count() < cap_next[j]:
                        # zones[j] is fixed and rest only shrinks: dead branch
                        return False
                zone_i = nbhd & ~s_mask
                if cap_next[i] and (zone_i & rest).bit_count() < cap_next[i]:
                    ok = False  # growing s may still enlarge its zone
                if ok:
                    sets[i] = s_mask
                    zones[i] = zone_i
                    if place(i + 1, rest):
                        return True
            if not budget:
                return False
            ext = nbhd & allowed & ~s_mask
            local = allowed
            while ext:
                low = ext & -ext
                ext ^= low
                local &= ~low
                x = low.bit_length() - 1
                if grow(s_mask | low, nbhd | adj[x], local, budget - 1):
                    return True
            return False

        starts = free
        while starts:
            low = starts & -starts
            starts ^= low
            s = low.bit_length() - 1
            higher = free & ~((1 << (s + 1)) - 1)
            if grow(low, adj[s], higher, spare):
                return True
        return False

    if place(0, (1 << n) - 1):
        out = [0] * p
        for i in range(p):
            out[order[i]] = sets[i]
        return out
    return None


def _partition_model(adj: tuple[int, ...], within: int, p: int) -> list[int] | None:
    """Branch-set masks of a complete minor on p vertices that partition the
    connected vertex set `within`, sorted by minimum vertex, or None when it
    has no such minor.

    A vertex outside every branch set can join a set it is adjacent to, so
    a connected host has the minor iff its vertices split into p connected,
    pairwise adjacent parts.  The parts still to place are interchangeable,
    so part i may be taken to hold any chosen uncovered vertex: the search
    branches on the one with the fewest uncovered neighbours, lowest first
    on a tie (fail-first), and grows the part over all the uncovered rest.
    The rest stays connected, since the parts still to place are pairwise
    adjacent; and every placed part keeps a neighbour in each of them.

    Edge-count bound: the `after` parts still to place once part i is
    split the uncovered rest `left` exactly, each connected and each
    adjacent to every other, so G[left] holds a spanning tree of every part
    and, for every pair of parts, an edge between them; these edges are all
    distinct, so e(left) >= |left| - after + C(after, 2).  The search keeps
    slack = e(left) - |left| + after - C(after, 2), starting from the edge
    count that the scan for the start vertex sums, and updating it as each
    vertex x moves from left into the part: e(left) falls by x's
    neighbours in left and |left| by one, so the slack rises by at most
    one.  A part is placed only at slack >= 0, and the search does not grow
    into a branch whose slack plus the vertices it may still take is
    negative.  The bound only cuts branches that cannot complete, so
    verdicts and the first model found are the same as without it.
    """
    if within.bit_count() < p:
        return None
    parts = [0] * p
    zones = [0] * p  # host neighbourhood of each placed part

    def place(i: int, rest: int) -> bool:
        if i == p - 1:
            parts[i] = rest
            return True
        after = p - 1 - i  # parts still to place once part i is
        placed = zones[:i]

        def grow(s: int, nbhd: int, allowed: int, budget: int, slack: int) -> bool:
            left = rest & ~s
            met = True
            for z in placed:
                if (z & left).bit_count() < after:
                    return False  # left only shrinks as s grows
                if not s & z:
                    if not allowed & z:
                        return False
                    met = False
            if (met and slack >= 0 and (nbhd & left).bit_count() >= after
                    and _reach(adj, left & -left, left) == left):
                parts[i] = s
                zones[i] = nbhd
                if place(i + 1, left):
                    return True
            if not budget:
                return False
            ext = nbhd & allowed
            local = allowed
            while ext:
                low = ext & -ext
                ext ^= low
                local &= ~low
                row = adj[low.bit_length() - 1]
                child = slack + 1 - (row & left).bit_count()
                # the child takes <= budget - 1 more vertices, each +1 slack at most
                if child + budget > 0 and grow(s | low, nbhd | row, local,
                                               budget - 1, child):
                    return True
            return False

        # the first vertex with the fewest uncovered neighbours; the scan
        # reads all of rest, since the degrees it sums are twice e(rest)
        size = rest.bit_count()
        start, fewest, degrees = 0, size, 0
        todo = rest
        while todo:
            low = todo & -todo
            todo ^= low
            d = (adj[low.bit_length() - 1] & rest).bit_count()
            degrees += d
            if d < fewest:
                start, fewest = low, d
        # slack of left = rest minus start: e(left) - |left| + after - C(after, 2)
        slack = degrees // 2 - fewest - size + 1 + after - comb(after, 2)
        return grow(start, adj[start.bit_length() - 1], rest & ~start,
                    size - after - 1, slack)

    if not place(0, within):
        return None
    return sorted(parts, key=lambda m: m & -m)


def _masks_to_witness(pattern: Graph, masks: list[int]) -> MinorWitness:
    return MinorWitness(pattern, tuple(frozenset(bits(m)) for m in masks))


def has_minor(g: Graph, h: Graph) -> MinorWitness | None:
    """Exhaustive exact test for h as a minor of g, with witness.

    For a complete pattern the witness is a clique of g when there is one,
    else the model _clique_model finds; either way the branch sets are
    ordered by minimum element.
    """
    if g.n > EXHAUSTIVE_HOST_LIMIT:
        raise ValueError(f"host has {g.n} > {EXHAUSTIVE_HOST_LIMIT} vertices")
    if h.edge_count < comb(h.n, 2):
        masks = _search_model(g, h)
    else:
        clique = has_clique(g, h.n)
        masks = (_clique_model(g, h.n) if clique is None
                 else [1 << v for v in sorted(clique)])
    return None if masks is None else _masks_to_witness(h, masks)


# Always empty: no verdict is cached.  The benchmark's child process and
# tracer still read it (a cold-start check and the memo counters); it goes
# with them when the benchmark is re-sized.
_KR_MEMO: dict[tuple[bytes, int], bool] = {}


def _reach(adj: tuple[int, ...], start: int, within: int) -> int:
    """Mask of the vertices of `within` reachable from the mask `start`."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def _peel_for_clique(g: Graph, r: int) -> int:
    """Mask of the vertices of g left after deleting, while any is left, a
    simplicial vertex v of degree <= r - 2 (its live neighbours form a
    clique, as any of degree <= 1 do); the mask may be empty.  g has a
    complete minor on r vertices iff the survivors do: a branch set that is
    v alone reaches at most r - 2 others, and a larger one stays connected
    without v, and keeps each of v's adjacencies, through the clique on
    N(v).
    """
    rows = g.adj
    alive = (1 << g.n) - 1
    changed = True
    while changed:
        changed = False
        m = alive
        while m:
            low = m & -m
            m ^= low
            row = rows[low.bit_length() - 1] & alive
            if row.bit_count() <= r - 2 and _is_clique(rows, row):
                alive ^= low
                changed = True
    return alive


def _is_clique(rows: tuple[int, ...], mask: int) -> bool:
    """Whether the vertices of `mask` are pairwise adjacent in `rows`."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        if mask & ~rows[low.bit_length() - 1] != low:
            return False
    return True


def _contraction_probe(g: Graph, r: int) -> list[int] | None:
    """Branch-set masks of a complete minor on r vertices found by greedy
    contraction, or None when the greedy run ends on a smaller clique.

    Repeatedly takes the live vertex of minimum degree, lowest first: with
    no live neighbour it is deleted, else it is contracted into the
    neighbour that shares the fewest neighbours with it (lowest on a tie),
    and its branch set joins that neighbour's.  Once the live vertices form
    a clique, r of them realise the minor.  Every step is a deletion or a
    contraction, so a returned model is always one; None proves nothing.
    """
    rows = list(g.adj)
    sets = [1 << v for v in range(g.n)]
    alive = (1 << g.n) - 1
    live = g.n
    while live >= r:
        v, fewest = 0, live
        m = alive
        while m:
            low = m & -m
            m ^= low
            d = (rows[low.bit_length() - 1] & alive).bit_count()
            if d < fewest:
                v, fewest = low.bit_length() - 1, d
        if fewest == live - 1:  # every live vertex sees all the others
            return [sets[u] for u in bits(alive)[:r]]
        alive ^= 1 << v
        live -= 1
        row = rows[v] & alive
        if not row:
            continue
        u, shared = 0, live
        m = row
        while m:
            low = m & -m
            m ^= low
            c = (rows[low.bit_length() - 1] & row).bit_count()
            if c < shared:
                u, shared = low.bit_length() - 1, c
        sets[u] |= sets[v]
        rows[u] |= row & ~(1 << u)
        m = row & ~(1 << u)
        while m:
            low = m & -m
            m ^= low
            rows[low.bit_length() - 1] |= 1 << u
    return None


def _clique_model(g: Graph, r: int) -> list[int] | None:
    """Branch-set masks of a complete minor on r vertices in g, sorted by
    minimum vertex, or None when g has none: the contraction probe's model,
    else a partition model of one component of what the peel leaves.  The
    partition search reads g's own rows, masked to the component, so its
    model is already one in g."""
    masks = _contraction_probe(g, r)
    if masks is None:
        left = _peel_for_clique(g, r)
        while masks is None and left:
            comp = _reach(g.adj, left & -left, left)
            left &= ~comp
            masks = _partition_model(g.adj, comp, r)
    return None if masks is None else sorted(masks, key=lambda m: m & -m)


def kr_minor_verdict(g: Graph, r: int) -> bool:
    """Does g have a complete minor on r vertices?

    False when g has fewer than C(r, 2) edges, as every graph on fewer
    than r >= 2 vertices has; True when it is over the minor-free edge cap,
    which answers every r <= 2; otherwise whether _clique_model finds a
    model.  Raises ValueError for r < 1.
    """
    if r < 1:
        raise ValueError(f"no complete minor on r={r} < 1 vertices")
    if g.edge_count < comb(r, 2):
        return False
    if r <= 7 and g.edge_count > mader_edge_cap(g.n, r):
        return True  # over the minor-free edge cap, a model must exist
    return _clique_model(g, r) is not None


def attach_vertex(g: Graph, neighbourhood) -> Graph:
    """g plus one new vertex (label n) joined to the given vertices."""
    rows = list(g.adj) + [0]
    for v in neighbourhood:
        rows[v] |= 1 << g.n
        rows[g.n] |= 1 << v
    return from_rows(g.n + 1, rows)


def apex_augment_check(
    g: Graph, k_max: int, r: int, candidates: tuple[int, ...] | None = None
):
    """Subsets S (|S| <= k_max) for which g plus a new vertex joined to S has
    no complete minor on r vertices, by size, each size in lexicographic
    order.

    candidates restricts the universe the subsets are drawn from (default:
    all vertices of g); subsets follow its order.

    A minor for S persists for every superset, and an automorphism of g
    that keeps the universe maps S to a subset with the same verdict.  So a
    subset inside an image of a set known to have no minor has none, and
    one holding an image of a set known to have a minor has one; the kernel
    is asked only about the rest, never twice about one set.  The walk
    takes every subset, size by size: one holding a smaller subset with a
    minor is answered by the known sets, since that subset was answered
    first and either went to the kernel or held a known one itself.  A size
    with no survivors ends the walk, as every larger subset holds one of
    its subsets.  When the kernel finds no minor for S, S is
    grown to a maximal such set M of at most k_max vertices: each candidate
    outside it, in universe order, is kept while the set stays minor-free.
    The images of M then answer every subset of them with no query (the
    maximal negatives of Dualize and Advance: Gunopulos et al., ACM TODS
    28, 2003).  The known sets are kept as lists of masks, not expanded.
    """
    if g.n + 1 > EXHAUSTIVE_HOST_LIMIT:
        raise ValueError(f"augmented host would exceed {EXHAUSTIVE_HOST_LIMIT} vertices")
    universe = tuple(range(g.n)) if candidates is None else tuple(candidates)
    rest = [v for v in range(g.n) if v not in universe]
    gens = automorphisms(g, [c for c in (list(universe), rest) if c])
    free: list[int] = []  # images of maximal sets with no minor
    minor: list[int] = []  # images of sets asked about that have a minor

    def has_minor_at(mask: int, grow: bool = True) -> bool:
        # the known sets first, then the kernel; a step of a growth
        # (grow=False) records no minor-free set, since the grown one holds it
        for m in free:
            if not mask & ~m:
                return False
        for m in minor:
            if not m & ~mask:
                return True
        if kr_minor_verdict(attach_vertex(g, bits(mask)), r):
            minor.extend(orbit(mask, gens))
            return True
        if grow:
            size = mask.bit_count()
            for v in universe:
                if (size < k_max and not mask >> v & 1
                        and not has_minor_at(mask | 1 << v, grow=False)):
                    mask |= 1 << v
                    size += 1
            free.extend(orbit(mask, gens))
        return False

    survivors: dict[int, list[tuple[int, ...]]] = {}
    for k in range(1, k_max + 1):
        level = [subset for subset in combinations(universe, k)
                 if not has_minor_at(sum(1 << v for v in subset))]
        if not level:
            break
        survivors[k] = level
    return survivors


def double_apex_check(h: Graph, r: int = 8) -> tuple[int, ...] | None:
    """The first proper 7-subset Y of V(h) for which h plus a vertex joined
    to all of h and a second vertex joined to Y has no complete minor on r
    vertices, or None when every such Y yields one.

    An automorphism of h maps Y to a subset with the same verdict, so a Y in
    the orbit of one already asked is skipped: every one asked so far had
    the minor, so the first Y asked without it is still the first overall.
    """
    if h.n + 2 > EXHAUSTIVE_HOST_LIMIT:
        raise ValueError(f"augmented host would exceed {EXHAUSTIVE_HOST_LIMIT} vertices")
    if h.n <= 7:
        return None  # Y must be a proper subset
    gens = automorphisms(h, [list(range(h.n))])
    apex = attach_vertex(h, range(h.n))
    asked: set[int] = set()
    for y in combinations(range(h.n), 7):
        mask = sum(1 << v for v in y)
        if mask in asked:
            continue
        if not kr_minor_verdict(attach_vertex(apex, y), r):
            return y
        asked |= orbit(mask, gens)
    return None


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity; n-1 for complete graphs, 0 if disconnected.

    Connectivity is at most the minimum degree: the neighbours of a vertex
    of least degree separate it from any non-neighbour, and a complete graph
    has none.  So the flows start capped there.  A disconnected graph needs
    no test of its own: a pair in different components has no path, so its
    flow is 0.
    """
    best = g.min_degree()
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if not g.has_edge(s, t):
                best = min(best, _max_vertex_flow(g, s, t, best))
    return best


def _max_vertex_flow(g: Graph, s: int, t: int, cap: int) -> int:
    """Internally disjoint s-t paths, up to cap, by augmenting paths in the
    split digraph: vertex v becomes the arc v_in -> v_out (capacity one,
    unbounded at s and t) and edge uv the arcs u_out -> v_in, v_out -> u_in.
    flow[u] masks the w with a unit on u_out -> w_in; `full` masks the
    vertices whose own arc carries one.  Node (v, 0) is v_in, (v, 1) v_out.

    The flow starts from the paths s-w-t through the common neighbours w of
    s and t; augmenting from any valid flow still reaches the maximum.
    """
    common = g.adj[s] & g.adj[t]
    seeded = common.bit_count()
    if seeded >= cap:
        return cap
    flow = [0] * g.n
    flow[s] = common
    for w in bits(common):
        flow[w] = 1 << t
    full = common
    for paths in range(seeded, cap):
        back = {(s, 1): None}  # BFS tree from s_out: node -> parent
        queue = [(s, 1)]
        for v, side in queue:
            if side:
                steps = [(w, 0) for w in bits(g.adj[v] & ~flow[v])]
                if full >> v & 1:
                    steps.append((v, 0))
            else:
                steps = [(u, 1) for u in bits(g.adj[v]) if flow[u] >> v & 1]
                if not full >> v & 1:
                    steps.append((v, 1))
            for node in steps:
                if node not in back:
                    back[node] = (v, side)
                    queue.append(node)
            if (t, 0) in back:
                break
        else:
            return paths
        node = (t, 0)
        while back[node] is not None:
            (a, side), (b, _) = back[node], node
            if a == b:
                full ^= 1 << a  # the vertex arc, forwards or back
            elif side:
                flow[a] |= 1 << b
            else:
                flow[b] &= ~(1 << a)  # cancel the unit on b_out -> a_in
            node = back[node]
    return cap
