import itertools
import random
from math import comb

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_graphs_on,
    graph_from_code,
    isomorphic_brute,
    orbit_classes_on,
    random_graph_for_tests,
    subset_orbits_brute,
)
from triminor import canon
from triminor.canon import (
    _refine,
    _search,
    automorphisms,
    canonical_cert,
    cell_positions,
    is_isomorphic,
    orbit,
    pair_cert,
)
from triminor.generate import orderly_stream
from triminor.graph6 import parse_graph6
from triminor.graphs import (
    complement,
    complete,
    complete_multipartite,
    double_axle_wheel,
    make_graph,
    petersen,
    petersen_complement,
)
from triminor.minors import attach_vertex
from triminor.verify import load_corpus


def _relabel(g, perm):
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_cycle_relabelling_invariance():
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    base = canonical_cert(c5)
    for perm in itertools.permutations(range(5)):
        assert canonical_cert(_relabel(c5, perm)) == base


def test_path_vs_star():
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_cert(p4) != canonical_cert(star)


def test_isomorphic_examples():
    assert is_isomorphic(petersen_complement(), complement(petersen()))
    assert is_isomorphic(double_axle_wheel(4), complete_multipartite(2, 2, 2))
    assert isomorphic_brute(double_axle_wheel(4), complete_multipartite(2, 2, 2))
    c6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert not is_isomorphic(complete_multipartite(3, 3), c6)


def test_cert_deterministic():
    g = petersen()
    assert canonical_cert(g) == canonical_cert(g)


def test_all_six_vertex_graphs_have_156_certs_matching_orbits():
    classes, labels = orbit_classes_on(6)
    assert classes == 156
    cert_by_class: dict[int, bytes] = {}
    seen_certs: dict[bytes, int] = {}
    for code in range(1 << 15):
        cert = canonical_cert(graph_from_code(6, code))
        cls = labels[code]
        assert cert_by_class.setdefault(cls, cert) == cert, "cert differs inside a class"
        assert seen_certs.setdefault(cert, cls) == cls, "cert collides across classes"
    assert len(cert_by_class) == 156


def test_cert_equals_brute_isomorphism_on_random_pairs():
    rng = random.Random(99)
    trials = 10_000
    agree = 0
    for t in range(trials):
        n = rng.randint(1, 7)
        g = random_graph_for_tests(n, rng, p=rng.uniform(0.1, 0.9))
        if t % 2 == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            h = _relabel(g, perm)
        else:
            h = random_graph_for_tests(n, rng, p=rng.uniform(0.1, 0.9))
        assert (canonical_cert(g) == canonical_cert(h)) == isomorphic_brute(g, h)
        agree += 1
    assert agree == trials


def test_pair_cert_groups_edges_into_orbits():
    # in the 5-cycle every edge is equivalent; in a path the end edges differ
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    certs = {pair_cert(c5, u, v) for u, v in c5.edges()}
    assert len(certs) == 1
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert pair_cert(p4, 0, 1) == pair_cert(p4, 2, 3) != pair_cert(p4, 1, 2)


def test_cell_positions_follow_a_relabelling():
    rng = random.Random(18)
    for _ in range(60):
        g = random_graph_for_tests(rng.randint(1, 9), rng, p=rng.uniform(0.1, 0.9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        pos, moved = cell_positions(g), cell_positions(_relabel(g, perm))
        assert [moved[perm[v]] for v in range(g.n)] == pos


def _mask(subset):
    return sum(1 << v for v in subset)


def _assert_orbits_match_brute(g, subsets, cells):
    gens = automorphisms(g, cells)
    brute = subset_orbits_brute(g, subsets, cells)
    for subset in subsets:
        expected = next(o for o in brute if subset in o)
        assert orbit(_mask(subset), gens) == {_mask(s) for s in expected}, (g.adj, subset)


def _assert_pair_orbits_match_brute(g):
    # every pair, edges and non-edges alike; an orbit never mixes the two
    pairs = list(itertools.combinations(range(g.n), 2))
    _assert_orbits_match_brute(g, pairs, [list(range(g.n))])


def test_pair_orbits_match_permutation_orbits_up_to_five_vertices():
    for n in range(1, 6):
        for g in all_graphs_on(n):
            _assert_pair_orbits_match_brute(g)


def _six_to_eight_vertex_hosts():
    # edgeless and complete graphs are one twin class; the multipartite
    # ones are all twins, the wheel and the star mix twins with a lone centre
    special = [
        make_graph(7, []),
        complete(8),
        complete_multipartite(2, 2, 2),
        complete_multipartite(3, 3),
        complete_multipartite(1, 2, 2, 2),
        complete_multipartite(1, 7),
        double_axle_wheel(4),
        complement(make_graph(8, [(i, (i + 1) % 8) for i in range(8)])),
    ]
    rng = random.Random(7)
    sample = [
        random_graph_for_tests(rng.randint(6, 8), rng, p=rng.uniform(0.2, 0.8))
        for _ in range(24)
    ]
    return special + sample


def test_pair_orbits_match_permutation_orbits_on_six_to_eight_vertices():
    for g in _six_to_eight_vertex_hosts():
        _assert_pair_orbits_match_brute(g)


def test_two_vertex_orbit_walk_matches_the_general_walk():
    # orbit maps a two-vertex mask's two ends directly; on every pair mask
    # the general walk must give the same orbit (the test above checks it
    # against every permutation); the 7-subsets of a 9-vertex host, as the
    # double-apex sweep asks them, reach that path through the complement
    for g in _six_to_eight_vertex_hosts():
        gens = automorphisms(g, [list(range(g.n))])
        for u, v in itertools.combinations(range(g.n), 2):
            mask = 1 << u | 1 << v
            assert canon._pair_orbit(mask, gens) == canon._subset_orbit(mask, gens), (g.adj, u, v)
    c3_c6 = make_graph(9, [(0, 1), (1, 2), (2, 0)] + [(3 + i, 3 + (i + 1) % 6) for i in range(6)])
    for g in (complement(c3_c6), parse_graph6("HK]uvN~")):
        subsets = list(itertools.combinations(range(g.n), 7))
        _assert_orbits_match_brute(g, subsets, [list(range(g.n))])
        gens = automorphisms(g, [list(range(g.n))])
        for subset in subsets:
            assert orbit(_mask(subset), gens) == canon._subset_orbit(_mask(subset), gens)


def test_subset_orbits_match_permutation_orbits_under_the_sweep_cells():
    # k = 3 and k = 7 on 8-vertex hosts, under the unit partition and under
    # the apex sweep's [universe, rest] split; the first hosts have the
    # lemma-compk7 shape, a graph plus a dominating vertex outside the universe
    rng = random.Random(17)
    hosts = [attach_vertex(g, range(7)) for g in
             (complete_multipartite(1, 2, 2, 2), double_axle_wheel(5))]
    hosts += [complete_multipartite(2, 2, 2, 2),
              complement(make_graph(8, [(i, (i + 1) % 8) for i in range(8)]))]
    hosts += [random_graph_for_tests(8, rng, p=rng.uniform(0.3, 0.7)) for _ in range(2)]
    for g in hosts:
        vertices = list(range(g.n))
        for cells in ([vertices], [vertices[:-1], vertices[-1:]]):
            for k in (3, 7):
                _assert_orbits_match_brute(g, list(itertools.combinations(vertices, k)), cells)


def _generated_group(gens, n):
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        perm = todo.pop()
        for gen in gens:
            product = tuple(gen[v] for v in perm)
            if product not in group:
                group.add(product)
                todo.append(product)
    return group


def _cell_stabiliser_brute(g, cells):
    """Every automorphism of g that keeps each cell, by trying every
    permutation inside the cells."""
    group = set()
    for images in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        perm = [0] * g.n
        for cell, image in zip(cells, images):
            for v, w in zip(cell, image):
                perm[v] = w
        if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges()):
            group.add(tuple(perm))
    return group


def test_automorphisms_generate_the_cell_stabiliser():
    # the generators must give exactly the automorphisms that keep each
    # cell, found by trying every permutation; the splits include the
    # lemma-compk7 shape, a dominating vertex outside the first cell; the
    # max-degree-2 hosts (a perfect matching, C8, 2C4 and P3+P3+P2) have
    # large groups, where the search prunes the most branches; isolated
    # vertices, a perfect matching plus a star, K_{2,3} and the classes of
    # maximum degree 3 on 6 vertices give roots and nodes whose cells are
    # all twin classes, and first leaves above the deepest level, where
    # the group search cuts by the first path's cell sizes; every generator
    # must be an automorphism too
    rng = random.Random(11)
    hosts = [complete_multipartite(1, 2, 2, 2), complete(6), make_graph(6, []),
             double_axle_wheel(4)]
    hosts += [random_graph_for_tests(rng.randint(4, 7), rng, p=rng.uniform(0.2, 0.8))
              for _ in range(12)]
    hosts += [make_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
              make_graph(8, [(i, (i + 1) % 8) for i in range(8)]),
              make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
              make_graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)])]
    hosts += [make_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4)]),
              make_graph(6, [(1, 4), (4, 2)]),
              make_graph(8, [(0, 1), (2, 3), (4, 5), (4, 6), (4, 7)]),
              make_graph(8, [(0, 4), (2, 6), (1, 3), (1, 5), (1, 7)]),
              complete_multipartite(2, 3)]
    hosts += list(orderly_stream(6, max_degree=3))
    # two graphs of maximum degree 3 on 8 vertices where the group search
    # meets a leaf whose path has the first path's cell sizes at every
    # depth, yet whose map from the first leaf is no automorphism
    hosts += [parse_graph6("G{CGYG"), parse_graph6("G{CYPK")]
    for g in hosts:
        vertices = list(range(g.n))
        for cells in ([vertices], [vertices[1:], vertices[:1]],
                      [vertices[:-1], vertices[-1:]], [vertices[::2], vertices[1::2]]):
            gens = automorphisms(g, cells)
            for perm in gens:
                assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges()), (g.adj, perm)
            assert _generated_group(gens, g.n) == _cell_stabiliser_brute(g, cells), (g.adj, cells)


def test_automorphisms_are_distinct_on_the_compk7_hosts():
    # the lemma-compk7 hosts: a corpus graph plus a dominating vertex, with
    # the apex candidates as one cell; every permutation the group search
    # meets comes back once, with no pass that drops repeats; it meets at
    # most n - 1 of them on an n-vertex host; K_{3,3,3} and K_{2,2,2,2}
    # have twins in every part, whose transpositions are recorded only
    # when those already recorded do not join the two twins: n - 3 and
    # n - 4 of them, and at most n - 1 generators in all
    hosts = []
    for g in load_corpus():
        hosts.append((attach_vertex(g, range(g.n)), [list(range(g.n)), [g.n]]))
        if g.n <= 8:
            _assert_pair_orbits_match_brute(g)
    for g in (complete_multipartite(3, 3, 3), complete_multipartite(2, 2, 2, 2)):
        hosts.append((g, [list(range(g.n))]))
    for host, cells in hosts:
        raw = _search(host.adj, _refine(host.adj, cells), True)[1]
        assert len(set(map(tuple, raw))) == len(raw), host.adj
        assert automorphisms(host, cells) == list(map(tuple, raw))
        assert len(raw) <= host.n - 1, host.adj
    for parts, twins in (((3, 3, 3), 6), ((2, 2, 2, 2), 4)):
        gens = automorphisms(complete_multipartite(*parts), [list(range(sum(parts)))])
        transpositions = [p for p in gens if sum(v != w for v, w in enumerate(p)) == 2]
        assert len(transpositions) == twins, parts


def test_cert_is_relabelling_invariant_where_pruning_must_fix_the_path():
    # 4-regular graphs on 14 vertices where, at some search node, two
    # vertices share a cell though no automorphism fixing the vertices
    # individualised above it maps one onto the other; an automorphism met
    # earlier that moves those vertices must not prune there, or the
    # search misses the minimal leaf and the certificate follows the labels
    rng = random.Random(19)
    for g6 in ("M_gsACMx?bH@K@Co_", "MSUAi?c?wQ?ly?KE?", "MDALAOo`qEKDQGF?_",
               "MB?OWehwCGHQJAoQ?"):
        g = parse_graph6(g6)
        certs = {canonical_cert(g)}
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            certs.add(canonical_cert(_relabel(g, perm)))
        assert len(certs) == 1, g6


def test_cert_first_byte_is_vertex_count():
    for g in (complete(1), complete(7), petersen()):
        assert canonical_cert(g)[0] == g.n


def _refine_all_cells(adj, cells):
    """Refinement that counts into every cell each round: the reference for
    the splitter version in canon._refine."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        out = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) > 1:
                changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
            else:
                out.append(cell)
        cells = out
        if not changed:
            return cells


def _random_ordered_partition(n, rng):
    vertices = list(range(n))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [vertices[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def test_refine_matches_counting_into_every_cell():
    rng = random.Random(2024)
    for _ in range(20_000):
        n = rng.randint(1, 12)
        g = random_graph_for_tests(n, rng, p=rng.uniform(0.1, 0.9))
        cells = _random_ordered_partition(n, rng)
        assert _refine(g.adj, [c[:] for c in cells]) == _refine_all_cells(g.adj, cells), (
            g.adj, cells)


def test_refine_after_individualising_a_vertex_counts_into_it_alone():
    # _min_key splits v off a cell of an equitable partition and passes
    # [[v]] as the only splitter
    rng = random.Random(5)
    hosts = [petersen(), complete_multipartite(2, 3, 3), double_axle_wheel(5),
             complement(make_graph(9, [(i, (i + 1) % 9) for i in range(9)]))]
    hosts += [random_graph_for_tests(rng.randint(2, 12), rng, p=rng.uniform(0.1, 0.9))
              for _ in range(300)]
    cases = 0
    for g in hosts:
        for start in ([list(range(g.n))], _random_ordered_partition(g.n, rng)):
            equitable = _refine_all_cells(g.adj, start)
            for idx, cell in enumerate(equitable):
                for v in cell if len(cell) > 1 else ():
                    cells = (equitable[:idx] + [[v], [w for w in cell if w != v]]
                             + equitable[idx + 1:])
                    assert _refine(g.adj, cells, [[v]]) == _refine_all_cells(g.adj, cells), (
                        g.adj, cells)
                    cases += 1
    assert cases > 1000


@st.composite
def graphs_with_relabelling_and_flips(draw):
    n = draw(st.integers(1, 9))
    g = graph_from_code(n, draw(st.integers(0, (1 << comb(n, 2)) - 1)))
    perm = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    flips = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2)) if pairs else []
    return g, perm, flips


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _flipped(g, pairs):
    return make_graph(g.n, sorted(set(g.edges()).symmetric_difference(pairs)))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(graphs_with_relabelling_and_flips())
def test_cert_equality_is_networkx_isomorphism(case):
    # the relabelling is isomorphic; the one-edge flip never is; flipping
    # an edge off and a non-edge on keeps the edge count, so only the
    # structure can tell the two apart
    g, perm, flips = case
    relabelled = _relabel(g, perm)
    others = [relabelled]
    if flips:
        others.append(_flipped(relabelled, flips[:1]))
        if g.has_edge(*flips[0]) != g.has_edge(*flips[1]):
            others.append(_flipped(g, flips))
    for h in others:
        same = canonical_cert(g) == canonical_cert(h)
        assert same == nx.is_isomorphic(_to_nx(g), _to_nx(h)), (g.adj, h.adj)
