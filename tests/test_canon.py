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
    pair_orbits_brute,
    random_graph_for_tests,
)
from triminor.canon import (
    _min_key,
    _refine,
    automorphisms,
    canonical_cert,
    is_isomorphic,
    pair_cert,
    pair_orbits,
)
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


def _assert_pair_orbits_match_brute(g):
    pairs = list(itertools.combinations(range(g.n), 2))
    edges = [p for p in pairs if g.has_edge(*p)]
    non_edges = [p for p in pairs if not g.has_edge(*p)]
    brute = pair_orbits_brute(g, pairs)
    for subset in (pairs, edges, non_edges):
        mine = pair_orbits(g, subset)
        assert sorted(p for o in mine for p in o) == subset
        expected = {o for o in brute if o <= set(subset)}
        assert {frozenset(o) for o in mine} == expected, g.adj


def test_pair_orbits_match_permutation_orbits_up_to_five_vertices():
    for n in range(1, 6):
        for g in all_graphs_on(n):
            _assert_pair_orbits_match_brute(g)


def test_pair_orbits_match_permutation_orbits_on_six_to_eight_vertices():
    # edgeless and complete graphs skip the search; the multipartite ones
    # are all twins, the wheel and the star mix twins with a lone centre
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
    for g in special + sample:
        _assert_pair_orbits_match_brute(g)


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


def test_automorphisms_generate_the_cell_stabiliser():
    # the generators must give exactly the automorphisms that keep each
    # cell, found by trying every permutation; the splits include the
    # lemma-compk7 shape, a dominating vertex outside the first cell
    rng = random.Random(11)
    hosts = [complete_multipartite(1, 2, 2, 2), complete(6), make_graph(6, []),
             double_axle_wheel(4)]
    hosts += [random_graph_for_tests(rng.randint(4, 7), rng, p=rng.uniform(0.2, 0.8))
              for _ in range(12)]
    for g in hosts:
        vertices = list(range(g.n))
        for cells in ([vertices], [vertices[1:], vertices[:1]],
                      [vertices[:-1], vertices[-1:]], [vertices[::2], vertices[1::2]]):
            brute = {
                perm for perm in itertools.permutations(vertices)
                if all(perm[v] in cell for cell in cells for v in cell)
                and all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())
            }
            assert _generated_group(automorphisms(g, cells), g.n) == brute, (g.adj, cells)


def test_automorphisms_are_distinct_on_the_compk7_hosts():
    # the lemma-compk7 hosts: a corpus graph plus a dominating vertex, with
    # the apex candidates as one cell; the search reaches one generator
    # along several leaves, and each must come back once
    repeated = 0
    for g in load_corpus():
        host = attach_vertex(g, range(g.n))
        cells = [list(range(g.n)), [g.n]]
        gens = automorphisms(host, cells)
        assert len(set(gens)) == len(gens), g.adj
        raw: list[list[int]] = []
        _min_key(host, cells, raw)
        assert set(gens) == set(map(tuple, raw))
        repeated += len(raw) > len(gens)
        if g.n <= 8:
            _assert_pair_orbits_match_brute(g)
    assert repeated >= 7


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
