import ast
import random
from pathlib import Path

import pytest

from oracles import total_triangles_brute, triangles_on_edge_brute, random_graph_for_tests
from triminor.graphs import (
    complement,
    complete,
    complete_multipartite,
    contract_edge,
    double_axle_wheel,
    induced,
    k_tree,
    make_graph,
    mader_edge_cap,
    min_triangle_edge,
    petersen,
    petersen_complement,
    total_triangles,
    validate,
)


def test_make_graph_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    validate(g)


def test_make_graph_collapses_duplicates():
    g = make_graph(2, [(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_make_graph_errors():
    with pytest.raises(ValueError):
        make_graph(0, [])
    with pytest.raises(ValueError):
        make_graph(65, [])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])


def test_petersen_complement_shape():
    pc = make_graph(10, complement(petersen()).edges())
    assert pc.edge_count == 30
    assert all(pc.degree(v) == 6 for v in range(10))


def test_named_graph_catalog():
    daw4 = double_axle_wheel(4)
    assert (daw4.n, daw4.edge_count) == (6, 12)
    assert complete(5).edge_count == 10
    k22222 = complete_multipartite(2, 2, 2, 2, 2)
    assert (k22222.n, k22222.edge_count) == (10, 40)
    assert {t for _, t in min_triangle_edge(k22222).counts} == {6}
    assert petersen().edge_count == 15
    assert petersen_complement().edge_count == 30


def test_named_graph_errors():
    with pytest.raises(ValueError):
        double_axle_wheel(2)
    with pytest.raises(ValueError):
        complete_multipartite()
    with pytest.raises(ValueError):
        complete_multipartite(2, 0, 2)


def test_k_tree_counts():
    for n in (2, 5, 12, 20):
        g = k_tree(2, n, seed=n)
        assert g.edge_count == 1 + 2 * (n - 2)
        assert total_triangles(g) == n - 2


def test_k_tree_formula_all_k():
    # 2t = (k-1)m - C(k+1,3) exactly for random k-trees
    from math import comb

    rng = random.Random(5)
    for k in range(2, 7):
        for _ in range(10):
            n = rng.randint(k, 20)
            g = k_tree(k, n, seed=rng.randrange(1 << 30))
            assert 2 * total_triangles(g) == (k - 1) * g.edge_count - comb(k + 1, 3)


def _triangles_on_edges(g):
    """The number of triangles through each edge, from `min_triangle_edge`
    without a degree cap."""
    return dict(min_triangle_edge(g).counts) if g.edge_count else {}


def test_triangles_on_edge_examples():
    assert _triangles_on_edges(complete(4))[0, 1] == 2
    assert set(_triangles_on_edges(complete_multipartite(2, 2, 2, 2)).values()) == {4}
    assert set(_triangles_on_edges(petersen_complement()).values()) == {3}


def test_triangles_on_edge_matches_triple_enumeration():
    rng = random.Random(1)
    for _ in range(40):
        g = random_graph_for_tests(rng.randint(2, 12), rng)
        assert _triangles_on_edges(g) == {
            (u, v): triangles_on_edge_brute(g, u, v) for u, v in g.edges()}


def test_edge_triangle_sum_is_three_times_total():
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph_for_tests(rng.randint(3, 12), rng)
        per_edge = sum(_triangles_on_edges(g).values())
        assert per_edge == 3 * total_triangles(g)
        assert total_triangles(g) == total_triangles_brute(g)


def test_min_triangle_edge_examples():
    assert min_triangle_edge(complete(6)).min_count == 4
    assert min_triangle_edge(complete_multipartite(2, 2, 2, 2, 2)).min_count == 6
    rep = min_triangle_edge(double_axle_wheel(5), degree_cap=5)
    assert rep.min_count == 2
    assert rep.degree_cap == 5


def test_min_triangle_edge_tie_break_and_errors():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    rep = min_triangle_edge(g)
    assert rep.edge == (0, 1) and rep.min_count == 0
    with pytest.raises(ValueError):
        min_triangle_edge(make_graph(3, []))
    with pytest.raises(ValueError):
        min_triangle_edge(complete(5), degree_cap=2)


def test_contract_edge_path():
    g = make_graph(3, [(0, 1), (1, 2)])
    h, relabel = contract_edge(g, 0, 1)
    assert h.n == 2 and h.edge_count == 1
    assert relabel[0] == relabel[1]


def test_contract_edge_k4():
    h, _ = contract_edge(complete(4), 1, 3)
    assert h.n == 3 and h.edge_count == 3


def test_contract_edge_requires_edge():
    with pytest.raises(ValueError):
        contract_edge(petersen(), 0, 2)


def test_petersen_spoke_contraction_gives_k5():
    g = petersen()
    spokes = [(i, 5 + i) for i in range(5)]
    while spokes:
        u, v = spokes.pop(0)
        g, relabel = contract_edge(g, u, v)
        spokes = [(relabel[a], relabel[b]) for a, b in spokes]
    assert g.n == 5
    assert g.edge_count == 10  # complete on the merged vertices


def test_contract_edge_properties_random():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph_for_tests(rng.randint(3, 10), rng)
        if g.edge_count == 0:
            continue
        u, v = rng.choice(g.edges())
        h, relabel = contract_edge(g, u, v)
        assert h.n == g.n - 1
        validate(h)  # simple, loop-free, symmetric
        assert sorted(relabel) == list(range(g.n))


def test_induced_and_complement():
    assert complement(petersen()) == petersen_complement()
    assert induced(complete(6), [1, 2, 4, 5]).edge_count == 6
    k22222 = complete_multipartite(2, 2, 2, 2, 2)
    one_per_part = induced(k22222, [0, 2, 4, 6, 8])
    assert one_per_part.edge_count == 10  # complete on 5 vertices
    with pytest.raises(ValueError):
        induced(petersen(), [])


def test_complement_involution():
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph_for_tests(rng.randint(1, 14), rng)
        assert complement(complement(g)) == g


def test_mader_bound_check():
    # the K7 cap admits K6 exactly (15 <= 15) and rules out K7 and K_{2,2,2,2,2}
    assert complete(6).edge_count <= mader_edge_cap(6, 7)
    assert complete(7).edge_count > mader_edge_cap(7, 7)
    assert complete_multipartite(2, 2, 2, 2, 2).edge_count > mader_edge_cap(10, 7)


def test_mader_edge_cap_up_to_k8():
    assert mader_edge_cap(6, 7) == complete(6).edge_count
    # K_{2,2,2,2,2} has no K8 minor and 6n - 20 edges: the r = 8 cap is tight
    assert mader_edge_cap(10, 8) == complete_multipartite(2, 2, 2, 2, 2).edge_count
    with pytest.raises(ValueError):
        mader_edge_cap(10, 9)


def test_oracles_import_only_the_graph_kernel():
    # the oracles check the package's searches, so they may build and read
    # graphs through triminor.graphs but share no other code with it
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert {m for m in imported if m.split(".")[0] == "triminor"} == {"triminor.graphs"}
