import random
from itertools import combinations

import pytest

from oracles import clique_number_brute, random_graph_for_tests
from triminor.cliques import has_clique
from triminor.generate import orderly_stream
from triminor.graphs import make_graph


def _assert_has_clique_matches_brute(g):
    omega = clique_number_brute(g)
    for k in range(g.n + 2):
        found = has_clique(g, k)
        if k > omega:
            assert found is None, (g, k)
            continue
        assert found is not None and len(set(found)) == k, (g, k)
        assert all(0 <= v < g.n for v in found)
        assert all(g.has_edge(u, v) for u, v in combinations(found, 2)), (g, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_has_clique_matches_brute_on_every_small_graph(n):
    for g in orderly_stream(n):
        _assert_has_clique_matches_brute(g)


def test_has_clique_matches_brute_on_random_graphs():
    rng = random.Random(23)
    graphs = [make_graph(n, []) for n in range(1, 13)]
    graphs += [random_graph_for_tests(rng.randint(1, 12), rng, p=rng.uniform(0.1, 0.95))
               for _ in range(150)]
    for g in graphs:
        _assert_has_clique_matches_brute(g)
