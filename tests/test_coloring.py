import random
from itertools import combinations

import pytest

from oracles import chromatic_brute, clique_number_brute, random_graph_for_tests
from triminor.coloring import chromatic_number, is_proper_coloring
from triminor.graphs import (
    complete,
    complete_multipartite,
    make_graph,
    petersen,
)


def test_chromatic_examples():
    assert chromatic_number(complete_multipartite(2, 2, 2, 2, 2)).chi == 5
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert chromatic_number(c5).chi == 3


def test_petersen_is_three_chromatic():
    p = petersen()
    # no proper 2-colouring: an odd cycle sits inside (outer C5)
    def bipartite(g):
        color = [-1] * g.n
        for start in range(g.n):
            if color[start] != -1:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for v in range(g.n):
                    if g.has_edge(u, v):
                        if color[v] == -1:
                            color[v] = 1 - color[u]
                            stack.append(v)
                        elif color[v] == color[u]:
                            return False
        return True

    assert not bipartite(p)
    result = chromatic_number(p)
    assert result.chi == 3
    assert is_proper_coloring(p, result.coloring)
    assert len(set(result.coloring)) == 3


def test_certificates_are_proper_and_optimal_vs_brute(monkeypatch):
    # a maximum clique is pre-coloured 0, 1, ..., and every k from its size
    # up to chi is tried, so each k below chi is refuted or below omega
    import triminor.coloring as coloring

    calls = []
    real = coloring._try_k_coloring

    def spy(g, k, clique):
        calls.append((k, list(clique)))
        return real(g, k, clique)

    monkeypatch.setattr(coloring, "_try_k_coloring", spy)
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph_for_tests(rng.randint(1, 8), rng, p=rng.uniform(0.1, 0.9))
        calls.clear()
        result = chromatic_number(g)
        assert is_proper_coloring(g, result.coloring)
        assert max(result.coloring) + 1 == result.chi
        assert result.chi == chromatic_brute(g)
        omega = clique_number_brute(g)
        clique = calls[0][1]
        assert len(clique) == omega
        assert all(g.has_edge(u, v) for u, v in combinations(clique, 2))
        assert calls == [(k, clique) for k in range(omega, result.chi + 1)]
        assert [result.coloring[v] for v in clique] == list(range(omega))


def test_edge_cases_and_limit():
    assert chromatic_number(make_graph(4, [])).chi == 1
    assert chromatic_number(complete(2)).chi == 2
    with pytest.raises(ValueError):
        chromatic_number(make_graph(21, []))
