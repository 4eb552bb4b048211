import random
from math import comb

import pytest

from oracles import random_graph_for_tests, random_planar_triangulation
from triminor.graphs import (
    complete,
    complete_multipartite,
    double_axle_wheel,
    make_graph,
)
from triminor.rigidity import PRIME, stress_space_dim, whiteley_reduce
from triminor.verify import load_corpus


def test_single_edge_is_stress_free():
    v = stress_space_dim(complete(2), 1)
    assert v.verdict == "stress-free" and v.dim == 0


def test_k22222_is_stressed_in_dim_6():
    g = complete_multipartite(2, 2, 2, 2, 2)
    v = stress_space_dim(g, 6, seed=3)
    # 40 edges exceed 6*10 - C(7,2) = 39, forcing at least one stress
    assert v.verdict == "stressed"
    assert v.dim >= 1
    assert v.prime == PRIME
    assert 0 < v.error_bound < 1e-30


def test_planar_triangulations_are_3_stress_free():
    rng = random.Random(44)
    for _ in range(8):
        g = random_planar_triangulation(rng.randint(4, 12), rng)
        assert g.edge_count == 3 * g.n - 6
        assert stress_space_dim(g, 3, seed=rng.randrange(1 << 30)).dim == 0


def test_whiteley_reduce_tree_to_point():
    tree = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    reduced, log = whiteley_reduce(tree, 2)
    assert reduced.n == 1
    assert len(log) == 5
    assert all(shared <= 1 for _, _, shared in log)


def test_whiteley_reduce_leaves_k22222_alone():
    g = complete_multipartite(2, 2, 2, 2, 2)
    reduced, log = whiteley_reduce(g, 6)
    assert reduced == g and log == []


def test_corpus_graphs_reduce_and_are_5_stress_free():
    for g in load_corpus()[:6]:
        reduced, _ = whiteley_reduce(g, 5)
        assert reduced.n == 1
        assert stress_space_dim(g, 5, seed=7).dim == 0


def test_wheel_is_5_stress_free():
    g = double_axle_wheel(5)
    reduced, _ = whiteley_reduce(g, 5)
    assert reduced.n == 1
    assert stress_space_dim(g, 5, seed=1).dim == 0


def test_edge_bound_forces_stress():
    # whenever m > d*n - C(d+1,2), dim >= m - d*n + C(d+1,2)
    rng = random.Random(45)
    checked = 0
    while checked < 15:
        n = rng.randint(4, 9)
        d = rng.randint(2, 4)
        g = random_graph_for_tests(n, rng, p=0.9)
        slack = g.edge_count - (d * g.n - comb(d + 1, 2))
        if slack <= 0:
            continue
        v = stress_space_dim(g, d, seed=rng.randrange(1 << 30))
        assert v.dim >= slack
        checked += 1


def test_repeat_seeds_never_contradict_stress_freeness():
    g = double_axle_wheel(4)
    first = stress_space_dim(g, 3, seed=0)
    if first.dim == 0:
        for seed in range(1, 8):
            assert stress_space_dim(g, 3, seed=seed).dim == 0


def test_validation():
    with pytest.raises(ValueError):
        stress_space_dim(complete(3), 0)
    with pytest.raises(ValueError):
        stress_space_dim(complete(3), 9)
    with pytest.raises(ValueError):
        stress_space_dim(complete(3), 3, trials=0)
    v = stress_space_dim(make_graph(3, []), 2)
    assert v.dim == 0  # edgeless: only the empty stress
