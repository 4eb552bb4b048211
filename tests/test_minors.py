import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    graph_from_code,
    kr_minor_brute,
    random_graph_for_tests,
    st_separator_brute,
    two_disjoint_paths_brute,
    vertex_connectivity_brute,
)
from triminor.generate import GenSpec, generate, orderly_stream
from triminor.graphs import (
    complete,
    complete_multipartite,
    contract_edge,
    double_axle_wheel,
    from_rows,
    mader_edge_cap,
    make_graph,
    petersen,
    petersen_complement,
)
from triminor.minors import (
    MinorWitness,
    _max_vertex_flow,
    apex_augment_check,
    attach_vertex,
    double_apex_check,
    has_minor,
    kr_minor_verdict,
    rooted_k3,
    two_disjoint_paths,
    validate_minor_witness,
    vertex_connectivity,
)


def test_petersen_k5_witness():
    w = has_minor(petersen(), complete(5))
    assert w is not None
    validate_minor_witness(petersen(), w)


def test_petersen_no_k6():
    assert has_minor(petersen(), complete(6)) is None


def test_k22222_no_k8():
    assert has_minor(complete_multipartite(2, 2, 2, 2, 2), complete(8)) is None


def test_clique_minor_on_k7_minus_edge():
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if (u, v) != (0, 1)]
    g = make_graph(7, edges)
    assert has_minor(g, complete(7)) is None
    w = has_minor(g, complete(6))
    assert w is not None
    validate_minor_witness(g, w)


def test_clique_minor_branch_sets_ordered_by_minimum():
    w = has_minor(petersen(), complete(5))
    mins = [min(s) for s in w.branch_sets]
    assert mins == sorted(mins)


def test_k2222_plus_two_edges_has_k7():
    base = complete_multipartite(2, 2, 2, 2)
    missing = [(0, 1), (2, 3), (4, 5), (6, 7)]
    for pair in itertools.combinations(missing, 2):
        aug = make_graph(8, base.edges() + list(pair))
        w = has_minor(aug, complete(7))
        assert w is not None
        validate_minor_witness(aug, w)
    # one added edge is not enough
    one = make_graph(8, base.edges() + [missing[0]])
    assert has_minor(one, complete(7)) is None


def test_k333_plus_disjoint_edges_has_k7():
    base = complete_multipartite(3, 3, 3)
    aug = make_graph(9, base.edges() + [(0, 1), (3, 4)])
    w = has_minor(aug, complete(7))
    assert w is not None
    validate_minor_witness(aug, w)


def test_witness_validator_rejects_tampering():
    g = petersen()
    w = has_minor(g, complete(5))
    broken = MinorWitness(w.pattern, w.branch_sets[:-1] + (frozenset({0, 7}),))
    with pytest.raises(AssertionError):
        validate_minor_witness(g, broken)
    disconnected = MinorWitness(
        complete(2), (frozenset({0}), frozenset({2, 7}))
    )
    if not g.has_edge(2, 7):
        with pytest.raises(AssertionError):
            validate_minor_witness(g, disconnected)


def test_rooted_k3_examples():
    tri = complete(3)
    out = rooted_k3(tri, 0, 1, 2)
    assert out.witness is not None and out.separator is None
    star = make_graph(4, [(3, 0), (3, 1), (3, 2)])
    out = rooted_k3(star, 0, 1, 2)
    assert out.separator == 3
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    out = rooted_k3(c5, 0, 2, 3)
    assert out.witness is not None
    validate_minor_witness(c5, out.witness)
    for i, root in enumerate((0, 2, 3)):
        assert root in out.witness.branch_sets[i]
    with pytest.raises(ValueError):
        rooted_k3(tri, 0, 0, 1)


def test_rooted_k3_dichotomy_exhaustive_small():
    # exactly one alternative on every graph with at most 7 vertices
    for n in range(3, 8):
        count = 0
        for g in orderly_stream(n, lambda _: True):
            for roots in itertools.combinations(range(n), 3):
                out = rooted_k3(g, *roots)
                assert (out.witness is None) != (out.separator is None)
                if out.witness is not None:
                    validate_minor_witness(g, out.witness)
                    for i, r in enumerate(roots):
                        assert r in out.witness.branch_sets[i]
                else:
                    v = out.separator
                    # removing v must scatter the roots
                    live = [r for r in roots if r != v]
                    comp_of = {}
                    for r in live:
                        seen = {r}
                        stack = [r]
                        while stack:
                            x = stack.pop()
                            for y in range(g.n):
                                if y != v and y not in seen and g.has_edge(x, y):
                                    seen.add(y)
                                    stack.append(y)
                        comp_of[r] = frozenset(seen)
                    for a, b in itertools.combinations(live, 2):
                        assert b not in comp_of[a]
                count += 1
        assert count > 0


def test_two_disjoint_paths_examples():
    k4 = complete(4)
    got = two_disjoint_paths(k4, 0, 2, 1, 3)
    assert got == ([0, 2], [1, 3])
    c4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert two_disjoint_paths(c4, 0, 2, 1, 3) is None
    k222 = complete_multipartite(2, 2, 2)
    assert two_disjoint_paths(k222, 0, 1, 2, 3) is not None
    with pytest.raises(ValueError):
        two_disjoint_paths(k4, 0, 0, 1, 2)


def test_two_disjoint_paths_matches_brute_force():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(4, 8)
        g = random_graph_for_tests(n, rng, p=rng.uniform(0.2, 0.8))
        s1, t1, s2, t2 = rng.sample(range(n), 4)
        ours = two_disjoint_paths(g, s1, t1, s2, t2)
        brute = two_disjoint_paths_brute(g, s1, t1, s2, t2)
        assert (ours is None) == (brute is None)
        if ours is not None:
            p1, p2 = ours
            assert p1[0] == s1 and p1[-1] == t1
            assert p2[0] == s2 and p2[-1] == t2
            assert not set(p1) & set(p2)
            for path in (p1, p2):
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))


def test_vertex_connectivity():
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert vertex_connectivity(c5) == 2
    assert vertex_connectivity(complete(6)) == 5
    assert vertex_connectivity(petersen_complement()) == 6
    assert vertex_connectivity_brute(petersen_complement()) == 6
    two_parts = make_graph(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(two_parts) == 0


def test_vertex_connectivity_matches_brute_force():
    rng = random.Random(22)
    for _ in range(40):
        g = random_graph_for_tests(rng.randint(2, 8), rng, p=rng.uniform(0.2, 0.9))
        assert vertex_connectivity(g) == vertex_connectivity_brute(g)


def test_max_vertex_flow_matches_smallest_separator():
    # Menger: a non-adjacent pair has as many internally disjoint paths as
    # its smallest separator has vertices.  In the first two hosts the last
    # augmenting path must reroute an earlier path, through a reversed edge
    # arc and through a reversed vertex arc respectively.
    cases = [
        (from_rows(11, (32, 344, 1280, 1682, 170, 1425, 130, 120, 1574, 1288, 812)), 7, 8),
        (from_rows(10, (34, 21, 514, 32, 130, 841, 544, 272, 160, 100)), 4, 6),
    ]
    rng = random.Random(27)
    for _ in range(30):
        g = random_graph_for_tests(rng.randint(8, 10), rng, p=rng.uniform(0.15, 0.6))
        cases += [(g, s, t) for s, t in itertools.combinations(range(g.n), 2)
                  if not g.has_edge(s, t)]
    for g, s, t in cases:
        assert _max_vertex_flow(g, s, t, g.n) == st_separator_brute(g, s, t)


def test_apex_augment_k6():
    report = apex_augment_check(complete(6), 6, 7)
    assert 6 not in report  # joining to everything builds the full clique
    assert len(report[5]) == 6
    assert len(report[1]) == 6


def test_double_apex_small_and_exceptional():
    assert double_apex_check(complete(5), 8) is None  # no 7-subsets: vacuous
    assert double_apex_check(complete(7), 8) is None  # Y must be proper
    # the 8-vertex exceptional graph genuinely fails, which is why the
    # structural lemma exempts it; the first 7-subset already does
    k2222 = complete_multipartite(2, 2, 2, 2)
    y = double_apex_check(k2222, 8)
    assert y == (0, 1, 2, 3, 4, 5, 6)
    aug = attach_vertex(attach_vertex(k2222, range(8)), y)
    assert kr_minor_brute(aug, 8) is False
    k8_minus_3m = make_graph(
        8,
        [(u, v) for u in range(8) for v in range(u + 1, 8)
         if (u, v) not in [(0, 1), (2, 3), (4, 5)]],
    )
    assert double_apex_check(k8_minus_3m, 8) is None


def _apex_augment_all_subsets(g, k_max, r, candidates=None):
    """Reference: the sweep that asks the kernel about every subset."""
    universe = tuple(range(g.n)) if candidates is None else tuple(candidates)
    survivors = {}
    for k in range(1, k_max + 1):
        for subset in itertools.combinations(universe, k):
            aug = attach_vertex(g, subset)
            if not kr_minor_verdict(aug, r):
                survivors.setdefault(k, []).append(subset)
    return survivors


def _double_apex_all_subsets(h, r):
    """Reference: ask the kernel about every proper 7-subset in order."""
    for y in itertools.combinations(range(h.n), 7):
        if len(y) == h.n:
            continue
        aug = attach_vertex(attach_vertex(h, range(h.n)), y)
        if not kr_minor_verdict(aug, r):
            return y
    return None


def test_apex_augment_matches_all_subsets_sweep():
    # hosts shaped like lemma-compk7's (a dominating vertex outside the
    # candidates, twin with one inside for K_{1,2,2,2}), hosts with large
    # automorphism groups, universes that break their symmetry, and random
    # hosts; the levels and the order inside each must match the reference
    octahedron = complete_multipartite(2, 2, 2)
    k1222 = attach_vertex(octahedron, range(6))
    wheel = double_axle_wheel(5)
    cases = [
        (attach_vertex(k1222, range(7)), 6, 7, tuple(range(7))),
        (attach_vertex(wheel, range(7)), 6, 7, tuple(range(7))),
        (k1222, 6, 7, None),
        (k1222, 5, 6, (0, 2, 3, 4, 5, 6)),
        (wheel, 6, 6, None),
        (wheel, 5, 5, (0, 1, 2, 5)),
        (double_axle_wheel(6), 5, 6, (6, 0, 7, 2, 4)),
    ]
    rng = random.Random(31)
    for _ in range(24):
        n = rng.randint(6, 10)
        g = random_graph_for_tests(n, rng, p=rng.uniform(0.3, 0.8))
        universe = sorted(rng.sample(range(n), rng.randint(n - 3, n)))
        cases.append((g, rng.randint(2, 5), rng.randint(5, 7), tuple(universe)))
    levels = 0
    for g, k_max, r, candidates in cases:
        mine = apex_augment_check(g, k_max, r, candidates)
        assert list(mine.items()) == list(
            _apex_augment_all_subsets(g, k_max, r, candidates).items()
        ), (g.adj, k_max, r, candidates)
        levels += len(mine)
    assert levels > 40


def test_double_apex_matches_all_subsets_sweep():
    hosts = list(generate(GenSpec(9, min_degree=6, prune="K7")))
    assert len(hosts) == 18
    hosts.append(complete_multipartite(2, 2, 2, 2))
    hosts.append(make_graph(
        8,
        [(u, v) for u in range(8) for v in range(u + 1, 8)
         if (u, v) not in [(0, 1), (2, 3), (4, 5)]],
    ))
    found = [double_apex_check(h, 8) for h in hosts]
    assert found == [_double_apex_all_subsets(h, 8) for h in hosts]
    # K_{3,3,3}, the complement of C3+C6 and K_{2,2,2,2} fail
    assert sum(y is not None for y in found) == 3


def test_minor_monotone_under_contraction():
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        g = random_graph_for_tests(rng.randint(4, 8), rng, p=rng.uniform(0.3, 0.8))
        for r in (4, 5):
            if not kr_minor_verdict(g, r):
                for u, v in g.edges():
                    child, _ = contract_edge(g, u, v)
                    assert not kr_minor_verdict(child, r)
                    checked += 1
    assert checked > 0


def test_verdict_matches_contraction_oracle_random():
    rng = random.Random(24)
    memo = {}
    for _ in range(150):
        g = random_graph_for_tests(rng.randint(3, 8), rng, p=rng.uniform(0.2, 0.9))
        for r in (3, 4, 5, 6):
            assert kr_minor_verdict(g, r) == kr_minor_brute(g, r, memo)


def test_verdict_matches_contraction_oracle_near_edge_cap():
    # at most mader_edge_cap edges, so the cap cannot answer: the peel,
    # the clique test or the partition search decides each graph
    rng = random.Random(26)
    verdicts, contracted = [], 0
    for _ in range(40):
        n, r = rng.choice((9, 10)), rng.choice((6, 7))
        m = mader_edge_cap(n, r) - rng.randint(0, 4)
        g = make_graph(n, rng.sample(list(itertools.combinations(range(n), 2)), m))
        verdict = kr_minor_verdict(g, r)
        assert verdict == kr_minor_brute(g, r)
        w = has_minor(g, complete(r))
        assert (w is not None) == verdict
        if w is not None:
            validate_minor_witness(g, w)
            contracted += any(len(s) > 1 for s in w.branch_sets)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    assert contracted > 0


def test_verdict_false_when_peel_empties_the_graph():
    path = make_graph(8, [(i, i + 1) for i in range(7)])
    assert kr_minor_verdict(path, 4) is False
    assert has_minor(path, complete(4)) is None


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    return graph_from_code(n, draw(st.integers(0, (1 << comb(n, 2)) - 1)))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(small_graphs(), st.integers(3, 6))
def test_verdict_and_witness_match_contraction_oracle(g, r):
    verdict = kr_minor_verdict(g, r)
    assert verdict == kr_minor_brute(g, r)
    w = has_minor(g, complete(r))
    assert (w is not None) == verdict
    if w is not None:
        validate_minor_witness(g, w)


def test_host_size_limits():
    big = make_graph(17, [(0, 1)])
    with pytest.raises(ValueError):
        has_minor(big, complete(3))
    with pytest.raises(ValueError):
        two_disjoint_paths(big, 0, 1, 2, 3)
