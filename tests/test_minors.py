import itertools
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from math import comb
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_graphs_on,
    graph_from_code,
    kr_minor_brute,
    minor_brute,
    random_graph_for_tests,
    st_separator_brute,
    vertex_connectivity_brute,
)
import triminor
from triminor import canon, minors
from triminor.generate import generate
from triminor.graph6 import parse_graph6
from triminor.graphs import (
    complete,
    complete_multipartite,
    contract_edge,
    double_axle_wheel,
    from_rows,
    k_tree,
    mader_edge_cap,
    make_graph,
    petersen,
    petersen_complement,
)
from triminor.minors import (
    MinorWitness,
    _contraction_probe,
    _masks_to_witness,
    _max_vertex_flow,
    _partition_model,
    _peel_for_clique,
    apex_augment_check,
    attach_vertex,
    double_apex_check,
    has_minor,
    kr_minor_verdict,
    validate_minor_witness,
    vertex_connectivity,
)
from triminor.verify import load_corpus


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
    with pytest.raises(ValueError):
        validate_minor_witness(g, broken)
    disconnected = MinorWitness(
        complete(2), (frozenset({0}), frozenset({2, 7}))
    )
    if not g.has_edge(2, 7):
        with pytest.raises(ValueError):
            validate_minor_witness(g, disconnected)


def test_witness_validator_rejects_a_bogus_model_under_python_O():
    # the re-check must not go with assert statements: under -O a K4 model
    # on the path P4, one vertex per branch set, is still refused
    probe = (
        "from triminor.graphs import complete, make_graph\n"
        "from triminor.minors import MinorWitness, validate_minor_witness\n"
        "p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])\n"
        "w = MinorWitness(complete(4), tuple(frozenset({v}) for v in range(4)))\n"
        "validate_minor_witness(p4, w)\n"
    )
    src = str(Path(triminor.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ValueError: pattern edge (0,2) not realised"


def test_vertex_connectivity():
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert vertex_connectivity(c5) == 2
    assert vertex_connectivity(complete(6)) == 5
    assert vertex_connectivity(petersen_complement()) == 6
    assert vertex_connectivity_brute(petersen_complement()) == 6
    two_parts = make_graph(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(two_parts) == 0
    # two K5s: the flows start capped at 4, and a pair across them has none
    two_k5 = make_graph(10, [(u + o, v + o) for o in (0, 5)
                             for u, v in itertools.combinations(range(5), 2)])
    assert vertex_connectivity(two_k5) == 0
    assert vertex_connectivity(make_graph(1, [])) == 0


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


def _dense_graph(n, rng):
    """A random graph on n vertices with minimum degree >= n - 4: K_n less
    random edges, each removed only while both its ends miss fewer than
    three edges."""
    missing = [0] * n
    rows = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
    for u, v in rng.sample(list(itertools.combinations(range(n), 2)), 2 * n):
        if missing[u] < 3 and missing[v] < 3:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            missing[u] += 1
            missing[v] += 1
    return from_rows(n, rows)


def test_seeded_flows_match_brute_force_on_dense_graphs():
    # dense hosts like the lemma-compk8 classes, where the common
    # neighbours alone often reach the cap: every cap from below the
    # common-neighbour count to above it, and the uncapped flow
    rng = random.Random(53)
    capped = augmented = 0
    for _ in range(40):
        g = _dense_graph(rng.randint(5, 10), rng)
        assert g.min_degree() >= g.n - 4
        kappa = vertex_connectivity_brute(g)
        assert vertex_connectivity(g) == kappa
        flows = []
        for s, t in itertools.combinations(range(g.n), 2):
            if g.has_edge(s, t):
                continue
            paths = st_separator_brute(g, s, t)
            common = (g.adj[s] & g.adj[t]).bit_count()
            augmented += paths > common
            for cap in {max(common - 1, 0), common, common + 1, g.n}:
                assert _max_vertex_flow(g, s, t, cap) == min(cap, paths), (g.adj, s, t, cap)
                capped += cap < paths
            flows.append(_max_vertex_flow(g, s, t, g.n))
        assert min(flows, default=g.n - 1) == kappa
    assert capped > 0 and augmented > 0


def test_vertex_connectivity_matches_networkx_on_compk8_classes():
    graphs = list(generate(9, min_degree=6, prune=7))
    assert graphs
    for g in graphs:
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        assert vertex_connectivity(g) == nx.node_connectivity(h), g.adj


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


def _apex_sweep_cases():
    """(g, k_max, r, candidates): hosts shaped like lemma-compk7's (a
    dominating vertex outside the candidates, twin with one inside for
    K_{1,2,2,2}), hosts with large automorphism groups, universes that
    break their symmetry, and random hosts."""
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
    return cases


def test_apex_augment_matches_all_subsets_sweep():
    # the levels and the order inside each must match the reference
    levels = 0
    for g, k_max, r, candidates in _apex_sweep_cases():
        mine = apex_augment_check(g, k_max, r, candidates)
        assert list(mine.items()) == list(
            _apex_augment_all_subsets(g, k_max, r, candidates).items()
        ), (g.adj, k_max, r, candidates)
        levels += len(mine)
    assert levels > 40


def test_apex_sweep_never_asks_what_it_can_answer(monkeypatch):
    # a minor persists when the apex subset grows, and an automorphism that
    # keeps the candidates keeps verdicts: so a set inside an image of an
    # earlier "no minor", or holding an image of an earlier "minor", is
    # already answered, and the sweep must not ask the kernel about it
    asked = []

    def recording(aug, r):
        verdict = kr_minor_verdict(aug, r)
        asked.append((aug.adj[aug.n - 1], verdict))  # the apex row is S
        return verdict

    monkeypatch.setattr(minors, "kr_minor_verdict", recording)
    cases = _apex_sweep_cases() + [
        (attach_vertex(g, range(g.n)), 6, 7, tuple(range(g.n)))
        for g in load_corpus() if g.n <= 8
    ]
    assert len(cases) == 31 + 6
    queries = 0
    for g, k_max, r, candidates in cases:
        universe = tuple(range(g.n)) if candidates is None else candidates
        rest = [v for v in range(g.n) if v not in universe]
        gens = canon.automorphisms(g, [c for c in (list(universe), rest) if c])
        asked.clear()
        apex_augment_check(g, k_max, r, candidates)
        allowed = sum(1 << v for v in universe)
        answered = []  # (image, verdict) of every earlier answer
        for mask, verdict in asked:
            assert not mask & ~allowed and mask.bit_count() <= k_max
            for image, found in answered:
                settled = not image & ~mask if found else not mask & ~image
                assert not settled, (g.adj, mask, image, found)
            answered.extend((image, verdict) for image in canon.orbit(mask, gens))
        queries += len(asked)
    assert queries > 600


def test_double_apex_matches_all_subsets_sweep():
    hosts = list(generate(9, min_degree=6, prune=7))
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
        for r in range(1, 7):
            assert kr_minor_verdict(g, r) == kr_minor_brute(g, r, memo)


@contextmanager
def _probe(on):
    """The kernel as it is, or with the contraction probe off, so that every
    positive it is asked about is computed by the peel and the partition
    search."""
    with pytest.MonkeyPatch.context() as mp:
        if not on:
            mp.setattr(minors, "_contraction_probe", lambda g, r: None)
        yield


PROBE_ON_OFF = pytest.mark.parametrize("probe", [True, False], ids=["probe", "no-probe"])


@PROBE_ON_OFF
def test_verdict_matches_contraction_oracle_near_edge_cap(probe):
    # at most mader_edge_cap edges, so the cap cannot answer: the probe
    # (when on), the peel, the clique test or the partition search decides
    # each graph
    rng = random.Random(26)
    verdicts, contracted = [], 0
    for _ in range(40):
        n, r = rng.choice((9, 10)), rng.choice((6, 7))
        m = mader_edge_cap(n, r) - rng.randint(0, 4)
        g = make_graph(n, rng.sample(list(itertools.combinations(range(n), 2)), m))
        with _probe(probe):
            verdict = kr_minor_verdict(g, r)
            w = has_minor(g, complete(r))
        assert verdict == kr_minor_brute(g, r)
        assert (w is not None) == verdict
        if w is not None:
            validate_minor_witness(g, w)
            contracted += any(len(s) > 1 for s in w.branch_sets)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    assert contracted > 0


def _reversed(g):
    return from_rows(g.n, [
        sum(1 << (g.n - 1 - u) for u in range(g.n) if g.adj[v] >> u & 1)
        for v in reversed(range(g.n))
    ])


def _apex_and_near_cap_hosts():
    """(host, r): for K7, each corpus graph on at most 8 vertices with one
    apex joined to all of it and a second joined to a subset S (|S| <= 6);
    and 60 random hosts a few edges under the minor-free edge cap."""
    hosts = []
    for g in load_corpus():
        if g.n <= 8:
            host = attach_vertex(g, range(g.n))
            hosts += [(attach_vertex(host, subset), 7)
                      for k in range(1, 7)
                      for subset in itertools.combinations(range(g.n), k)]
    rng = random.Random(41)
    for _ in range(60):
        n, r = rng.choice(((9, 6), (9, 7), (10, 7), (10, 8), (11, 8)))
        m = mader_edge_cap(n, r) - rng.randint(0, 3)
        hosts.append((make_graph(
            n, rng.sample(list(itertools.combinations(range(n), 2)), m)), r))
    return hosts


def test_verdict_survives_reversed_labels_on_apex_and_near_cap_hosts():
    # the partition search branches on the uncovered vertex with the fewest
    # uncovered neighbours, which need not be the lowest, so the part grown
    # from it must range over lower vertices too; reversing the labels moves
    # the vertices a rule that looked only upwards would miss
    hosts = _apex_and_near_cap_hosts()
    memo, brute, verdicts = {}, 0, []
    for g, r in hosts:
        verdict = kr_minor_verdict(g, r)
        assert kr_minor_verdict(_reversed(g), r) == verdict, (g.adj, r)
        if g.n <= 9:  # the contraction oracle is cheap up to here
            assert kr_minor_brute(g, r, memo) == verdict, (g.adj, r)
            brute += 1
        verdicts.append(verdict)
    assert len(hosts) == 1416 and brute > 100
    assert verdicts.count(False) > 100 and verdicts.count(True) > 100


def test_verdict_builds_no_certificate_and_caches_nothing(monkeypatch):
    # no verdict is cached, so no query needs a canonical search for a key
    def no_search(*args):
        raise AssertionError("kr_minor_verdict ran a canonical search")

    monkeypatch.setattr(canon, "_min_key", no_search)
    verdicts = [kr_minor_verdict(g, r) for g, r in _apex_and_near_cap_hosts()]
    assert verdicts.count(False) > 100 and verdicts.count(True) > 100
    assert minors._KR_MEMO == {}


def test_peel_deletes_simplicial_vertices_of_degree_at_most_r_minus_2():
    # a 3-tree has minimum degree 3 and always a simplicial vertex of degree
    # 3, so for K5 the peel empties it, and for K4 it leaves the K4 it holds
    for seed in range(5):
        g = k_tree(3, 12, seed)
        assert g.min_degree() == 3
        assert _peel_for_clique(g, 5) == 0
        assert _peel_for_clique(g, 4) != 0
        assert kr_minor_verdict(g, 5) is False
        assert kr_minor_verdict(g, 4) is True
    # a vertex on a triangle, deleted for K5 but not for K4, where a branch
    # set of it alone reaches all three triangle vertices
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2)])
    assert _peel_for_clique(g, 5) == 0
    assert _peel_for_clique(g, 4) == 0b1111


def _subdivided_complete(r, subdivided):
    """K_r with each listed edge replaced by a path through a new vertex,
    labelled r, r + 1, ... in list order."""
    edges = [e for e in itertools.combinations(range(r), 2) if e not in subdivided]
    for s, (a, b) in enumerate(subdivided, start=r):
        edges += [(a, s), (s, b)]
    return make_graph(r + len(subdivided), edges)


def test_peel_keeps_subdivision_vertices_and_the_search_covers_them():
    # a subdivision vertex has degree 2 and non-adjacent neighbours, so it is
    # not simplicial and the peel keeps every vertex; with the probe off, the
    # partition search's model partitions the host, so some branch set holds
    # each subdivision vertex
    for r, subdivided in [(5, [(0, 1)]), (6, [(0, 1), (2, 3)])]:
        g = _subdivided_complete(r, subdivided)
        assert _peel_for_clique(g, r) == (1 << g.n) - 1
        with _probe(False):
            w = has_minor(g, complete(r))
        validate_minor_witness(g, w)
        for s in range(r, g.n):
            assert any(s in branch_set for branch_set in w.branch_sets)


def test_clique_search_builds_no_graph(monkeypatch):
    # the peel only deletes and the partition search reads the host's own
    # rows, so a query that reaches that search makes no graph of its own
    hosts = [(complete_multipartite(2, 2, 2, 2, 2), 8, False),
             (_subdivided_complete(5, [(0, 1)]), 5, True)]

    def no_graph(*args):
        raise AssertionError("the complete-minor search built a graph")

    monkeypatch.setattr(minors, "from_rows", no_graph)
    with _probe(False):
        for g, r, verdict in hosts:
            assert kr_minor_verdict(g, r) is verdict


def test_verdict_false_when_peel_empties_the_graph():
    path = make_graph(8, [(i, i + 1) for i in range(7)])
    assert kr_minor_verdict(path, 4) is False
    assert has_minor(path, complete(4)) is None


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return graph_from_code(n, draw(st.integers(0, (1 << comb(n, 2)) - 1)))


@PROBE_ON_OFF
@settings(derandomize=True, deadline=None, max_examples=500)
@given(small_graphs(), st.integers(1, 6))
def test_verdict_and_witness_match_contraction_oracle(probe, g, r):
    with _probe(probe):
        verdict = kr_minor_verdict(g, r)
        w = has_minor(g, complete(r))
    assert verdict == kr_minor_brute(g, r)
    assert (w is not None) == verdict
    if w is not None:
        validate_minor_witness(g, w)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(small_graphs(max_n=9), st.integers(4, 7))
def test_contraction_probe_models_are_witnesses(g, r):
    masks = _contraction_probe(g, r)
    if masks is not None:
        validate_minor_witness(g, _masks_to_witness(complete(r), masks))
    # the probe only ever answers yes, and never where the oracle says no
    assert masks is None or kr_minor_brute(g, r)


def test_contraction_probe_can_miss_a_minor():
    # the Petersen graph has a K5 minor, but greedy contraction from its
    # lowest vertex ends on a smaller clique, so the search must decide it;
    # likewise a double-apex host of lemma-compk8 at n = 9
    for g, r in [(petersen(), 5), (parse_graph6("JLr~v~}~~m?"), 8)]:
        assert _contraction_probe(g, r) is None
        assert kr_minor_verdict(g, r) is True
        w = has_minor(g, complete(r))
        validate_minor_witness(g, w)


def test_contraction_probe_stops_at_a_clique_larger_than_r():
    # K_{2,2,2,2} contracts to K6 (its Hadwiger number), so asked for K4 the
    # probe returns four of the six branch sets it ends on
    g = complete_multipartite(2, 2, 2, 2)
    six = _contraction_probe(g, 6)
    four = _contraction_probe(g, 4)
    assert len(six) == 6 and four == six[:4]
    assert _contraction_probe(g, 7) is None and kr_minor_verdict(g, 7) is False
    for masks in (four, six):
        validate_minor_witness(g, _masks_to_witness(complete(len(masks)), masks))


def _clique_with_pendant_trees(q, n, rng):
    """K_q on 0..q-1, each later vertex joined to one earlier vertex."""
    edges = list(itertools.combinations(range(q), 2))
    edges += [(rng.randrange(v), v) for v in range(q, n)]
    return make_graph(n, edges)


def test_partition_search_at_zero_edge_slack():
    # K_q with pendant trees has exactly |V| - q + C(q, 2) edges: one
    # spanning tree per part and one edge per pair of parts, no edge to
    # spare, so the bound must let every level of the search through; one
    # clique edge fewer leaves no K_q minor, and the bound alone refutes it
    rng = random.Random(12)
    for q in range(3, 7):
        for n in range(q, q + 6):
            g = _clique_with_pendant_trees(q, n, rng)
            assert g.edge_count == n - q + comb(q, 2)
            full = (1 << g.n) - 1
            masks = _partition_model(g.adj, full, q)
            assert masks is not None, g.adj
            validate_minor_witness(g, _masks_to_witness(complete(q), masks))
            assert sum(masks) == full
            h = make_graph(n, [e for e in g.edges() if e != (0, q - 1)])
            assert _partition_model(h.adj, full, q) is None, h.adj
            assert not kr_minor_brute(h, q)


@st.composite
def connected_hosts(draw, max_n=9):
    """A random spanning tree plus any set of further edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        edges |= draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
    return make_graph(n, sorted(edges))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(connected_hosts(), st.integers(4, 7))
def test_partition_search_matches_contraction_oracle(g, r):
    # asked directly, so neither the probe nor the peel settles the host
    # before the search and its edge-count bound see it
    full = (1 << g.n) - 1
    masks = _partition_model(g.adj, full, r)
    assert (masks is not None) == kr_minor_brute(g, r)
    if masks is not None:
        validate_minor_witness(g, _masks_to_witness(complete(r), masks))
        assert sum(masks) == full


def test_general_pattern_verdict_and_witness_match_contraction_oracle():
    # has_minor sends non-complete patterns to _search_model, which no
    # complete-minor test reaches
    patterns = {
        "C4": make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "C5": make_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
        "K4-e": make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        "K2,3": complete_multipartite(2, 3),
        "P4": make_graph(4, [(0, 1), (1, 2), (2, 3)]),
    }
    # every labelled host on 5 vertices, then seeded hosts on 6 and 7
    rng = random.Random(27)
    hosts = list(all_graphs_on(5)) + [
        random_graph_for_tests(rng.randint(6, 7), rng, p=rng.uniform(0.2, 0.8))
        for _ in range(100)
    ]
    for name, h in patterns.items():
        memo = {}
        verdicts = set()
        for g in hosts:
            w = has_minor(g, h)
            assert (w is not None) == minor_brute(g, h, memo), (name, g)
            if w is not None:
                validate_minor_witness(g, w)
            verdicts.add(w is not None)
        assert verdicts == {True, False}, name


def test_host_size_limits():
    big = make_graph(17, [(0, 1)])
    with pytest.raises(ValueError):
        has_minor(big, complete(3))
    with pytest.raises(ValueError):
        has_minor(big, make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    with pytest.raises(ValueError):
        kr_minor_verdict(complete(3), 0)
