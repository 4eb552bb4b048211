import hashlib
import importlib
import random

import pytest

from oracles import all_graphs_on, random_graph_for_tests
from triminor.canon import canonical_cert, is_isomorphic, pair_cert
from triminor.generate import (
    GenSpec,
    _invariant_survivors,
    _is_canonical_child,
    _orbit_reps,
    _with_edge,
    generate,
    generate_count,
    orderly_stream,
)
from triminor.graph6 import write_graph6
from triminor.graphs import (
    complete,
    complete_multipartite,
    double_axle_wheel,
    from_rows,
    make_graph,
    mader_edge_cap,
)
from triminor.minors import kr_minor_verdict


def test_forced_k5():
    out = list(generate(GenSpec(5, min_degree=4)))
    assert len(out) == 1
    assert is_isomorphic(out[0], complete(5))


def test_wheels():
    got6 = list(generate(GenSpec(6, min_degree=4, prune="K5")))
    got7 = list(generate(GenSpec(7, min_degree=4, prune="K5")))
    assert len(got6) == len(got7) == 1
    assert is_isomorphic(got6[0], double_axle_wheel(4))
    assert is_isomorphic(got7[0], double_axle_wheel(5))


def test_small_counts():
    assert generate_count(GenSpec(4)) == 11
    assert generate_count(GenSpec(5)) == 34
    assert generate_count(GenSpec(6, min_degree=5)) == 1
    assert sum(1 for _ in orderly_stream(7)) == 1044


def test_complete_against_labeled_enumeration_upto_6():
    for n in (1, 2, 3, 4, 5, 6):
        brute = {canonical_cert(g) for g in all_graphs_on(n)}
        mine = [canonical_cert(g) for g in generate(GenSpec(n))]
        assert len(mine) == len(set(mine)) == len(brute)
        assert set(mine) == brute


def test_corpus_slice_n7_against_full_labeled_enumeration():
    # every one of the 2^21 labeled graphs on 7 vertices, filtered exactly:
    # the lone survivor class is the octahedron plus a dominating vertex
    from itertools import combinations

    from triminor.graphs import complete_multipartite, from_rows
    from triminor.minors import attach_vertex, kr_minor_verdict

    pairs = list(combinations(range(7), 2))
    survivors = set()
    for code in range(1 << 21):
        rows = [0] * 7
        for k, (i, j) in enumerate(pairs):
            if code >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if min(r.bit_count() for r in rows) < 5:
            continue
        g = from_rows(7, rows)
        if not kr_minor_verdict(g, 6):
            survivors.add(canonical_cert(g))
    mine = {canonical_cert(g) for g in generate(GenSpec(7, min_degree=5, prune="K6"))}
    assert survivors == mine
    octahedron_plus_apex = attach_vertex(complete_multipartite(2, 2, 2), range(6))
    assert survivors == {canonical_cert(octahedron_plus_apex)}


def test_min_degree_filter_matches_brute_force():
    for n, d in ((5, 2), (6, 3)):
        brute = {
            canonical_cert(g) for g in all_graphs_on(n) if g.min_degree() >= d
        }
        mine = {canonical_cert(g) for g in generate(GenSpec(n, min_degree=d))}
        assert mine == brute


def test_k5_pruned_generation_matches_filtered_brute_force():
    brute = {
        canonical_cert(g)
        for g in all_graphs_on(6)
        if g.min_degree() >= 3 and not kr_minor_verdict(g, 5)
    }
    mine = {canonical_cert(g) for g in generate(GenSpec(6, min_degree=3, prune="K5"))}
    assert mine == brute


def test_n8_min_degree6_k7_free():
    got = list(generate(GenSpec(8, min_degree=6, prune="K7")))
    certs = {canonical_cert(g) for g in got}
    assert canonical_cert(complete_multipartite(2, 2, 2, 2)) in certs
    # independent pipeline: min degree >= 6 on 8 vertices means the
    # complement is a matching; enumerate all labeled matchings directly
    def labeled_matchings(vertices):
        if not vertices:
            yield []
            return
        first = vertices[0]
        rest = vertices[1:]
        yield from ([m for m in labeled_matchings(rest)])
        for i, other in enumerate(rest):
            for m in labeled_matchings(rest[:i] + rest[i + 1:]):
                yield [(first, other)] + m

    brute = set()
    full = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    for matching in labeled_matchings(list(range(8))):
        g = make_graph(8, [e for e in full if e not in matching])
        if not kr_minor_verdict(g, 7):
            brute.add(canonical_cert(g))
    assert certs == brute
    assert len(got) == 2


def test_no_duplicate_certs():
    for spec in (
        GenSpec(6),
        GenSpec(7, min_degree=4, prune="K5"),
        GenSpec(8, min_degree=5, prune="K6"),
    ):
        certs = [canonical_cert(g) for g in generate(spec)]
        assert len(certs) == len(set(certs))


def _edge_invariant(g, u, v):
    """Reference: the invariant of the canonical deletion key, (smaller
    degree, larger degree, common neighbours) of u and v."""
    du, dv = sorted((g.adj[u].bit_count(), g.adj[v].bit_count()))
    return du, dv, (g.adj[u] & g.adj[v]).bit_count()


def _orbit_reps_by_pair_cert(g, pairs):
    """Reference: group pairs by invariant, then by pair certificate, and
    keep the first pair of each group."""
    by_inv = {}
    for u, v in pairs:
        by_inv.setdefault(_edge_invariant(g, u, v), []).append((u, v))
    reps = []
    for group in by_inv.values():
        seen = {}
        for u, v in group:
            seen.setdefault(pair_cert(g, u, v), (u, v))
        reps.extend(seen.values())
    return sorted(reps)


def test_orbit_reps_match_pair_cert_grouping():
    parents = list(orderly_stream(6))
    assert len(parents) == 156
    for g in parents:
        non_edges = [
            (u, v) for u in range(6) for v in range(u + 1, 6) if not g.has_edge(u, v)
        ]
        assert _orbit_reps(g, non_edges) == _orbit_reps_by_pair_cert(g, non_edges)


def _is_canonical_child_by_min(g, added):
    """Reference: find the least invariant over all edges first, then
    compare the pair certificates of every edge that attains it."""
    edges = g.edges()
    if len(edges) == 1:
        return True
    inv_added = _edge_invariant(g, *added)
    cheapest = min(_edge_invariant(g, u, v) for u, v in edges)
    if inv_added != cheapest:
        return False
    cert_added = pair_cert(g, *added)
    for u, v in edges:
        if (u, v) == added or _edge_invariant(g, u, v) != cheapest:
            continue
        if pair_cert(g, u, v) < cert_added:
            return False
    return True


def test_canonical_child_test_matches_reference_on_every_child():
    # every augmentation of the 6- and 7-vertex classes (156 and 1,044
    # parents); the 6-vertex ones alone still pass when the ties lose
    # either the parent edges away from the added edge or those at its ends
    for n, expected in ((6, 1170), (7, 10962)):
        accepted = checked = 0
        for parent in orderly_stream(n):
            for u in range(n):
                for v in range(u + 1, n):
                    if parent.has_edge(u, v):
                        continue
                    child = _with_edge(parent, u, v)
                    ties = _invariant_survivors(parent, [(u, v)]).get((u, v))
                    mine = ties is not None and _is_canonical_child(child, (u, v), ties)
                    assert mine == _is_canonical_child_by_min(child, (u, v)), (child.adj, u, v)
                    accepted += mine
                    checked += 1
        assert checked == expected and 0 < accepted < checked


def _survivors_by_full_scan(parent, non_edges):
    """Reference: build each child and scan all its edges; map each
    survivor to the other child edges that tie with it."""
    out = {}
    for u, v in non_edges:
        child = _with_edge(parent, u, v)
        inv = _edge_invariant(child, u, v)
        if all(_edge_invariant(child, a, b) >= inv for a, b in child.edges()):
            out[u, v] = [
                (a, b) for a, b in child.edges()
                if (a, b) != (u, v) and _edge_invariant(child, a, b) == inv
            ]
    return out


def _sparse_graph(n, rng):
    """A seeded graph on n vertices with maximum degree at most 3."""
    rows = [0] * n
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        if rows[u].bit_count() < 3 and rows[v].bit_count() < 3:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return from_rows(n, rows)


def test_invariant_prefilter_matches_full_scan():
    # the survivors are a union of automorphism orbits, so their orbit reps
    # are the reps of all the non-edges that survive, in the same order
    rng = random.Random(41)
    parents = list(orderly_stream(7))
    parents += [_sparse_graph(rng.choice((9, 10)), rng) for _ in range(150)]
    kept = dropped = tied = 0
    for parent in parents:
        n = parent.n
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not parent.has_edge(u, v)
        ]
        survivors = _invariant_survivors(parent, non_edges)
        # the same survivors in the same order, each with the same ties
        assert list(survivors.items()) == list(
            _survivors_by_full_scan(parent, non_edges).items()), parent.adj
        reps = _orbit_reps(parent, non_edges)
        assert _orbit_reps(parent, list(survivors)) == [r for r in reps if r in survivors]
        kept += len(survivors)
        dropped += len(non_edges) - len(survivors)
        tied += sum(1 for ties in survivors.values() if ties)
    assert kept > tied > 0 and dropped > 0


def _watch_survivor_scans(monkeypatch):
    """Record each (parent, non-edges) that reaches _invariant_survivors."""
    gen_module = importlib.import_module("triminor.generate")
    scans = []

    def watched(parent, non_edges):
        scans.append((parent, list(non_edges)))
        return _invariant_survivors(parent, non_edges)

    monkeypatch.setattr(gen_module, "_invariant_survivors", watched)
    return scans


@pytest.mark.parametrize("n, d", [(7, 2), (7, 3), (8, 2)])
def test_degree_cap_scans_only_non_edges_below_the_cap(monkeypatch, n, d):
    # the cap is read off the parent: a non-edge with an end at degree d
    # never reaches the invariant scan, and every other non-edge does; the
    # stream is the uncapped one with the graphs over the cap left out
    full = [g.adj for g in orderly_stream(n)]
    scans = _watch_survivor_scans(monkeypatch)
    capped = [g.adj for g in orderly_stream(n, max_degree=d)]
    assert capped == [adj for adj in full if max(r.bit_count() for r in adj) <= d]
    assert scans
    for parent, non_edges in scans:
        deg = [row.bit_count() for row in parent.adj]
        assert non_edges == [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if not parent.has_edge(u, v) and deg[u] < d and deg[v] < d
        ]


def test_edge_cap_gives_the_level_at_the_cap_no_children(monkeypatch):
    full = [g.adj for g in orderly_stream(6)]
    scans = _watch_survivor_scans(monkeypatch)
    capped = [g.adj for g in orderly_stream(6, max_edges=5)]
    assert capped == [adj for adj in full if sum(r.bit_count() for r in adj) <= 10]
    assert {parent.edge_count for parent, _ in scans} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("spec, searches, pair_certs", [
    (GenSpec(9, min_degree=5), 454, 2203),
    (GenSpec(9, min_degree=6, prune="K7"), 36, 197),
])
def test_parent_automorphism_search_only_on_invariant_survivors(
    monkeypatch, spec, searches, pair_certs
):
    # one search per parent would be 1,165 and 70 here; the pair
    # certificates of the canonical test do not change
    gen_module = importlib.import_module("triminor.generate")
    calls = {"pair_orbits": 0, "pair_cert": 0}

    def counted(name):
        inner = getattr(gen_module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gen_module, name, counted(name))
    sum(1 for _ in generate(spec))
    assert calls == {"pair_orbits": searches, "pair_cert": pair_certs}


# sha256 of the `triminor gen` streams, the graph6 lines in stream order,
# on the direct side (--n 7, --n 8) and the complement side
# (--n 9 --min-degree 5, --n 10 --min-degree 6 --prune K7); a canon or
# generation change that emits other representatives, or the same ones in
# another order, must re-capture them on purpose; the two marked slow take
# about 2 s each on a 2-core machine
@pytest.mark.parametrize("spec, lines, digest", [
    pytest.param(
        GenSpec(7), 1044, "b3d2a50157446306d5e83c4e4bd27ce1bc152e99df6960255eda3350ac582f4a",
        id="n7"),
    pytest.param(
        GenSpec(9, min_degree=5), 1165,
        "4ef7cb396e8c48e2977666594be4ad62ac9ce437ca5f64a8b09e9ab464222d74",
        id="n9-mindeg5"),
    pytest.param(
        GenSpec(8), 12346, "c0f3229aee910fddaef7fce68d5626c5c88f3a477153ede7647571fe567e8593",
        id="n8", marks=pytest.mark.slow),
    pytest.param(
        GenSpec(10, min_degree=6, prune="K7"), 122,
        "116b624060378164c1fc4e5299833300105ac2348b892d74b040c9cf71824869",
        id="n10-mindeg6-K7", marks=pytest.mark.slow),
])
def test_gen_stream_is_pinned(spec, lines, digest):
    text = "".join(write_graph6(g) + "\n" for g in generate(spec))
    assert text.count("\n") == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_stream_is_deterministic():
    a = [g.adj for g in generate(GenSpec(7, min_degree=4, prune="K5"))]
    b = [g.adj for g in generate(GenSpec(7, min_degree=4, prune="K5"))]
    assert a == b
    c = [g.adj for g in orderly_stream(5)]
    d = [g.adj for g in orderly_stream(5)]
    assert c == d


def test_emitted_graphs_satisfy_spec():
    for g in generate(GenSpec(8, min_degree=5, prune="K6", max_edges=22)):
        assert g.min_degree() >= 5
        assert g.edge_count <= 22
        assert not kr_minor_verdict(g, 6)


def test_hereditary_soundness_spot_check():
    # once a graph has the forbidden minor, supergraphs keep it
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        g = random_graph_for_tests(7, rng, p=rng.uniform(0.4, 0.9))
        if not kr_minor_verdict(g, 5):
            continue
        non_edges = [
            (u, v)
            for u in range(7)
            for v in range(u + 1, 7)
            if not g.has_edge(u, v)
        ]
        for u, v in non_edges:
            bigger = make_graph(7, g.edges() + [(u, v)])
            assert kr_minor_verdict(bigger, 5)
        checked += 1


def test_large_n_with_edge_cap():
    # beyond desk scale only edge-capped jobs run; 20 vertices, <= 2 edges:
    # empty, one edge, two disjoint edges, a path on three vertices
    out = list(generate(GenSpec(20, max_edges=2)))
    assert len(out) == 4
    assert sorted(g.edge_count for g in out) == [0, 1, 2, 2]


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(5, prune="K9")
    with pytest.raises(ValueError):
        GenSpec(5, min_degree=5)
    with pytest.raises(ValueError):
        GenSpec(0)
    with pytest.raises(ValueError):
        GenSpec(17, prune="K6")
    with pytest.raises(ValueError):
        GenSpec(30)  # unconstrained beyond desk scale needs a cap
    GenSpec(12, max_edges=14)  # edge-capped large runs are fine


def test_mader_bound_on_generated_minor_free():
    for r, spec in ((5, GenSpec(7, min_degree=3, prune="K5")),
                    (6, GenSpec(8, min_degree=5, prune="K6"))):
        for g in generate(spec):
            assert g.edge_count <= mader_edge_cap(g.n, r)


def test_direct_side_pruning_asks_the_kernel_once_per_class(monkeypatch):
    # the edge cap comes before the canonical test and the kernel after it,
    # so each class is asked about once, where asking before the test asked
    # once per augmentation orbit (5,918 calls here); same stream either way
    gen_module = importlib.import_module("triminor.generate")
    asked = []

    def counting(g, r):
        asked.append(canonical_cert(g))
        return kr_minor_verdict(g, r)

    monkeypatch.setattr(gen_module, "kr_minor_verdict", counting)
    text = "".join(write_graph6(g) + "\n" for g in generate(GenSpec(7, prune="K5")))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "32f4e87f77b60f31fcc88f0336de59cd163fd31657c5bf6c6ee371291d4daa21"
    )
    assert text.count("\n") == 869
    assert len(asked) == len(set(asked)) == 922
