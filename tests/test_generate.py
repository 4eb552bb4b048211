import hashlib
import random
import re
import sys
from math import factorial

import pytest

import triminor.canon as canon
import triminor.generate as gen_module
from oracles import all_graphs_on, group_order, labelled_graph_counts, random_graph_for_tests
from triminor.canon import (
    automorphisms,
    canonical_cert,
    cell_positions,
    is_isomorphic,
    pair_cert,
)
from triminor.generate import (
    _invariant_survivors,
    _is_canonical_child,
    _orbit_reps,
    _with_edge,
    generate,
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


def test_import_binds_the_generate_module():
    # the package re-exports nothing, so the function `generate` does not
    # shadow the submodule of the same name
    assert gen_module is sys.modules["triminor.generate"]
    assert gen_module.generate is generate


def test_forced_k5():
    out = list(generate(5, min_degree=4))
    assert len(out) == 1
    assert is_isomorphic(out[0], complete(5))


def test_wheels():
    got6 = list(generate(6, min_degree=4, prune=5))
    got7 = list(generate(7, min_degree=4, prune=5))
    assert len(got6) == len(got7) == 1
    assert is_isomorphic(got6[0], double_axle_wheel(4))
    assert is_isomorphic(got7[0], double_axle_wheel(5))


def test_small_counts():
    assert sum(1 for _ in generate(4)) == 11
    assert sum(1 for _ in generate(5)) == 34
    assert sum(1 for _ in generate(6, min_degree=5)) == 1
    assert sum(1 for _ in orderly_stream(7)) == 1044


def test_complete_against_labeled_enumeration_upto_6():
    for n in (1, 2, 3, 4, 5, 6):
        brute = {canonical_cert(g) for g in all_graphs_on(n)}
        mine = [canonical_cert(g) for g in generate(n)]
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
    mine = {canonical_cert(g) for g in generate(7, min_degree=5, prune=6)}
    assert survivors == mine
    octahedron_plus_apex = attach_vertex(complete_multipartite(2, 2, 2), range(6))
    assert survivors == {canonical_cert(octahedron_plus_apex)}


def test_min_degree_filter_matches_brute_force():
    for n, d in ((5, 2), (6, 3)):
        brute = {
            canonical_cert(g) for g in all_graphs_on(n) if g.min_degree() >= d
        }
        mine = {canonical_cert(g) for g in generate(n, min_degree=d)}
        assert mine == brute


def test_k5_pruned_generation_matches_filtered_brute_force():
    brute = {
        canonical_cert(g)
        for g in all_graphs_on(6)
        if g.min_degree() >= 3 and not kr_minor_verdict(g, 5)
    }
    mine = {canonical_cert(g) for g in generate(6, min_degree=3, prune=5)}
    assert mine == brute


def test_n8_min_degree6_k7_free():
    got = list(generate(8, min_degree=6, prune=7))
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
    for args in (
        dict(n=6),
        dict(n=7, min_degree=4, prune=5),
        dict(n=8, min_degree=5, prune=6),
    ):
        certs = [canonical_cert(g) for g in generate(**args)]
        assert len(certs) == len(set(certs))


def test_group_order_oracle_counts_every_automorphism():
    # the Schreier-Sims order of the generators against a count of every
    # vertex permutation that keeps the adjacency, on each 6-vertex class
    from itertools import permutations

    for g in orderly_stream(6):
        brute = sum(
            1 for p in permutations(range(6))
            if all(bool(g.adj[p[u]] >> p[v] & 1) == g.has_edge(u, v)
                   for u in range(6) for v in range(u + 1, 6))
        )
        assert group_order(6, automorphisms(g, [list(range(6))])) == brute, g.adj


@pytest.mark.parametrize("n, max_degree", [(n, None) for n in range(1, 9)] + [
    (9, 3), (10, 3), pytest.param(10, 4, marks=pytest.mark.slow)])
def test_stream_weighs_up_to_every_labelled_graph(n, max_degree):
    # orbit-stabiliser: a class G has n!/|Aut(G)| labellings, so the classes
    # with m edges, weighed that way, count the labelled graphs with m
    # edges whatever the representatives and their order; a missing or
    # repeated class, or an incomplete automorphism group, breaks it.  The
    # unmarked ones take about 4 s together on a 2-core machine, 2.5 s of
    # it at n = 8; the slow one, the `gen --n 10 --min-degree 5` stream's
    # complement side, 16 s
    weighed = [0] * len(labelled_graph_counts(n, max_degree))
    for g in orderly_stream(n, max_degree=max_degree):
        weighed[g.edge_count] += factorial(n) // group_order(n, automorphisms(g, [list(range(n))]))
    assert weighed == labelled_graph_counts(n, max_degree)


@pytest.mark.parametrize("n, max_degree", [(7, None), (9, 3)])
def test_stream_is_depth_first(n, max_degree):
    # in preorder the latest graph with one edge fewer is g's parent, so g
    # less one of its edges up to isomorphism
    latest = {}
    for g in orderly_stream(n, max_degree=max_degree):
        if g.edge_count:
            parent = canonical_cert(latest[g.edge_count - 1])
            edges = g.edges()
            assert any(canonical_cert(make_graph(n, [e for e in edges if e != uv])) == parent
                       for uv in edges), g.adj
        latest[g.edge_count] = g


def _edge_invariant(g, u, v):
    """Reference: the invariant of the canonical deletion key, (smaller
    degree, larger degree, common neighbours) of u and v."""
    du, dv = sorted((g.adj[u].bit_count(), g.adj[v].bit_count()))
    return du, dv, (g.adj[u] & g.adj[v]).bit_count()


def _ranking_by_scan(g):
    """Reference: the (invariant, mask) pair of every edge of g, ascending,
    the invariant packed as d1 << 14 | d2 << 7 | common."""
    ranked = []
    for u, v in g.edges():
        d1, d2, common = _edge_invariant(g, u, v)
        ranked.append((d1 << 14 | d2 << 7 | common, 1 << u | 1 << v))
    return sorted(ranked)


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
        assert _orbit_reps(g, non_edges, None) == _orbit_reps_by_pair_cert(g, non_edges)


def _is_canonical_child_by_min(g, added):
    """Reference: the full key (invariant, cell key, pair certificate) of
    every edge, and whether the added edge's is the least."""
    pos = cell_positions(g)

    def full_key(u, v):
        return (_edge_invariant(g, u, v), tuple(sorted((pos[u], pos[v]))),
                pair_cert(g, u, v))

    return full_key(*added) == min(full_key(u, v) for u, v in g.edges())


def test_canonical_child_test_matches_reference_on_every_child():
    # every augmentation of the 6- and 7-vertex classes (156 and 1,044
    # parents) and of the 70 max-degree-2 classes on 9 vertices; the
    # 6-vertex ones alone still pass when the ties lose either the parent
    # edges away from the added edge or those at its ends; only the 9-vertex
    # ones have a tie with the added edge's cell key outside its orbit (in
    # C4 + C5, every edge has one cell key), which the group search alone
    # cannot settle; the generators returned with an accepted child, kept
    # for it as a parent, give the orbit reps its own search gives
    for n, max_degree, expected in ((6, None, 1170), (7, None, 10962), (9, 2, 2106)):
        accepted = checked = kept = 0
        for parent in orderly_stream(n, max_degree=max_degree):
            ranked = _ranking_by_scan(parent)
            for u in range(n):
                for v in range(u + 1, n):
                    if parent.has_edge(u, v):
                        continue
                    child = _with_edge(parent, u, v)
                    ties = _invariant_survivors(parent, [(u, v)], ranked).get((u, v))
                    mine, gens = (False, None) if ties is None else (
                        _is_canonical_child(child, (u, v), ties))
                    assert mine == _is_canonical_child_by_min(child, (u, v)), (child.adj, u, v)
                    if gens is not None:
                        assert mine
                        non_edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                                     if not child.has_edge(a, b)]
                        assert (_orbit_reps(child, non_edges, gens)
                                == _orbit_reps(child, non_edges, None)), child.adj
                        kept += 1
                    accepted += mine
                    checked += 1
        assert checked == expected and 0 < kept < accepted < checked


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
        survivors = _invariant_survivors(parent, non_edges, _ranking_by_scan(parent))
        # the same survivors in the same order, each with the same ties
        assert list(survivors.items()) == list(
            _survivors_by_full_scan(parent, non_edges).items()), parent.adj
        reps = _orbit_reps(parent, non_edges, None)
        assert _orbit_reps(parent, list(survivors), None) == [r for r in reps if r in survivors]
        kept += len(survivors)
        dropped += len(non_edges) - len(survivors)
        tied += sum(1 for ties in survivors.values() if ties)
    assert kept > tied > 0 and dropped > 0


def _watch_survivor_scans(monkeypatch):
    """Record each (parent, non-edges, ranking) that reaches
    _invariant_survivors, and pass them on unchanged."""
    scans = []

    def watched(parent, non_edges, ranked):
        scans.append((parent, list(non_edges), list(ranked)))
        return _invariant_survivors(parent, non_edges, ranked)

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
    for parent, non_edges, _ in scans:
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
    assert {parent.edge_count for parent, _, _ in scans} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("n, max_degree, max_edges", [
    (7, None, None), (9, 3, None), (8, None, 10),
])
def test_stream_carries_each_parents_ranking(monkeypatch, n, max_degree, max_edges):
    # the ranking each parent is expanded with, carried down from the empty
    # graph's [] one added edge at a time, is the one a scan of its edges
    # gives; every class below the edge cap is expanded once
    scans = _watch_survivor_scans(monkeypatch)
    stream = list(orderly_stream(n, max_degree, max_edges))
    assert [parent for parent, _, _ in scans] == [
        g for g in stream if max_edges is None or g.edge_count < max_edges]
    for parent, _, ranked in scans:
        assert ranked == _ranking_by_scan(parent), parent.adj


@pytest.mark.parametrize("args, searches, reused, refined, pair_certs, nodes, keys", [
    pytest.param(dict(n=9, min_degree=5), 740, 183, 813, 47, 2799, 100, id="n9-mindeg5"),
    pytest.param(dict(n=9, min_degree=6, prune=7), 65, 23, 56, 7, 423, 26,
                 id="n9-mindeg6-K7"),
])
def test_parent_automorphism_search_only_on_invariant_survivors(
    monkeypatch, args, searches, reused, refined, pair_certs, nodes, keys
):
    # one search per parent would be 1,165 and 70 here; the children that
    # tie on the invariant are refined once each; the 469 and 52 children
    # with a tie left by the cell key get one group search each, whose
    # generators 183 and 23 parents reuse, so 271 and 13 parents search
    # their own; the ties outside the added edge's orbit leave 47 and 7
    # pair certificates (13 and 2 for added edges, 34 and 5 for ties) of
    # the 2,203 and 197 that the invariant ties alone would ask for;
    # `_refine` runs once per `cell_positions` and per canon search node,
    # 2,799 and 423 times, and only the pair certificates build triangle
    # keys
    calls = {"automorphisms": 0, "cell_positions": 0, "pair_cert": 0}
    work = {"_refine": 0, "_triangle_key": 0}

    def counted(module, tally, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            tally[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gen_module, name, counted(gen_module, calls, name))
    for name in work:
        monkeypatch.setattr(canon, name, counted(canon, work, name))
    given = []
    orbit_reps = gen_module._orbit_reps

    def watched(g, pairs, gens):
        given.append(gens is not None)
        return orbit_reps(g, pairs, gens)

    monkeypatch.setattr(gen_module, "_orbit_reps", watched)
    sum(1 for _ in generate(**args))
    assert calls == {"automorphisms": searches, "cell_positions": refined,
                     "pair_cert": pair_certs}
    assert sum(given) == reused
    assert work == {"_refine": nodes, "_triangle_key": keys}


# sha256 of the `triminor gen` streams, the graph6 lines in stream order,
# on the direct side (--n 7, --n 8) and the complement side
# (--n 9 --min-degree 5, --n 10 --min-degree 6 --prune K7); a canon or
# generation change that emits other representatives, or the same ones in
# another order, must re-capture them on purpose, and keep the class-set
# pins below; re-captured when the stream became depth-first, with the
# sorted lines unchanged; the two marked slow take about 2 s each on a
# 2-core machine
@pytest.mark.parametrize("args, lines, digest", [
    pytest.param(
        dict(n=7), 1044, "68346e32fc8085f83ed6f4f72fffa29e842eeba1ca015801ddce3ca2d4477c00",
        id="n7"),
    pytest.param(
        dict(n=9, min_degree=5), 1165,
        "a6b593b97a3e1f330710ec54748a53a8423d998beba4d7c1a6af83778a07674f",
        id="n9-mindeg5"),
    pytest.param(
        dict(n=8), 12346, "438f43144c08931886df4258dfbeea64774124f918263755f1fb04586b5f8f0d",
        id="n8", marks=pytest.mark.slow),
    pytest.param(
        dict(n=10, min_degree=6, prune=7), 122,
        "419fc43f4e576004edc7fc7fded49cd89102cbea7e87b0b3f87b55fbf34fc184",
        id="n10-mindeg6-K7", marks=pytest.mark.slow),
])
def test_gen_stream_is_pinned(args, lines, digest):
    text = "".join(write_graph6(g) + "\n" for g in generate(**args))
    assert text.count("\n") == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the sorted canonical certificates of the same streams, and of
# the direct side's K5-pruned --n 7 stream, joined: it pins the class sets,
# not the representatives, so a change to the canonical deletion edge must
# keep it; captured before the cell-key tie-break
@pytest.mark.parametrize("args, classes, digest", [
    pytest.param(
        dict(n=7), 1044, "6327502e6233679c2a1d8649f70d50a51adbdbd7d58e293ff147404fa2103262",
        id="n7"),
    pytest.param(
        dict(n=9, min_degree=5), 1165,
        "8385586e369a18a37d924304a10cc8a25cae30c9da718b31f3b2bff8c41f734a",
        id="n9-mindeg5"),
    pytest.param(
        dict(n=7, prune=5), 869,
        "de41c6743a7d5eeb8b968c36e4760a4104d6c51b27303b0cacbd33a7b022a7c4",
        id="n7-K5"),
    pytest.param(
        dict(n=8), 12346, "2c15058da91c17c9e628209e81705ca9bbd1d6299e11e43bcdbc3e0875a6fe66",
        id="n8", marks=pytest.mark.slow),
    pytest.param(
        dict(n=10, min_degree=6, prune=7), 122,
        "f8f2dc11539e9b1ffb735886d938f7492f978ab475cd328d0554bf19087bbf9c",
        id="n10-mindeg6-K7", marks=pytest.mark.slow),
])
def test_gen_class_set_is_pinned(args, classes, digest):
    certs = sorted(canonical_cert(g) for g in generate(**args))
    assert len(certs) == classes
    assert hashlib.sha256(b"".join(certs)).hexdigest() == digest


def test_stream_is_deterministic():
    a = [g.adj for g in generate(7, min_degree=4, prune=5)]
    b = [g.adj for g in generate(7, min_degree=4, prune=5)]
    assert a == b
    c = [g.adj for g in orderly_stream(5)]
    d = [g.adj for g in orderly_stream(5)]
    assert c == d


def test_emitted_graphs_satisfy_spec():
    for g in generate(8, min_degree=5, prune=6, max_edges=22):
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
    out = list(generate(20, max_edges=2))
    assert len(out) == 4
    assert sorted(g.edge_count for g in out) == [0, 1, 2, 2]


@pytest.mark.parametrize("args, message", [
    pytest.param(dict(n=5, prune=9), "unknown prune r=9, have 4..8", id="prune-9"),
    pytest.param(dict(n=5, prune=3), "unknown prune r=3, have 4..8", id="prune-3"),
    pytest.param(dict(n=5, prune="K5"), "unknown prune r='K5', have 4..8",
                 id="prune-id"),
    pytest.param(dict(n=5, prune="K9"), "unknown prune r='K9', have 4..8",
                 id="prune-K9"),
    pytest.param(dict(n=0), "n=0 outside 1..64", id="n-0"),
    pytest.param(dict(n=5, max_edges=-1), "max_edges -1 is negative", id="max-edges"),
    pytest.param(dict(n=5, min_degree=-1), "min_degree -1 is negative", id="min-degree"),
    pytest.param(dict(n=5, min_degree=5), "min_degree 5 infeasible for n=5",
                 id="min-degree-n"),
    pytest.param(dict(n=17, prune=6), "minor-pruned generation capped at n=16",
                 id="pruned-n-17"),
    pytest.param(dict(n=30), "unconstrained generation beyond n=10 needs an edge cap",
                 id="uncapped-n-30"),
])
def test_generate_refuses_bad_arguments(monkeypatch, args, message):
    # refused before the first graph, so before any stream is started
    def no_stream(*_, **__):
        raise AssertionError("generation started")

    monkeypatch.setattr(gen_module, "orderly_stream", no_stream)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        next(generate(**args))


def test_genspec_validation():
    # the generation spec (n, min_degree, prune, max_edges) is checked as a
    # whole when generate() is first advanced
    for args in (dict(n=5, prune="K9"), dict(n=5, prune=9), dict(n=5, min_degree=5),
                 dict(n=5, min_degree=-1), dict(n=0), dict(n=17, prune=6),
                 dict(n=30)):  # unconstrained beyond desk scale needs a cap
        with pytest.raises(ValueError):
            next(generate(**args))
    next(generate(12, max_edges=14))  # edge-capped large runs are fine

def test_mader_bound_on_generated_minor_free():
    for r, args in ((5, dict(n=7, min_degree=3, prune=5)),
                    (6, dict(n=8, min_degree=5, prune=6))):
        for g in generate(**args):
            assert g.edge_count <= mader_edge_cap(g.n, r)


def test_direct_side_pruning_asks_the_kernel_once_per_class(monkeypatch):
    # the edge cap comes before the canonical test and the kernel after it,
    # so each class is asked about once, where asking before the test asked
    # once per augmentation orbit (5,918 calls here); same stream either way.
    # A change of representatives or of their order re-captures the hash
    # (last when the stream became depth-first); the class set is pinned by
    # test_gen_class_set_is_pinned[n7-K5]
    asked = []

    def counting(g, r):
        asked.append(canonical_cert(g))
        return kr_minor_verdict(g, r)

    monkeypatch.setattr(gen_module, "kr_minor_verdict", counting)
    text = "".join(write_graph6(g) + "\n" for g in generate(7, prune=5))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "189d97450b6adb85f1b854508c1a409b3825e1f626441a2a54e4191b57b5b640"
    )
    assert text.count("\n") == 869
    assert len(asked) == len(set(asked)) == 922
