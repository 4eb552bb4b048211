"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criteria 1 and 7 assert the neighbourhood facts as exact recomputation gives
them, each cross-checked by the independent oracles in ``oracles.py``: 23
classes for the K6-minor-free list (the 22 historical classes on 8-9 vertices
plus K_{1,2,2,2} on 7), and one graph outside the named exceptions at n=9,
the complement of C3+C6, failing only the double-apex bullet.  The
``list22-r7`` and ``lemma-compk8 --n 9`` checks themselves still test the
historical claims and report them as failed.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

from oracles import (
    graph_from_code,
    isomorphic_brute,
    kr_minor_brute,
    orbit_classes_on,
    random_planar_triangulation,
    triangles_on_edge_brute,
)
from triminor.canon import canonical_cert, is_isomorphic
from triminor.generate import generate, orderly_stream
from triminor.graph6 import parse_graph6
from triminor.graphs import (
    complement,
    complete,
    complete_multipartite,
    double_axle_wheel,
    k_tree,
    make_graph,
    min_triangle_edge,
    total_triangles,
)
from triminor.minors import (
    attach_vertex,
    has_minor,
    kr_minor_verdict,
    validate_minor_witness,
)
from triminor.rigidity import stress_space_dim, whiteley_reduce
from triminor.verify import (
    load_corpus,
    random_kr_minor_free,
    run_check,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _oracle_k6_free_classes_on_7() -> tuple[int, list]:
    """Isomorphism classes of 7-vertex graphs with min degree >= 5 and no K6
    minor, from the contraction oracle alone.  Min degree >= 5 on 7 vertices
    leaves at most 3 (pairwise disjoint) non-edges, so the labelled
    candidates are the complements of the 232 matchings of K7."""
    pairs = list(combinations(range(7), 2))
    memo: dict = {}
    candidates = 0
    classes: list = []
    for k in range(4):
        for missing in combinations(pairs, k):
            g = make_graph(7, [p for p in pairs if p not in missing])
            if min(g.degree(v) for v in range(7)) < 5:
                continue
            candidates += 1
            if kr_minor_brute(g, 6, memo):
                continue
            if not any(isomorphic_brute(g, h) for h in classes):
                classes.append(g)
    return candidates, classes


def test_criterion_01_golden_enumeration():
    lines = list(run_check("list22-r7"))
    by_input = {l.input: l for l in lines}
    summary = by_input["summary"]
    count = summary.witness["count"]
    corpus_ok = by_input["corpus-match"].verdict == "pass"
    graphs = [parse_graph6(s) for s in summary.witness.get("graphs", [])]
    by_order = dict(sorted(Counter(g.n for g in graphs).items()))
    sevens = [g for g in graphs if g.n == 7]
    k1222 = complete_multipartite(1, 2, 2, 2)
    seven_ok = len(sevens) == 1 and isomorphic_brute(sevens[0], k1222)
    candidates, oracle_classes = _oracle_k6_free_classes_on_7()
    slice_ok = (
        candidates == 232
        and len(oracle_classes) == 1
        and isomorphic_brute(oracle_classes[0], k1222)
    )
    # the kernel's K6 pruning against the oracle, on every generated class
    memo: dict = {}
    oracle_free = sorted(
        canonical_cert(g)
        for n in range(6, 10)
        for g in generate(n, min_degree=5)
        if not kr_minor_brute(g, 6, memo)
    )
    filter_ok = oracle_free == sorted(canonical_cert(g) for g in graphs)
    ok = (corpus_ok and count == 23 and by_order == {7: 1, 8: 5, 9: 17}
          and seven_ok and slice_ok and filter_ok)
    _report(1, ok, f"list22-r7 regenerated count={count} by order {by_order} "
                   f"(historical claim: 22 on 8-9 vertices), "
                   f"corpus-match={corpus_ok}, 7-vertex class K_{{1,2,2,2}}="
                   f"{seven_ok}, oracle 7-vertex slice={slice_ok}, "
                   f"oracle K6 filter agrees={filter_ok}")
    assert corpus_ok, "regeneration must reproduce the shipped corpus"
    assert count == 23, (
        f"exact predicate yields {count} classes; expected 23: the 22 "
        "historical classes on 8-9 vertices plus K_{1,2,2,2} on 7"
    )
    assert by_order == {7: 1, 8: 5, 9: 17}, by_order
    assert seven_ok, "the only 7-vertex class must be K_{1,2,2,2}"
    assert slice_ok, (
        f"contraction oracle over {candidates} labelled 7-vertex candidates "
        f"gave {len(oracle_classes)} K6-minor-free classes; expected "
        "K_{1,2,2,2} alone"
    )
    assert filter_ok, (
        "contraction oracle and the K6 pruning disagree on the min-degree-5 "
        f"classes: {len(oracle_free)} K6-minor-free by the oracle"
    )


def test_criterion_02_wheels():
    found = []
    for n in (6, 7):
        found.extend(generate(n, min_degree=4, prune=5))
    wheels = [double_axle_wheel(4), double_axle_wheel(5)]
    shape_ok = all(
        any(is_isomorphic(g, w) for w in wheels)
        and g.edge_count == 3 * g.n - 6
        and all((g.adj[u] & g.adj[v]).bit_count() == 2 for u, v in g.edges())
        for g in found
    )
    ok = len(found) == 2 and shape_ok
    _report(2, ok, f"double-axle wheels: {len(found)} graphs, shape ok={shape_ok}")
    assert ok


def test_criterion_03_apex_augmentation():
    lines = list(run_check("lemma-compk7"))
    failures = sum(line.verdict == "fail" for line in lines)
    ok = failures == 0
    _report(3, ok, f"apex sweeps over {len(load_corpus())} corpus graphs, "
                   f"failures={failures}")
    assert ok


def test_criterion_04_unique_special_vertex():
    lines = list(run_check("lemma-numberk7"))
    failures = sum(line.verdict == "fail" for line in lines)
    ok = failures == 0
    _report(4, ok, f"<=1 vertex with all incident edges in >=4 triangles, "
                   f"failures={failures}")
    assert ok


def test_criterion_05_p10_induced_subgraphs():
    summary = list(run_check("claim-p10-subgraphs"))[-1]
    ok = summary.verdict == "pass"
    _report(5, ok, f"induced 6-vertex classes of the Petersen complement: "
                   f"{summary.witness}")
    assert ok


def test_criterion_06_p10_edge_additions():
    lines = list(run_check("claim-2edgeP10"))
    failures = sum(line.verdict == "fail" for line in lines)
    counts = lines[-1].witness
    ok = failures == 0 and counts["pairs"] > 0 and counts["triples"] == 445
    _report(6, ok, f"edge additions in the Petersen complement: {counts}, "
                   f"failures={failures}")
    assert ok


def _c3_plus_c6_complement():
    """Complement of C3+C6, labelled naturally: the triangle on 0-2 and the
    hexagon on 3-8 in cyclic order."""
    hexagon = [(3 + i, 3 + (i + 1) % 6) for i in range(6)]
    return complement(make_graph(9, [(0, 1), (1, 2), (0, 2)] + hexagon))


# The 7-subsets Y of the complement of C3+C6 for which the double-apex
# augmentation has no K8 minor: the omitted pair is antipodal on the hexagon.
_C3C6_NO_K8_SUBSETS = [
    (0, 1, 2, 3, 4, 6, 7),
    (0, 1, 2, 3, 5, 6, 8),
    (0, 1, 2, 4, 5, 7, 8),
]


def test_criterion_07_neighbourhoods_of_degree11():
    details = []
    fails = {}
    for n in (8, 9, 10):
        lines = list(run_check("lemma-compk8", n=n))
        fails[n] = [l for l in lines if l.verdict == "fail" and l.input != "summary"]
        details.append(f"n={n}: graphs={lines[-1].witness['graphs']} "
                       f"failures={len(fails[n])}")
    h = _c3_plus_c6_complement()
    failing = fails[9][0] if len(fails[9]) == 1 else None
    only_c3c6 = (
        not fails[8] and not fails[10] and failing is not None
        and isomorphic_brute(parse_graph6(failing.input), h)
    )
    facts = failing.witness if failing is not None else None
    only_double_apex = (
        facts is not None
        and facts["connectivity"] >= 5
        and facts["special_exactly5"] <= 1
        and facts["double_apex"] is False
    )
    # the reported 7-subset, re-checked by the oracle on the record's own graph
    reported_no_k8 = False
    if facts is not None and "double_apex_subset" in facts:
        g = parse_graph6(failing.input)
        aug = attach_vertex(attach_vertex(g, range(g.n)), facts["double_apex_subset"])
        reported_no_k8 = kr_minor_brute(aug, 8) is False
    edge_triangles = {triangles_on_edge_brute(h, u, v) for u, v in h.edges()}
    # double-apex re-derived on the natural labelling, oracle against kernel
    memo: dict = {}
    disagree = []
    no_k8 = []
    for y in combinations(range(9), 7):
        aug = attach_vertex(attach_vertex(h, range(9)), y)
        verdict = kr_minor_brute(aug, 8, memo)
        if verdict != kr_minor_verdict(aug, 8):
            disagree.append(y)
        if not verdict:
            no_k8.append(y)
    ok = (only_c3c6 and only_double_apex and reported_no_k8
          and edge_triangles <= {3, 4}
          and not disagree and no_k8 == _C3C6_NO_K8_SUBSETS)
    _report(7, ok, "; ".join(details) + f"; sole failure is complement of "
                   f"C3+C6={only_c3c6}, fails only double-apex="
                   f"{only_double_apex}, reported subset has no K8={reported_no_k8}, "
                   f"edge triangles={sorted(edge_triangles)}, "
                   f"oracle/kernel disagreements={len(disagree)}, "
                   f"subsets without K8={no_k8}")
    assert only_c3c6, (
        "the only failing record at n=8..10 must be the complement of C3+C6 "
        f"at n=9; got {[(n, [l.input for l in f]) for n, f in fails.items()]}"
    )
    assert only_double_apex, f"it must fail the double-apex bullet alone: {facts}"
    assert reported_no_k8, (
        f"the reported double-apex subset must leave no K8 minor: {facts}"
    )
    assert edge_triangles <= {3, 4}, (
        "every edge of the complement of C3+C6 must lie in 3 or 4 triangles"
    )
    assert not disagree, f"contraction oracle and kernel disagree on {disagree}"
    assert no_k8 == _C3C6_NO_K8_SUBSETS, no_k8


def test_criterion_08_ktree_density_formula():
    rng = random.Random(808)
    bad = 0
    for k in range(2, 7):
        for _ in range(100):
            n = rng.randint(k, 20)
            g = k_tree(k, n, seed=rng.randrange(1 << 30))
            if 2 * total_triangles(g) != (k - 1) * g.edge_count - comb(k + 1, 3):
                bad += 1
    ok = bad == 0
    _report(8, ok, f"k-tree triangle formula, 100 samples per k in 2..6, "
                   f"violations={bad}")
    assert ok


def test_criterion_09_low_degree_low_triangle_edge():
    rng = random.Random(909)
    violations = []
    for r in (5, 6, 7):
        for _ in range(1000):
            g = random_kr_minor_free(r, rng, n_max=12)
            rep = min_triangle_edge(g, degree_cap=2 * r - 5)
            if rep.min_count > r - 3:
                violations.append((r, rep.min_count))
    ok = not violations
    _report(9, ok, f"sampling net (1000 per r in 5..7): min triangle count "
                   f"within bound, violations={len(violations)}")
    assert ok


def test_criterion_10_rigidity():
    k22222 = complete_multipartite(2, 2, 2, 2, 2)
    stressed = stress_space_dim(k22222, 6, seed=10)
    tri_ok = True
    rng = random.Random(1010)
    for _ in range(50):
        t = random_planar_triangulation(rng.randint(4, 12), rng)
        if stress_space_dim(t, 3, seed=rng.randrange(1 << 30)).dim != 0:
            tri_ok = False
    corpus_ok = True
    for g in load_corpus():
        reduced, _ = whiteley_reduce(g, 5)
        if reduced.n != 1 or stress_space_dim(g, 5, seed=5).dim != 0:
            corpus_ok = False
    ok = stressed.dim >= 1 and tri_ok and corpus_ok
    _report(10, ok, f"K22222@d6 dim={stressed.dim} (>=1), 50 triangulations@d3 "
                    f"stress-free={tri_ok}, corpus@d5 stress-free+reduced={corpus_ok}")
    assert ok


def test_criterion_11_coloring_bounds():
    lines = list(run_check("coloring-bound", samples=1000, seed=11))
    failures = sum(line.verdict == "fail" for line in lines)
    ok = failures == 0
    _report(11, ok, f"chromatic bounds on 1000 sampled graphs per class, "
                    f"failures={failures}")
    assert ok


def test_criterion_12_oracle_equivalence():
    # minor search against the contraction oracle, every graph on <= 6 vertices
    memo = {}
    minor_ok = True
    for n in range(1, 7):
        for g in orderly_stream(n):
            for r in (3, 4, 5):
                verdict = kr_minor_verdict(g, r)
                if verdict != kr_minor_brute(g, r, memo):
                    minor_ok = False
                if verdict and g.n <= 16:
                    w = has_minor(g, complete(r))
                    validate_minor_witness(g, w)
    # certificates against permutation-orbit isomorphism on all 6-vertex graphs
    classes, labels = orbit_classes_on(6)
    cert_by_class: dict[int, bytes] = {}
    class_by_cert: dict[bytes, int] = {}
    cert_ok = classes == 156
    for code in range(1 << 15):
        cert = canonical_cert(graph_from_code(6, code))
        cls = labels[code]
        if cert_by_class.setdefault(cls, cert) != cert:
            cert_ok = False
        if class_by_cert.setdefault(cert, cls) != cls:
            cert_ok = False
    cert_ok = cert_ok and len(cert_by_class) == 156
    ok = minor_ok and cert_ok
    _report(12, ok, f"minor search vs contraction oracle (n<=6, K3..K5): "
                    f"{minor_ok}; 6-vertex certs == 156 orbit classes: {cert_ok}")
    assert ok
