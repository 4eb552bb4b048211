"""Named, self-contained reproductions of the computer-checked structural
claims: neighbourhood enumerations, apex sweeps, edge-addition minor facts,
triangle density formulas, and colour bounds on sampled minor-free graphs.

Every check is a generator over its keyword parameters that yields one
(input, ok, witness, millis) verdict per input as it is decided, with a
witness payload on failure, and returns the (input, ok, witness) of its
final record.  `run_check` makes every report record from them and takes
each check's parameter list from its signature.  A failed run pinpoints
the exact graph, subset, or edge pair responsible, and an interrupted one
keeps the records it has made.
"""

from __future__ import annotations

import random
import sys
import time
from collections.abc import Generator, Iterator
from itertools import combinations
from math import comb
from pathlib import Path
from typing import NamedTuple

from .canon import canonical_cert, is_isomorphic
from .graph6 import parse_corpus, parse_graph6, write_graph6
from .graphs import (
    Graph,
    complete,
    complete_multipartite,
    double_axle_wheel,
    from_rows,
    induced,
    k_tree,
    make_graph,
    mader_edge_cap,
    petersen,
    petersen_complement,
    total_triangles,
)
from .minors import (
    apex_augment_check,
    attach_vertex,
    double_apex_check,
    has_minor,
    kr_minor_verdict,
    validate_minor_witness,
    vertex_connectivity,
)
from .reports import ReportLine

CORPUS_RESOURCE = "data/k6free_mindeg5_le9.g6"


def load_corpus() -> list[Graph]:
    """The shipped neighbourhood corpus: <=9 vertices, min degree >= 5,
    no K6-minor; regenerated and cross-checked by the list22-r7 check."""
    # read beside this module, so that no resource reader is imported
    text = (Path(__file__).parent / CORPUS_RESOURCE).read_text(encoding="utf-8")
    return parse_corpus(text, CORPUS_RESOURCE)


# ---------------------------------------------------------------------------
# Triangle-density verdicts


class DensityVerdict(NamedTuple):
    premise: bool
    conclusion: bool
    triangles: int
    edges: int


def density_premise(g: Graph, k: int) -> bool:
    """2t >= m(k-3) in exact integers (t triangles, m >= 1 edges)."""
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    if not 4 <= k <= 8:
        raise ValueError(f"k={k} outside 4..8")
    return 2 * total_triangles(g) >= g.edge_count * (k - 3)


def density_conclusion(g: Graph, k: int) -> bool:
    """Complete minor on k vertices; for k=8 a K_{2,2,2,2,2}-minor also
    counts, and a host too large for has_minor's search raises ValueError."""
    if kr_minor_verdict(g, k):
        return True
    if k == 8:
        return has_minor(g, complete_multipartite(2, 2, 2, 2, 2)) is not None
    return False


def density_verdict(g: Graph, k: int) -> DensityVerdict:
    prem = density_premise(g, k)
    return DensityVerdict(
        prem, density_conclusion(g, k) if prem else False,
        total_triangles(g), g.edge_count,
    )


# ---------------------------------------------------------------------------
# Random samplers for the statistical nets


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, rng.sample(pool, m))


def random_kr_minor_free(r: int, rng: random.Random, n_max: int) -> Graph:
    """Rejection sampling at the minor-free edge budget."""
    while True:
        n = rng.randint(r, n_max)
        cap = max(1, min(mader_edge_cap(n, r), comb(n, 2)))
        g = random_graph(n, rng.randint(1, cap), rng)
        if not kr_minor_verdict(g, r):
            return g


def random_planar_triangulation(n: int, rng: random.Random) -> Graph:
    """Stacked triangulation: grow K4 by repeatedly placing a vertex in a
    random triangular face."""
    if n < 4:
        raise ValueError("triangulations need at least 4 vertices")
    rows = [0] * n
    for u in range(4):
        for v in range(u + 1, 4):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for w in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        for u in (a, b, c):
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        faces.extend([(a, b, w), (a, c, w), (b, c, w)])
    return from_rows(n, rows)


# ---------------------------------------------------------------------------
# Check implementations


def _millis(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


# A check takes its parameters as keyword arguments with defaults.  It yields
# (input, ok, witness, millis) for each input as it is decided and returns
# (input, ok, witness) for its final record; `run_check` makes the records,
# so no check names itself or spells a verdict.
Check = Generator[tuple[str, bool, object, int], None, tuple[str, bool, object]]


def _check_wheels_r6() -> Check:
    """Graphs on 6..7 vertices, min degree 4, no K5-minor: exactly the two
    double-axle wheels, each with 3n-6 edges and every edge in 2 triangles."""
    # imported here so that a call that runs no generation never loads it
    from .generate import GenSpec, generate

    found = []
    for n in (6, 7):
        found.extend(generate(GenSpec(n, min_degree=4, prune="K5")))
    wheels = [double_axle_wheel(4), double_axle_wheel(5)]
    for g in found:
        t0 = time.monotonic()
        ok = (
            any(is_isomorphic(g, w) for w in wheels)
            and g.edge_count == 3 * g.n - 6
            and all((g.adj[u] & g.adj[v]).bit_count() == 2 for u, v in g.edges())
        )
        yield write_graph6(g), ok, None if ok else {"graph6": write_graph6(g)}, _millis(t0)
    return "summary", len(found) == 2, {"count": len(found), "expected": 2}


def _check_list22_r7() -> Check:
    """Regenerate the neighbourhood list (<=9 vertices, min degree >= 5,
    K6-minor-free) and compare against the shipped corpus.

    The historical claim under test expects 22 isomorphism classes; the
    exact predicate yields 23 (the extra class is the 7-vertex octahedron
    plus dominating vertex), so the count record reports honestly.
    """
    # imported here so that a call that runs no generation never loads it
    from .generate import GenSpec, generate

    t0 = time.monotonic()
    regenerated: list[Graph] = []
    for n in range(6, 10):
        regenerated.extend(generate(GenSpec(n, min_degree=5, prune="K6")))
    corpus = load_corpus()
    fresh = sorted(canonical_cert(g) for g in regenerated)
    shipped = sorted(canonical_cert(g) for g in corpus)
    match = fresh == shipped
    yield ("corpus-match", match,
           None if match else {"regenerated": len(fresh), "shipped": len(shipped)},
           _millis(t0))
    count = len(regenerated)
    witness = {"count": count, "expected": 22}
    if count != 22:
        witness["graphs"] = [write_graph6(g) for g in regenerated]
    return "summary", count == 22, witness


def _compk7_survivors(g6: str) -> tuple[str, list, int]:
    """Apex sweep over one corpus graph: host is the graph plus a dominating
    vertex (standing for the low-degree centre it is the neighbourhood of),
    the apex ranges over subsets of the original vertices.  Returns the
    offending subsets and the sweep's elapsed millis."""
    t0 = time.monotonic()
    g = parse_graph6(g6)
    host = attach_vertex(g, range(g.n))
    survivors = apex_augment_check(host, 6, 7, candidates=tuple(range(g.n)))
    offenders = []
    for k, subsets in survivors.items():
        for subset in subsets:
            internal = sum(1 for a, b in combinations(subset, 2) if g.has_edge(a, b))
            if k > 5 or internal < comb(k, 2) - 3:
                offenders.append({"subset": list(subset), "internal_edges": internal})
    return g6, offenders, _millis(t0)


def _check_lemma_compk7(workers: int = 1) -> Check:
    """On every corpus graph: subsets keeping the dominated+apex augmentation
    K7-minor-free have size <= 5 and at most 3 missing internal edges."""
    corpus = [write_graph6(g) for g in load_corpus()]
    failed = 0
    for g6, offenders, millis in _parallel_map(_compk7_survivors, corpus, workers):
        failed += bool(offenders)
        yield g6, not offenders, {"offending_subsets": offenders} if offenders else None, millis
    return "summary", True, {"graphs": len(corpus), "failed": failed}


def _check_lemma_numberk7() -> Check:
    """At most one vertex per corpus graph has every incident edge in >= 4
    triangles inside the graph."""
    corpus = load_corpus()
    failed = 0
    for g in corpus:
        t0 = time.monotonic()
        special = [
            v for v in range(g.n)
            if all((g.adj[v] & g.adj[w]).bit_count() >= 4 for w in g.neighbors(v))
        ]
        ok = len(special) <= 1
        failed += not ok
        yield (write_graph6(g), ok,
               {"count": len(special)} if ok else {"special_vertices": special},
               _millis(t0))
    return "summary", True, {"graphs": len(corpus), "failed": failed}


_COMPK8_EXCEPTIONS = {
    8: ("K_{2,2,2,2}", complete_multipartite(2, 2, 2, 2), 4),
    9: ("K_{3,3,3}", complete_multipartite(3, 3, 3), 3),
    10: ("petersen_complement", petersen_complement(), 3),
}


def _compk8_bullets(g6: str) -> tuple[str, dict, int]:
    """The lemma's facts for one graph, and the elapsed millis."""
    t0 = time.monotonic()
    g = parse_graph6(g6)
    # vertices whose every incident edge lies in exactly, or in at least,
    # the 5 triangles of the neighbourhood lemmas' threshold
    exactly = at_least = 0
    for v in range(g.n):
        tri = [(g.adj[v] & g.adj[w]).bit_count() for w in g.neighbors(v)]
        if tri:
            at_least += min(tri) >= 5
            exactly += min(tri) == max(tri) == 5
    facts = {
        "connectivity": vertex_connectivity(g),
        "special_exactly5": exactly,
        "special_at_least5": at_least,
        "divergent_readings": at_least != exactly,
    }
    subset = double_apex_check(g, 8)
    facts["double_apex"] = subset is None
    if subset is not None:
        facts["double_apex_subset"] = list(subset)
    return g6, facts, _millis(t0)


def _check_lemma_compk8(n: int = 8, workers: int = 1) -> Check:
    """Enumerate K7-minor-free graphs with min degree >= 6 on n vertices;
    apart from the known exceptional graph each must be 5-connected, have at
    most one vertex with every incident edge in exactly 5 triangles, and pass
    the double-apex augmentation.  Exceptional graphs must have every edge in
    fewer than 5 triangles."""
    # imported here so that a call that runs no generation never loads it
    from .generate import GenSpec, generate

    if n not in (8, 9, 10, 11):
        raise ValueError(f"lemma-compk8 takes n in 8..11, got {n}")
    if n == 11:
        print("lemma-compk8 --n 11 runs long: the complement-side stream has "
              "868,311 classes, each then gets one minor query, and the whole "
              "check took 150 s on a 2-core machine with --workers 2",
              file=sys.stderr)
    exc_name, exc_graph, exc_tri = _COMPK8_EXCEPTIONS.get(n, (None, None, None))
    graphs = 0
    ordinary = []
    for g in generate(GenSpec(n, min_degree=6, prune="K7")):
        graphs += 1
        if exc_graph is not None and is_isomorphic(g, exc_graph):
            t0 = time.monotonic()
            tri = sorted({(g.adj[u] & g.adj[v]).bit_count() for u, v in g.edges()})
            ok = tri == [exc_tri]
            yield (write_graph6(g), ok,
                   {"exceptional": exc_name, "edge_triangles": exc_tri} if ok else
                   {"exceptional": exc_name, "edge_triangles": tri, "expected": exc_tri},
                   _millis(t0))
        else:
            ordinary.append(write_graph6(g))
    for g6, facts, millis in _parallel_map(_compk8_bullets, ordinary, workers):
        ok = (
            facts["connectivity"] >= 5
            and facts["special_exactly5"] <= 1
            and facts["double_apex"]
        )
        yield g6, ok, facts, millis
    return "summary", True, {"n": n, "graphs": graphs}


def _has_added_minor(base: Graph, added, r: int) -> bool:
    """Whether base plus the added edges has a K_r minor; a witness found is
    re-checked."""
    aug = make_graph(base.n, base.edges() + list(added))
    w = has_minor(aug, complete(r))
    if w is not None:
        validate_minor_witness(aug, w)
    return w is not None


def _check_claim_2edge_p10() -> Check:
    """Edge additions in the Petersen complement: a pair ab, cd with ab, bc,
    cd all absent creates a K7-minor, and so does any triple of added edges
    with empty common intersection.  Witnesses are revalidated."""
    pc = petersen_complement()
    pet = petersen()
    pairs = set()
    for b, c in pet.edges():
        for a in pet.neighbors(b):
            if a == c:
                continue
            for d in pet.neighbors(c):
                if d == b or d == a:
                    continue
                pairs.add(frozenset((frozenset((a, b)), frozenset((c, d)))))
    for pair in sorted(pairs, key=lambda p: sorted(tuple(sorted(e)) for e in p)):
        t0 = time.monotonic()
        added = [tuple(sorted(e)) for e in pair]
        ok = _has_added_minor(pc, added, 7)
        yield f"pair:{added}", ok, None if ok else {"added": added}, _millis(t0)
    triple_count = 0
    for triple in combinations(pet.edges(), 3):
        if set(triple[0]) & set(triple[1]) & set(triple[2]):
            continue
        triple_count += 1
        t0 = time.monotonic()
        if not _has_added_minor(pc, triple, 7):
            yield f"triple:{triple}", False, {"added": triple}, _millis(t0)
    return "summary", True, {"pairs": len(pairs), "triples": triple_count}


def _check_claim_p10_subgraphs() -> Check:
    """The Petersen complement has exactly 6 induced subgraph classes on 6
    vertices, one of them the octahedron."""
    yield from ()  # no per-input records: the summary is the only one
    pc = petersen_complement()
    classes: dict[bytes, Graph] = {}
    for subset in combinations(range(10), 6):
        sub = induced(pc, subset)
        classes.setdefault(canonical_cert(sub), sub)
    octa = complete_multipartite(2, 2, 2)
    has_octa = any(is_isomorphic(g, octa) for g in classes.values())
    return ("summary", len(classes) == 6 and has_octa,
            {"classes": len(classes), "expected": 6, "contains_octahedron": has_octa})


def _edge_addition_check(base: Graph, additions: list[list[tuple[int, int]]],
                         r: int) -> Check:
    for added in additions:
        t0 = time.monotonic()
        ok = _has_added_minor(base, added, r)
        yield f"added:{added}", ok, None if ok else {"added": added}, _millis(t0)
    return "summary", True, {"cases": len(additions)}


def _check_k2222_two_edges() -> Check:
    """Adding any two of the four missing edges of K_{2,2,2,2} creates a
    K7-minor."""
    base = complete_multipartite(2, 2, 2, 2)
    missing = [(0, 1), (2, 3), (4, 5), (6, 7)]
    additions = [list(pair) for pair in combinations(missing, 2)]
    return _edge_addition_check(base, additions, 7)


def _check_k333_additions() -> Check:
    """Adding two vertex-disjoint edges, or the three edges of a triangle,
    inside the parts of K_{3,3,3} creates a K7-minor."""
    base = complete_multipartite(3, 3, 3)
    parts = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    non_edges = [pair for part in parts for pair in combinations(part, 2)]
    additions = [
        list(pair)
        for pair in combinations(non_edges, 2)
        if not set(pair[0]) & set(pair[1])
    ]
    additions += [[(a, b), (a, c), (b, c)] for a, b, c in parts]
    return _edge_addition_check(base, additions, 7)


def _check_k22222_maximal() -> Check:
    """K_{2,2,2,2,2} is maximal without a K8-minor: it has none, which gets a
    failed record only when one is found, and each of the five missing part
    edges creates one."""
    base = complete_multipartite(2, 2, 2, 2, 2)
    t0 = time.monotonic()
    w = has_minor(base, complete(8))
    if w is not None:
        yield "base", False, {"branch_sets": [sorted(s) for s in w.branch_sets]}, _millis(t0)
    additions = [[(2 * i, 2 * i + 1)] for i in range(5)]
    return (yield from _edge_addition_check(base, additions, 8))


def _check_density_ktree(seed: int = 0, samples: int = 100) -> Check:
    """Random k-trees satisfy 2t = (k-1)m - C(k+1,3) exactly; `samples`
    k-trees for each k."""
    rng = random.Random(seed)
    for k in range(2, 7):
        t0 = time.monotonic()
        bad = []
        for _ in range(samples):
            n = rng.randint(k, 20)
            g = k_tree(k, n, rng.randrange(1 << 30))
            if 2 * total_triangles(g) != (k - 1) * g.edge_count - comb(k + 1, 3):
                bad.append({"k": k, "n": n, "graph6": write_graph6(g)})
        yield f"k={k}", not bad, {"violations": bad} if bad else {"samples": samples}, _millis(t0)
    return "summary", True, {"per_k": samples}


def _density_sample(args: tuple[int, int]) -> tuple[int, str, bool]:
    k, seed = args
    rng = random.Random(seed)
    while True:
        n = rng.randint(max(4, k - 2), 12)
        density = rng.uniform(0.4, 0.95)
        m = max(1, int(comb(n, 2) * density))
        g = random_graph(n, m, rng)
        if density_premise(g, k):
            return k, write_graph6(g), density_conclusion(g, k)


def _check_density_premise(seed: int = 0, samples: int = 1000, workers: int = 1) -> Check:
    """Sampling net: graphs meeting the triangle-density premise have the
    promised complete minor (k in 4..7); the samples have at most 12
    vertices."""
    yield from ()  # no per-input records: the net's record is the only one
    jobs = [(k, seed * 1_000_003 + k * 101 + i) for k in range(4, 8) for i in range(samples)]
    failures = []
    for k, g6, ok in _parallel_map(_density_sample, jobs, workers):
        if not ok:
            failures.append({"k": k, "graph6": g6})
    return (f"net:{samples}x4", not failures,
            {"failures": failures} if failures else {"samples": samples, "k": [4, 5, 6, 7]})


def _coloring_sample(args: tuple[int, int, int]) -> tuple[int, str, int]:
    # imported here so that a call that colours nothing never loads it
    from .coloring import chromatic_number

    r, bound, seed = args
    rng = random.Random(seed)
    g = random_kr_minor_free(r, rng, n_max=14)
    return bound, write_graph6(g), chromatic_number(g).chi


def _check_coloring_bound(seed: int = 0, samples: int = 1000, workers: int = 1) -> Check:
    """Sampled minor-free graphs respect the proven colour bounds: no K7
    minor -> 8 colours, no K8 minor -> 10 colours.

    This cross-checks the colourer and the minor kernel, not the theorems.
    A 9-critical graph has min degree >= 8, so at least 4n edges, and a
    K7-minor-free graph at most 5n - 15, so no counterexample to the K7
    bound has fewer than 15 vertices.  Likewise an 11-critical graph has at
    least 5n edges and a K8-minor-free graph at most 6n - 20, so none to the
    K8 bound has fewer than 20.  The samples have at most 14 vertices.
    """
    for r, bound in ((7, 8), (8, 10)):
        t0 = time.monotonic()
        jobs = [(r, bound, seed * 7_777_777 + r * 13 + i) for i in range(samples)]
        bad = []
        for b, g6, chi in _parallel_map(_coloring_sample, jobs, workers):
            if chi > b:
                bad.append({"graph6": g6, "chi": chi, "bound": b})
        yield (f"K{r}-minor-free<={bound}", not bad,
               {"violations": bad} if bad else {"samples": samples}, _millis(t0))
    return "summary", True, {"samples": samples}


# ---------------------------------------------------------------------------
# Registry and dispatch

_CHECKS = {
    "wheels-r6": _check_wheels_r6,
    "list22-r7": _check_list22_r7,
    "lemma-compk7": _check_lemma_compk7,
    "lemma-numberk7": _check_lemma_numberk7,
    "lemma-compk8": _check_lemma_compk8,
    "claim-2edgeP10": _check_claim_2edge_p10,
    "claim-p10-subgraphs": _check_claim_p10_subgraphs,
    "k2222-two-edges": _check_k2222_two_edges,
    "k333-additions": _check_k333_additions,
    "k22222-maximal": _check_k22222_maximal,
    "density-ktree": _check_density_ktree,
    "density-premise": _check_density_premise,
    "coloring-bound": _check_coloring_bound,
}

CHECK_IDS = tuple(sorted(_CHECKS))


def run_check(check_id: str, **params) -> Iterator[ReportLine]:
    """Run one named check, yielding its report records as they are made;
    the parameters are checked when the first record is asked for.

    The check's signature, read off its code object, is its parameter list:
    a name it does not list is refused, and each value is read as an int.
    The check's final record comes last: it fails when an earlier record
    failed, and carries the whole check's millis, generation included.
    """
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; have {CHECK_IDS}")
    check = _CHECKS[check_id]
    code = check.__code__
    unread = set(params) - set(code.co_varnames[:code.co_argcount])
    if unread:
        raise ValueError(f"check {check_id} does not take {', '.join(sorted(unread))}")
    for name, value in params.items():
        try:
            params[name] = int(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"check {check_id}: {name} must be an integer, got {value!r}") from None
    for name in ("samples", "workers"):
        if params.get(name, 1) < 1:
            raise ValueError(
                f"check {check_id}: {name} must be at least 1, got {params[name]}")
    t0 = time.monotonic()
    records = check(**params)
    failed = False
    while True:
        try:
            input_id, ok, witness, millis = next(records)
        except StopIteration as done:
            input_id, ok, witness = done.value
            break
        failed = failed or not ok
        yield ReportLine(check_id, input_id, "pass" if ok else "fail", witness, millis)
    yield ReportLine(check_id, input_id, "pass" if ok and not failed else "fail",
                     witness, _millis(t0))


def _parallel_map(fn, items, workers: int):
    """Map a picklable task over items on `workers` processes, yielding the
    results in order.  Closing the generator early cancels the tasks that
    have not started: all but the 2 * workers + 1 chunks the pool runs or
    queues.  So a chunk is a 64th of a worker's share (one item in a short
    sweep), which still spares thousands of small tasks a round trip to a
    worker each."""
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    # imported here so that a one-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(fn, items, chunksize=max(1, len(items) // (64 * workers)))
    finally:
        pool.shutdown(cancel_futures=True)
