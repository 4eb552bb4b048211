import random
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from oracles import kr_minor_brute, random_planar_triangulation
from triminor.canon import canonical_cert
from triminor.graph6 import parse_graph6, write_graph6
from triminor.graphs import (
    complement,
    complete,
    complete_multipartite,
    k_tree,
    make_graph,
    total_triangles,
)
from triminor.minors import (
    MinorWitness,
    apex_augment_check,
    attach_vertex,
    has_minor,
    kr_minor_verdict,
    validate_minor_witness,
)
from triminor.verify import (
    CHECK_IDS,
    density_premise,
    density_verdict,
    load_corpus,
    random_kr_minor_free,
    run_check,
)


def _failed(lines):
    """The records that report a failure."""
    return [line for line in lines if line.verdict == "fail"]


def test_corpus_contents():
    corpus = load_corpus()
    assert len(corpus) == 23
    certs = {canonical_cert(g) for g in corpus}
    assert len(certs) == 23
    for g in corpus:
        assert 6 <= g.n <= 9
        assert g.min_degree() >= 5
        assert not kr_minor_verdict(g, 6)


def test_density_examples():
    v = density_verdict(complete(5), 5)
    assert v.premise and v.conclusion
    # minor-free graphs built from 5-cliques miss the k=7 premise by exactly
    # C(6,3)/2 = 10 triangles
    g = k_tree(5, 10, seed=9)
    assert 2 * total_triangles(g) == 4 * g.edge_count - comb(6, 3)
    shortfall = g.edge_count * (7 - 3) // 2 - total_triangles(g)
    assert shortfall == 10
    assert density_premise(g, 7) is False
    k22222 = complete_multipartite(2, 2, 2, 2, 2)
    v = density_verdict(k22222, 8)
    assert not v.premise and v.triangles == 80 and v.edges == 40
    with pytest.raises(ValueError):
        density_premise(make_graph(3, []), 5)
    with pytest.raises(ValueError):
        density_premise(complete(3), 9)


def test_density_conclusion_counts_k22222_minor():
    from triminor.verify import density_conclusion

    k22222 = complete_multipartite(2, 2, 2, 2, 2)
    assert not kr_minor_verdict(k22222, 8)
    assert density_conclusion(k22222, 8) is True  # itself as the special minor


def test_density_conclusion_refuses_a_host_over_the_exhaustive_limit():
    # K_{2,2,2,2,2} with 7 isolated vertices still has the special minor,
    # but on 17 vertices no search may look for it: an error, not False
    from triminor.verify import density_conclusion

    padded = make_graph(17, complete_multipartite(2, 2, 2, 2, 2).edges())
    assert not kr_minor_verdict(padded, 8)
    with pytest.raises(ValueError, match="17 > 16 vertices"):
        density_conclusion(padded, 8)


def test_samplers_produce_what_they_claim():
    rng = random.Random(53)
    for r in (5, 6, 7):
        for _ in range(5):
            g = random_kr_minor_free(r, rng, n_max=10)
            assert not kr_minor_verdict(g, r)
            assert g.edge_count >= 1
    for _ in range(5):
        t = random_planar_triangulation(rng.randint(4, 10), rng)
        assert t.edge_count == 3 * t.n - 6
    with pytest.raises(ValueError):
        random_planar_triangulation(3, rng)


def test_run_check_unknown_id():
    for check_id in ("nope", "split-recognizer", "alpha-inequality"):
        with pytest.raises(ValueError):
            list(run_check(check_id))
    assert len(CHECK_IDS) == 13


def test_run_check_refuses_parameters_the_check_does_not_read():
    # the corpus count and the sample sizes are fixed, not parameters
    for check_id, params in (("list22-r7", {"expected": 23}),
                             ("coloring-bound", {"n_max": 10}),
                             ("density-premise", {"n_max": 10})):
        with pytest.raises(ValueError, match="does not take"):
            next(run_check(check_id, **params))


def test_check_wheels():
    lines = list(run_check("wheels-r6"))
    assert _failed(lines) == []
    assert lines[-1].witness == {"count": 2, "expected": 2}


def test_check_p10_subgraphs():
    lines = list(run_check("claim-p10-subgraphs"))
    assert lines[-1].verdict == "pass"
    assert lines[-1].witness["classes"] == 6
    assert lines[-1].witness["contains_octahedron"] is True


def test_check_edge_additions():
    for cid, cases in (("k2222-two-edges", 6), ("k333-additions", 30)):
        lines = list(run_check(cid))
        assert _failed(lines) == []
        assert lines[-1].witness["cases"] == cases


def test_check_k22222_maximal():
    lines = list(run_check("k22222-maximal"))
    assert _failed(lines) == []
    assert lines[-1].witness["cases"] == 5


def test_check_numberk7():
    lines = list(run_check("lemma-numberk7"))
    assert _failed(lines) == []
    assert len(lines) == len(load_corpus()) + 1
    assert lines[-1].witness == {"graphs": len(load_corpus()), "failed": 0}


def test_check_list22_reports_honest_count():
    lines = list(run_check("list22-r7"))
    by_input = {l.input: l for l in lines}
    assert by_input["corpus-match"].verdict == "pass"
    summary = by_input["summary"]
    # the full predicate has 23 classes; the historical claim says 22, so the
    # summary records the discrepancy as a failure with all graphs attached
    assert summary.witness["count"] == 23
    assert summary.witness["expected"] == 22
    assert summary.verdict == "fail"


def test_check_compk8_n8():
    lines = list(run_check("lemma-compk8", n=8))
    assert _failed(lines) == []
    # the single ordinary graph diverges between the two triangle readings
    facts = [l.witness for l in lines if isinstance(l.witness, dict)
             and "double_apex" in l.witness]
    assert len(facts) == 1
    assert facts[0]["divergent_readings"] is True
    assert facts[0]["special_exactly5"] == 0


def test_check_compk8_n9_reports_known_failure():
    lines = list(run_check("lemma-compk8", n=9))
    fails = [l for l in lines if l.verdict == "fail" and l.input != "summary"]
    assert len(fails) == 1
    failing = fails[0]
    # complement of C3+C6: the one graph whose double-apex augmentation can
    # miss the required minor (three antipodal 7-subsets)
    comp = complement(parse_graph6(failing.input))
    assert sorted(comp.degree_sequence()) == [2] * 9
    assert failing.witness["double_apex"] is False
    assert len(failing.witness["double_apex_subset"]) == 7
    assert failing.witness["connectivity"] >= 5
    assert failing.witness["special_exactly5"] <= 1


def test_swept_check_records_carry_their_elapsed_time(monkeypatch):
    # a 9-vertex corpus graph whose sweep takes about 26 ms, so that its
    # record cannot round down to 0 ms; each record times its own sweep
    import triminor.verify as verify

    g = parse_graph6("HBnfNv{")
    assert canonical_cert(g) in {canonical_cert(h) for h in load_corpus()}
    monkeypatch.setattr(verify, "load_corpus", lambda: [g])
    record, summary = run_check("lemma-compk7")
    assert record.verdict == "pass" and summary.verdict == "pass"
    assert summary.witness == {"graphs": 1, "failed": 0}
    assert record.millis > 0
    assert '"millis": 0' in record.to_json()
    assert f'"millis": {record.millis}' in record.to_json(timing=True)


def test_summary_fails_on_any_failed_record_or_false_ok(monkeypatch):
    # run_check makes a record of each verdict the check yields, and fails
    # the final one when any of them failed; otherwise the final record
    # keeps the verdict the check returned
    import triminor.verify as verify
    from triminor.reports import ReportLine

    passed = ("a", True, None, 3)
    failed = ("b", False, {"x": 1}, 4)
    passed_record = ReportLine("fake", "a", "pass", None, 3)
    failed_record = ReportLine("fake", "b", "fail", {"x": 1}, 4)

    def final(verdicts, ok=True):
        def check():
            yield from verdicts
            return "summary", ok, {"n": len(verdicts)}

        monkeypatch.setitem(verify._CHECKS, "fake", check)
        *earlier, last = run_check("fake")
        return earlier, last._replace(millis=0)

    assert final([passed]) == (
        [passed_record], ReportLine("fake", "summary", "pass", {"n": 1}))
    assert final([passed, failed]) == (
        [passed_record, failed_record], ReportLine("fake", "summary", "fail", {"n": 2}))
    assert final([passed], ok=False)[1].verdict == "fail"


# The parameters README lists for each check; the other checks take none.
_README_PARAMS = {
    "lemma-compk7": {"workers"},
    "lemma-compk8": {"n", "workers"},
    "density-ktree": {"seed", "samples"},
    "density-premise": {"seed", "samples", "workers"},
    "coloring-bound": {"seed", "samples", "workers"},
}


@pytest.mark.parametrize("param", ["n", "samples", "seed", "workers"])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_each_check_takes_exactly_the_parameters_readme_lists(check_id, param):
    # a check's signature is its parameter list, so this keeps a new
    # keyword argument from silently widening what it accepts.  A value
    # that is no integer stops a parameter the check takes at run_check's
    # int(), before the check starts; a name it does not take is refused
    # before that
    taken = param in _README_PARAMS.get(check_id, set())
    with pytest.raises(ValueError, match="must be an integer" if taken else "does not take"):
        next(run_check(check_id, **{param: "x"}))


def test_run_check_names_the_check_and_parameter_of_a_value_that_is_no_integer():
    with pytest.raises(ValueError) as raised:
        next(run_check("density-ktree", samples="x"))
    assert str(raised.value) == "check density-ktree: samples must be an integer, got 'x'"


@pytest.mark.parametrize("check_id, param", [("density-ktree", "samples"),
                                             ("density-premise", "workers")])
def test_run_check_names_the_check_and_parameter_of_a_count_below_one(check_id, param):
    with pytest.raises(ValueError) as raised:
        next(run_check(check_id, **{param: 0}))
    assert str(raised.value) == f"check {check_id}: {param} must be at least 1, got 0"


def test_run_check_reads_each_parameter_as_an_int():
    as_text = [r._replace(millis=0) for r in run_check("density-ktree", samples="15")]
    as_int = [r._replace(millis=0) for r in run_check("density-ktree", samples=15)]
    assert as_text == as_int and as_int[-1].witness == {"per_k": 15}


def _leave_marker(task: tuple[str, float]) -> str:
    path, delay = task
    time.sleep(delay)
    Path(path).touch()
    return path


def test_closing_parallel_map_early_cancels_the_tasks_not_started(tmp_path):
    # a reader that stops, as `| head` does, must not wait for the whole
    # sweep.  Two workers take 40 tasks one at a time (a sweep this short
    # gets one-item chunks); the first five are instant, so the first result
    # comes while most tasks are pending, and only those running or queued
    # beside them then still run.
    from triminor.verify import _parallel_map

    tasks = [(str(tmp_path / f"task{i}"), 0.0 if i < 5 else 0.05) for i in range(40)]
    results = _parallel_map(_leave_marker, tasks, 2)
    assert next(results) == tasks[0][0]
    results.close()  # returns once the tasks already started have finished
    assert sum(Path(path).exists() for path, _ in tasks) <= 15


def test_compk7_apex_verdicts_match_contraction_oracle():
    # every apex augmentation (|S| <= 6) of the two smallest corpus graphs,
    # 372 hosts on 9-10 vertices: both verdicts must match the oracle, so a
    # kernel that over-reports minors fails here, not only one that misses
    memo = {}
    verdicts = []
    for g6 in ("F]~vw", "GFzf~w"):
        g = parse_graph6(g6)
        host = attach_vertex(g, range(g.n))
        for k in range(1, 7):
            for subset in combinations(range(g.n), k):
                aug = attach_vertex(host, subset)
                verdict = kr_minor_verdict(aug, 7)
                assert verdict == kr_minor_brute(aug, 7, memo), (g6, subset)
                verdicts.append(verdict)
    assert len(verdicts) == 372
    assert verdicts.count(False) == 100


def _pin_compk7_frontier(graphs) -> tuple[int, int]:
    """A K7 minor for S persists for every superset, so a sweep's survivors
    are fixed by its maximal survivors (no minor: the oracle confirms each)
    and its minimal non-survivors (a minor: each witness is re-checked).
    Returns how many of each were checked."""
    memo = {}
    maximal = minimal = 0
    for g in graphs:
        host = attach_vertex(g, range(g.n))
        survivors = apex_augment_check(host, 6, 7, candidates=tuple(range(g.n)))
        alive = {()}.union(*survivors.values())
        for k in range(1, 7):
            for subset in combinations(range(g.n), k):
                aug = attach_vertex(host, subset)
                if subset in alive:
                    if not any(tuple(sorted(subset + (v,))) in alive
                               for v in range(g.n) if v not in subset):
                        assert kr_minor_brute(aug, 7, memo) is False, (g.n, subset)
                        maximal += 1
                elif all(subset[:i] + subset[i + 1:] in alive for i in range(k)):
                    w = has_minor(aug, complete(7))
                    assert w is not None, (g.n, subset)
                    validate_minor_witness(aug, w)
                    minimal += 1
    return maximal, minimal


def test_compk7_apex_frontier_pinned_by_contraction_oracle():
    # the 6 corpus graphs on <= 8 vertices; the slow test below takes all 23
    small = [g for g in load_corpus() if g.n <= 8]
    assert _pin_compk7_frontier(small) == (66, 34)


def test_compk7_sweeps_kernel_queries_are_pinned(monkeypatch):
    # the 23 sweeps as lemma-compk7 runs them.  Each subset found minor-free
    # is grown to a maximal one, whose images answer all their subsets: 678
    # queries (596 without a minor) when only the walk's own subsets and
    # their images were answered, 489 (297) now
    import triminor.minors as minors
    import triminor.verify as verify

    verdicts = []

    def counting(g, r):
        verdicts.append(kr_minor_verdict(g, r))
        return verdicts[-1]

    monkeypatch.setattr(minors, "kr_minor_verdict", counting)
    for g in load_corpus():
        verify._compk7_survivors(write_graph6(g))
    assert (len(verdicts), verdicts.count(False)) == (489, 297)


@pytest.mark.slow
def test_compk7_apex_frontier_pinned_on_the_whole_corpus():
    # the 17 corpus graphs on 9 vertices add 204 maximal survivors, each a
    # contraction-oracle run on 11 vertices: about 35 s on a 2-core machine
    assert _pin_compk7_frontier(load_corpus()) == (270, 200)


def test_lemma_compk8_warns_that_n11_runs_long(monkeypatch, capsys):
    import triminor.generate as generate_module

    monkeypatch.setattr(generate_module, "generate", lambda *args, **kwargs: iter(()))
    assert list(run_check("lemma-compk8", n=11))[-1].witness == {"n": 11, "graphs": 0}
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "868,311 classes" in captured.err and "150 s" in captured.err
    list(run_check("lemma-compk8", n=10))
    assert capsys.readouterr().err == ""


def test_check_compk8_rejects_bad_n():
    with pytest.raises(ValueError):
        list(run_check("lemma-compk8", n=7))


@pytest.mark.parametrize("n, classes, minor_free", [
    (8, 5, 2), (9, 70, 18),
    # 3,547 contraction-oracle runs on 10 vertices: about 10 s on a 2-core
    # machine
    pytest.param(10, 3547, 122, marks=pytest.mark.slow),
])
def test_lemma_compk8_class_lists_match_contraction_oracle(n, classes, minor_free):
    # lemma-compk8 lists the minimum-degree-6 classes that the kernel finds
    # K7-minor-free; they are the complements of the classes of maximum
    # degree n - 7, so each class's verdict, the negatives included, must
    # match the oracle.  The minor-free counts are the check's "graphs"
    from triminor.generate import orderly_stream

    memo = {}
    verdicts = []
    for s in orderly_stream(n, max_degree=n - 7):
        g = complement(s)
        verdicts.append(kr_minor_verdict(g, 7))
        assert verdicts[-1] == kr_minor_brute(g, 7, memo), write_graph6(g)
    assert (len(verdicts), verdicts.count(False)) == (classes, minor_free)


def test_check_density_ktree_small():
    assert _failed(run_check("density-ktree", samples=15)) == []


def test_density_conclusion_net_full_scale():
    # 10^3 premise-satisfying samples per k in 4..7 all reach the conclusion
    assert _failed(run_check("density-premise", samples=1000)) == []


def test_check_coloring_bound_small():
    assert _failed(run_check("coloring-bound", samples=12)) == []


def test_parallel_map_workers():
    lines = list(run_check("density-premise", samples=8, workers=2))
    assert _failed(lines) == []


def test_edge_addition_checks_recheck_their_witnesses(monkeypatch):
    # a K7 model of one vertex per branch set is wrong in K_{2,2,2,2} plus
    # any two of its missing edges, since one of (0,1), (2,3), (4,5) stays
    # missing; the check must refuse it rather than count the addition
    import triminor.verify as verify

    bogus = MinorWitness(complete(7), tuple(frozenset({v}) for v in range(7)))
    monkeypatch.setattr(verify, "has_minor", lambda g, h: bogus)
    with pytest.raises(ValueError, match="not realised"):
        list(run_check("k2222-two-edges"))


def test_k22222_maximal_fails_when_the_base_has_a_k8_minor(monkeypatch):
    # the base's own K8 query gets a record only when it finds a minor
    import triminor.verify as verify

    found = MinorWitness(complete(8), tuple(frozenset({v}) for v in range(8)))
    real = verify.has_minor
    monkeypatch.setattr(verify, "has_minor",
                        lambda g, h: found if g.edge_count == 40 else real(g, h))
    lines = list(run_check("k22222-maximal"))
    assert [(line.input, line.verdict) for line in lines] == (
        [("base", "fail")] + [(f"added:{[(2 * i, 2 * i + 1)]}", "pass") for i in range(5)]
        + [("summary", "fail")])
    assert lines[0].witness == {"branch_sets": [[v] for v in range(8)]}
