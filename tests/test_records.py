"""The records are named tuples; they keep the value semantics that sets,
dicts, graph6 round trips and worker processes rely on, and the two that
validate still refuse bad fields however they are built."""

import pickle

import pytest

from triminor.generate import GenSpec
from triminor.graph6 import parse_graph6, write_graph6
from triminor.graphs import (
    complete,
    complete_multipartite,
    from_rows,
    make_graph,
    petersen,
)
from triminor.minors import has_minor
from triminor.reports import ReportLine


def test_equal_graphs_hash_equal():
    a = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = from_rows(4, [0b10, 0b101, 0b1010, 0b100])
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert a != make_graph(4, [(0, 1), (1, 2)])


@pytest.mark.parametrize("g", [make_graph(1, []), make_graph(5, [(0, 4)]), petersen(),
                               complete_multipartite(2, 2, 2, 2, 2)])
def test_graph6_round_trip_gives_an_equal_graph(g):
    assert parse_graph6(write_graph6(g)) == g


def test_graph_and_witness_survive_pickle():
    # _parallel_map sends graphs to worker processes and results back
    g = petersen()
    w = has_minor(g, complete(5))
    assert w is not None
    for record in (g, w):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
    assert pickle.loads(pickle.dumps(w)).pattern.n == 5


@pytest.mark.parametrize("fields, message", [
    (dict(verdict="maybe"), "bad verdict 'maybe'"),
    (dict(verdict="fail"), "fail verdicts must carry a witness payload"),
])
def test_report_line_refuses_bad_fields_by_keyword(fields, message):
    with pytest.raises(ValueError, match=message):
        ReportLine(check="c", input="i", **fields)
    with pytest.raises(ValueError, match=message):
        ReportLine(check="c", input="i", verdict="pass")._replace(**fields)


def test_report_line_keeps_its_fields():
    line = ReportLine(check="c", input="i", verdict="fail", witness={"k": 1}, millis=7)
    assert line == ReportLine("c", "i", "fail", {"k": 1}, 7)
    assert (line.check, line.input, line.verdict, line.witness, line.millis) == (
        "c", "i", "fail", {"k": 1}, 7)
    assert ReportLine("c", "i", "pass").witness is None
    assert ReportLine("c", "i", "pass").millis == 0
    assert line._replace(millis=0) == ReportLine("c", "i", "fail", {"k": 1})


@pytest.mark.parametrize("fields, message", [
    (dict(n=5, prune="K9"), "unknown prune id 'K9'"),
    (dict(n=0), "n=0 outside 1..64"),
    (dict(n=5, max_edges=-1), "max_edges -1 is negative"),
    (dict(n=5, min_degree=-1), "min_degree -1 is negative"),
    (dict(n=5, min_degree=5), "min_degree 5 infeasible for n=5"),
    (dict(n=17, prune="K6"), "minor-pruned generation capped at n=16"),
    (dict(n=30), "unconstrained generation beyond n=10 needs an edge cap"),
])
def test_genspec_refuses_bad_fields_by_keyword(fields, message):
    with pytest.raises(ValueError, match=message):
        GenSpec(**fields)
    with pytest.raises(ValueError, match=message):
        GenSpec(n=5)._replace(**fields)


def test_genspec_keeps_its_fields():
    spec = GenSpec(n=9, min_degree=5, prune="K6", max_edges=30)
    assert spec == GenSpec(9, 5, "K6", 30) and hash(spec) == hash(GenSpec(9, 5, "K6", 30))
    assert (spec.n, spec.min_degree, spec.prune, spec.max_edges) == (9, 5, "K6", 30)
    assert GenSpec(4) == GenSpec(n=4, min_degree=0, prune="none", max_edges=None)
    assert spec.prune_order() == 6 and GenSpec(4).prune_order() is None
