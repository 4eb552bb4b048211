"""The records are named tuples; they keep the value semantics that sets,
dicts, graph6 round trips and worker processes rely on, and the one that
validates still refuses bad fields however it is built."""

import pickle

import pytest

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
