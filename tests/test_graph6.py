import io
import random
from math import comb

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import graph_from_code, random_graph_for_tests
from triminor.generate import orderly_stream
from triminor.graph6 import parse_graph6, read_corpus, write_graph6
from triminor.graphs import complement, complete, make_graph
from triminor.reports import ReportLine, emit_report
from triminor.verify import CORPUS_RESOURCE, load_corpus


def test_c_tilde_is_k4():
    assert parse_graph6("C~") == complete(4)
    assert write_graph6(complete(4)) == "C~"


def test_a_underscore_is_single_edge():
    # '_' - 63 = 32 = 100000b: the first (most significant) payload bit is
    # x(0,1), so this is K2; the two-isolated-vertex graph is "A?".
    g = parse_graph6("A_")
    assert g.n == 2 and g.edge_count == 1
    empty = parse_graph6("A?")
    assert empty.n == 2 and empty.edge_count == 0


def test_roundtrip_random_graphs():
    rng = random.Random(11)
    for n in (1, 2, 3, 7, 13, 32, 62, 63, 64):
        for _ in range(4):
            g = random_graph_for_tests(n, rng, p=0.35)
            assert parse_graph6(write_graph6(g)) == g


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << comb(n, 2)) - 1))))
@example((62, (1 << comb(62, 2)) - 1))
@example((63, 0))
@example((63, (1 << comb(63, 2)) - 1))
@example((64, 0))
@example((64, (1 << comb(64, 2)) - 1))
def test_roundtrip_every_size_against_networkx(case):
    # a header byte up to 62 vertices and "~" plus three bytes at 63 and 64;
    # networkx decodes the same edges, the long form included
    n, code = case
    g = graph_from_code(n, code)
    text = write_graph6(g)
    header = 1 if n <= 62 else 4
    assert text.startswith("~") == (n > 62)
    assert len(text) == header + -(-comb(n, 2) // 6)
    assert all(63 <= ord(ch) <= 126 for ch in text)
    assert parse_graph6(text) == g
    h = nx.from_graph6_bytes(text.encode())
    assert h.number_of_nodes() == n
    assert sorted(tuple(sorted(e)) for e in h.edges()) == g.edges()


def test_agrees_with_networkx():
    rng = random.Random(12)
    for _ in range(25):
        g = random_graph_for_tests(rng.randint(1, 20), rng)
        ours = write_graph6(g)
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()} or set(
            map(frozenset, back.edges())
        ) == set(map(frozenset, g.edges()))


def _write_graph6_bit_per_step(g):
    """Reference: the stream x(0,1), x(0,2), x(1,2), ... built one bit per
    step, first bit highest, padded with zeros to a multiple of six bits."""
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + "".join(chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0))
    bit_str = 0
    for j in range(1, g.n):
        for i in range(j):
            bit_str = bit_str << 1 | (g.adj[i] >> j & 1)
    nbits = g.n * (g.n - 1) // 2
    pad = (-nbits) % 6
    bit_str <<= pad
    nbits += pad
    return head + "".join(
        chr(63 + (bit_str >> shift & 63)) for shift in range(nbits - 6, -6, -6)
    )


def test_column_writer_matches_bit_per_step_reference():
    # every size, the long form at 63 and 64 included, and the complements
    # that `gen --n 9 --min-degree 5` writes
    rng = random.Random(28)
    for n in range(1, 65):
        for p in (0.0, 0.3, 0.7, 1.0):
            g = random_graph_for_tests(n, rng, p)
            assert write_graph6(g) == _write_graph6_bit_per_step(g), (n, g.adj)
    written = 0
    for s in orderly_stream(9, max_degree=3):
        g = complement(s)
        assert write_graph6(g) == _write_graph6_bit_per_step(g), g.adj
        written += 1
    assert written == 1165


def test_nx_header_prefix_accepted():
    g = make_graph(3, [(0, 1)])
    assert parse_graph6(">>graph6<<" + write_graph6(g)) == g


def test_malformed_inputs():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("C~~")  # extra payload
    with pytest.raises(ValueError):
        parse_graph6("D~")  # truncated payload
    with pytest.raises(ValueError):
        parse_graph6("C\x19")  # byte below offset
    with pytest.raises(ValueError):
        parse_graph6("~~~~" + "?" * 100)  # very-long form


def test_corpus_roundtrip_and_comments(tmp_path):
    graphs = [complete(3), complete(4), make_graph(2, [(0, 1)])]
    path = tmp_path / "c.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    assert read_corpus(path) == graphs
    path2 = tmp_path / "annotated.g6"
    path2.write_text("C~ the complete graph\n\nA_ one edge\n")
    assert [g.edge_count for g in read_corpus(path2)] == [6, 1]


def test_empty_corpus_is_empty_list(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    assert read_corpus(path) == []


def test_corpus_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C~\nC\x19\n")
    with pytest.raises(ValueError, match="bad.g6:2"):
        read_corpus(path)


def test_shipped_corpus_roundtrips_exactly():
    from importlib import resources

    text = resources.files("triminor").joinpath(CORPUS_RESOURCE).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    assert len(lines) == len(load_corpus())
    for line in lines:
        assert write_graph6(parse_graph6(line)) == line


def test_report_line_validation():
    with pytest.raises(ValueError):
        ReportLine("x", "y", "maybe")
    with pytest.raises(ValueError):
        ReportLine("x", "y", "fail")  # fail without witness
    ReportLine("x", "y", "fail", {"bad": 1})


def test_report_emission_and_determinism():
    lines = [
        ReportLine("c1", "a", "pass", None, 17),
        ReportLine("c1", "b", "fail", {"k": 1}, 3),
        ReportLine("c2", "a", "witness", {"v": 2}, 9),
    ]
    buf1, buf2 = io.StringIO(), io.StringIO()
    assert emit_report(lines, buf1) == 1  # the number of failed records
    emit_report(lines, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    assert '"millis": 0' in buf1.getvalue()  # zeroed unless timing requested
    timed = io.StringIO()
    emit_report(lines, timed, timing=True)
    assert '"millis": 17' in timed.getvalue()

