"""Bit-exact graph6 encoding and corpus files.

graph6 packs the upper triangle of the adjacency matrix column-major,
x(0,1), x(0,2), x(1,2), x(0,3), ..., six bits per printable byte with
offset 63.  Vertex counts up to 62 use a single header byte; 63 and 64
use the long form 0x7E + 3 bytes.
"""

from __future__ import annotations

from pathlib import Path

from .graphs import Graph, MAX_VERTICES, from_rows

_HEADER_PREFIX = ">>graph6<<"


def _triangle_positions(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def write_graph6(g: Graph) -> str:
    """Encode using the vertex order of g as-is (no relabelling)."""
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + "".join(
            chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)
        )
    bit_str = 0
    nbits = 0
    for i, j in _triangle_positions(g.n):
        bit_str = bit_str << 1 | (g.adj[i] >> j & 1)
        nbits += 1
    pad = (-nbits) % 6
    bit_str <<= pad
    nbits += pad
    body = "".join(
        chr(63 + (bit_str >> shift & 63)) for shift in range(nbits - 6, -6, -6)
    )
    return head + body


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; raises ValueError on malformed input."""
    line = text.strip()
    if line.startswith(_HEADER_PREFIX):
        line = line[len(_HEADER_PREFIX):]
    if not line:
        raise ValueError("empty graph6 string")
    vals = []
    for ch in line:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise ValueError(f"byte {ch!r} outside graph6 range")
        vals.append(v)
    if vals[0] == 63:  # long form
        if len(vals) < 4:
            raise ValueError("truncated long-form vertex count")
        if vals[1] == 63:
            raise ValueError("very-long graph6 form not supported")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"payload is {len(body)} bytes, expected {(nbits + 5) // 6} for n={n}"
        )
    stream = 0
    for v in body:
        stream = stream << 6 | v
    total = 6 * len(body)
    rows = [0] * n
    for k, (i, j) in enumerate(_triangle_positions(n)):
        if stream >> (total - 1 - k) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    if stream & (1 << (total - nbits)) - 1:
        raise ValueError("nonzero padding bits")
    return from_rows(n, rows)


def read_corpus(path: str | Path) -> list[Graph]:
    """Read a graph6 file, one graph per line; text after whitespace is a comment."""
    return parse_corpus(Path(path).read_text(), path)


def parse_corpus(text: str, source: str | Path) -> list[Graph]:
    """Decode corpus text as read_corpus does; an error names source:lineno."""
    graphs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        token = raw.split()[0] if raw.split() else ""
        if not token:
            continue
        try:
            graphs.append(parse_graph6(token))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return graphs


def write_corpus(path: str | Path, graphs: list[Graph]) -> None:
    Path(path).write_text("".join(write_graph6(g) + "\n" for g in graphs))
