"""Generic stress freeness decided by exact rank over a large prime field.

A stress assigns a weight to every edge so the weighted edge vectors cancel
at each vertex of an embedded framework.  The stresses of an embedding are
the left kernel of the m x (d*n) equilibrium matrix whose row for edge uv
carries rho(u)-rho(v) in u's coordinate block and the negation in v's.
Evaluating at a random embedding over a prime field gives the generic rank
with quantifiable failure probability, and full row rank (no stress) at any
single embedding certifies generic stress freeness outright, since rank can
only drop on special position.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .graphs import Graph, contract_edge

PRIME = (1 << 61) - 1  # Mersenne prime; coordinates are sampled mod this


class StressVerdict(NamedTuple):
    verdict: str  # "stress-free" | "stressed"
    dim: int
    trials: int
    prime: int
    error_bound: float


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        lead = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _stress_matrix(g: Graph, d: int, rng: random.Random) -> list[list[int]]:
    rho = [[rng.randrange(PRIME) for _ in range(d)] for _ in range(g.n)]
    rows = []
    for u, v in g.edges():
        row = [0] * (d * g.n)
        for c in range(d):
            diff = (rho[u][c] - rho[v][c]) % PRIME
            row[u * d + c] = diff
            row[v * d + c] = (-diff) % PRIME
        rows.append(row)
    return rows


def stress_space_dim(g: Graph, d: int, seed: int = 0, trials: int = 3) -> StressVerdict:
    """Dimension of the stress space at random embeddings in d-space.

    Dimension 0 verdicts are one-sided certain.  Positive dimensions are
    confirmed over `trials` independent embeddings (minimum taken); the
    recorded error bound is the probability that every sampled embedding
    understated the generic rank.
    """
    if not 1 <= d <= 8:
        raise ValueError(f"d={d} outside 1..8")
    if trials < 1:
        raise ValueError("need at least one trial")
    m = g.edge_count
    if m == 0:
        return StressVerdict("stress-free", 0, 0, PRIME, 0.0)
    rng = random.Random(seed)
    dims = []
    for _ in range(trials):
        rows = _stress_matrix(g, d, rng)
        dims.append(m - _rank_mod_p(rows, PRIME))
        if dims[-1] == 0:
            return StressVerdict("stress-free", 0, len(dims), PRIME, 0.0)
    dim = min(dims)
    per_trial = min(m, d * g.n) / PRIME
    return StressVerdict("stressed", dim, len(dims), PRIME, per_trial ** len(dims))


def whiteley_reduce(g: Graph, d: int) -> tuple[Graph, list[tuple[int, int, int]]]:
    """Contract edges whose endpoints share at most d-1 common neighbours, as
    long as any exists.  Stress freeness in d-space lifts backwards through
    every such contraction, so reaching a single vertex certifies it.

    The log records (u, v, common_count) in the labels current at each step.
    """
    log: list[tuple[int, int, int]] = []
    current = g
    while True:
        found = None
        for u, v in current.edges():
            shared = (current.adj[u] & current.adj[v]).bit_count()
            if shared <= d - 1:
                found = (u, v, shared)
                break
        if found is None:
            return current, log
        log.append(found)
        current, _ = contract_edge(current, found[0], found[1])
