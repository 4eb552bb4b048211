"""Exact graph-minor and triangle-structure toolkit for small graphs."""

from .canon import canonical_cert, is_isomorphic
from .coloring import ChromaticResult, chromatic_number
from .generate import GenSpec, generate, generate_count
from .graph6 import parse_graph6, read_corpus, write_corpus, write_graph6
from .graphs import (
    EdgeTriangleReport,
    Graph,
    complement,
    complete,
    complete_multipartite,
    contract_edge,
    double_axle_wheel,
    induced,
    k_tree,
    make_graph,
    min_triangle_edge,
    petersen,
    petersen_complement,
    total_triangles,
    triangles_on_edge,
)
from .minors import (
    MinorWitness,
    apex_augment_check,
    double_apex_check,
    has_minor,
    kr_minor_verdict,
    validate_minor_witness,
    vertex_connectivity,
)
from .reports import ReportLine, emit_report, summarize
from .rigidity import StressVerdict, stress_space_dim, whiteley_reduce
from .verify import (
    CHECK_IDS,
    density_premise,
    density_verdict,
    load_corpus,
    run_check,
)

__all__ = [
    "CHECK_IDS",
    "ChromaticResult",
    "EdgeTriangleReport",
    "GenSpec",
    "Graph",
    "MinorWitness",
    "ReportLine",
    "StressVerdict",
    "apex_augment_check",
    "canonical_cert",
    "chromatic_number",
    "complement",
    "complete",
    "complete_multipartite",
    "contract_edge",
    "density_premise",
    "density_verdict",
    "double_apex_check",
    "double_axle_wheel",
    "emit_report",
    "generate",
    "generate_count",
    "has_minor",
    "induced",
    "is_isomorphic",
    "k_tree",
    "kr_minor_verdict",
    "load_corpus",
    "make_graph",
    "min_triangle_edge",
    "parse_graph6",
    "petersen",
    "petersen_complement",
    "read_corpus",
    "run_check",
    "stress_space_dim",
    "summarize",
    "total_triangles",
    "triangles_on_edge",
    "validate_minor_witness",
    "vertex_connectivity",
    "whiteley_reduce",
    "write_corpus",
    "write_graph6",
]
