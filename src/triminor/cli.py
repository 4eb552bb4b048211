"""Batch front door: every operation and named check as a subcommand over
graph6 input.

Reports stream to stdout as one JSON record per line (fields: check, input,
verdict, witness, millis); diagnostics go to stderr; corpora are plain
graph6 lines.  Exit status: 0 all pass, 1 a checked claim failed (the
offending record carries the witness), 2 usage error.  Timing fields are
zeroed unless --timing is given, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from pathlib import Path

from .coloring import chromatic_number
from .generate import GenSpec, generate, generate_count
from .graph6 import parse_corpus, parse_graph6, read_corpus, write_graph6
from .graphs import Graph, complete
from .minors import EXHAUSTIVE_HOST_LIMIT, has_minor
from .reports import ReportLine, emit_report
from .rigidity import stress_space_dim
from .verify import CHECK_IDS, density_verdict, run_check


def _read_graphs(token: str) -> list[Graph]:
    """Input is a file path, '-' for stdin, or an inline graph6 string."""
    if token == "-":
        graphs = parse_corpus(sys.stdin.read(), "<stdin>")
    elif Path(token).exists():
        graphs = read_corpus(token)
    else:
        graphs = [parse_graph6(token)]
    if not graphs:
        raise ValueError(f"no graphs found in input {token!r}")
    return graphs


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="triminor",
        description="exact minor / triangle checks over graph6 inputs",
    )
    top.add_argument("--timing", action="store_true",
                     help="emit real wall-clock millis instead of 0")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="isomorph-free exhaustive generation")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--min-degree", type=int, default=0)
    gen.add_argument("--prune", default="none",
                     choices=["none", "K4", "K5", "K6", "K7", "K8"])
    gen.add_argument("--max-edges", type=int, default=None)
    gen.add_argument("--count-only", action="store_true")
    gen.add_argument("--out", default=None, help="corpus file (default stdout)")

    minor = sub.add_parser("minor", help="exact minor containment with witness")
    minor.add_argument("--pattern", required=True,
                       help="K3..K8 or an inline graph6 pattern")
    minor.add_argument("input", help="graph6 file, inline string, or -")

    tri = sub.add_parser("triangles", help="minimum triangles per qualifying edge")
    tri.add_argument("--cap", type=int, default=None,
                     help="only edges with an endpoint of degree <= cap")
    tri.add_argument("input")

    ver = sub.add_parser("verify", help="run a named structural check")
    ver.add_argument("--check", required=True, choices=list(CHECK_IDS))
    ver.add_argument("--n", type=int, default=None, help="size parameter")
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--workers", type=int, default=None)

    rig = sub.add_parser("rigidity", help="generic stress-space dimension")
    rig.add_argument("--d", type=int, required=True)
    rig.add_argument("--trials", type=int, default=3)
    rig.add_argument("--seed", type=int, default=0)
    rig.add_argument("input")

    chroma = sub.add_parser("chroma", help="exact chromatic number")
    chroma.add_argument("input")

    dens = sub.add_parser("density", help="triangle-density premise/conclusion")
    dens.add_argument("--k", type=int, required=True)
    dens.add_argument("input")

    return top


def _cmd_gen(args) -> list[ReportLine]:
    """Count, or write each graph6 line as it is generated, so an
    interrupted run keeps what it has written.  `--out` is opened at the
    first graph, so a run that generates none leaves it untouched."""
    spec = GenSpec(args.n, args.min_degree, args.prune, args.max_edges)
    if args.count_only:
        count = generate_count(spec)
        return [ReportLine("gen", f"n={args.n}", "witness", {"count": count})]
    with ExitStack() as stack:
        out = None if args.out else sys.stdout
        for g in generate(spec):
            if out is None:
                out = stack.enter_context(open(args.out, "w"))
            out.write(write_graph6(g) + "\n")
    return []


def _cmd_minor(args) -> list[ReportLine]:
    if args.pattern.startswith("K") and args.pattern[1:].isdigit():
        # no host may exceed EXHAUSTIVE_HOST_LIMIT vertices, so any larger
        # clique answers as K_(limit+1) does, and is never built in full
        pattern = complete(min(int(args.pattern[1:]), EXHAUSTIVE_HOST_LIMIT + 1))
    else:
        pattern = parse_graph6(args.pattern)
    out = []
    for g in _read_graphs(args.input):
        w = has_minor(g, pattern)
        payload = {
            "pattern": args.pattern,
            "result": "none" if w is None else "minor",
        }
        if w is not None:
            payload["branch_sets"] = [sorted(s) for s in w.branch_sets]
        out.append(ReportLine("minor", write_graph6(g), "witness", payload))
    return out


def _cmd_triangles(args) -> list[ReportLine]:
    from .graphs import min_triangle_edge

    out = []
    for g in _read_graphs(args.input):
        rep = min_triangle_edge(g, args.cap)
        out.append(ReportLine(
            "triangles", write_graph6(g), "witness",
            {"min_count": rep.min_count, "edge": list(rep.edge),
             "degree_cap": rep.degree_cap},
        ))
    return out


def _cmd_verify(args) -> list[ReportLine]:
    params = {name: getattr(args, name)
              for name in ("n", "samples", "seed", "workers")
              if getattr(args, name) is not None}
    return run_check(args.check, **params)


def _cmd_rigidity(args) -> list[ReportLine]:
    out = []
    for g in _read_graphs(args.input):
        v = stress_space_dim(g, args.d, seed=args.seed, trials=args.trials)
        out.append(ReportLine(
            "rigidity", write_graph6(g), "witness",
            {"verdict": v.verdict, "dim": v.dim, "trials": v.trials,
             "prime": v.prime, "error_bound": v.error_bound},
        ))
    return out


def _cmd_chroma(args) -> list[ReportLine]:
    out = []
    for g in _read_graphs(args.input):
        r = chromatic_number(g)
        out.append(ReportLine("chroma", write_graph6(g), "witness",
                              {"chi": r.chi, "coloring": list(r.coloring)}))
    return out


def _cmd_density(args) -> list[ReportLine]:
    out = []
    for g in _read_graphs(args.input):
        v = density_verdict(g, args.k)
        out.append(ReportLine(
            "density", write_graph6(g), "witness",
            {"k": args.k, "premise": v.premise, "conclusion": v.conclusion,
             "triangles": v.triangles, "edges": v.edges},
        ))
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            lines = _cmd_gen(args)
        elif args.command == "minor":
            lines = _cmd_minor(args)
        elif args.command == "triangles":
            lines = _cmd_triangles(args)
        elif args.command == "verify":
            lines = _cmd_verify(args)
        elif args.command == "rigidity":
            lines = _cmd_rigidity(args)
        elif args.command == "chroma":
            lines = _cmd_chroma(args)
        else:
            lines = _cmd_density(args)
    except (ValueError, OSError) as exc:
        print(f"triminor: {exc}", file=sys.stderr)
        return 2
    emit_report(lines, sys.stdout, timing=args.timing)
    return 1 if any(l.verdict == "fail" for l in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
