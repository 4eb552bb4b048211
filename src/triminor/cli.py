"""Batch front door: every operation and named check as a subcommand over
graph6 input.

Reports stream to stdout as one JSON record per line (fields: check, input,
verdict, witness, millis), each written as it is made, so an interrupted
run keeps what it has printed; diagnostics go to stderr; corpora are plain
graph6 lines.  Exit status: 0 all pass, 1 a checked claim failed (the
offending record carries the witness), 2 usage or input error, which can
follow records already written, 141 (as for a process ended by SIGPIPE)
when the reader closes stdout early, as `| head` does, with no message.
Timing fields are zeroed unless --timing is given, so identical
invocations are byte-identical.

A call loads and compiles only what it runs.  So a subcommand, or a
check, imports a module that only it uses (generation, colouring,
rigidity) inside its own function, never at the top of a module that every
call imports.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from contextlib import ExitStack
from pathlib import Path

from .graph6 import parse_corpus, parse_graph6, read_corpus, write_graph6
from .graphs import Graph, complete, min_triangle_edge
from .minors import EXHAUSTIVE_HOST_LIMIT, PRUNE_IDS, has_minor
from .reports import ReportLine, emit_report
from .verify import CHECK_IDS, density_verdict, run_check

EXIT_READER_GONE = 128 + 13  # 128 + SIGPIPE, the status a shell reports


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
                     choices=PRUNE_IDS)
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


def _cmd_gen(args) -> Iterator[ReportLine]:
    """Count, or write each graph6 line as it is generated, so an
    interrupted run keeps what it has written.  `--out` is opened at the
    first graph, so a run that generates none leaves it untouched."""
    # imported here so that a call that runs no generation never loads it
    from .generate import GenSpec, generate, generate_count

    if args.count_only and args.out:
        raise ValueError("gen --count-only writes no corpus, so it takes no --out")
    spec = GenSpec(args.n, args.min_degree, args.prune, args.max_edges)
    if args.count_only:
        yield ReportLine("gen", f"n={args.n}", "witness", {"count": generate_count(spec)})
        return
    with ExitStack() as stack:
        out = None if args.out else sys.stdout
        for g in generate(spec):
            if out is None:
                out = stack.enter_context(open(args.out, "w"))
            out.write(write_graph6(g) + "\n")


def _cmd_verify(args) -> Iterator[ReportLine]:
    params = {name: getattr(args, name)
              for name in ("n", "samples", "seed", "workers")
              if getattr(args, name) is not None}
    return run_check(args.check, **params)


def _per_graph(payload):
    """The command that reports payload(args, g) for each input graph g."""
    def command(args) -> Iterator[ReportLine]:
        for g in _read_graphs(args.input):
            yield ReportLine(args.command, write_graph6(g), "witness", payload(args, g))
    return command


@_per_graph
def _cmd_minor(args, g: Graph) -> dict:
    if args.pattern.startswith("K") and args.pattern[1:].isdigit():
        # no host may exceed EXHAUSTIVE_HOST_LIMIT vertices, so any larger
        # clique answers as K_(limit+1) does, and is never built in full
        pattern = complete(min(int(args.pattern[1:]), EXHAUSTIVE_HOST_LIMIT + 1))
    else:
        pattern = parse_graph6(args.pattern)
    w = has_minor(g, pattern)
    payload = {"pattern": args.pattern, "result": "none" if w is None else "minor"}
    if w is not None:
        payload["branch_sets"] = [sorted(s) for s in w.branch_sets]
    return payload


@_per_graph
def _cmd_triangles(args, g: Graph) -> dict:
    rep = min_triangle_edge(g, args.cap)
    return {"min_count": rep.min_count, "edge": list(rep.edge),
            "degree_cap": rep.degree_cap}


@_per_graph
def _cmd_rigidity(args, g: Graph) -> dict:
    # imported here so that no other subcommand loads it
    from .rigidity import stress_space_dim

    v = stress_space_dim(g, args.d, seed=args.seed, trials=args.trials)
    return {"verdict": v.verdict, "dim": v.dim, "trials": v.trials,
            "prime": v.prime, "error_bound": v.error_bound}


@_per_graph
def _cmd_chroma(args, g: Graph) -> dict:
    # imported here so that no other subcommand loads it
    from .coloring import chromatic_number

    r = chromatic_number(g)
    return {"chi": r.chi, "coloring": list(r.coloring)}


@_per_graph
def _cmd_density(args, g: Graph) -> dict:
    v = density_verdict(g, args.k)
    return {"k": args.k, "premise": v.premise, "conclusion": v.conclusion,
            "triangles": v.triangles, "edges": v.edges}


_COMMANDS = {
    "gen": _cmd_gen,
    "minor": _cmd_minor,
    "triangles": _cmd_triangles,
    "verify": _cmd_verify,
    "rigidity": _cmd_rigidity,
    "chroma": _cmd_chroma,
    "density": _cmd_density,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        failed = emit_report(_COMMANDS[args.command](args), sys.stdout,
                             timing=args.timing)
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_READER_GONE
    except (ValueError, OSError) as exc:
        print(f"triminor: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


def _discard_stdout() -> None:
    """Point the stdout descriptor at devnull, so that the flush at exit
    cannot meet the closed pipe again and print a traceback."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor behind it: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
