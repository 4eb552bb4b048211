"""triminor benchmark: cold-process CLI workloads plus an outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Each invocation of the workload is a fresh interpreter, so the
process-global minor-verdict memo starts cold, as it does for a user.  The
run repeats the invocation, one at a time, until ``--seconds`` is spent and
reports per-call means, scaled to a reference speed by ``calibrate.py``.
Every invocation's output is checked against ``reference.json``.

--trace 0  end-to-end metrics: wall_s, cpu_s, peak_rss_mb, setup_s.
--trace 1  per-layer metrics from two traced invocations (see tracer.py),
           whose counts must agree exactly, plus untraced invocations for
           the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``failed`` counts operations (report records, or emitted graphs
for ``gen``) that differ from the reference; an unexpected exit status
fails every operation of that invocation.  See README.md for the choice of
workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from statistics import median

from calibrate import REFERENCE_S, calibrate
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 150

# Every workload is deterministic: --seed is accepted and echoed but changes
# no input (README.md explains why and how to re-check on held-out inputs).
WORKLOADS = {
    "compk7-sweep": {
        "cli": ["verify", "--check", "lemma-compk7", "--workers", "1"],
        "corpus": "compk7_slice.g6",
        "graph_inputs": True,
    },
    "compk8-n9": {
        "cli": ["verify", "--check", "lemma-compk8", "--n", "9", "--workers", "1"],
        "graph_inputs": True,
    },
    "enum-n9": {
        "cli": ["gen", "--n", "9", "--min-degree", "5"],
        "graph_lines": True,
    },
    "coloring-net": {
        "cli": ["verify", "--check", "coloring-bound", "--samples", "35",
                "--seed", "{input_seed}", "--workers", "1"],
    },
}

SETUP_CODE = (
    "import triminor.cli\n"
    "from triminor.verify import load_corpus\n"
    "load_corpus()\n"
)
SETUP_REPEATS = 7

# Per-layer metrics that are exact counts: they must repeat across runs.
COUNT_METRICS = (
    "minors.kr_calls", "minors.kr_shortcut", "minors.kr_keyed",
    "minors.kr_memo_hits", "minors.kr_computed_true",
    "minors.kr_computed_false", "minors.memo_clears", "minors.memo_entries",
    "canon.pair_cert_calls", "canon.cert_calls", "generate.classes",
    "coloring.chi_calls",
)


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no samples."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# reference verdicts


def graph_key(g6: str) -> str:
    """Isomorphism invariant of a graph6 string, decoded here rather than by
    the program under test: vertex count, edge count, sorted degrees and the
    sorted number of triangles on each edge."""
    n = ord(g6[0]) - 63
    stream = 0
    for ch in g6[1:]:
        stream = stream << 6 | (ord(ch) - 63)
    total = 6 * (len(g6) - 1)
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if stream >> (total - 1 - k) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    degrees = sorted(row.bit_count() for row in adj)
    tri = sorted((adj[i] & adj[j]).bit_count()
                 for j in range(n) for i in range(j) if adj[i] >> j & 1)
    return f"{n}:{len(tri)}:{','.join(map(str, degrees))}:{','.join(map(str, tri))}"


def operations(workload: dict, stdout: str) -> Counter:
    """The comparable operations of one invocation's output.

    Report records become (check, input, verdict); an input that is a graph
    the program generated or was given becomes its invariant, so a canon
    change that picks other representatives of the same classes still
    matches.  Witness payloads are not compared.  For ``gen`` each graph6
    line is one operation, keyed by its invariant.
    """
    ops = Counter()
    for line in stdout.splitlines():
        if not line.strip():
            continue
        try:
            if workload.get("graph_lines") and not line.startswith("{"):
                ops[graph_key(line.strip())] += 1
                continue
            rec = json.loads(line)
            inp = rec["input"]
            if workload.get("graph_inputs") and inp != "summary":
                inp = graph_key(inp)
            ops[f"{rec['check']}|{inp}|{rec['verdict']}"] += 1
        except (ValueError, KeyError, IndexError, TypeError):
            ops[f"unparsed|{line}"] += 1  # matches no reference operation
    return ops


def count_failed(ref: dict, exit_code: int, ops: Counter) -> tuple[int, int]:
    """(attempted, failed) of one invocation against its reference."""
    expected = Counter(ref["ops"])
    attempted = sum(expected.values())
    if exit_code != ref["exit"]:
        return attempted, attempted
    extra = sum((ops - expected).values())
    missing = sum((expected - ops).values())
    return attempted, min(attempted, max(extra, missing))


# ---------------------------------------------------------------------------
# child processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(cmd: list[str], tag: str) -> dict:
    """Run one child to completion; wall time, rusage, exit code, stdout."""
    out_path = WORK / f"{tag}.out"
    err_path = WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=_env(), cwd=WORK)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def cli_command(workload: dict, input_seed: int, trace_path: Path | None = None):
    cmd = [sys.executable, str(HERE / "child.py")]
    if "corpus" in workload:
        cmd += ["--corpus", str(HERE / workload["corpus"])]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    cli = [a.format(input_seed=input_seed) for a in workload["cli"]]
    return cmd + ["--"] + cli


def measure_setup() -> list[float]:
    cmd = [sys.executable, "-c", SETUP_CODE]
    run_process(cmd, "setup")  # byte-compile and warm the file cache first
    samples = []
    for _ in range(SETUP_REPEATS):
        res = run_process(cmd, "setup")
        if res["exit"] != 0:
            raise RuntimeError(f"set-up probe failed: {res['stderr'][-400:]}")
        samples.append(res["wall_s"])
    return samples


# ---------------------------------------------------------------------------
# trace metrics


def layer_metrics(report: dict, traced_wall: float) -> dict:
    spans = report["spans"]

    def stat(name: str, field: int):
        return spans.get(name, [0, 0.0, 0.0])[field]

    kr = report["kr"]
    kr_calls = stat("minors.kr_minor_verdict", 0)
    keyed = kr_calls - kr["shortcut"]
    pair_calls = stat("canon.pair_cert", 0)
    classes = report["classes"]
    m = {
        "minors.kr_calls": kr_calls,
        "minors.kr_shortcut": kr["shortcut"],
        "minors.kr_keyed": keyed,
        "minors.kr_memo_hits": kr["memo_hits"],
        "minors.kr_computed_true": kr["computed_true"],
        "minors.kr_computed_false": kr["computed_false"],
        "minors.memo_clears": kr["memo_clears"],
        "minors.memo_entries": report["memo_entries"],
        "minors.memo_hit_ratio": kr["memo_hits"] / keyed if keyed else 0.0,
        "minors.kr_self_s": stat("minors.kr_minor_verdict", 1),
        "minors.kr_false_ms_p50": percentile(report["kr_ms_false"], 50),
        "minors.kr_false_ms_p90": percentile(report["kr_ms_false"], 90),
        "minors.kr_true_ms_p50": percentile(report["kr_ms_true"], 50),
        "minors.kr_true_ms_p90": percentile(report["kr_ms_true"], 90),
        "minors.sweep_s": stat("minors.apex_augment_check", 2)
        + stat("minors.double_apex_check", 2),
        "minors.connectivity_s": stat("minors.vertex_connectivity", 2),
        "canon.pair_cert_calls": pair_calls,
        "canon.pair_cert_self_s": stat("canon.pair_cert", 1),
        "canon.cert_calls": stat("canon.canonical_cert", 0),
        "canon.cert_self_s": stat("canon.canonical_cert", 1),
        "generate.classes": classes,
        "generate.pair_cert_per_class": pair_calls / classes if classes else 0.0,
        "coloring.chi_calls": stat("coloring.chromatic_number", 0),
        "coloring.chi_self_s": stat("coloring.chromatic_number", 1),
        "reports.emit_s": stat("reports.emit_report", 2),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v[1] for k, v in spans.items() if k.split(".")[0] == layer
        )
    m["trace.coverage"] = sum(v[1] for v in spans.values()) / traced_wall
    return m


def call_counts(report: dict) -> dict:
    """Every count the trace makes, for the run-to-run determinism check."""
    counts = {f"calls:{k}": v[0] for k, v in report["spans"].items()}
    counts.update({f"kr:{k}": v for k, v in report["kr"].items()})
    counts["memo_entries"] = report["memo_entries"]
    counts["classes"] = report["classes"]
    return counts


# ---------------------------------------------------------------------------
# one benchmark run


def run(name: str, seed: int, seconds: float, trace: bool, input_seed: int) -> dict:
    workload = WORKLOADS[name]
    ref = json.loads(REFERENCE.read_text())[name]
    attempted = failed = 0
    problems: list[str] = []

    def invoke(trace_path: Path | None = None) -> dict:
        nonlocal attempted, failed
        res = run_process(cli_command(workload, input_seed, trace_path), name)
        a, f = count_failed(ref, res["exit"], operations(workload, res["stdout"]))
        attempted += a
        failed += f
        if f:
            problems.append(f"exit {res['exit']}, {f} of {a} operations differ; "
                            f"stderr: {res['stderr'][-400:]!r}")
        return res

    # One CPU for this process, its children and the calibration task, so
    # that the task sees the same interference as the calls it scales.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        cals = [calibrate()]
        setup = measure_setup()
        cals.append(calibrate())
    start = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    timed: list[dict] = []
    while True:
        timed.append(invoke())
        if not trace:
            cals.append(calibrate())
        now = time.perf_counter()
        if now + timed[-1]["wall_s"] > start + budget:
            break
    walls = [r["wall_s"] for r in timed]
    if not trace:
        # Per-call means, not medians: the machine can switch between speeds
        # about 1.5x apart every few seconds, and the median of such a mix
        # jumps between the two where the mean moves with the mix.  Slower
        # drift over minutes is taken out by the calibration task.
        scale = REFERENCE_S / statistics.fmean(cals)
        metrics["wall_s"] = (statistics.fmean(walls) * scale, "s")
        metrics["cpu_s"] = (statistics.fmean(r["cpu_s"] for r in timed) * scale, "s")
        metrics["peak_rss_mb"] = (statistics.fmean(r["peak_rss_mb"] for r in timed), "MB")
        metrics["setup_s"] = (median(setup) * scale, "s")
        detail = {"invocations": len(timed), "raw_wall_s": walls,
                  "raw_setup_s": setup, "calibration_s": cals}
    else:
        layers = []
        counts = []
        for i in range(2):
            path = WORK / f"trace{i}.json"
            res = invoke(path)
            report = json.loads(path.read_text())
            layers.append(layer_metrics(report, res["wall_s"]))
            layers[-1]["trace.overhead_ratio"] = res["wall_s"] / median(walls)
            counts.append(call_counts(report))
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                          if counts[0].get(k) != counts[1].get(k))
            problems.append(f"traced runs disagree on counts: {diff}")
        for key, first in layers[0].items():
            value = first if key in COUNT_METRICS else (first + layers[1][key]) / 2
            metrics[key] = (value, metric_unit(key))
        detail = {"untraced_invocations": len(timed), "untraced_wall_s": sorted(walls)}
    for problem in problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    print(json.dumps({"workload": name, "seed": seed, **detail}))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def metric_unit(key: str) -> str:
    if key in COUNT_METRICS:
        return "count"
    if key.endswith("_ms_p50") or key.endswith("_ms_p90"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    return "ratio"


def write_reference(input_seed: int) -> None:
    """Capture the verdicts of every workload at the current commit."""
    refs = {}
    for name, workload in WORKLOADS.items():
        res = run_process(cli_command(workload, input_seed), name)
        refs[name] = {"exit": res["exit"],
                      "ops": dict(sorted(operations(workload, res["stdout"]).items()))}
        print(f"{name}: exit {res['exit']}, {sum(refs[name]['ops'].values())} operations")
    REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--input-seed", type=int, default=11,
                    help="coloring-bound sampler seed (the reference holds for any)")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "triminor" / "cli.py").is_file():
        print(f"perfbench: no triminor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.write_reference:
        write_reference(args.input_seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.input_seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
