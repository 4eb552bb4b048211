"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run

COMPK8_N9 = ["verify", "--check", "lemma-compk8", "--n", "9"]


def _cli(args: list[str], trace_path=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(run.HERE / "child.py")]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    return subprocess.run(cmd + ["--"] + args, capture_output=True,
                          env=run._env(), timeout=120)


@pytest.fixture(scope="module")
def compk8_plain() -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "triminor.cli", *COMPK8_N9],
                          capture_output=True, env=run._env(), timeout=120)


def test_traced_output_is_byte_identical(compk8_plain, tmp_path):
    untraced = _cli(COMPK8_N9)
    traced = _cli(COMPK8_N9, tmp_path / "trace.json")
    assert compk8_plain.stdout and compk8_plain.returncode == 1
    assert untraced.stdout == compk8_plain.stdout
    assert traced.stdout == compk8_plain.stdout
    assert traced.returncode == untraced.returncode == compk8_plain.returncode
    report = json.loads((tmp_path / "trace.json").read_text())
    # every binding of the kernel and of the canon search was wrapped
    assert report["spans"]["minors.kr_minor_verdict"][0] > 0
    assert report["spans"]["canon.pair_cert"][0] > 0
    kr = report["kr"]
    assert (kr["shortcut"] + kr["memo_hits"] + kr["computed_true"]
            + kr["computed_false"]) == report["spans"]["minors.kr_minor_verdict"][0]
    assert kr["computed_true"] + kr["computed_false"] == report["memo_entries"]


def test_median_and_percentile_on_fixed_data():
    assert run.median([3, 1, 2]) == 2
    assert run.median([4, 1, 3, 2]) == 2.5
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert run.percentile(range(1, 11), 0) == 1
    assert run.percentile(range(1, 11), 100) == 10
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([], 50) == 0.0


def test_reference_comparison_flags_one_tampered_verdict(compk8_plain):
    workload = run.WORKLOADS["compk8-n9"]
    ref = json.loads(run.REFERENCE.read_text())["compk8-n9"]
    text = compk8_plain.stdout.decode()
    ops = run.operations(workload, text)
    assert run.count_failed(ref, 1, ops) == (19, 0)

    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if '"verdict": "pass"' in line
             and '"summary"' not in line)
    lines[i] = lines[i].replace('"verdict": "pass"', '"verdict": "fail"')
    tampered = run.operations(workload, "\n".join(lines))
    assert run.count_failed(ref, 1, tampered) == (19, 1)
    # an unexpected exit status fails every operation
    assert run.count_failed(ref, 0, ops) == (19, 19)


def test_other_representatives_of_the_same_classes_still_match():
    sys.path.insert(0, str(run.ROOT / "src"))
    from triminor.graph6 import parse_graph6, write_graph6
    from triminor.graphs import make_graph

    g6 = "F]~vw"
    g = parse_graph6(g6)
    flip = g.n - 1
    relabelled = write_graph6(make_graph(
        g.n, [(min(flip - u, flip - v), max(flip - u, flip - v)) for u, v in g.edges()]
    ))
    assert relabelled != g6
    assert run.graph_key(relabelled) == run.graph_key(g6)
    ops = run.operations(run.WORKLOADS["compk7-sweep"], json.dumps(
        {"check": "lemma-compk7", "input": relabelled, "verdict": "pass"}))
    ref = {"exit": 0, "ops": {f"lemma-compk7|{run.graph_key(g6)}|pass": 1}}
    assert run.count_failed(ref, 0, ops) == (1, 0)
