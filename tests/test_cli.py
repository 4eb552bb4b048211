import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from triminor.cli import EXIT_READER_GONE, main
from triminor.graph6 import write_graph6
from triminor.graphs import complete_multipartite
from triminor.verify import CHECK_IDS, load_corpus


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "triminor.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def test_minor_none_on_k22222():
    g6 = write_graph6(complete_multipartite(2, 2, 2, 2, 2))
    proc = run_cli(["minor", "--pattern", "K8", g6])
    assert proc.returncode == 0
    recs = records(proc.stdout)
    assert recs[0]["witness"]["result"] == "none"


def test_minor_witness_fields():
    proc = run_cli(["minor", "--pattern", "K3", "C~"])
    recs = records(proc.stdout)
    assert recs[0]["witness"]["result"] == "minor"
    assert len(recs[0]["witness"]["branch_sets"]) == 3
    assert list(recs[0]) == ["check", "input", "verdict", "witness", "millis"]


def test_minor_complete_pattern_by_name_or_graph6_gives_one_witness():
    # K5 given as graph6 takes the same clique-first path as --pattern K5
    host = "I]~v~z~~o"
    by_name = records(run_cli(["minor", "--pattern", "K5", host]).stdout)[0]
    by_g6 = records(run_cli(["minor", "--pattern", "D~{", host]).stdout)[0]
    assert by_name["witness"]["branch_sets"] == [[1], [3], [5], [7], [9]]
    assert by_g6["witness"]["branch_sets"] == by_name["witness"]["branch_sets"]


def test_minor_clique_pattern_larger_than_any_host():
    proc = run_cli(["minor", "--pattern", "K100000", "I]~v~z~~o"])
    assert proc.returncode == 0
    assert records(proc.stdout)[0]["witness"]["result"] == "none"


def test_minor_clique_pattern_on_no_vertices_is_refused():
    proc = run_cli(["minor", "--pattern", "K0", "D~{"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "vertex count 0" in proc.stderr


def test_triangles_cap_on_minor_free_input():
    # K6-minor-free corpus members are K7-minor-free, so an edge at a vertex
    # of degree <= 9 lies in at most 4 triangles
    g6 = write_graph6(load_corpus()[0])
    proc = run_cli(["triangles", "--cap", "9", g6])
    assert proc.returncode == 0
    assert records(proc.stdout)[0]["witness"]["min_count"] <= 4


def test_gen_corpus_and_count(tmp_path):
    out = tmp_path / "wheels.g6"
    proc = run_cli([
        "gen", "--n", "6", "--min-degree", "4", "--prune", "K5",
        "--out", str(out),
    ])
    assert proc.returncode == 0
    assert out.read_text().strip() == "E]~o"
    proc = run_cli(["gen", "--n", "4", "--count-only"])
    assert records(proc.stdout)[0]["witness"]["count"] == 11


def test_gen_writes_each_graph_before_generation_fails(monkeypatch, capsys, tmp_path):
    # `gen` imports generate when it runs, so it reads the patched function
    import triminor.generate as generate_module
    from triminor.generate import GenSpec, generate

    first_two = list(generate(GenSpec(4)))[:2]
    expected = "".join(write_graph6(g) + "\n" for g in first_two)

    def fails_after_two(spec):
        yield from first_two
        raise ValueError("generation stopped")

    monkeypatch.setattr(generate_module, "generate", fails_after_two)
    assert main(["gen", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == expected
    assert "generation stopped" in captured.err
    out = tmp_path / "partial.g6"
    assert main(["gen", "--n", "4", "--out", str(out)]) == 2
    assert out.read_text() == expected


def test_gen_out_untouched_when_nothing_is_generated(tmp_path):
    # K5 is the only 5-vertex graph of minimum degree 4, and it is pruned
    out = tmp_path / "none.g6"
    assert main(["gen", "--n", "5", "--min-degree", "4", "--prune", "K5",
                 "--out", str(out)]) == 0
    assert not out.exists()


def test_gen_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    assert main(["gen", "--n", "4", "--out", str(tmp_path / "missing" / "x.g6")]) == 2
    assert "No such file" in capsys.readouterr().err


def test_chroma_density_rigidity_roundtrip():
    g6 = write_graph6(complete_multipartite(2, 2, 2, 2, 2))
    assert records(run_cli(["chroma", g6]).stdout)[0]["witness"]["chi"] == 5
    dens = records(run_cli(["density", "--k", "8", g6]).stdout)[0]["witness"]
    assert dens["premise"] is False and dens["triangles"] == 80
    rig = records(run_cli(["rigidity", "--d", "6", "--seed", "1", g6]).stdout)[0]
    assert rig["witness"]["verdict"] == "stressed"
    assert rig["witness"]["dim"] >= 1


def test_stdin_and_file_inputs(tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("C~\nE]~o\n")
    proc = run_cli(["chroma", str(path)])
    recs = records(proc.stdout)
    assert [r["witness"]["chi"] for r in recs] == [4, 3]
    proc = subprocess.run(
        [sys.executable, "-m", "triminor.cli", "chroma", "-"],
        input="C~\n",
        capture_output=True,
        text=True,
    )
    assert records(proc.stdout)[0]["witness"]["chi"] == 4


def test_bad_graph6_line_in_a_file_names_its_line(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("C~\nE]~o\nC!\n")
    assert main(["chroma", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"triminor: {path}:3: byte '!' outside graph6 range\n"


def test_usage_errors_exit_2():
    assert run_cli(["frobnicate"]).returncode == 2
    assert run_cli(["minor", "--pattern", "K3", "NOT A GRAPH"]).returncode == 2
    assert run_cli(["gen", "--n", "5", "--prune", "K9"]).returncode == 2
    assert run_cli(["verify", "--check", "no-such-check"]).returncode == 2


@pytest.mark.parametrize("args", [
    ["verify", "--check", "coloring-bound", "--samples", "-3"],
    ["verify", "--check", "density-ktree", "--samples", "0"],
    ["verify", "--check", "density-premise", "--samples", "0"],
    ["verify", "--check", "density-premise", "--samples", "2", "--workers", "-2"],
    ["gen", "--n", "5", "--max-edges", "-1"],
    ["verify", "--check", "wheels-r6", "--n", "9"],
    ["verify", "--check", "lemma-compk7", "--samples", "3"],
    ["verify", "--check", "wheels-r6", "--seed", "5"],
    ["verify", "--check", "wheels-r6", "--workers", "3"],
    ["verify", "--check", "density-ktree", "--samples", "2", "--workers", "2"],
    ["verify", "--check", "lemma-compk7", "--seed", "1"],
    ["gen", "--n", "5", "--min-degree", "-1", "--count-only"],
    ["gen", "--n", "4", "--count-only", "--out", "counts.g6"],
])
def test_bad_parameters_exit_2_with_a_message(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("triminor: ") and captured.err.count("\n") == 1


def test_verify_deterministic_output():
    args = ["verify", "--check", "density-ktree", "--samples", "10", "--seed", "5"]
    a, b = run_cli(args), run_cli(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_list22_streams_honest_summary():
    proc = run_cli(["verify", "--check", "list22-r7"])
    recs = records(proc.stdout)
    assert recs[0]["input"] == "corpus-match" and recs[0]["verdict"] == "pass"
    summary = recs[-1]
    assert summary["witness"]["count"] == 23
    assert proc.returncode == 1  # the historical 22-count claim fails honestly


def test_in_process_main_matches_subprocess():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["gen", "--n", "5", "--count-only"])
    assert code == 0
    assert json.loads(buf.getvalue())["witness"]["count"] == 34


CHEAP_PARAMS = {
    "coloring-bound": ["--samples", "6"],
    "density-premise": ["--samples", "10"],
    "density-ktree": ["--samples", "10"],
    "lemma-compk8": ["--n", "8"],
}
# lemma-compk7 takes 5-6 s through the CLI on a 2-core machine, and acceptance
# criterion 3 already runs the same sweep in-process
SLOW_CHECKS = {"lemma-compk7"}


@pytest.mark.parametrize("check_id", sorted(set(CHECK_IDS) - SLOW_CHECKS))
def test_every_check_reachable_from_cli(check_id):
    args = ["verify", "--check", check_id, *CHEAP_PARAMS.get(check_id, [])]
    proc = run_cli(args)
    assert proc.returncode in (0, 1)
    recs = records(proc.stdout)
    assert recs, "check produced no report"
    assert all(r["check"] == check_id for r in recs)


def test_lemma_compk7_reachable_from_cli_with_workers(monkeypatch, capsys):
    # the full sweep runs in the acceptance suite; two corpus graphs are
    # enough to send the CLI through the worker pool
    import triminor.verify as verify

    corpus = load_corpus()[:2]
    monkeypatch.setattr(verify, "load_corpus", lambda: corpus)
    outputs = []
    for workers in ("1", "2"):
        assert main(["verify", "--check", "lemma-compk7", "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    recs = records(outputs[1])
    assert [r["verdict"] for r in recs] == ["pass"] * 3
    assert recs[-1]["witness"] == {"graphs": 2, "failed": 0}


def test_a_check_that_stops_midway_keeps_the_records_it_made(monkeypatch, capsys):
    # the second graph's sweep raises: the first graph's record is already
    # written when the CLI exits 2
    import triminor.verify as verify

    corpus = load_corpus()[:2]
    first = write_graph6(corpus[0])
    real_sweep = verify._compk7_survivors

    def sweep(g6):
        if g6 != first:
            raise ValueError("sweep stopped")
        return real_sweep(g6)

    monkeypatch.setattr(verify, "load_corpus", lambda: corpus)
    monkeypatch.setattr(verify, "_compk7_survivors", sweep)
    assert main(["verify", "--check", "lemma-compk7"]) == 2
    captured = capsys.readouterr()
    assert [(r["input"], r["verdict"]) for r in records(captured.out)] == [(first, "pass")]
    assert captured.err == "triminor: sweep stopped\n"


def test_runtime_stays_standard_library_only():
    # -S keeps site hooks (.pth files) from importing third-party modules
    import triminor

    probe = (
        "import json, sys\n"
        "from triminor.cli import main\n"
        "code = main(['verify', '--check', 'lemma-compk8', '--workers', '1'])\n"
        "tops = {name.split('.')[0] for name in sys.modules} - {'__main__'}\n"
        "print(json.dumps([code, sorted(tops - set(sys.stdlib_module_names)),\n"
        "                  'concurrent.futures' in sys.modules,\n"
        "                  'multiprocessing' in sys.modules]))\n"
    )
    src = str(Path(triminor.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr  # -S also leaves site-packages off the path
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, ["triminor"], False, False]


# Every call pays for what importing the CLI compiles, so the modules only
# some subcommands use are imported inside them; one stray top-level import
# would load them all again.  The corpus is read by its path beside
# `verify`, so no call loads a resource reader or the archive reader it
# pulls in.
_HEAVY = ("dataclasses", "inspect", "importlib.resources", "zipfile",
          "triminor.generate", "triminor.coloring", "triminor.rigidity")


@pytest.mark.parametrize("run, loaded", [
    ("", []),
    ("cli.main(['gen', '--n', '4', '--count-only'])\n", ["triminor.generate"]),
    ("verify.load_corpus()\n", []),
])
def test_a_call_loads_only_what_it_runs(run, loaded):
    # -S keeps site hooks (.pth files) from importing modules of their own
    import triminor

    probe = (
        "import json, sys\n"
        "from triminor import cli, minors, verify\n"
        f"{run}"
        f"print(json.dumps([name for name in {_HEAVY!r} if name in sys.modules]))\n"
    )
    src = str(Path(triminor.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded


def test_readme_library_table_has_a_row_for_every_module():
    import triminor

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(\w+)` ", table, re.M))
    modules = {path.stem for path in Path(triminor.__file__).parent.glob("*.py")}
    assert modules - {"__init__", "cli"} - rows == set()


def test_summary_carries_the_whole_checks_time_under_timing(monkeypatch, capsys):
    # generation runs before any graph's record starts its clock, so only
    # the summary's time counts it; without --timing every millis is 0
    import time

    import triminor.generate as generate_module

    real_generate = generate_module.generate

    def slow_generate(spec):
        time.sleep(0.05)
        return real_generate(spec)

    monkeypatch.setattr(generate_module, "generate", slow_generate)
    args = ["verify", "--check", "lemma-compk8", "--n", "8"]
    assert main(args) == 0
    plain = records(capsys.readouterr().out)
    assert main(["--timing", *args]) == 0
    timed = records(capsys.readouterr().out)
    assert all(r["millis"] == 0 for r in plain)
    assert [dict(r, millis=0) for r in timed] == plain
    summary = timed[-1]
    assert summary["input"] == "summary" and summary["millis"] >= 50
    assert summary["millis"] >= sum(r["millis"] for r in timed[:-1])


# sha256 of the default stdout (every millis 0) of `verify --check
# lemma-compk8`, captured before the kernel had its contraction probe; a
# kernel change that speeds up a verdict must leave every record as it was.
# --n 10 was re-captured when the cell-key tie-break of the canonical test
# changed which representatives generation emits: matched by canonical
# certificate, every record's verdict and witness stayed the same.
# --n 9 and --n 10 were re-captured when the stream became depth-first,
# which reorders the records: their sorted lines stayed the same.
# --n 9 exits 1 on the complement of C3+C6 (acceptance criterion 7); --n 10
# takes 2-3 s on a 2-core machine
@pytest.mark.parametrize("n, code, lines, digest", [
    pytest.param(
        "8", 0, 3, "20857b3c59bfc926be941d83d5246071a0399a30ea550b7577de99ccae506cd8",
        id="n8"),
    pytest.param(
        "9", 1, 19, "34650c94324c5e1065d27347bbb7b8f74a4bce128c6fe28d325516ed5e00b516",
        id="n9"),
    pytest.param(
        "10", 0, 123, "6a3fb71ce8884dafc702099a35363b90efe4e36ca795aeb2584a8c5ce604f299",
        id="n10", marks=pytest.mark.slow),
])
def test_lemma_compk8_records_are_pinned(n, code, lines, digest, capsys):
    assert main(["verify", "--check", "lemma-compk8", "--n", n]) == code
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256, line count and exit code of the default stdout (every millis 0)
# of `verify --check X` for every check but lemma-compk8, pinned above.
# lemma-compk7 (all 23 corpus graphs) and coloring-bound were captured
# before the partition search had its edge-count bound, the others before
# run_check made every check's records.  list22-r7 exits 1 on its 23
# classes (acceptance criterion 1); its witness lists them in stream
# order, and was re-captured when the stream became depth-first, with the
# same sorted list.  lemma-compk7, density-premise and coloring-bound take
# 0.5-1 s each on a 2-core machine, the other nine 0.3 s together.
@pytest.mark.parametrize("check, code, lines, digest", [
    pytest.param(
        "lemma-compk7", 0, 24,
        "1e6ef9985a2c90ade0d9798c59e6d2d59f68d3bb1ec5e843ea2878ab9b4eca6e",
        id="lemma-compk7"),
    pytest.param(
        "coloring-bound", 0, 3,
        "1bd9bbfb1a8dc84d8644662a5032582b4f3cd9bf7d1bfbbf6846509c50ba03ec",
        id="coloring-bound"),
    pytest.param(
        "wheels-r6", 0, 3,
        "097ea9976ca3a4119c674d301e0dd40b100276b378926bde9a0a559cab32d82d",
        id="wheels-r6"),
    pytest.param(
        "list22-r7", 1, 2,
        "15c13b5f736b0f181d3dfd45fd8bad062c84cd92b79ad1a1d0a3d28a7334c9f7",
        id="list22-r7"),
    pytest.param(
        "lemma-numberk7", 0, 24,
        "2a820ae0988eb022bca8ab5c5f18d60a720fcce7c8529b342e8c2ce1763df2cc",
        id="lemma-numberk7"),
    pytest.param(
        "claim-2edgeP10", 0, 61,
        "78c524006ed1ec773e88e0b11dd141557af6e5ba54a3dbd03e20029e1e55ebb5",
        id="claim-2edgeP10"),
    pytest.param(
        "claim-p10-subgraphs", 0, 1,
        "613ee20b0b2bfcb9fb276a3c3b6ce87509ee702e4b5b56a0b863b3a678cf6a5b",
        id="claim-p10-subgraphs"),
    pytest.param(
        "k2222-two-edges", 0, 7,
        "64c472ec0d27f0233b1599885dbc401ab8b97cca1709bce55c4231af91703ac2",
        id="k2222-two-edges"),
    pytest.param(
        "k333-additions", 0, 31,
        "4d8d4bd3294799ea5520791ab6b8ccf35d94ecb657d08127aebf7c3061c270ed",
        id="k333-additions"),
    pytest.param(
        "k22222-maximal", 0, 6,
        "c804330b9ee11a490998aa53feb5815a267deb486ab0aab3b5bb7488f92c4ab2",
        id="k22222-maximal"),
    pytest.param(
        "density-ktree", 0, 6,
        "23fd192eff14c7649403a60ea34c1e8a23be702ef1deb4a347f8146326c1719b",
        id="density-ktree"),
    pytest.param(
        "density-premise", 0, 1,
        "c548c70db151b48c299fe4e14a3d3a598c1a08250e5991ec4a1b2f2d67148a90",
        id="density-premise"),
])
def test_check_records_are_pinned(check, code, lines, digest, capsys):
    assert main(["verify", "--check", check]) == code
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _ClosedPipe(io.StringIO):
    """A stdout whose reader is gone, as under `| head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("args", [
    ["gen", "--n", "7"],  # writes inside the command, line by line
    ["minor", "--pattern", "K5", "I]~v~z~~o"],  # writes through emit_report
])
def test_closed_stdout_exits_quietly(args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(args) == EXIT_READER_GONE == 141
    assert capsys.readouterr().err == ""
