"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _answers(workload: str, seed: int, workdir: Path) -> tuple[str, list[str]]:
    inputs = workloads.build(workload, seed, workdir, smoke=True)
    inputs.write(workdir)
    from roadsync.cli import main

    outputs = []
    for q in inputs.warmup + inputs.queries:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(q.argv)) == 0
        outputs.append(out.getvalue())
    return inputs.digest(str(workdir)), outputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_answers(workload, tmp_path):
    first = _answers(workload, 7, tmp_path / "a")
    second = _answers(workload, 7, tmp_path / "b")
    assert first == second
    assert _answers(workload, 8, tmp_path / "c")[0] != first[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_full_size_inputs_are_deterministic(workload, tmp_path):
    a = workloads.build(workload, 3, tmp_path)
    b = workloads.build(workload, 3, tmp_path)
    assert a.digest(str(tmp_path)) == b.digest(str(tmp_path))
    assert len({q.qid for q in a.queries}) == len(a.queries)


def test_smoke_runs_every_workload_without_failures():
    proc = _bench("--workload", "all", "--smoke", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    expected = {f"{w}.{m}" for w in workloads.WORKLOADS for m in run.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric(tmp_path):
    proc = _bench("--workload", "coloring", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_names())
    assert result["metrics"]["srcp._sync_mask_chunk.calls"]["value"] > 0
    queries = workloads.build("coloring", 0, tmp_path, smoke=True).queries
    assert result["metrics"]["cli.main.calls"]["value"] == len(queries)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _bench("--workload", "coloring", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_wraps_every_binding_and_restores_it():
    import roadsync.cli
    import roadsync.srcp
    from tracing import Tracer

    original = roadsync.srcp.shortest_reset_word
    tracer = Tracer()
    tracer.install()
    try:
        assert roadsync.cli.shortest_reset_word is roadsync.srcp.shortest_reset_word
        assert roadsync.cli.shortest_reset_word is not original
    finally:
        tracer.uninstall()
    assert roadsync.cli.shortest_reset_word is original
    assert roadsync.srcp.shortest_reset_word is original


def test_reduction_graph_matches_roadsync():
    from roadsync.satreduce import build_reduction, parse_dimacs

    rng = random.Random(11)
    for n, m in ((1, 1), (2, 3), (4, 8)):
        clauses = workloads.random_cnf(rng, n, m)
        expected = build_reduction(parse_dimacs(workloads.cnf_text(n, clauses))).graph
        assert [tuple(e) for e in workloads.reduction_graph(n, clauses)] == list(expected.out_edges)


def test_cycle_merge_closed_form():
    from roadsync.automata import make_dfa
    from roadsync.syncsolve import shortest_reset_word

    for t in range(3, 12):
        for d in range(1, t):
            word = shortest_reset_word(make_dfa(workloads.cycle_merge(t, d)))
            assert (None if word is None else len(word)) == workloads.cycle_merge_length(t, d)
            assert (word is not None) == (gcd(d, t) == 1)


def test_planted_graphs_are_admissible_with_a_resetting_coloring():
    rng = random.Random(2)
    for word in ("aab", "aba", "abb"):
        edges = workloads.planted_word_graph(rng, 30, word)
        assert workloads.is_admissible_sc(edges)
        assert workloads.exact_walk_targets(edges, 3) != 0
