import contextlib
import io
import json
import os
import random
import tempfile
import time
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from roadsync import cli
from roadsync.cli import main
from roadsync.automata import (
    _ints, apply_word, cerny_automaton, parse_dfa, word_from_str, write_dfa,
)
from roadsync.graphs import (
    Coloring, apply_coloring, is_admissible, make_graph, parse_graph, write_graph,
)
from roadsync.compose import write_batch
from roadsync import satreduce
from roadsync.satreduce import Cnf3, write_dimacs
from roadsync.automata import Dfa
from roadsync.srcp import srcp_oracle

from support import random_multigraph, reference_parse, reference_parser

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_sync_shortest(tmp_path, capsys):
    dfa_path = tmp_path / "c4.txt"
    code, out, _ = run(capsys, "gen", "cerny", "--n", "4", "--out", str(dfa_path))
    assert code == 0
    code, out, _ = run(capsys, "sync", "shortest", "--in", str(dfa_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "9"
    assert len(lines[1]) == 9 and set(lines[1]) <= {"a", "b"}
    # Past CERNY_STATE_CAP the table (about 250 B per state) is never built.
    big = tmp_path / "big.txt"
    code, out, err = run(capsys, "gen", "cerny", "--n", str(2 ** 31), "--out", str(big))
    assert (code, out) == (2, "") and err.startswith("size limit:")
    assert not big.exists()


def test_sync_shortest_cerny_32(tmp_path, capsys):
    dfa_path = tmp_path / "c32.txt"
    start = time.perf_counter()
    assert run(capsys, "gen", "cerny", "--n", "32", "--out", str(dfa_path))[0] == 0
    code, out, err = run(capsys, "sync", "shortest", "--in", str(dfa_path))
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    length, word = out.split()
    assert length == "961" and len(word) == 961
    dfa = parse_dfa(dfa_path.read_text())
    assert len(apply_word(dfa, dfa.full_set(), word_from_str(word, dfa.alphabet_size))) == 1


def test_sync_check_json(tmp_path, capsys):
    dfa_path = tmp_path / "c3.txt"
    run(capsys, "gen", "cerny", "--n", "3", "--out", str(dfa_path))
    code, out, _ = run(capsys, "--json", "sync", "check", "--in", str(dfa_path))
    assert code == 0
    assert json.loads(out)["answer"] is True


def test_sync_shortest_limit(tmp_path, capsys):
    dfa_path = tmp_path / "c4.txt"
    run(capsys, "gen", "cerny", "--n", "4", "--out", str(dfa_path))
    code, out, _ = run(capsys, "sync", "shortest", "--in", str(dfa_path),
                       "--limit", "8")
    assert code == 0
    assert out.strip().splitlines()[0] == "NONE"


def test_srcp_decide_and_k3(tmp_path, capsys):
    g = make_graph([(0, 1), (0, 1)])
    path = tmp_path / "g.txt"
    path.write_text(write_graph(g))
    code, out, _ = run(capsys, "srcp", "decide", "--in", str(path), "--k", "1")
    assert code == 0 and out.startswith("YES")
    code, out, _ = run(capsys, "srcp", "k3", "--in", str(path))
    assert code == 0 and out.startswith("YES")


def test_srcp_decide_small_k_at_t100(tmp_path, capsys):
    # v -> v+1, v+2 is admissible (cycles of 100, 99 and 50 edges), and the
    # walks of exactly two edges from v end in v+2..v+4, so no target is
    # common to every vertex and no coloring resets within two letters.
    t = 100
    path = tmp_path / "ring.txt"
    path.write_text(write_graph(make_graph([((v + 1) % t, (v + 2) % t) for v in range(t)])))
    for k in ("0", "1", "2"):
        code, out, err = run(capsys, "srcp", "decide", "--in", str(path), "--k", k)
        assert (code, out, err) == (0, "NO\n", "")


def test_srcp_k3_at_out_degree_3(tmp_path, capsys):
    rng = random.Random(3)
    path = tmp_path / "g3.txt"
    answers = set()
    while len(answers) < 2:
        g = random_multigraph(rng, 4, 3)
        if not is_admissible(g):
            continue
        path.write_text(write_graph(g))
        expected = srcp_oracle(g, 3, fast=False) is not None
        code, out, _ = run(capsys, "srcp", "k3", "--in", str(path))
        assert code == 0 and out == ("YES\n" if expected else "NO\n"), g.out_edges
        answers.add(expected)


def test_srcpw_decide_deep_search(tmp_path, capsys):
    # Letter a sends every vertex into R = {1, 2, 3, 4} and R into S = {1, 2},
    # b sends S to 0, and the other b-edges form one long path, so aab resets
    # to 0 and the search decides thousands of vertices one below another.
    t = 3000
    a = [1 + v % 4 for v in range(t)]
    a[1:5] = [1, 2, 1, 2]
    b = {1: 0, 2: 0}
    chain = [3, 4, 0, *range(5, t)]
    b.update(zip(chain, chain[1:]))
    b[t - 1] = 1
    g = make_graph([(a[v], b[v]) if v % 2 else (b[v], a[v]) for v in range(t)])
    path = tmp_path / "deep.txt"
    path.write_text(write_graph(g))
    code, out, err = run(capsys, "--json", "srcpw", "decide", "--word", "aab",
                         "--in", str(path))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["answer"] is True
    coloring = Coloring(tuple(tuple(row) for row in payload["witness_coloring"]))
    dfa = apply_coloring(g, coloring)
    assert len(apply_word(dfa, dfa.full_set(), (0, 0, 1))) == 1


def test_srcpw_decide_search_budget(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "srcpw", "decide", "--word", "aba",
                         "--in", str(DATA / "planted_aba_t200.txt"))
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("size limit:")


def test_srcp_decide_answers_planted_abb(capsys):
    # The planted t = 200 abb graph.  The aba search alone spends the whole
    # budget on it; searched target by target, abb resets it at its planted
    # target first.
    start = time.perf_counter()
    code, out, err = run(capsys, "srcp", "decide", "--k", "3",
                         "--in", str(DATA / "planted_abb_t200.txt"))
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (0, "YES\n", "")


def test_srcp_decide_refuses_long_enumeration_up_front(tmp_path, capsys):
    # Out-degree 3 at t = 10 has 6^10 = 60.5 M colorings, and the ring graph
    # v -> v+1, v+2 at t = 24 has 2^23 colorings to sweep under 2^8 words
    # each: both past the oracle's caps, both answered by the pattern words.
    # At t = 16,010 the 8 pattern words of k = 4 times the targets pass the
    # search budget, and the coloring count has more digits than Python
    # prints.  The planted t = 200 aba graph spends the search budget.  A
    # path 0 -> 1 -> ... -> 99 into a self-loop resets within exactly 99
    # letters; its long k is refused before its one word is built, and the
    # oracle tries its one coloring.
    degree3 = make_graph([((v + 1) % 10, (v + 2) % 10, 0) for v in range(10)])
    ring, huge = (make_graph([((v + 1) % t, (v + 2) % t) for v in range(t)])
                  for t in (24, 16010))
    planted = parse_graph((DATA / "planted_aba_t200.txt").read_text())
    chain = make_graph([(min(v + 1, 99),) for v in range(100)])
    for g, k, answer in ((degree3, 4, "YES\n"), (ring, 8, "NO\n"), (huge, 4, None),
                         (planted, 3, None), (chain, 100000, "YES\n"), (chain, 98, "NO\n")):
        assert is_admissible(g)
        path = tmp_path / "g.txt"
        path.write_text(write_graph(g))
        start = time.perf_counter()
        code, out, err = run(capsys, "srcp", "decide", "--k", str(k), "--in", str(path))
        assert time.perf_counter() - start < 5
        if answer is not None:
            assert (code, out, err) == (0, answer, ""), (g.t, k)
            continue
        assert code == 2 and out == "", (g.t, k)
        # Both refusals are named: the pattern route's, then the oracle's.
        assert err.startswith("size limit:")
        assert "choices spent" in err or "pattern decision capped" in err
        assert "srcp_oracle capped" in err


def test_srcp_decide_rejects_inadmissible(tmp_path, capsys):
    # A periodic 2-cycle, and two sink loops: aperiodic with uniform
    # out-degree, but no coloring synchronizes it, and k = 3 lies above
    # pin_bound(2) = 1.
    assert srcp_oracle(make_graph([(0, 0), (1, 1)]), 5, fast=False) is None
    path = tmp_path / "bad.txt"
    for rows in ([(1, 1), (0, 0)], [(0, 0), (1, 1)]):
        path.write_text(write_graph(make_graph(rows)))
        for argv in (["decide", "--k", "2"], ["decide", "--k", "1"], ["k3"]):
            code, out, err = run(capsys, "srcp", *argv, "--in", str(path))
            assert (code, out) == (1, ""), (rows, argv)
            assert err.startswith("error:"), (rows, argv)


def test_srcp_kernel_roundtrip(tmp_path, capsys):
    # t=3, out-degree 12: kernel reduces to 9
    rows = tuple(tuple([0, 1, 2] * 4) for _ in range(3))
    g = make_graph(rows)
    src = tmp_path / "g12.txt"
    dst = tmp_path / "g9.txt"
    src.write_text(write_graph(g))
    code, out, _ = run(capsys, "srcp", "kernel", "--in", str(src),
                       "--k", "3", "--out", str(dst))
    assert code == 0
    g2 = parse_graph(dst.read_text())
    assert len(g2.out_edges[0]) == 9


def test_srcp_kernel_at_out_degree_40000(tmp_path, capsys):
    # t = 2 and k = 0 cut all but t = 2 edges.  Recounting each vertex's
    # targets for every deleted edge took minutes at this out-degree.
    rng = random.Random(5)
    path = tmp_path / "wide.txt"
    path.write_text(write_graph(make_graph(
        [(0, 1, *(rng.randrange(2) for _ in range(39998))) for _ in range(2)])))
    start = time.perf_counter()
    code, out, err = run(capsys, "--json", "srcp", "kernel", "--in", str(path), "--k", "0")
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert json.loads(out)["report"] == {"trivially_yes": False,
                                         "aperiodicity_preserved": True}


def test_srcp_kernel_out_file_is_decided(tmp_path, capsys):
    # At t = 2 the out-degree floor binds: k = 0 once wrote `graph 2 0`,
    # which no command could read back.
    cases = [([(0, 1), (1, 0)], 0), ([(0, 1, 1, 0), (1, 1, 0, 0)], 0),
             ([(0, 0, 1, 1, 0)] * 2, 0),
             ([(0, 1, 1, 1, 2, 2, 0, 0, 1, 2, 1, 2)] * 3, 3)]
    src, kernel = tmp_path / "g.txt", tmp_path / "kernel.txt"
    for rows, k in cases:
        src.write_text(write_graph(make_graph(rows)))
        code, out, _ = run(capsys, "srcp", "kernel", "--in", str(src), "--k", str(k),
                           "--out", str(kernel))
        assert code == 0
        answer = run(capsys, "srcp", "decide", "--in", str(src), "--k", str(k))
        kernel_answer = run(capsys, "srcp", "decide", "--in", str(kernel), "--k", out.split()[0])
        assert answer == kernel_answer == (0, "YES\n" if k else "NO\n", ""), rows


def test_srcpw_decide_with_witness(tmp_path, capsys):
    g = make_graph([(0, 1), (0, 1)])
    path = tmp_path / "g.txt"
    path.write_text(write_graph(g))
    code, out, _ = run(capsys, "srcpw", "decide", "--word", "aaa",
                       "--in", str(path))
    assert code == 0
    assert out.startswith("YES")
    assert "colors" in out


def test_srcpw_decide_at_out_degree_3(tmp_path, capsys):
    g = make_graph([(1, 1, 2), (2, 2, 0), (0, 0, 1)])
    path = tmp_path / "g3.txt"
    path.write_text(write_graph(g))
    code, out, _ = run(capsys, "--json", "srcpw", "decide", "--word", "aba",
                       "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    coloring = Coloring(tuple(tuple(row) for row in payload["witness_coloring"]))
    dfa = apply_coloring(g, coloring)
    assert len(apply_word(dfa, dfa.full_set(), (0, 1, 0))) == 1
    # Rows of unequal out-degree, and a word with more letters than slots.
    path.write_text("graph 2 2\n0 1\n1\n")
    _assert_clean_exit_1(*run(capsys, "srcpw", "decide", "--word", "aba",
                              "--in", str(path)))
    path.write_text(write_graph(make_graph([(1,), (0,)])))
    _assert_clean_exit_1(*run(capsys, "srcpw", "decide", "--word", "aba",
                              "--in", str(path)))


def test_gen_compose_pipeline(tmp_path, capsys):
    raw = [(Dfa(3, 2, ((1, 0), (2, 1), (0, 2))), 3)]
    batch_path = tmp_path / "batch.txt"
    out_path = tmp_path / "dfa.txt"
    names_path = tmp_path / "names.json"
    batch_path.write_text(write_batch(raw, 3))
    code, out, _ = run(capsys, "gen", "compose", "--batch", str(batch_path),
                       "--out", str(out_path), "--names", str(names_path))
    assert code == 0
    composed = parse_dfa(out_path.read_text())
    names = json.loads(names_path.read_text())
    assert composed.t == len(names["states"])
    code, out, _ = run(capsys, "--json", "verify", "compose",
                       "--batch", str(batch_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    assert payload["report"]["c1_no_short_reset"] is True


def _one_item_batch(t):
    rng = random.Random(t)
    rows = "".join(f"{rng.randrange(t)} {rng.randrange(t)}\n" for _ in range(t))
    return f"batch 1 {t}\nitem 0 2\n{rows}"


def test_gen_compose_refuses_past_the_entry_cap_at_once(tmp_path, capsys):
    # One item at t = 200 would compose to 5,333,405 states x 204 letters.
    path = tmp_path / "batch.txt"
    path.write_text(_one_item_batch(200))
    out_path = tmp_path / "dfa.txt"
    for argv in (("gen", "compose", "--batch", str(path), "--out", str(out_path)),
                 ("verify", "compose", "--batch", str(path))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("size limit: composed automaton of 5333405 states")
    assert not out_path.exists()


def test_sync_shortest_refuses_a_composed_table_past_its_byte_cap(tmp_path, capsys):
    # A one-item t = 20 batch composes (5,345 states x 24 letters) under
    # compose.COMPOSE_ENTRY_CAP; its reset-word search tables would take
    # about 2.7 GB, so sync shortest refuses before building them.
    path = tmp_path / "batch.txt"
    path.write_text(_one_item_batch(20))
    out_path = tmp_path / "dfa.txt"
    assert run(capsys, "gen", "compose", "--batch", str(path),
               "--out", str(out_path)) == (0, "5345\n", "")
    start = time.perf_counter()
    code, out, err = run(capsys, "sync", "shortest", "--in", str(out_path),
                         "--limit", "1331")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == "size limit: reset-word search tables of 2749814784 bytes above cap 134217728\n"


def test_verify_compose_answers_big_batches_like_gen_compose(tmp_path, capsys):
    # m = 4 items at t = 2 leave m >= 2^t after preprocessing, so the batch
    # is decided by the big-m branch, not composed; both commands answer it.
    batch = "batch 4 2\n" + "".join(f"item 0 1\n{r0}\n{r1}\n"
                                      for r0, r1 in ((0, 1), (1, 0), (0, 0), (1, 1)))
    path = tmp_path / "batch.txt"
    path.write_text(batch)
    assert run(capsys, "gen", "compose", "--batch", str(path)) == (0, "NO\n", "")
    code, out, err = run(capsys, "--json", "verify", "compose", "--batch", str(path))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["answer"] is False
    assert payload["report"] == {"short_circuit": True}


def test_sat_reduce_pipeline(tmp_path, capsys):
    f = Cnf3(1, (((1, False), (1, True), (1, True)),))
    cnf = tmp_path / "f.cnf"
    cnf.write_text(write_dimacs(f))
    graph_path = tmp_path / "g.txt"
    code, out, _ = run(capsys, "gen", "sat-reduce", "--in", str(cnf),
                       "--out", str(graph_path))
    assert code == 0
    g = parse_graph(graph_path.read_text())
    assert g.t == 16
    code, out, _ = run(capsys, "--json", "verify", "sat-reduce", "--in", str(cnf))
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    assert payload["report"]["equivalent"] is True


def test_verify_sat_reduce_size_limit(tmp_path, capsys):
    f = Cnf3(4, (((1, False), (2, False), (3, False)),
                 ((4, False), (2, True), (1, True)),
                 ((3, True), (4, True), (2, False)),))
    cnf = tmp_path / "big.cnf"
    for text in (write_dimacs(f), "p cnf 2000 0\n"):
        cnf.write_text(text)
        code, _, err = run(capsys, "verify", "sat-reduce", "--in", str(cnf))
        assert code == 2
        assert "size limit" in err


def test_sat_reduce_refuses_large_header_up_front(tmp_path, capsys):
    # 10^7 variables would make an 80 M-state reduction graph; the header
    # alone is refused.  The largest admitted header builds 10^6 states.
    cnf = tmp_path / "big.cnf"
    for header in ("p cnf 10000000 0\n", "p cnf 0 200000\n", "p cnf 125000 0\n"):
        cnf.write_text(header)
        out_path = tmp_path / "g.txt"
        for argv in (["gen", "sat-reduce", "--out", str(out_path)], ["verify", "sat-reduce"]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv, "--in", str(cnf))
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, ""), (header, argv)
            assert err.startswith("size limit:") and "reduction states" in err
        assert not out_path.exists()
    assert satreduce.REDUCTION_STATE_CAP == 5 * 124999 + 3 * 124999 + 8


def test_export_dot(tmp_path, capsys):
    g = make_graph([(0, 1), (0, 1)])
    path = tmp_path / "g.txt"
    path.write_text(write_graph(g))
    code, out, _ = run(capsys, "export", "dot", "--in", str(path))
    assert code == 0 and "digraph" in out


def test_byte_identical_reruns(tmp_path, capsys):
    raw = [(Dfa(3, 2, ((1, 0), (2, 1), (0, 2))), 3)]
    batch_path = tmp_path / "batch.txt"
    batch_path.write_text(write_batch(raw, 3))
    _, out1, _ = run(capsys, "gen", "compose", "--batch", str(batch_path))
    _, out2, _ = run(capsys, "gen", "compose", "--batch", str(batch_path))
    assert out1 == out2


def test_unknown_input_is_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "sync", "check", "--in",
                       str(tmp_path / "missing.txt"))
    assert code == 1


def _assert_clean_exit_1(code, out, err):
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in out + err


def _assert_usage_error(code, out, err):
    assert code == 1
    assert "usage:" in err and "error:" in err
    assert "Traceback" not in out + err


def test_non_integer_dfa_token_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.dfa"
    path.write_text("dfa 2 2\n0 x\n1 0\n")
    _assert_clean_exit_1(*run(capsys, "sync", "check", "--in", str(path)))


def test_non_integer_graph_token_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("graph 2 2\n0 1\n1 z\n")
    _assert_clean_exit_1(*run(capsys, "srcp", "decide", "--in", str(path),
                              "--k", "2"))


def test_tokens_outside_ascii_decimal_are_exit_1(tmp_path, capsys):
    # int() reads both 0_1 and an Arabic-Indic one as 1; every input format
    # refuses them where the same file with "1" is accepted.
    inputs = [
        ("dfa 2 2\n0 {}\n1 0\n", ["sync", "check", "--in"]),
        ("graph 2 2\n0 {}\n1 0\n", ["srcp", "decide", "--k", "2", "--in"]),
        ("batch 1 2\nitem 1 2\n0 {}\n1 1\n", ["gen", "compose", "--batch"]),
        ("p cnf 3 1\n{} -2 3 0\n", ["verify", "sat-reduce", "--in"]),
    ]
    for text, argv in inputs:
        path = tmp_path / "input.txt"
        path.write_text(text.format("1"))
        assert run(capsys, *argv, str(path))[0] == 0, argv
        for token in ("0_1", "\u0661"):
            path.write_text(text.format(token))
            code, out, err = run(capsys, *argv, str(path))
            _assert_clean_exit_1(code, out, err)
            assert "expected integers" in err, (argv, token)


def test_srcpw_word_outside_alphabet_is_exit_1(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_graph(make_graph([(0, 1), (0, 1)])))
    _assert_clean_exit_1(*run(capsys, "srcpw", "decide", "--word", "ABB",
                              "--in", str(path)))


def test_verify_sat_reduce_without_input_is_exit_1(capsys):
    _assert_usage_error(*run(capsys, "verify", "sat-reduce"))


def test_gen_compose_without_batch_is_exit_1(capsys):
    _assert_usage_error(*run(capsys, "gen", "compose"))


def test_srcp_kernel_negative_k_is_exit_1(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_graph(make_graph([(0, 1), (0, 1)])))
    _assert_clean_exit_1(*run(capsys, "srcp", "kernel", "--in", str(path),
                              "--k", "-4"))


def test_sync_shortest_negative_limit_is_exit_1(tmp_path, capsys):
    dfa_path = tmp_path / "c4.txt"
    run(capsys, "gen", "cerny", "--n", "4", "--out", str(dfa_path))
    _assert_clean_exit_1(*run(capsys, "sync", "shortest", "--in", str(dfa_path),
                              "--limit", "-2"))


def test_unreadable_input_is_exit_1(tmp_path, capsys):
    binary = tmp_path / "g.bin"
    binary.write_bytes(b"graph 2 2\n\xff\xfe\n")
    _assert_clean_exit_1(*run(capsys, "srcp", "decide", "--in", str(binary)))
    _assert_clean_exit_1(*run(capsys, "sync", "check", "--in", str(tmp_path)))


def test_threads_flag_is_rejected(tmp_path, capsys):
    dfa_path = tmp_path / "c3.txt"
    run(capsys, "gen", "cerny", "--n", "3", "--out", str(dfa_path))
    _assert_usage_error(*run(capsys, "--threads", "2", "sync", "check",
                             "--in", str(dfa_path)))


def test_coloring_cap_flag_is_rejected(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_graph(make_graph([(0, 1), (2, 0), (1, 1)])))
    cnf = tmp_path / "f.cnf"
    cnf.write_text(_CNF)
    for argv in (["srcp", "decide", "--k", "4", "--coloring-cap", "16", "--in", str(path)],
                 ["verify", "sat-reduce", "--state-cap", "26", "--in", str(cnf)]):
        _assert_usage_error(*run(capsys, *argv))


def test_srcpw_witness_resets_by_the_asked_word(tmp_path, capsys):
    # A b-first word is searched as given: the printed coloring resets the
    # graph by that word, and the answer equals its complement's (swapping
    # both colors at every vertex maps one class onto the other).  On the
    # first graph, aba's coloring maps the states onto {1, 2} under bab.
    path = tmp_path / "g.txt"
    for text in ("graph 4 2\n0 2\n0 3\n3 3\n3 1\n", write_graph(make_graph([(0, 1), (0, 0)]))):
        path.write_text(text)
        g = parse_graph(text)
        answers = {}
        for w in map("".join, product("ab", repeat=3)):
            code, out, err = run(capsys, "--json", "srcpw", "decide", "--word", w,
                                 "--in", str(path))
            assert (code, err) == (0, "")
            payload = json.loads(out)
            answers[w] = payload["answer"]
            if payload["answer"]:
                coloring = Coloring(tuple(map(tuple, payload["witness_coloring"])))
                dfa = apply_coloring(g, coloring)
                assert len(apply_word(dfa, dfa.full_set(), word_from_str(w, 2))) == 1, (text, w)
        swap = str.maketrans("ab", "ba")
        assert all(answers[w] == answers[w.translate(swap)] for w in answers)
        assert answers["bab"] is True
    _assert_clean_exit_1(*run(capsys, "srcpw", "decide", "--word", "ab",
                              "--in", str(path)))


def test_negative_batch_count_is_exit_1(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    for header in ("batch -3 2\n", "batch 0 0\n"):
        path.write_text(header)
        for command in ("gen", "verify"):
            _assert_clean_exit_1(*run(capsys, command, "compose", "--batch", str(path)))
    path.write_text("batch 0 2\n")
    code, out, _ = run(capsys, "gen", "compose", "--batch", str(path))
    assert code == 0 and out.strip() == "NO"


# Small valid inputs, one per command; the property mutates their bytes.
_CNF = write_dimacs(Cnf3(1, (((1, False), (1, True), (1, True)),)))
# Refused at the header; a few deleted digits still leave them past the cap.
_LARGE_CNF_HEADERS = ("p cnf 99999999999 0\n", "p cnf 1 99999999999\n" + _CNF.split("\n", 1)[1])
_FUZZ_SEEDS = {
    ("sync", "check", "--in"): write_dfa(cerny_automaton(3)),
    ("sync", "shortest", "--in"): write_dfa(cerny_automaton(3)),
    ("export", "dot", "--in"): write_graph(make_graph([(0, 1), (2, 0), (1, 1)])),
    ("srcp", "kernel", "--in"):
        write_graph(make_graph([(0, 1, 1), (1, 0, 0)])),
    ("srcp", "decide", "--in"):
        write_graph(make_graph([(0, 1), (2, 0), (1, 1)])),
    ("srcp", "k3", "--in"): write_graph(make_graph([(1, 1, 2), (2, 2, 0), (0, 0, 1)])),
    ("srcpw", "decide", "--word", "aba", "--in"):
        write_graph(make_graph([(1, 2), (2, 0), (0, 0)])),
    ("gen", "compose", "--batch"):
        write_batch([(Dfa(3, 2, ((1, 0), (2, 1), (0, 2))), 3),
                     (Dfa(3, 2, ((0, 1), (0, 2), (1, 2))), 1)], 3),
    ("verify", "compose", "--batch"):
        write_batch([(Dfa(3, 2, ((1, 0), (2, 1), (0, 2))), 3)], 3),
    ("gen", "sat-reduce", "--in"): (_CNF, *_LARGE_CNF_HEADERS),
    ("verify", "sat-reduce", "--in"): (_CNF, *_LARGE_CNF_HEADERS),
    # gen cerny reads no input; the bytes go to the file it overwrites.
    ("gen", "cerny", "--out"): "",
}


# Flag sets drawn per command (after the action); --json is drawn for all.
_FUZZ_FLAGS = {
    ("sync", "shortest", "--in"):
        [[], *(["--limit", str(v)] for v in (-1, 0, 1, 4, 2 ** 31))],
    ("srcp", "decide", "--in"): [["--k", str(v)] for v in (-1, 0, 3, 4, 2 ** 31)],
    ("srcp", "kernel", "--in"): [["--k", str(v)] for v in (-1, 0, 1, 3, 2 ** 31)],
    ("gen", "cerny", "--out"): [["--n", str(v)] for v in (-1, 0, 1, 2, 4, 2 ** 31)],
}


@st.composite
def _fuzz_case(draw):
    argv = draw(st.sampled_from(sorted(_FUZZ_SEEDS)))
    seed = _FUZZ_SEEDS[argv]
    if not isinstance(seed, str):
        seed = draw(st.sampled_from(seed))
    data = bytearray(seed.encode())
    flags = draw(st.sampled_from(_FUZZ_FLAGS.get(argv, [[]])))
    prefix = ["--json"] if draw(st.booleans()) else []
    argv = (*prefix, *argv[:2], *flags, *argv[2:])
    if draw(st.integers(0, 4)) == 0:
        data = bytearray(draw(st.binary(max_size=80)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        chunk = draw(st.sampled_from([b"-", b"0", b"1", b"2", b"5", b"99", b" ",
                                      b"\n", b"#", b"x", b"\xff", b""])
                     | st.binary(max_size=3))
        cut = draw(st.integers(0, 2))
        data[pos:pos + cut] = chunk
    return argv, bytes(data)


@settings(max_examples=400, deadline=None)
@given(_fuzz_case())
def test_cli_survives_mutated_input(case):
    argv, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, path])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:")


# The flags each action's parser accepts, besides -h.
_ACTION_FLAGS = {
    ("sync", "check"): {"--in"},
    ("sync", "shortest"): {"--in", "--limit"},
    ("srcp", "decide"): {"--in", "--k"},
    ("srcp", "kernel"): {"--in", "--k", "--out"},
    ("srcp", "k3"): {"--in"},
    ("srcpw", "decide"): {"--word", "--in"},
    ("gen", "cerny"): {"--n", "--out"},
    ("gen", "compose"): {"--batch", "--out", "--names"},
    ("gen", "sat-reduce"): {"--in", "--out", "--names"},
    ("verify", "compose"): {"--batch"},
    ("verify", "sat-reduce"): {"--in"},
    ("export", "dot"): {"--in", "--out"},
}


def test_each_action_accepts_only_its_own_flags(tmp_path):
    # Read from cli._ACTIONS, and checked on the parse: after the action's
    # required flags, each action takes one more of its own flags and
    # refuses every other.
    found = {key: set(flags) for key, (_, *flags) in cli._ACTIONS.items()}
    assert found == _ACTION_FLAGS
    assert sum(map(len, found.values())) + 1 == 24
    for key, argv in _required_argv(tmp_path).items():
        for flag in cli._FLAGS:
            assert _outcome([*key, *argv, flag, "3"])[0] == (
                "ok" if flag in found[key] else "error"), (key, flag)


def _outcome(argv):
    """cli._parse's answer on argv, in the form of support.reference_parse."""
    try:
        handler, as_json, args = cli._parse(argv)
    except cli._Usage as exc:
        return ("help",) if exc.args[1] is None else ("error",)
    return ("ok", handler, as_json, vars(args))


# Values and words for the drawn command lines: paths, integers in and out
# of the file token rule, negative numbers, "-", "-x" and flags as values,
# and tokens with spaces.  Left out: abbreviations of --help, which the
# command-level argparse parsers took, and -h joined to more text (-hx),
# which argparse read as -h with an argument.
_ARGV_VALUES = ("x.txt", "aba", "3", "0", "-4", "-1.5", "4.0", " 7", "+2", "",
                "-", "-x", "-x y", "a b", "٣", "-٣", "1_0", "--k", "-h", "--json",
                "--in=a b", "--k=-x y", "--help=a b")
_ARGV_EXTRAS = ("--json", "-h", "--help", "--bogus", "--json=1", "--help=", "x")


@st.composite
def _command_line(draw):
    command, action = draw(st.sampled_from(sorted(cli._ACTIONS)))
    own = cli._ACTIONS[command, action][1:]
    value = st.sampled_from(_ARGV_VALUES)
    argv = ["--json"] * draw(st.integers(0, 2))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(0, draw(st.sampled_from(_ARGV_EXTRAS)))
    argv += draw(st.sampled_from([[command, action]] * 6 + [[command], [command, "bogus"],
                                                            ["bogus", action], []]))
    if len(argv) >= 2 and draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv) - 1)), draw(st.sampled_from(_ARGV_EXTRAS)))
    if draw(st.integers(0, 3)):
        argv += [token for flag in own if cli._FLAGS[flag].get("required")
                 for token in (flag, "aba" if flag == "--word" else "x.txt")]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 9))
        flag = draw(st.sampled_from(own if kind < 6 else sorted(cli._FLAGS)))
        if kind < 7:
            pair = [flag, draw(value)]
            argv += ["=".join(pair)] if kind % 2 else pair
        else:
            argv.append([flag, draw(value), draw(st.sampled_from(_ARGV_EXTRAS))][kind - 7])
    return argv


_REFERENCE = reference_parser()
# The reference with the integer rule of the input files in place of int().
_REFERENCE_FILE_RULE = reference_parser(lambda value: _ints((value,), "flag")[0])


@settings(max_examples=1500, deadline=None)
@given(_command_line())
def test_parse_matches_the_argparse_reference(argv):
    # Accept or reject, help, the handler, --json and every flag value agree
    # with the argparse tree the parse replaced, but for the integer rule:
    # int() also reads "٣" and "1_0", which the integer flags refuse.
    new = _outcome(argv)
    assert new == reference_parse(_REFERENCE_FILE_RULE, argv), argv
    if new != reference_parse(_REFERENCE, argv):
        assert any(not token.isascii() or "_" in token for token in argv), argv


def test_integer_flags_follow_the_file_token_rule(tmp_path, capsys):
    # int() reads both as numbers (3 and 10); inside a file they are exit 1.
    graph = tmp_path / "g.txt"
    graph.write_text(write_graph(make_graph([(0, 1), (2, 0), (1, 1)])))
    dfa = tmp_path / "c3.txt"
    dfa.write_text(write_dfa(cerny_automaton(3)))
    for token in ("٣", "1_0", "-٣", "３"):
        for argv in (["srcp", "decide", "--in", str(graph), "--k", token],
                     ["srcp", "kernel", f"--k={token}", "--in", str(graph)],
                     ["sync", "shortest", "--in", str(dfa), "--limit", token],
                     ["gen", "cerny", "--n", token]):
            code, out, err = run(capsys, *argv)
            _assert_usage_error(code, out, err)
            assert out == "" and "expected integers" in err, argv
    assert run(capsys, "srcp", "decide", "--in", str(graph), "--k", "3")[:2] == (0, "YES\n")


def test_help_prints_usage_to_stdout(capsys):
    for argv, flags in ((["--help"], ["--in", "--word", "--batch", "--limit", "--n"]),
                        (["srcp", "decide", "--help"], ["--in", "[--k K]"]),
                        (["srcp", "decide", "-h", "--in"], ["--in", "[--k K]"]),
                        (["--json", "gen", "-h"], ["gen cerny [--n N]", "gen compose"])):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: roadsync ") and all(f in out for f in flags), argv
    assert run(capsys, "srcp", "decide", "--help")[1].count("\n") == 1


def _required_argv(tmp_path):
    """A valid argv tail per action: its required flags and nothing else."""
    dfa, graph, batch, cnf = (str(tmp_path / name) for name in ("c3.txt", "g.txt", "b.txt", "f.cnf"))
    Path(dfa).write_text(write_dfa(cerny_automaton(3)))
    Path(graph).write_text(write_graph(make_graph([(0, 1), (2, 0), (1, 1)])))
    Path(batch).write_text(write_batch([(Dfa(3, 2, ((1, 0), (2, 1), (0, 2))), 3)], 3))
    Path(cnf).write_text(_CNF)
    return {
        ("sync", "check"): ["--in", dfa],
        ("sync", "shortest"): ["--in", dfa],
        ("srcp", "decide"): ["--in", graph],
        ("srcp", "kernel"): ["--in", graph],
        ("srcp", "k3"): ["--in", graph],
        ("srcpw", "decide"): ["--word", "aba", "--in", graph],
        ("gen", "cerny"): [],
        ("gen", "compose"): ["--batch", batch],
        ("gen", "sat-reduce"): ["--in", cnf],
        ("verify", "compose"): ["--batch", batch],
        ("verify", "sat-reduce"): ["--in", cnf],
        ("export", "dot"): ["--in", graph],
    }


def test_json_before_the_command_for_every_action(tmp_path, capsys):
    for (command, action), argv in _required_argv(tmp_path).items():
        code, out, err = run(capsys, "--json", command, action, *argv)
        assert (code, err) == (0, ""), (command, action)
        assert set(json.loads(out)) == {"answer", "witness_word", "witness_coloring", "report"}


def test_flags_of_other_actions_are_usage_errors(tmp_path, capsys, monkeypatch):
    # Each of these was accepted by the command's shared parser and ignored.
    # A prefix of another flag (--n of --names) is no flag either.
    monkeypatch.chdir(tmp_path)
    argv = _required_argv(tmp_path)
    inputs = sorted(os.listdir(tmp_path))
    for command, action, flag in (
            ("sync", "check", "--limit"), ("srcp", "decide", "--out"),
            ("srcp", "k3", "--k"), ("srcp", "k3", "--out"),
            ("gen", "cerny", "--batch"), ("gen", "cerny", "--in"), ("gen", "cerny", "--names"),
            ("gen", "compose", "--n"), ("gen", "compose", "--in"),
            ("gen", "sat-reduce", "--n"), ("gen", "sat-reduce", "--batch"),
            ("verify", "compose", "--in"), ("verify", "sat-reduce", "--batch")):
        value = "3" if flag in ("--n", "--k", "--limit") else "stray.txt"
        code, out, err = run(capsys, command, action, *argv[(command, action)], flag, value)
        _assert_usage_error(code, out, err)
        assert out == "" and sorted(os.listdir(tmp_path)) == inputs, (command, action, flag)
