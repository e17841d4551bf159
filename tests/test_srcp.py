import random
from itertools import product
from pathlib import Path

import pytest

from roadsync import satreduce, srcp, srcpw
from roadsync.automata import apply_word
from roadsync.errors import InvalidInputError, SizeLimitError
from roadsync.graphs import (
    Multigraph,
    apply_coloring,
    coloring_from_index,
    enumerate_colorings,
    is_admissible,
    is_strongly_connected,
    make_graph,
    out_degree_uniform,
    parse_graph,
)
from roadsync.srcp import (
    kernelize,
    pattern_words,
    srcp_decide,
    srcp_exists_by_patterns,
    srcp_oracle,
    sweep_sync_indices,
)
from roadsync.syncsolve import pin_bound, shortest_reset_word, syn_decide

from support import passwise_kernel_graph, random_multigraph


def admissible_random(rng, t, d):
    while True:
        g = random_multigraph(rng, t, d)
        try:
            from roadsync.graphs import is_admissible
            if is_admissible(g):
                return g
        except InvalidInputError:
            continue


def test_oracle_trivial_yes():
    g = make_graph([(0, 0)])
    result = srcp_oracle(g, 0)
    assert result is not None
    coloring, word = result
    assert word == ()


def test_oracle_permutation_only_graph():
    g = make_graph([(1, 1), (0, 0)])
    assert srcp_oracle(g, 50) is None


def test_oracle_first_witness_and_shortest_word():
    rng = random.Random(7)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(1, 4), 2)
        res = srcp_oracle(g, 3)
        slow = None
        for idx, c in enumerate(enumerate_colorings(g)):
            w = shortest_reset_word(apply_coloring(g, c), limit=3)
            if w is not None:
                slow = (idx, c, w)
                break
        if res is None:
            assert slow is None
        else:
            coloring, word = res
            assert slow is not None
            assert coloring == slow[1]
            assert word == slow[2]


def test_sweep_matches_pure_enumeration():
    rng = random.Random(17)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(1, 5), 2)
        k = rng.randint(0, 4)
        fast = list(sweep_sync_indices(g, k))
        slow = [idx for idx, c in enumerate(enumerate_colorings(g))
                if shortest_reset_word(apply_coloring(g, c), limit=k) is not None]
        assert fast == slow


def _enumeration_lengths(g):
    """Shortest reset length (None beyond 6) of every coloring, in index order."""
    lengths = []
    for c in enumerate_colorings(g):
        w = shortest_reset_word(apply_coloring(g, c), limit=6)
        lengths.append(None if w is None else len(w))
    return lengths


def test_sweep_matches_enumeration_across_chunks(monkeypatch):
    # Chunks of 1 and 2 colorings mirror the upper half chunk by chunk; 64
    # holds the whole lower half up to t = 7 and splits it beyond.
    rng = random.Random(29)
    for t in range(1, 11):
        g = random_multigraph(rng, t, 2)
        lengths = _enumeration_lengths(g)
        for k in range(7):
            slow = [i for i, n in enumerate(lengths) if n is not None and n <= k]
            for chunk in (1, 2, 64):
                monkeypatch.setattr(srcp, "_SWEEP_CHUNK", chunk)
                assert list(sweep_sync_indices(g, k)) == slow, (t, k, chunk)


def test_sweep_kernel_only_sees_lower_half(monkeypatch):
    seen = []
    kernel = srcp._sync_mask_chunk

    def spy(e0, e1, t, k, idx):
        seen.append((t, max(idx)))
        return kernel(e0, e1, t, k, idx)

    monkeypatch.setattr(srcp, "_sync_mask_chunk", spy)
    monkeypatch.setattr(srcp, "_SWEEP_CHUNK", 8)
    rng = random.Random(41)
    upper = 0
    for t in range(2, 11):
        g = random_multigraph(rng, t, 2)
        upper += sum(i >= 1 << (t - 1) for i in sweep_sync_indices(g, 4))
    assert seen and upper > 0
    assert all(top < 1 << (t - 1) for t, top in seen)


def test_sweep_at_the_production_chunk_size():
    # t = 16 gives four default chunks in the lower half, so the digits of
    # bits 9..15 and the chunk edges at multiples of 2^13 are all crossed.
    # One edge of each vertex, in a random slot, enters {0, 1, 2}, so short
    # reset words are common: 5,376 colorings sync at k = 3, 25,728 at k = 4.
    assert srcp._SWEEP_CHUNK == 1 << 13
    rng = random.Random(62)
    t = 16
    rows = []
    for _ in range(t):
        row = [rng.randrange(3), rng.randrange(t)]
        rng.shuffle(row)
        rows.append(tuple(row))
    g = Multigraph(t, tuple(rows))
    edges = [8191, 8192, 16383, 16384, 24575, 24576, 32767]
    picks = edges + [(1 << t) - 1 - i for i in edges]
    picks += rng.sample(range(1 << t), 300)
    for k in (3, 4):
        hits = list(sweep_sync_indices(g, k))
        assert all(a < b for a, b in zip(hits, hits[1:]))
        found = set(hits)
        answers = set()
        for i in picks:
            word = shortest_reset_word(apply_coloring(g, coloring_from_index(g, i)),
                                       limit=k)
            assert (i in found) == (word is not None), (k, i)
            answers.add(word is not None)
        assert answers == {True, False}


def test_fast_oracle_matches_plain_enumeration():
    rng = random.Random(53)
    answers = []
    for t in range(6, 11):
        # A doubled cycle: every coloring is a permutation, so every k is NO.
        ring = make_graph([((v + 1) % t, (v + 1) % t) for v in range(t)])
        for g in (ring, random_multigraph(rng, t, 2), random_multigraph(rng, t, 2)):
            for k in range(7):
                fast = srcp_oracle(g, k)
                assert fast == srcp_oracle(g, k, fast=False), (g.out_edges, k)
                answers.append(fast)
    assert None in answers
    assert any(a is not None for a in answers)


def test_oracle_caps_one_by_one_enumeration():
    # 2^20 colorings: within the sweep's cap at k = 4, past the one-by-one cap.
    g = random_multigraph(random.Random(4), 20, 2)
    assert srcp.ORACLE_ENUMERATION_CAP < 1 << 20
    assert (1 << 19) * (1 << 4) <= srcp.SWEEP_WORK_CAP
    with pytest.raises(SizeLimitError):
        srcp_oracle(g, 4, fast=False)
    # 2^23 colorings x 2^8 words: past the sweep's cap.
    with pytest.raises(SizeLimitError):
        srcp_oracle(random_multigraph(random.Random(4), 24, 2), 8)
    with pytest.raises(SizeLimitError):
        srcp_oracle(g, srcp._SWEEP_WORD_DEPTH_CAP + 1)
    with pytest.raises(SizeLimitError):
        srcp_oracle(random_multigraph(random.Random(4), 10, 3), 4)


def test_srcp_decide_requires_admissible():
    with pytest.raises(InvalidInputError):
        srcp_decide(make_graph([(1, 1), (0, 0)]), 3)


def test_srcp_decide_pin_bound_shortcut():
    rng = random.Random(5)
    for _ in range(20):
        g = admissible_random(rng, rng.randint(1, 4), 2)
        assert srcp_decide(g, pin_bound(g.t)) is True


def test_pin_bound_shortcut_needs_one_aperiodic_sink():
    # Two sink loops, and a 2-cycle sink below a loop: both are aperiodic
    # overall with uniform out-degree, but no coloring synchronizes them, so
    # the shortcut's yes at k >= pin_bound(t) would be wrong.
    for rows in ([(0, 0), (1, 1)], [(1, 1), (0, 0), (2, 0)]):
        g = make_graph(rows)
        assert srcp_oracle(g, pin_bound(g.t), fast=False) is None
        for k in (1, 3, pin_bound(g.t)):
            with pytest.raises(InvalidInputError):
                srcp_decide(g, k)
        with pytest.raises(InvalidInputError):
            kernelize(g, 1)
    # One aperiodic sink below other states: the shortcut's yes is right.
    rng = random.Random(8)
    seen = 0
    while seen < 20:
        g = admissible_random(rng, rng.randint(2, 4), 2)
        if is_strongly_connected(g):
            continue
        seen += 1
        assert srcp_decide(g, pin_bound(g.t)) is True
        assert srcp_oracle(g, pin_bound(g.t), fast=False) is not None


def test_srcp_decide_monotone():
    rng = random.Random(31)
    for _ in range(20):
        g = admissible_random(rng, rng.randint(1, 4), 2)
        answers = [srcp_decide(g, k) for k in range(pin_bound(g.t) + 1)]
        assert all(x <= y for x, y in zip(answers, answers[1:]))


def test_kernelize_trivial_branch():
    g = make_graph([(0, 1), (1, 0)])
    res = kernelize(g, pin_bound(2))
    assert res.trivially_yes
    assert res.graph.t == 1 and res.k == 0
    assert out_degree_uniform(res.graph) == 2
    assert srcp_decide(res.graph, res.k) is True


def test_kernelize_unchanged_below_threshold():
    # t=3: z=4, threshold 9; out-degree 2 is already below it
    g = make_graph([(0, 1), (2, 0), (1, 2)])
    res = kernelize(g, 3)
    assert res.graph == g and res.k == 3 and not res.trivially_yes


def test_kernelize_degenerate_two_states():
    # t=2: z=1, threshold 0, so the floor of t edges binds.  Both sides stay
    # no-instances at k=0 (2 states cannot synchronize with the empty word),
    # and every vertex keeps its targets, so the kernel stays admissible.
    rng = random.Random(8)
    for d in (1, 2, 3, 7):
        for _ in range(20):
            g = admissible_random(rng, 2, d)
            res = kernelize(g, 0)
            assert out_degree_uniform(res.graph) == min(d, 2)
            assert [set(ts) for ts in res.graph.out_edges] == [set(ts) for ts in g.out_edges]
            assert is_admissible(res.graph) and res.aperiodicity_preserved is True
            assert srcp_decide(res.graph, 0) is False


def test_kernelize_reduces_degree_to_threshold():
    rng = random.Random(23)
    # t=3: z=4, threshold 9; out-degree 12 reduces to 9
    for _ in range(10):
        g = admissible_random(rng, 3, 12)
        res = kernelize(g, 3)
        assert out_degree_uniform(res.graph) == 9
        assert res.graph.t == g.t
        assert res.k == 3
        # deletion only removes edges: multiset inclusion per vertex
        for v in range(3):
            before = sorted(g.out_edges[v])
            after = sorted(res.graph.out_edges[v])
            for u in set(after):
                assert after.count(u) <= before.count(u)
    # determinism
    g = admissible_random(random.Random(1), 3, 12)
    assert kernelize(g, 3) == kernelize(g, 3)


def test_kernelize_matches_passwise_reference():
    # Out-degree past the threshold max(t * (pin_bound(t) - 1), t) that k
    # below pin_bound(t) cuts to; uneven target weights make skewed rows and
    # ties.
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        t = rng.randint(2, 4)
        k = rng.randrange(pin_bound(t))
        threshold = max(t * (pin_bound(t) - 1), t)
        d = threshold + rng.randint(1, 12)
        weights = [rng.choice((1, 1, 8)) for _ in range(t)]
        g = Multigraph(t, tuple(tuple(rng.choices(range(t), weights, k=d)) for _ in range(t)))
        if not is_admissible(g):
            continue
        res = kernelize(g, k)
        assert res.graph == passwise_kernel_graph(g), (g.out_edges, k)
        assert out_degree_uniform(res.graph) == threshold
        checked += 1


def test_kernel_soundness_small_oracle():
    rng = random.Random(77)
    for _ in range(12):
        g = admissible_random(rng, 3, 12)
        res = kernelize(g, 3)
        assert srcp_exists_by_patterns(g, 3) == srcp_exists_by_patterns(res.graph, 3)


def test_pattern_words():
    assert [len(list(pattern_words(3, d))) for d in (1, 2, 3, 4)] == [1, 4, 5, 5]
    assert len(list(pattern_words(4, 2))) == 8
    # Lazy: the first words of a 2^29-word family come without the rest.
    assert next(pattern_words(30, 2)) == (0,) * 30
    for k in range(5):
        for d in range(4):
            words = list(pattern_words(k, d))
            assert words == sorted(set(words))
            # Every word of length k renames to exactly one pattern word.
            renamed = set()
            for w in product(range(d), repeat=k):
                order = list(dict.fromkeys(w))
                renamed.add(tuple(order.index(x) for x in w))
            assert set(words) == renamed


def test_pattern_decision_matches_oracle():
    rng = random.Random(13)
    for _ in range(120):
        d = rng.randint(1, 4)
        t = rng.randint(1, 2 if d == 4 else 3)
        g = random_multigraph(rng, t, d)
        for k in (0, 1, 2, 3):
            fast = srcp_exists_by_patterns(g, k)
            slow = srcp_oracle(g, k) is not None
            assert fast == slow, (g.out_edges, k, fast, slow)
    # srcp_decide answers every k through the pin-bound shortcut or the
    # pattern decision, at any out-degree; the plain enumeration is the
    # independent check.  Out-degree 2 runs to k = 6 on graphs up to t = 12,
    # the rings among them; out-degree 3 adds the shuffled ring family, so
    # both give NO cases.
    graphs = []
    for _ in range(40):
        d = rng.randint(1, 4)
        graphs.append(admissible_random(rng, rng.randint(2, {1: 4, 2: 5, 3: 3, 4: 3}[d]), d))
    graphs += [admissible_random(rng, t, 2) for t in (5, 6, 7, 8, 9, 10, 12)]
    graphs += [_ring(t) for t in (7, 9, 12)]
    graphs += [admissible_random(rng, t, 3) for t in (3, 4, 4, 5)]
    graphs += [g for g in (_ring(t, rng) for t in (4, 5, 5, 5)) if is_admissible(g)]
    answers = set()
    for g in graphs:
        d = out_degree_uniform(g)
        slow = True
        for k in reversed(range({2: 7, 3: 5}.get(d, 4))):
            # A NO at k is a NO at every smaller k.
            slow = slow and srcp_oracle(g, k, fast=False) is not None
            assert srcp_decide(g, k) == slow, (g.out_edges, k, slow)
            answers.add((d, slow))
    assert {(2, False), (2, True), (3, False), (3, True)} <= answers


def _ring(t, rng=None):
    """v -> v+1, v+2 (admissible), or with rng the out-degree-3 family
    (v+1, v+1|v+2, v+1|v+2) with each vertex's slots shuffled.  A walk of k
    edges from v ends in v+k..v+2k, so for t >= k + 2 no vertex is a common
    end and no coloring resets within k letters."""
    if rng is None:
        return make_graph([((v + 1) % t, (v + 2) % t) for v in range(t)])
    rows = []
    for v in range(t):
        row = [(v + 1) % t] + [(v + rng.randint(1, 2)) % t for _ in range(2)]
        rng.shuffle(row)
        rows.append(tuple(row))
    return make_graph(rows)


def test_pattern_decision_caps(monkeypatch):
    # k >= 4 is decided like k <= 3, with the oracle's answer.
    g = random_multigraph(random.Random(0), 6, 2)
    for k in (3, 4, 5):
        assert srcp_exists_by_patterns(g, k) == (srcp_oracle(g, k, fast=False) is not None)
    assert srcp_exists_by_patterns(make_graph([(0, 0)]), 4) is True
    # Words x targets past SEARCH_NODE_BUDGET are refused before any search;
    # at the budget the words are searched.
    searched = []

    def search(g, words):
        searched.append((g.t, len(list(words))))
        return None

    monkeypatch.setattr(srcp, "first_word_coloring", search)
    t = srcp.SEARCH_NODE_BUDGET // 8  # k = 4 has 8 pattern words
    assert srcp_exists_by_patterns(_ring(t), 4) is False
    with pytest.raises(SizeLimitError):
        srcp_exists_by_patterns(_ring(t + 1), 4)
    # k = 3 has 4, abb among them.
    quarter, past = srcp.SEARCH_NODE_BUDGET // 4, srcp.SEARCH_NODE_BUDGET + 1
    assert srcp_exists_by_patterns(_ring(quarter), 3) is False
    with pytest.raises(SizeLimitError):
        srcp_exists_by_patterns(_ring(quarter + 1), 3)
    # k = 0 has only the empty word, which costs no walk, so no t is refused
    # (k = 1 is, past SEARCH_NODE_BUDGET targets); the search answers it at once.
    assert srcp_exists_by_patterns(_ring(past), 0) is False
    with pytest.raises(SizeLimitError):
        srcp_exists_by_patterns(_ring(past), 1)
    assert srcpw.first_word_coloring(_ring(past), [()]) is None
    # A long k is refused before one of its words is built, at out-degree 1
    # too, where its one word would be walked k - 1 layers deep.
    path = make_graph([(min(v + 1, 999),) for v in range(1000)])
    for g in (_ring(1000), path):
        with pytest.raises(SizeLimitError):
            srcp_exists_by_patterns(g, 10 ** 8)
    assert searched == [(t, 8), (quarter, 4), (past, 1)]


@pytest.mark.xfail(raises=SizeLimitError, strict=True,
                   reason="the target-by-target search spends its budget at target 2")
def test_pattern_decision_answers_random_k7_t39():
    # A YES that the word-by-word search answered within its budget (1.2 s):
    # aabaabb resets g, at target 24.  Target by target, each k = 7 pattern
    # word tried at target 2 backtracks about 1,900 choices there and fails,
    # and the budget runs out after 42 of the 64 words; the oracle's caps
    # refuse t = 39 at k = 7 too.
    g = parse_graph((Path(__file__).parent / "data" / "random_k7_t39.txt").read_text())
    assert srcpw.fixed_word_coloring(g, (0, 0, 1, 0, 0, 1, 1)) is not None
    assert srcp_exists_by_patterns(g, 7) is True


@pytest.mark.xfail(raises=SizeLimitError, strict=True,
                   reason="the k = 4 search spends its budget on a satisfiable reduction")
def test_pattern_decision_answers_satisfiable_reduction():
    # `gen sat-reduce` of a satisfiable 3-CNF (6 variables, 3 clauses)
    # builds a t = 51 graph that abaa resets under the coloring read off a
    # satisfying assignment.  The pattern search spends its budget before it
    # finds one, and the oracle's caps refuse t = 51 at k = 4.
    f = satreduce.parse_dimacs((Path(__file__).parent / "data" / "sat_k4_t51.cnf").read_text())
    rg = satreduce.build_reduction(satreduce.augment_tautologies(f))
    assert rg.graph.t == 51
    dfa = apply_coloring(rg.graph, satreduce.extract_coloring(rg, satreduce.sat_oracle(f)))
    assert len(apply_word(dfa, dfa.full_set(), satreduce.RESET_WORD)) == 1
    assert srcp_decide(rg.graph, 4) is True


def test_srcp_decide_falls_back_to_the_oracle(monkeypatch):
    calls = []
    oracle = srcp.srcp_oracle

    def spy(g, k):
        calls.append(k)
        return oracle(g, k)

    monkeypatch.setattr(srcp, "srcp_oracle", spy)
    rng = random.Random(5)
    graphs = [admissible_random(rng, t, 2) for t in (4, 6, 8)] + [_ring(8)]
    graphs += [admissible_random(rng, 4, 3)]
    # A budget of 0 refuses the pattern route up front, so all 10 queries
    # fall back; one of 1 refuses the searches that try a second choice.
    for where, budget, fallbacks in ((srcp, 0, {10}), (srcpw, 1, range(1, 10))):
        calls.clear()
        with pytest.MonkeyPatch.context() as low:
            low.setattr(where, "SEARCH_NODE_BUDGET", budget)
            for g in graphs:
                for k in (2, 4):
                    slow = oracle(g, k, fast=False) is not None
                    assert srcp_decide(g, k) == slow, (g.out_edges, k)
        assert len(calls) in fallbacks
    # k = 40 has 2^39 pattern words: refused at once, then the 2^10
    # colorings are enumerated one by one.
    calls.clear()
    g = _ring(10)
    assert srcp_decide(g, 40) == (oracle(g, 40, fast=False) is not None)
    assert calls == [40]


@pytest.mark.parametrize("decide", [
    srcp_decide,
    srcp_oracle,
    kernelize,
    srcp_exists_by_patterns,
    lambda g, k: list(sweep_sync_indices(g, k)),
    lambda g, k: syn_decide(apply_coloring(g, coloring_from_index(g, 0)), k),
], ids=["srcp_decide", "srcp_oracle", "kernelize", "srcp_exists_by_patterns",
        "sweep_sync_indices", "syn_decide"])
def test_negative_k_is_refused(decide):
    g = Multigraph(2, ((0, 1), (1, 0)))
    with pytest.raises(InvalidInputError, match="k must be >= 0"):
        decide(g, -1)
