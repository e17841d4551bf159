import random
import sys
from itertools import product
from pathlib import Path

import pytest

from roadsync import srcp, srcpw
from roadsync.automata import apply_word
from roadsync.cli import main
from roadsync.errors import InvalidInputError, SizeLimitError
from roadsync.graphs import (
    Coloring,
    apply_coloring,
    coloring_from_index,
    enumerate_colorings,
    make_graph,
    parse_graph,
    walk_layers,
    write_graph,
)
from roadsync.srcp import srcp_decide, srcp_exists_by_patterns, srcp_oracle
from roadsync.srcpw import (
    abb_coloring_from_target,
    abb_witness_target,
    decide_aaa,
    decide_aab,
    decide_aba,
    decide_abb,
    fixed_word_coloring,
    recolor_abb_to_aba,
)

from support import (
    in_class_oracle,
    oracle_word_memberships,
    outdeg2_graphs_exhaustive,
    random_multigraph,
)

WORDS = {"aaa": (0, 0, 0), "aab": (0, 0, 1), "aba": (0, 1, 0), "abb": (0, 1, 1)}


def test_complementary_words_share_a_class():
    # Swapping the two colors at every vertex maps a coloring that resets by
    # w to one that resets by its complement, so G_w equals G_w'.  The search
    # takes b-first words as given, and its witness resets by them.
    rng = random.Random(12)
    graphs = [g for t in (1, 2, 3) for g in outdeg2_graphs_exhaustive(t)]
    graphs += [random_multigraph(rng, rng.randint(4, 8), 2) for _ in range(200)]
    for g in graphs:
        for w in product((0, 1), repeat=3):
            witness = fixed_word_coloring(g, w)
            assert (witness is None) == (fixed_word_coloring(g, tuple(1 - x for x in w)) is None)
            if witness is not None:
                dfa = apply_coloring(g, witness)
                assert len(apply_word(dfa, dfa.full_set(), w)) == 1, (g.out_edges, w)


def test_oracle_trivial_cases():
    loop = make_graph([(0, 0)])
    assert in_class_oracle(loop, WORDS["abb"]) is not None
    two_cycle = make_graph([(1, 1), (0, 0)])
    for w in WORDS.values():
        assert in_class_oracle(two_cycle, w) is None


def test_oracle_funnel_case():
    g = make_graph([(1, 1), (2, 2), (2, 2)])
    assert in_class_oracle(g, WORDS["aba"]) is not None


def test_oracle_returns_first_enumeration_witness():
    rng = random.Random(3)
    from roadsync.graphs import enumerate_colorings
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(1, 4), 2)
        w = rng.choice(list(WORDS.values()))
        witness = in_class_oracle(g, w)
        slow = None
        for c in enumerate_colorings(g):
            dfa = apply_coloring(g, c)
            if len(apply_word(dfa, dfa.full_set(), w)) == 1:
                slow = c
                break
        assert (witness is None) == (slow is None)
        if witness is not None:
            assert witness == slow


def test_fixed_word_matches_oracle_exhaustive_small():
    for t in (1, 2, 3):
        for g in outdeg2_graphs_exhaustive(t):
            for w in WORDS.values():
                fast = fixed_word_coloring(g, w) is not None
                slow = in_class_oracle(g, w) is not None
                assert fast == slow, (g.out_edges, w)


def test_fixed_word_matches_oracle_random():
    # The length-3 classes, plus the words of length 1, 2 and 4 starting
    # with a: the walk layers bound the active states at every word length.
    words = [w for n in (1, 2, 3, 4) for w in product((0, 1), repeat=n)
             if w[0] == 0]
    rng = random.Random(41)
    for _ in range(800):
        g = random_multigraph(rng, rng.randint(1, 7), 2)
        memberships = oracle_word_memberships(g, words)
        for w, expected in memberships.items():
            witness = fixed_word_coloring(g, w)
            assert (witness is not None) == expected, (g.out_edges, w)
            if witness is not None:
                dfa = apply_coloring(g, witness)
                assert len(apply_word(dfa, dfa.full_set(), w)) == 1


def test_fixed_word_coloring_matches_brute_force_any_out_degree():
    # Plain enumeration: the witness must be the first coloring, in
    # enumerate_colorings order, among those under which the word maps every
    # vertex to the least target any coloring reaches.
    rng = random.Random(61)
    for d, graphs in ((1, 30), (2, 60), (3, 40)):
        words = [w for n in range(4) for w in product(range(d), repeat=n)]
        for _ in range(graphs):
            g = random_multigraph(rng, rng.randint(1, 4), d)
            first: dict = {}
            for c in enumerate_colorings(g):
                dfa = apply_coloring(g, c)
                for w in words:
                    image = apply_word(dfa, dfa.full_set(), w)
                    if len(image) == 1 and min(image) < first.get(w, (g.t,))[0]:
                        first[w] = (min(image), c)
            for w in words:
                witness = fixed_word_coloring(g, w)
                assert witness == first.get(w, (None, None))[1], (g.out_edges, w)
                if witness is not None:
                    dfa = apply_coloring(g, witness)
                    assert len(apply_word(dfa, dfa.full_set(), w)) == 1


def test_fixed_word_coloring_validates_input():
    g = make_graph([(0, 1), (1, 0)])
    with pytest.raises(InvalidInputError):
        fixed_word_coloring(g, (0, 2))
    with pytest.raises(InvalidInputError):
        fixed_word_coloring(g, (-1,))
    with pytest.raises(InvalidInputError):
        fixed_word_coloring(make_graph([(0, 1), (1,)]), (0,))


def test_deciders_set_shapes():
    rng = random.Random(55)
    for _ in range(300):
        g = random_multigraph(rng, rng.randint(1, 6), 2)
        m = oracle_word_memberships(g, tuple(WORDS.values()))
        assert decide_aaa(g) == m[WORDS["aaa"]]
        assert decide_aab(g) == (m[WORDS["aab"]] and not m[WORDS["aaa"]])
        assert decide_aba(g) == (m[WORDS["aba"]] and not m[WORDS["aaa"]])
        assert decide_abb(g) == (m[WORDS["abb"]]
                                 and not m[WORDS["aba"]] and not m[WORDS["aaa"]])


# The class G_abb minus (G_aba union G_aaa) is empty for t <= 4 (exhaustively
# checked against the coloring oracle); these t=5 graphs are its smallest
# members found by the same sweep.
ABB_PROPER_T5 = [
    ((1, 1), (2, 3), (0, 1), (1, 4), (0, 3)),
    ((1, 1), (2, 3), (1, 4), (0, 1), (0, 2)),
    ((1, 1), (2, 4), (0, 1), (0, 4), (1, 3)),
    ((1, 1), (2, 4), (1, 3), (0, 2), (0, 1)),
    ((1, 1), (3, 4), (0, 3), (1, 2), (0, 1)),
    ((1, 2), (0, 3), (0, 4), (0, 0), (2, 3)),
]


def test_abb_class_empty_below_t5():
    for t in (2, 3, 4):
        for g in outdeg2_graphs_exhaustive(t):
            assert not decide_abb(g)


def test_abb_constructed_coloring_synchronizes():
    from roadsync.graphs import Multigraph

    for rows in ABB_PROPER_T5:
        g = Multigraph(5, rows)
        memberships = oracle_word_memberships(g, tuple(WORDS.values()))
        assert memberships[WORDS["abb"]]
        assert not memberships[WORDS["aba"]] and not memberships[WORDS["aaa"]]
        assert decide_abb(g)
        q = abb_witness_target(g)
        assert q is not None
        c = abb_coloring_from_target(g, q)
        dfa = apply_coloring(g, c)
        assert apply_word(dfa, dfa.full_set(), WORDS["abb"]) == frozenset({q})


def test_color_swap_symmetry():
    rng = random.Random(8)
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(1, 5), 2)
        for w in WORDS.values():
            swapped = tuple(1 - x for x in w)
            assert ((in_class_oracle(g, w) is None)
                    == (in_class_oracle(g, swapped) is None))


def test_recolor_abb_to_aba():
    rng = random.Random(101)
    checked = 0
    for _ in range(6000):
        g = random_multigraph(rng, rng.randint(2, 6), 2)
        if decide_aaa(g):
            continue
        for idx, c in _abb_witnesses(g):
            dfa = apply_coloring(g, c)
            image = apply_word(dfa, dfa.full_set(), WORDS["abb"])
            (q,) = image
            if q not in apply_word(dfa, dfa.full_set(), (0,)):
                continue
            c2 = recolor_abb_to_aba(g, c)
            dfa2 = apply_coloring(g, c2)
            assert apply_word(dfa2, dfa2.full_set(), WORDS["aba"]) == frozenset({q})
            checked += 1
            break
        if checked >= 30:
            break
    assert checked >= 10


def _abb_witnesses(g):
    from roadsync.graphs import coloring_count
    for idx in range(coloring_count(g)):
        c = coloring_from_index(g, idx)
        dfa = apply_coloring(g, c)
        if len(apply_word(dfa, dfa.full_set(), WORDS["abb"])) == 1:
            yield idx, c


def test_recolor_rejects_bad_preconditions():
    g = make_graph([(0, 0), (0, 1)])  # has aaa coloring via self-loop at 0
    c = Coloring(((0, 1), (0, 1)))
    with pytest.raises(InvalidInputError):
        recolor_abb_to_aba(g, c)


def test_recolor_empty_w_is_identity():
    # abb witness where no state b-steps into q: swap set empty
    rng = random.Random(6)
    for _ in range(4000):
        g = random_multigraph(rng, rng.randint(2, 5), 2)
        if decide_aaa(g):
            continue
        for idx, c in _abb_witnesses(g):
            dfa = apply_coloring(g, c)
            (q,) = apply_word(dfa, dfa.full_set(), WORDS["abb"])
            if q not in apply_word(dfa, dfa.full_set(), (0,)):
                continue
            w_set = [v for v in range(g.t)
                     if g.out_edges[v][c.letter_slot(v, 1)] == q]
            if w_set:
                continue
            assert recolor_abb_to_aba(g, c) == c
            return


def test_srcp_k3_decide_matches_oracle():
    rng = random.Random(71)
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(1, 5), 2)
        expected = srcp_oracle(g, 3) is not None
        assert srcp_exists_by_patterns(g, 3) == expected


def test_srcp_k3_requires_admissible():
    with pytest.raises(InvalidInputError):
        srcp_decide(make_graph([(1, 1), (0, 0)]), 3)


def test_srcp_k3_on_admissible():
    g = make_graph([(0, 1), (0, 1)])
    assert srcp_decide(g, 3) is True


def test_abb_witness_target_is_always_sound():
    # srcp_exists_by_patterns counts any witness target as an abb member,
    # also on graphs in G_aaa or G_aba, so soundness must not need them absent.
    graphs = [g for t in (1, 2, 3, 4) for g in outdeg2_graphs_exhaustive(t)]
    rng = random.Random(13)
    graphs += [random_multigraph(rng, rng.randint(1, 8), 2) for _ in range(2000)]
    witnessed = 0
    for g in graphs:
        q = abb_witness_target(g)
        if q is None:
            continue
        dfa = apply_coloring(g, abb_coloring_from_target(g, q))
        image = apply_word(dfa, dfa.full_set(), WORDS["abb"])
        assert image == frozenset({q}), g.out_edges
        witnessed += 1
    assert witnessed > 100


def _spy_everywhere(monkeypatch, fn, calls):
    """Record the arguments of every call to fn through any roadsync module."""
    def spy(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "roadsync" or name.startswith("roadsync."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)


def test_srcp_k3_decide_evaluates_each_class_once(monkeypatch, tmp_path, capsys):
    # One search over the words aaa, aab, aba and abb, target by target:
    # each target walked once to depth 2, the choice lists built once per
    # letter set when the first target passes, and no abb witness asked.  A
    # target is searched, with every word in order, only if every vertex has
    # a walk of exactly 3 edges to it (found here by walking forward); on the
    # ring no target passes, so no choice list is built, by `srcp k3` or by
    # `srcpw decide`.
    searched, pairs, tables, walks, witnesses = [], [], [], [], []
    search, fixed_word_at = srcp.first_word_coloring, srcpw._fixed_word_at

    def search_spy(g, words):
        searched.append(list(words))
        return search(g, searched[-1])

    def fixed_word_at_spy(g, w, q, *args):
        pairs.append((w, q))
        return fixed_word_at(g, w, q, *args)

    def reached_by_every_vertex(g):
        ends = [{v} for v in range(g.t)]
        for _ in range(3):
            ends = [{u for x in e for u in g.out_edges[x]} for e in ends]
        return [q for q in range(g.t) if all(q in e for e in ends)]

    monkeypatch.setattr(srcp, "first_word_coloring", search_spy)
    monkeypatch.setattr(srcpw, "_fixed_word_at", fixed_word_at_spy)
    _spy_everywhere(monkeypatch, srcpw._choice_table, tables)
    _spy_everywhere(monkeypatch, walk_layers, walks)
    _spy_everywhere(monkeypatch, abb_witness_target, witnesses)
    ring = make_graph([((v + 1) % 12, (v + 2) % 12) for v in range(12)])
    some = make_graph([(3, 1), (2, 5), (1, 3), (6, 4), (2, 1), (5, 4), (6, 3)])
    words = list(WORDS.values())
    for g, passing in ((ring, []), (some, [1, 2, 4])):
        for spied in (searched, pairs, tables, walks, witnesses):
            spied.clear()
        assert reached_by_every_vertex(g) == passing
        assert srcp_decide(g, 3) is False
        assert srcp_oracle(g, 3) is None
        assert searched == [words]
        assert pairs == [(w, q) for q in passing for w in words]
        assert [(q, depth) for _, q, depth in walks] == [(q, 2) for q in range(g.t)]
        assert len(tables) == (2 * g.t if passing else 0)
        assert witnesses == []
    path = tmp_path / "ring.txt"
    path.write_text(write_graph(ring))
    for name in WORDS:
        tables.clear()
        assert main(["srcpw", "decide", "--word", name, "--in", str(path)]) == 0
        assert capsys.readouterr().out.startswith("NO")
        assert tables == []


def test_first_word_coloring_takes_the_least_target():
    # Several words: the coloring resets g by one of them, at the least
    # target that fixed_word_coloring finds for any of them, and it is the
    # first word's coloring at that target.
    rng = random.Random(37)
    checked = 0
    for _ in range(300):
        d = rng.choice((2, 2, 3))
        g = random_multigraph(rng, rng.randint(2, 8), d)
        words = rng.sample(list(srcp.pattern_words(rng.randint(3, 4), d)), 3)
        found = srcpw.first_word_coloring(g, words)
        firsts = []
        for w in words:
            c = fixed_word_coloring(g, w)
            if c is not None:
                dfa = apply_coloring(g, c)
                (q,) = apply_word(dfa, dfa.full_set(), w)
                firsts.append((q, c))
        if not firsts:
            assert found is None
            continue
        least = min(q for q, _ in firsts)
        assert found == next(c for q, c in firsts if q == least)
        checked += 1
    assert checked > 100


def test_first_word_coloring_checks_every_word_first(monkeypatch):
    # A bad letter in the last word is refused before any search runs.
    calls = []
    monkeypatch.setattr(srcpw, "_fixed_word_at", lambda *args: calls.append(args))
    g = make_graph([(1, 2), (2, 0), (0, 1)])
    with pytest.raises(InvalidInputError):
        srcpw.first_word_coloring(g, [WORDS["aaa"], WORDS["aab"], (0, 2, 1)])
    assert calls == []
    # So are words of different lengths.
    with pytest.raises(InvalidInputError):
        srcpw.first_word_coloring(g, [WORDS["aaa"], WORDS["aab"], (0, 1)])
    with pytest.raises(InvalidInputError):
        srcpw.first_word_coloring(g, [(), (0,)])
    assert calls == []
    # The empty word resets only the one-vertex graph, and costs no walk.
    walks = []
    _spy_everywhere(monkeypatch, walk_layers, walks)
    assert srcpw.first_word_coloring(g, [()]) is None
    assert srcpw.first_word_coloring(make_graph([(0, 0)]), [()]) == Coloring(((0, 1),))
    assert srcpw.first_word_coloring(g, []) is None
    assert calls == [] and walks == []


def test_distance_two_matches_shortest_distances():
    # Shortest distances to q by relaxation over out-edges, independent of
    # the backward walk.
    rng = random.Random(21)
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(1, 10), 2)
        q = rng.randrange(g.t)
        dist = [0 if v == q else float("inf") for v in range(g.t)]
        for _ in range(g.t):
            dist = [min(dist[v], 1 + min(dist[u] for u in g.out_edges[v]))
                    for v in range(g.t)]
        expected = frozenset(v for v in range(g.t) if dist[v] == 2)
        assert srcpw._distance_two(g, q) == expected


def test_k3_decide_walks_at_most_two_layers(monkeypatch):
    depths = []
    _spy_everywhere(monkeypatch, walk_layers, depths)
    t = 12
    g = make_graph([((v + 1) % t, (v + 2) % t) for v in range(t)])
    assert srcp_decide(g, 3) is False
    assert depths and max(depth for _, _, depth in depths) <= 2


def test_fixed_word_search_budget():
    # The graph lies in G_aba, but the search for aba backtracks through more
    # than SEARCH_NODE_BUDGET choices and is refused instead of running on.
    path = Path(__file__).parent / "data" / "planted_aba_t200.txt"
    g = parse_graph(path.read_text())
    with pytest.raises(SizeLimitError):
        fixed_word_coloring(g, WORDS["aba"])
