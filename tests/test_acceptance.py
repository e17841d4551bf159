"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Budgets are documented per test; the whole suite fits comfortably
inside an hour on a laptop-class machine.
"""

import random
from itertools import combinations_with_replacement

import pytest

from roadsync.automata import Dfa, apply_word, cerny_automaton
from roadsync.compose import (
    BatchItem,
    CompositionBatch,
    add_identity_letter,
    compose,
    pattern_width,
    preprocess,
    verify_c1_c2_c3,
)
from roadsync.errors import InvalidInputError
from roadsync.graphs import (
    Coloring,
    Multigraph,
    apply_coloring,
    coloring_count,
    coloring_from_index,
    is_admissible,
    is_strongly_connected,
    make_graph,
)
from roadsync.satreduce import (
    RESET_WORD,
    Cnf3,
    augment_tautologies,
    build_reduction,
    extract_coloring,
    sat_oracle,
    verify_reduction,
)
from roadsync.srcp import (
    kernelize,
    srcp_exists_by_patterns,
    srcp_oracle,
    sweep_sync_indices,
)
from roadsync.srcpw import (
    decide_aaa,
    decide_aab,
    decide_aba,
    decide_abb,
    recolor_abb_to_aba,
)
from roadsync.syncsolve import (
    is_synchronizing,
    pin_bound,
    shortest_reset_word,
    syn_decide,
)

from support import (
    all_reset_words_upto,
    brute_shortest_reset,
    iso_class_representatives,
    oracle_word_memberships,
    outdeg2_graphs_exhaustive,
    random_dfa,
    random_multigraph,
)

WORDS = {"aaa": (0, 0, 0), "aab": (0, 0, 1), "aba": (0, 1, 0), "abb": (0, 1, 1)}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_pin_bound():
    ok = all(pin_bound(t) == (t ** 3 - t) // 6 and pin_bound(t) * 6 == t ** 3 - t
             for t in range(1, 51))
    ok = ok and pin_bound(3) == 4 and pin_bound(4) == 10
    report("1 (pin bound)", ok, "t=1..50 exact, z(3)=4, z(4)=10")


def test_criterion_2_cerny_family():
    results = {}
    for n in range(2, 9):
        w = shortest_reset_word(cerny_automaton(n))
        results[n] = None if w is None else len(w)
    ok = all(results[n] == (n - 1) ** 2 for n in range(2, 9))
    report("2 (Cerny lengths)", ok, str(results))


def test_criterion_3_solver_cross_validation():
    rng = random.Random(2024)
    mismatches = 0
    minimality_checked = 0
    minimality_failures = 0
    for _ in range(1000):
        t = rng.randint(1, 8)
        k = rng.randint(1, 3)
        a = random_dfa(rng, t, k)
        w = shortest_reset_word(a)
        if (w is not None) != is_synchronizing(a):
            mismatches += 1
            continue
        if w is not None:
            assert len(apply_word(a, a.full_set(), w)) == 1
        # exhaustive minimality cross-check at t <= 5, capped word space
        if w is not None and t <= 5 and k ** len(w) <= 300_000:
            brute = brute_shortest_reset(a, len(w))
            minimality_checked += 1
            if brute is None or len(brute) != len(w):
                minimality_failures += 1
    ok = mismatches == 0 and minimality_failures == 0 and minimality_checked >= 300
    report("3 (solver cross-validation)", ok,
           f"1000 automata, minimality confirmed on {minimality_checked}")


def _random_batch_items(rng, t, m):
    z = pin_bound(t)
    items = []
    for _ in range(m):
        items.append(BatchItem(add_identity_letter(random_dfa(rng, t, 2)),
                               rng.randrange(0, z)))
    return CompositionBatch(t, tuple(items))


def test_criterion_4_composition_size():
    rng = random.Random(7)
    raw12 = [(random_dfa(rng, 4, 2), 5) for _ in range(12)]
    pre = preprocess(raw12, 4)
    comp12 = compose(pre.batch)
    ok = comp12.dfa.t == 93
    checked = 0
    for t in (2, 3, 4):
        z = pin_bound(t)
        for m in range(1, 16):
            if m >= 2 ** t:
                continue  # the construction is defined for m < 2^t
            comp = compose(_random_batch_items(rng, t, m))
            expected = t + 1 + 2 * (z + 1) * (pattern_width(m) + 1)
            ok = ok and comp.dfa.t == expected
            ok = ok and comp.dfa.t <= t + 1 + 2 * (z + 1) * (t + 3)
            checked += 1
    report("4 (composition size)", ok, f"93-state example plus {checked} grid points")


def test_criterion_5_composition_correctness():
    rng = random.Random(501)
    equiv_fail = 0
    c123_fail = 0
    batches = 0
    full_verified = 0
    for trial in range(200):
        m = rng.randint(1, 2)
        raw = [(random_dfa(rng, 3, 2), rng.randrange(0, pin_bound(3)))
               for _ in range(m)]
        expected = any(syn_decide(a, d) for a, d in raw)
        pre = preprocess(raw, 3)
        if pre.answer is not None:
            if pre.answer != expected:
                equiv_fail += 1
            batches += 1
            continue
        comp = compose(pre.batch)
        if syn_decide(comp.dfa, comp.d_prime) != expected:
            equiv_fail += 1
        if not verify_c1_c2_c3(comp, pre.batch).all_pass:
            c123_fail += 1
        full_verified += 1
        batches += 1

    # hand-built all-NO batch: permutation letters never synchronize
    perm = Dfa(3, 2, ((1, 1), (0, 0), (2, 2)))
    pre_no = preprocess([(perm, 2), (perm, 3)], 3)
    comp_no = compose(pre_no.batch)
    rep_no = verify_c1_c2_c3(comp_no, pre_no.batch)
    no_ok = (syn_decide(comp_no.dfa, comp_no.d_prime) is False
             and rep_no.all_pass and rep_no.reset_word_count == 0)
    full_verified += 1

    # hand-built one-YES batch
    yes = Dfa(3, 2, ((1, 1), (2, 0), (2, 2)))
    d_yes = len(shortest_reset_word(yes))
    pre_yes = preprocess([(perm, 3), (yes, d_yes)], 3)
    comp_yes = compose(pre_yes.batch)
    rep_yes = verify_c1_c2_c3(comp_yes, pre_yes.batch)
    yes_ok = (syn_decide(comp_yes.dfa, comp_yes.d_prime) is True
              and rep_yes.all_pass and rep_yes.assembled_count > 0)
    full_verified += 1

    ok = equiv_fail == 0 and c123_fail == 0 and no_ok and yes_ok
    report("5 (composition correctness)", ok,
           f"{batches} random batches, C1-C3 verified on {full_verified}")


def test_criterion_6_activity_pattern():
    rng = random.Random(42)
    raw = [(random_dfa(rng, 4, 2), 5) for _ in range(12)]
    pre = preprocess(raw, 4)
    comp = compose(pre.batch)
    img = apply_word(comp.dfa, comp.dfa.full_set(), (comp.alpha(6),))
    cells = sorted(c for c in (comp.guard_cell_of(s) for s in img) if c)
    ok = cells == [(1, 0, "F"), (1, 1, "T"), (1, 2, "T"), (1, 3, "F")]
    report("6 (activity pattern)", ok, str(cells))


def _random_admissible(rng, t, d):
    while True:
        g = random_multigraph(rng, t, d)
        try:
            if is_admissible(g):
                return g
        except InvalidInputError:
            continue


def test_criterion_7_kernel_soundness():
    rng = random.Random(700)
    ok = True
    identity_cases = 0
    oracle_cases = 0
    # Sampled sweep over the (t <= 4, d <= 6) grid: below the degree threshold
    # the kernel must be the identity; presence equality is checked by oracle
    # where the coloring space is enumerable.
    for t in (2, 3, 4):
        z = pin_bound(t)
        threshold = max(t * (z - 1), t)
        for d in range(1, 7):
            for _ in range(15):
                g = _random_admissible(rng, t, d)
                for k in range(0, z):
                    res = kernelize(g, k)
                    ok = ok and len(res.graph.out_edges[0]) <= threshold
                    if d <= threshold:
                        ok = ok and res.graph == g and res.k == k
                        identity_cases += 1
                    if coloring_count(g) <= 4096:
                        before = srcp_oracle(g, k) is not None
                        after = srcp_oracle(res.graph, k) is not None
                        ok = ok and before == after
                        oracle_cases += 1
    # 50 random t=3 out-degree-12 graphs with k=3: genuine degree reduction;
    # full coloring enumeration is astronomically large, so presence runs
    # through the complete pattern decision on both sides.
    reduced_cases = 0
    for _ in range(50):
        g = _random_admissible(rng, 3, 12)
        res = kernelize(g, 3)
        ok = ok and res.graph.out_degree == 9
        ok = ok and srcp_exists_by_patterns(g, 3) == srcp_exists_by_patterns(res.graph, 3)
        reduced_cases += 1
    report("7 (kernel soundness)", ok,
           f"{identity_cases} identity, {oracle_cases} oracle-checked, "
           f"{reduced_cases} reduced at d=12")


def test_criterion_8_fixed_word_deciders():
    words = tuple(WORDS.values())

    def check(g) -> bool:
        m = oracle_word_memberships(g, words)
        oks = [
            decide_aaa(g) == m[WORDS["aaa"]],
            decide_aab(g) == (m[WORDS["aab"]] and not m[WORDS["aaa"]]),
            decide_aba(g) == (m[WORDS["aba"]] and not m[WORDS["aaa"]]),
            decide_abb(g) == (m[WORDS["abb"]] and not m[WORDS["aba"]]
                              and not m[WORDS["aaa"]]),
            srcp_exists_by_patterns(g, 3) == any(m.values()),
        ]
        return all(oks)

    ok = True
    exhaustive = 0
    # full enumeration at t <= 4; t = 5 deduplicated up to isomorphism
    for t in (1, 2, 3, 4):
        for g in outdeg2_graphs_exhaustive(t):
            ok = ok and check(g)
            exhaustive += 1
    for g in iso_class_representatives(5):
        ok = ok and check(g)
        exhaustive += 1

    rng = random.Random(800)
    randoms = 0
    for _ in range(10_000):
        g = random_multigraph(rng, rng.randint(1, 8), 2)
        ok = ok and check(g)
        randoms += 1
    report("8 (fixed-word deciders)", ok,
           f"{exhaustive} exhaustive (t=5 up to isomorphism), {randoms} random")


def test_criterion_9_recoloring():
    rng = random.Random(900)
    checked = 0
    ok = True

    def sweep(g) -> int:
        nonlocal ok
        done = 0
        if decide_aaa(g):
            return 0
        for idx in range(coloring_count(g)):
            c = coloring_from_index(g, idx)
            dfa = apply_coloring(g, c)
            image = apply_word(dfa, dfa.full_set(), WORDS["abb"])
            if len(image) != 1:
                continue
            (q,) = image
            if q not in apply_word(dfa, dfa.full_set(), (0,)):
                continue
            c2 = recolor_abb_to_aba(g, c)
            dfa2 = apply_coloring(g, c2)
            if apply_word(dfa2, dfa2.full_set(), WORDS["aba"]) != frozenset({q}):
                ok = False
            done += 1
        return done

    for t in (2, 3, 4):
        for g in outdeg2_graphs_exhaustive(t):
            checked += sweep(g)
    for _ in range(6000):
        g = random_multigraph(rng, rng.randint(5, 6), 2)
        checked += sweep(g)
    report("9 (abb-to-aba recoloring)", ok and checked >= 500,
           f"{checked} oracle-found (g, c) pairs recolored, all correct: {ok}")


def _canonical_formulas(n_occ: int, m: int):
    if n_occ == 1:
        lits = [(1, False), (1, True)]
    else:
        lits = [(1, False), (1, True), (2, False), (2, True)]
    pool = list(combinations_with_replacement(lits, 3))
    for clauses in combinations_with_replacement(pool, m):
        f = Cnf3(n_occ, tuple(tuple(c) for c in clauses))
        used = {var for cl in f.clauses for var, _ in cl}
        if used != set(range(1, n_occ + 1)):
            continue
        yield f


def _word_shape_and_rigidity(f: Cnf3) -> bool:
    rg = build_reduction(augment_tautologies(f))
    g = rg.graph
    d_blocks = set()
    for idx in sweep_sync_indices(g, 4):
        coloring = coloring_from_index(g, idx)
        dfa = apply_coloring(g, coloring)
        words = all_reset_words_upto(dfa, 4)
        if not words:
            return False
        for w in words:
            if w not in (RESET_WORD, (1, 0, 1, 1)):
                return False
            if apply_word(dfa, dfa.full_set(), w) != frozenset({rg.d(4)}):
                return False
        if len(apply_word(dfa, dfa.full_set(), RESET_WORD)) == 1:
            norm = coloring.slot_letters
        else:
            norm = tuple(tuple(1 - x for x in row) for row in coloring.slot_letters)
        d_blocks.add(tuple(norm[2:8]))  # D0, D1 carry doubled edges: slots inert
    return len(d_blocks) <= 1


def test_criterion_10_sat_reduction():
    ok = True
    exhaustive = 0
    for n_occ, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for f in _canonical_formulas(n_occ, m):
            aug = augment_tautologies(f)
            t = 5 * aug.m + 3 * f.n + 8
            if t > 24:
                continue  # within verify_reduction's documented oracle cap
            rep = verify_reduction(f)
            ok = ok and rep.ok
            exhaustive += 1

    rng = random.Random(1000)
    randoms = 0
    while randoms < 100:
        n = rng.randint(1, 3)
        clauses = []
        for _ in range(2):
            clauses.append(tuple((rng.randint(1, n), rng.random() < 0.5)
                                 for _ in range(3)))
        f = Cnf3(n, tuple(clauses))
        aug = augment_tautologies(f)
        t = 5 * aug.m + 3 * f.n + 8
        if t > 27:
            continue
        rep = verify_reduction(f)
        ok = ok and rep.ok
        randoms += 1

    shape_checked = 0
    for f in (Cnf3(1, (((1, False), (1, False), (1, False)),)),
              Cnf3(1, (((1, True), (1, True), (1, True)),)),
              Cnf3(1, (((1, False), (1, False), (1, False)),
                       ((1, True), (1, True), (1, True)))),
              Cnf3(2, (((1, False), (2, True), (2, False)),))):
        ok = ok and _word_shape_and_rigidity(f)
        shape_checked += 1

    fig = Cnf3(4, (
        ((1, False), (2, True), (3, False)),
        ((1, False), (2, False), (4, False)),
        ((1, True), (3, True), (4, False)),
    ))
    rg = build_reduction(augment_tautologies(fig))
    ok = ok and rg.graph.t == 35
    ok = ok and rg.graph.out_degree == 2
    ok = ok and is_strongly_connected(rg.graph)
    coloring = extract_coloring(rg, (True, False, False, True))
    dfa = apply_coloring(rg.graph, coloring)
    ok = ok and apply_word(dfa, dfa.full_set(), RESET_WORD) == frozenset({rg.d(4)})

    report("10 (SAT reduction)", ok,
           f"{exhaustive} exhaustive formulas, {randoms} random, "
           f"{shape_checked} full word-shape/rigidity sweeps, figure instance")
