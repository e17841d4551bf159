import dataclasses
import gc
import importlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsync.automata import Dfa, apply_word, make_dfa
from roadsync.compose import (
    BatchItem,
    CompositionBatch,
    PreprocessResult,
    add_identity_letter,
    compose,
    names_json,
    parse_batch,
    pattern_functions,
    pattern_subset,
    pattern_width,
    preprocess,
    verify_c1_c2_c3,
    write_batch,
    _reset_words_of_length as walk_reset_words,
    _word_matches_form,
)
from roadsync.errors import InvalidInputError, SizeLimitError
from roadsync.syncsolve import is_synchronizing, pin_bound, shortest_reset_word, syn_decide

from support import all_reset_words_upto, per_letter_compose_tables, random_dfa

# The package exports the function compose under the module's name.
compose_module = importlib.import_module("roadsync.compose")


def _random_raw(rng, t, m, max_d=None):
    cap = pin_bound(t) if max_d is None else max_d
    return [(random_dfa(rng, t, 2), rng.randrange(0, cap)) for _ in range(m)]


def test_pattern_subset_known_values():
    assert pattern_subset(11, 12) == frozenset({0, 1, 3})
    assert pattern_subset(6, 12) == frozenset({1, 2})
    assert pattern_subset(1, 1) == frozenset({0})


def test_pattern_subset_nonempty_and_proper():
    for m in range(1, 32):
        q = pattern_width(m)
        for i in range(1, m + 1):
            bits = pattern_subset(i, m)
            assert bits
            assert bits != frozenset(range(q + 1))


def test_pattern_functions_ranges():
    for m in range(1, 32):
        q = pattern_width(m)
        for i in range(1, m + 1):
            pi_t, pi_f = pattern_functions(i, m)
            assert set(pi_t) == set(pattern_subset(i, m))
            assert set(pi_f) == set(range(q + 1)) - set(pattern_subset(i, m))
            assert len(pi_t) == len(pi_f) == q + 1


def test_pattern_functions_example():
    pi_t, pi_f = pattern_functions(6, 12)
    assert set(pi_t) == {1, 2}
    assert set(pi_f) == {0, 3}
    pi_t1, pi_f1 = pattern_functions(1, 2)
    assert set(pi_t1) == {0} and set(pi_f1) == {1}


def test_preprocess_early_true():
    # synchronizing item with budget >= z(t) short-circuits
    a = make_dfa([(1, 1), (1, 0)])
    assert syn_decide(a, pin_bound(2)) is True
    res = preprocess([(a, pin_bound(2))], 2)
    assert res.answer is True


def test_preprocess_drops_and_false():
    perm = make_dfa([(1, 0), (0, 1)])
    res = preprocess([(perm, pin_bound(2) + 3)], 2)
    assert res.answer is False


def test_preprocess_adds_identity_letter():
    rng = random.Random(2)
    raw = _random_raw(rng, 3, 2)
    res = preprocess(raw, 3)
    assert res.batch is not None
    for item in res.batch.items:
        for s in range(3):
            assert item.dfa.delta[s][0] == s


def test_preprocess_rejects_mismatched_t():
    with pytest.raises(InvalidInputError):
        preprocess([(make_dfa([(0, 0)]), 1)], 3)


def test_preprocess_decides_2_to_the_t_items_one_by_one():
    # 2^t items left after preprocessing are decided one by one: with one
    # YES the answer is True, with none False.  2^t - 1 items come back as
    # the batch to compose, kappa added.
    t = 3
    yes = make_dfa([(0, 1), (0, 2), (0, 0)])
    no = make_dfa([(1, 0), (2, 1), (0, 2)])
    assert syn_decide(yes, 1) and not is_synchronizing(no)
    assert preprocess([(no, 2)] * 7 + [(yes, 1)], t) == PreprocessResult(True, None)
    assert preprocess([(no, 2)] * 8, t) == PreprocessResult(False, None)
    raw = [(no, 2)] * 6 + [(yes, 1)]
    small = preprocess(raw, t)
    assert small.answer is None
    assert small.batch.items == tuple(BatchItem(add_identity_letter(a), d) for a, d in raw)


def test_preprocess_counts_items_after_the_large_budgets():
    # A large budget is decided by the synchronizability test, and a NO
    # drops the item before the remaining items are counted against 2^t.
    t, z = 3, pin_bound(3)
    yes = make_dfa([(0,), (0,), (0,)])
    no = make_dfa([(1,), (2,), (0,)])
    assert preprocess([(no, 1)] * 8 + [(yes, z)], t) == PreprocessResult(True, None)
    assert preprocess([(no, z)] * 8 + [(yes, 1)], t).batch.m == 1
    assert preprocess([(no, z)] * 8, t) == PreprocessResult(False, None)


def test_compose_size_identity_grid():
    rng = random.Random(10)
    for t in (2, 3, 4):
        z = pin_bound(t)
        for m in range(1, 16):
            if m >= 2 ** t:
                continue
            items = tuple(
                BatchItem(add_identity_letter(random_dfa(rng, t, 1)),
                          rng.randrange(0, z))
                for _ in range(m)
            )
            comp = compose(CompositionBatch(t, items))
            q = pattern_width(m)
            assert comp.dfa.t == t + 1 + 2 * (z + 1) * (q + 1)
            assert comp.d_prime == z + 1
            assert comp.dfa.t <= t + 1 + 2 * (z + 1) * (t + 3)


def test_compose_matches_per_letter_reference():
    # Random batches, with the benchmark's gen shapes (t = 4, m = 12 and
    # t = 5, m = 28) among them, items of 1..3 letters besides kappa.
    rng = random.Random(41)
    shapes = [(4, 12), (5, 28), (4, 12), (5, 28)]
    for _ in range(60):
        t = rng.randint(2, 5)
        shapes.append((t, rng.randint(1, min(2 ** t - 1, 12))))
    for t, m in shapes:
        z = pin_bound(t)
        items = tuple(
            BatchItem(add_identity_letter(random_dfa(rng, t, rng.randint(1, 3))),
                      rng.randrange(0, z))
            for _ in range(m)
        )
        batch = CompositionBatch(t, items)
        comp = compose(batch)
        assert (comp.dfa.delta, comp.state_names, comp.letter_names) == \
            per_letter_compose_tables(batch), (t, m)


def test_compose_93_state_example():
    rng = random.Random(0)
    raw = [(random_dfa(rng, 4, 2), 5) for _ in range(12)]
    res = preprocess(raw, 4)
    assert res.batch is not None and res.batch.m == 12
    comp = compose(res.batch)
    assert comp.dfa.t == 93


def test_dead_state_absorbing_and_row_monotone():
    rng = random.Random(33)
    raw = _random_raw(rng, 3, 2)
    res = preprocess(raw, 3)
    comp = compose(res.batch)
    dead = comp.dead
    for x in range(comp.dfa.alphabet_size):
        assert comp.dfa.delta[dead][x] == dead
    # guard transitions never descend more than one row at a time, and the
    # dead state is reachable only from the bottom row (this is what makes
    # every reset word at least z+1 letters long)
    for s in range(comp.dfa.t):
        cell = comp.guard_cell_of(s)
        if cell is None:
            continue
        h, _, _ = cell
        for x in range(comp.dfa.alphabet_size):
            target = comp.dfa.delta[s][x]
            tcell = comp.guard_cell_of(target)
            if tcell is None:
                assert target == dead and h == comp.z, (cell, x)
                continue
            th, _, _ = tcell
            assert th <= h + 1, (cell, tcell)


def test_activity_pattern_after_alpha():
    rng = random.Random(1)
    raw = [(random_dfa(rng, 4, 2), 5) for _ in range(12)]
    res = preprocess(raw, 4)
    comp = compose(res.batch)
    img = apply_word(comp.dfa, comp.dfa.full_set(), (comp.alpha(6),))
    cells = sorted(c for c in (comp.guard_cell_of(s) for s in img) if c)
    assert cells == [(1, 0, "F"), (1, 1, "T"), (1, 2, "T"), (1, 3, "F")]


def test_composition_equivalence_random():
    rng = random.Random(17)
    for _ in range(12):
        m = rng.randint(1, 2)
        raw = _random_raw(rng, 3, m)
        expected = any(syn_decide(a, d) for a, d in raw)
        pre = preprocess(raw, 3)
        if pre.batch is None:
            assert pre.answer == expected
        else:
            composed = compose(pre.batch)
            assert syn_decide(composed.dfa, composed.d_prime) == expected


def test_verify_c1_c2_c3_yes_and_no_batches():
    rng = random.Random(19)
    # hand-built one-YES batch: an automaton with a reset word within budget
    yes_item = make_dfa([(1, 1), (2, 0), (2, 2)])
    d_yes = len(__import__("roadsync.syncsolve", fromlist=["x"])
                .shortest_reset_word(yes_item))
    assert d_yes < pin_bound(3)
    raw_yes = [(yes_item, d_yes)]
    res = preprocess(raw_yes, 3)
    comp = compose(res.batch)
    report = verify_c1_c2_c3(comp, res.batch)
    assert report.all_pass and report.assembled_count > 0
    assert syn_decide(comp.dfa, comp.d_prime) is True

    # all-NO batch: permutation automata never synchronize
    perm = make_dfa([(1, 0), (0, 1), (2, 2)])
    perm = make_dfa([(1, 1), (0, 0), (2, 2)])  # letters swap 0/1, fix 2
    raw_no = [(perm, 2), (perm, 3)]
    res_no = preprocess(raw_no, 3)
    comp_no = compose(res_no.batch)
    report_no = verify_c1_c2_c3(comp_no, res_no.batch)
    assert report_no.all_pass
    assert report_no.reset_word_count == 0
    assert syn_decide(comp_no.dfa, comp_no.d_prime) is False


def _reset_words_of_length(dfa, length):
    """Reset words of exactly this length by plain enumeration, in product order."""
    return [w for w in all_reset_words_upto(dfa, length) if len(w) == length]


def _brute_c2(composed, batch):
    """reset_word_count and c2 from the reset words of length z+1."""
    words = _reset_words_of_length(composed.dfa, composed.z + 1)
    return len(words), all(_word_matches_form(composed, batch, w) for w in words)


def test_c2_walk_matches_brute_force():
    rng = random.Random(29)
    z = pin_bound(3)
    counts = []
    for m in (1, 2):
        raw = _random_raw(rng, 3, m)
        # Give the first item its own shortest reset length as budget when
        # that is below z, so that some batches have short reset words.
        w = shortest_reset_word(raw[0][0])
        if w is not None and len(w) < z:
            raw[0] = (raw[0][0], len(w))
        batch = preprocess(raw, 3).batch
        composed = compose(batch)
        report = verify_c1_c2_c3(composed, batch)
        expected = _brute_c2(composed, batch)
        assert (report.reset_word_count, report.c2_all_shaped) == expected
        counts.append(report.reset_word_count)
    assert max(counts) > 0


def _constant_letter_dfa(rng, t):
    """Letter 0 sends every state to 0, so most words reset."""
    return Dfa(t, 3, tuple((0, rng.randrange(t), rng.randrange(t)) for _ in range(t)))


def _permutation_dfa(rng, t, k):
    """Every letter permutes the states, so no word resets (t > 1)."""
    perms = [rng.sample(range(t), t) for _ in range(k)]
    return Dfa(t, k, tuple(tuple(perm[p] for perm in perms) for p in range(t)))


def test_c2_walk_words_match_enumeration_at_any_state_count():
    # The walk reads the images under the last letter as packed fields;
    # state counts around the byte boundaries move each field's spare bit.
    rng = random.Random(31)
    cases = [(random_dfa(rng, t, rng.randint(1, 3)), (0, 1, 2, 3))
             for t in (1, 2, 3, 7, 8, 9, 15, 16, 17) for _ in range(8)]
    # Longer words, whose prefixes share images and suffix lists: random
    # automata, a constant letter (long lists), permutations (none), t = 1.
    cases += [(random_dfa(rng, rng.randint(1, 8), rng.randint(1, 4)), range(1, 7))
              for _ in range(30)]
    cases += [(_constant_letter_dfa(rng, t), (3, 6)) for t in (2, 5, 9)]
    cases += [(_permutation_dfa(rng, t, k), (4, 6)) for t in (2, 4, 8) for k in (1, 3)]
    cases += [(Dfa(1, k, ((0,) * k,)), (0, 2, 5)) for k in (1, 2, 3)]
    found = 0
    for dfa, lengths in cases:
        for length in lengths:
            words = walk_reset_words(dfa, length)
            assert words == _reset_words_of_length(dfa, length), (dfa.delta, length)
            found += len(words)
    assert found > 0


def test_c3_assembles_a_word_per_resetting_body():
    # C3 assembles one word per body of length d_i that resets item i: the
    # bodies found by plain enumeration, budgets 0 and 1 included.
    rng = random.Random(37)
    counts = []
    for _ in range(12):
        raw = _random_raw(rng, 3, rng.randint(1, 2), max_d=3)
        batch = preprocess(raw, 3).batch
        report = verify_c1_c2_c3(compose(batch), batch)
        assert report.c3_assembled_words_reset
        expected = sum(len(_reset_words_of_length(item.dfa, item.d)) for item in batch.items)
        assert report.assembled_count == expected
        counts.append(expected)
    assert 0 in counts and max(counts) > 0


def test_c2_walk_flags_a_misshaped_reset_word():
    # The item's one letter merges state 1 into 0 and fixes 2, so after
    # alpha_1 y kappa kappa the base states left are {0, 2} and the guard cells
    # sit on the bottom row; omega_1 sends 0 and that row to D.  Sending 2 to
    # D under omega_1 as well makes this word reset, with a body y that does
    # not reset the item.
    batch = preprocess([(make_dfa([(0,), (0,), (2,)]), 1)], 3).batch
    composed = compose(batch)
    report = verify_c1_c2_c3(composed, batch)
    assert report.all_pass
    kappa = composed.kappa
    word = (composed.alpha(1), composed.x_letter(1, 1), kappa, kappa, composed.omega(0))
    assert not _word_matches_form(composed, batch, word)
    rows = [list(row) for row in composed.dfa.delta]
    rows[2][composed.omega(0)] = composed.dead
    dfa = Dfa(composed.dfa.t, composed.dfa.alphabet_size, tuple(map(tuple, rows)))
    mutated = dataclasses.replace(composed, dfa=dfa)
    report = verify_c1_c2_c3(mutated, batch)
    assert report.c2_all_shaped is False
    assert word in _reset_words_of_length(dfa, composed.z + 1)
    assert (report.reset_word_count, False) == _brute_c2(mutated, batch)


def test_c2_walk_frees_its_memo_on_return():
    # The memo of suffixes can hold every reset word; it must go when the
    # walk returns, not wait in a reference cycle for the collector.
    dfa = Dfa(3, 3, ((0, 1, 2), (0, 2, 0), (0, 0, 1)))
    gc.collect()
    gc.disable()
    try:
        assert walk_reset_words(dfa, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_size_guard():
    rng = random.Random(3)
    raw = _random_raw(rng, 4, 1, max_d=3)
    res = preprocess(raw, 4)
    comp = compose(res.batch)
    with pytest.raises(SizeLimitError):
        verify_c1_c2_c3(comp, res.batch)


def test_compose_entry_cap_refuses_before_any_row(monkeypatch):
    # states x letters is counted from t, m and the item alphabets, so a
    # batch past the cap is refused before its table exists: one two-letter
    # item at t = 200 would give 5,333,405 states x 204 letters.
    rng = random.Random(5)
    big = CompositionBatch(200, (BatchItem(add_identity_letter(random_dfa(rng, 200, 2)), 0),))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="5333405 states x 204 letters"):
            compose(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # The cap is inclusive: a batch of exactly COMPOSE_ENTRY_CAP entries is built.
    raw = _random_raw(rng, 4, 3)
    batch = preprocess(raw, 4).batch
    built = compose(batch).dfa
    entries = built.t * built.alphabet_size
    monkeypatch.setattr(compose_module, "COMPOSE_ENTRY_CAP", entries)
    assert compose(batch).dfa == built
    monkeypatch.setattr(compose_module, "COMPOSE_ENTRY_CAP", entries - 1)
    with pytest.raises(SizeLimitError):
        compose(batch)


def test_batch_text_roundtrip():
    rng = random.Random(9)
    raw = _random_raw(rng, 3, 2)
    text = write_batch(raw, 3)
    parsed, t = parse_batch(text)
    assert t == 3
    assert parsed == raw


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_batch_text_roundtrip_property(seed):
    rng = random.Random(seed)
    t = rng.randint(1, 8)
    raw = [(random_dfa(rng, t, rng.randint(1, 4)), rng.randrange(20))
           for _ in range(rng.randint(0, 4))]
    assert parse_batch(write_batch(raw, t)) == (raw, t)


def test_names_json_shape():
    rng = random.Random(4)
    raw = _random_raw(rng, 2, 1)
    res = preprocess(raw, 2)
    comp = compose(res.batch)
    data = names_json(comp)
    assert data["states"]["0"] == "s1"
    assert data["states"][str(comp.dead)] == "D"
    assert data["letters"]["0"] == "kappa"
    assert data["d_prime"] == comp.d_prime
