import math
import random
import time
import tracemalloc

import pytest

from roadsync.automata import apply_word, cerny_automaton, make_dfa
from roadsync.compose import compose, preprocess
from roadsync import syncsolve
from roadsync.errors import InvalidInputError, SizeLimitError
from roadsync.syncsolve import (
    PAIR_TEST_CAP,
    RESET_TABLE_BYTE_CAP,
    _field_bits,
    is_synchronizing,
    pin_bound,
    shortest_reset_word,
    syn_decide,
)

from support import bitloop_shortest_reset_word, brute_shortest_reset, random_dfa


def test_pin_bound_values():
    assert pin_bound(1) == 0
    assert pin_bound(3) == 4
    assert pin_bound(4) == 10
    for t in range(1, 60):
        assert pin_bound(t) * 6 == t ** 3 - t
    with pytest.raises(InvalidInputError):
        pin_bound(0)


def test_is_synchronizing_trivial_cases():
    assert is_synchronizing(make_dfa([(0, 0)])) is True
    # both letters permutations: images never shrink
    perm = make_dfa([(1, 0), (0, 1)])
    assert is_synchronizing(perm) is False


def test_cerny_family_is_synchronizing():
    for n in range(2, 9):
        assert is_synchronizing(cerny_automaton(n)) is True


def test_shortest_reset_word_basics():
    assert shortest_reset_word(make_dfa([(0, 0)])) == ()
    perm = make_dfa([(1, 0), (0, 1)])
    assert shortest_reset_word(perm) is None


def test_shortest_reset_word_limit():
    a = cerny_automaton(4)
    assert shortest_reset_word(a, limit=8) is None
    w = shortest_reset_word(a, limit=9)
    assert w is not None and len(w) == 9


def test_shortest_reset_word_is_lexicographically_least():
    rng = random.Random(12)
    for _ in range(200):
        a = random_dfa(rng, rng.randint(2, 5), rng.randint(1, 3))
        w = shortest_reset_word(a)
        if w is None or len(w) > 7:
            continue
        assert w == brute_shortest_reset(a, len(w))


def test_shortest_reset_word_deterministic():
    rng = random.Random(3)
    for _ in range(30):
        a = random_dfa(rng, 5, 2)
        assert shortest_reset_word(a) == shortest_reset_word(a)


def test_solver_cross_validation_small():
    rng = random.Random(99)
    for _ in range(300):
        a = random_dfa(rng, rng.randint(1, 6), rng.randint(1, 3))
        w = shortest_reset_word(a)
        assert (w is not None) == is_synchronizing(a)
        if w is not None:
            assert len(apply_word(a, a.full_set(), w)) == 1
            assert len(w) <= pin_bound(a.t)


def test_pair_test_agrees_with_the_subset_search():
    # is_synchronizing reads only the pairs of distinct states; the subset
    # search finds a reset word exactly when the automaton synchronizes.
    rng = random.Random(29)
    answers = []
    for _ in range(400):
        a = random_dfa(rng, rng.randint(1, 12), rng.randint(1, 3))
        answers.append(is_synchronizing(a))
        assert answers[-1] == (shortest_reset_word(a) is not None)
    assert 100 < sum(answers) < 300


def test_syn_decide_cerny_boundary():
    a = cerny_automaton(4)
    assert syn_decide(a, 8) is False
    assert syn_decide(a, 9) is True


def test_syn_decide_large_k_equals_synchronizability():
    rng = random.Random(21)
    for _ in range(50):
        a = random_dfa(rng, rng.randint(1, 6), 2)
        assert syn_decide(a, pin_bound(a.t)) == is_synchronizing(a)


def test_syn_decide_one_state():
    assert syn_decide(make_dfa([(0,)]), 0) is True


def cycle_merge(t: int, d: int):
    """Letter a: the cycle i -> i+1; letter b: identity except 0 -> d.
    Synchronizing exactly when gcd(t, d) = 1."""
    return make_dfa([((i + 1) % t, d if i == 0 else i) for i in range(t)])


def test_search_matches_bitloop_oracle_random():
    rng = random.Random(41)
    for _ in range(200):
        a = random_dfa(rng, rng.randint(1, 40), rng.randint(1, 4))
        limit = rng.choice([None, *range(9)])
        assert shortest_reset_word(a, limit) == bitloop_shortest_reset_word(a, limit), (
            a.delta, limit)


def test_search_matches_bitloop_oracle_at_limits_around_the_length():
    # The limits L - 1, L and L + 1 put the last level on either side.
    rng = random.Random(43)
    checked = 0
    while checked < 150:
        a = random_dfa(rng, rng.randint(2, 14), rng.randint(2, 3))
        length = len(bitloop_shortest_reset_word(a) or ())
        if not length:
            continue
        for limit in (length - 1, length, length + 1):
            assert shortest_reset_word(a, limit) == bitloop_shortest_reset_word(a, limit), (
                a.delta, limit)
        checked += 1


def test_search_matches_bitloop_oracle_cerny():
    for n in range(2, 14):
        a = cerny_automaton(n)
        w = shortest_reset_word(a)
        assert w == bitloop_shortest_reset_word(a)
        assert len(w) == (n - 1) ** 2


def test_search_matches_bitloop_oracle_cycle_merge():
    # Letter b merges state 0 into d; the reset length is
    # (t - 1)^2 - (t - 2)(d - 1) when gcd(t, d) = 1, every d in between.
    for t in (12, 13):
        for d in range(1, t):
            a = cycle_merge(t, d)
            w = shortest_reset_word(a)
            assert w == bitloop_shortest_reset_word(a), (t, d)
            if math.gcd(t, d) == 1:
                assert len(w) == (t - 1) ** 2 - (t - 2) * (d - 1)


def test_non_synchronizing_merges_have_no_reset_word():
    for t in range(4, 17):
        for d in range(2, t):
            if math.gcd(t, d) > 1:
                a = cycle_merge(t, d)
                assert not is_synchronizing(a)
                assert shortest_reset_word(a) is None
                assert shortest_reset_word(a, limit=pin_bound(t)) is None


def test_cerny_20_to_32_with_the_length_as_limit():
    # A forward-only subset search reaches about n = 17 in this time.
    start = time.perf_counter()
    for n in range(20, 33):
        a = cerny_automaton(n)
        w = shortest_reset_word(a)
        assert len(w) == (n - 1) ** 2
        assert len(apply_word(a, a.full_set(), w)) == 1
        assert shortest_reset_word(a, limit=len(w)) == w
        assert shortest_reset_word(a, limit=len(w) - 1) is None
    assert time.perf_counter() - start < 2


def test_search_matches_bitloop_oracle_composed():
    # Composed automata of t = 4 batches have 71 (m = 4) and 93 (m = 8)
    # states, so their state sets span more than 64 bits.
    # Budgets of 0 make a batch whose answer is NO: no item of t = 4 states
    # resets by the empty word.
    rng = random.Random(23)
    z = pin_bound(4)
    answers = []
    for m in (4, 8):
        for top in (z, 1):
            raw = [(random_dfa(rng, 4, 2), rng.randrange(top)) for _ in range(m)]
            composed = compose(preprocess(raw, 4).batch)
            assert composed.dfa.t > 64
            w = shortest_reset_word(composed.dfa, composed.d_prime)
            assert w == bitloop_shortest_reset_word(composed.dfa, composed.d_prime)
            answers.append(w is not None)
    assert True in answers and False in answers


def test_reset_table_cap_refuses_before_building(monkeypatch):
    # Past the cap nothing that grows with t is built: not the per-state
    # masks (t ints of |letters| * _field_bits(t) bits) and not the tables.
    def unexpected(_):
        raise AssertionError("masks built past RESET_TABLE_BYTE_CAP")

    monkeypatch.setattr(syncsolve, "_image_masks", unexpected)
    monkeypatch.setattr(syncsolve, "_preimage_masks", unexpected)
    for n in (4096, 10 ** 5):
        a = cerny_automaton(n)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="reset-word search tables"):
                shortest_reset_word(a, limit=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        # The answers that need no table still come back.
        assert shortest_reset_word(a, limit=0) is None


def test_reset_table_cap_is_in_table_bytes(monkeypatch):
    # ceil(t/8) tables of 256 ints, each one _field_bits(t)-bit field per
    # letter; 4,095 states over two letters are the most the cap admits.
    def table_bytes(t, letters):
        return math.ceil(t / 8) * 256 * letters * _field_bits(t) // 8

    assert table_bytes(4095, 2) <= RESET_TABLE_BYTE_CAP < table_bytes(4096, 2)
    a = cerny_automaton(9)
    monkeypatch.setattr(syncsolve, "RESET_TABLE_BYTE_CAP", table_bytes(9, 2))
    assert len(shortest_reset_word(a)) == 64
    monkeypatch.setattr(syncsolve, "RESET_TABLE_BYTE_CAP", table_bytes(9, 2) - 1)
    with pytest.raises(SizeLimitError):
        shortest_reset_word(a)


def test_pair_test_cap_refuses_before_building():
    # Past the cap not one of the pair predecessor lists is built, neither
    # by is_synchronizing nor by syn_decide at a budget past the pin bound.
    a = cerny_automaton(10 ** 5)
    for decide in (is_synchronizing, lambda a: syn_decide(a, pin_bound(a.t))):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(SizeLimitError, match="pair automaton"):
                decide(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.05
        assert peak < 64 * 1024


def test_pair_test_cap_is_in_pairs_times_letters(monkeypatch):
    # 1,448 states over two letters are the most the cap admits, 215 over 90.
    assert 1448 * 1448 * 2 <= PAIR_TEST_CAP < 1449 * 1449 * 2
    assert 215 * 215 * 90 <= PAIR_TEST_CAP < 216 * 216 * 90
    a = cerny_automaton(9)
    monkeypatch.setattr(syncsolve, "PAIR_TEST_CAP", 9 * 9 * 2)
    assert is_synchronizing(a) is True
    monkeypatch.setattr(syncsolve, "PAIR_TEST_CAP", 9 * 9 * 2 - 1)
    with pytest.raises(SizeLimitError):
        is_synchronizing(a)
    # One state needs no pair.
    monkeypatch.setattr(syncsolve, "PAIR_TEST_CAP", 0)
    assert is_synchronizing(make_dfa([(0, 0)])) is True
