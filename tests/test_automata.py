import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsync.automata import (
    Dfa,
    activity_trace,
    apply_word,
    cerny_automaton,
    make_dfa,
    parse_dfa,
    word_from_str,
    word_to_str,
    write_dfa,
)
from roadsync.compose import (
    BatchItem, CompositionBatch, add_identity_letter, compose, parse_batch,
)
from roadsync.errors import InvalidInputError
from roadsync.graphs import parse_graph
from roadsync.satreduce import parse_dimacs
from roadsync.syncsolve import pin_bound, shortest_reset_word

from support import (
    random_dfa, reference_content_lines, reference_table, reference_write_dfa,
)


def test_dfa_validation():
    with pytest.raises(InvalidInputError):
        Dfa(0, 1, ())
    with pytest.raises(InvalidInputError):
        Dfa(2, 1, ((0,), (5,)))
    with pytest.raises(InvalidInputError):
        Dfa(2, 2, ((0, 1),))


@pytest.mark.parametrize("rows, bad", [
    (((0, -1), (1, 0), (2, 2)), -1),  # negative
    (((0, 1), (3, 0), (2, 2)), 3),  # equal to t
    (((0, 1), (1, 0), (2, 7)), 7),  # in the last row only
    (((0, 4), (-1, 0), (2, 2)), 4),  # the first in row order, not the least
    (((0, 1), (5, -3), (9, 2)), 5),  # the first within its row
])
def test_dfa_names_first_bad_target(rows, bad):
    with pytest.raises(InvalidInputError, match=rf"^transition target {bad} out of range$"):
        Dfa(3, 2, rows)


@pytest.mark.parametrize("last", [(2,), (2, 2, 0), ()])
def test_dfa_refuses_a_row_of_the_wrong_width_after_full_rows(last):
    with pytest.raises(InvalidInputError, match="^delta row width must equal alphabet_size$"):
        Dfa(3, 2, ((0, 1), (1, 0), last))


@pytest.mark.parametrize("token", ["0_1", "\u0661", "\uff11"])
def test_parsers_refuse_tokens_outside_ascii_decimal(token):
    # int() reads 0_1, an Arabic-Indic one and a fullwidth one all as 1; the
    # text formats define ASCII decimal integers, so each parser refuses them
    # where it reads "1".
    cases = [
        (parse_dfa, "dfa 2 2\n0 {}\n1 0\n"),
        (parse_dfa, "dfa 2 {}\n0\n1\n"),
        (parse_graph, "graph 2 2\n0 {}\n1 0\n"),
        (parse_batch, "batch 1 2\nitem 1 2\n0 {}\n1 1\n"),
        (parse_dimacs, "p cnf 3 1\n{} -2 3 0\n"),
        (parse_dimacs, "p cnf 3 {}\n1 -2 3 0\n"),
    ]
    for parse, text in cases:
        parse(text.format("1"))
        with pytest.raises(InvalidInputError, match="expected integers"):
            parse(text.format(token))
    with pytest.raises(InvalidInputError, match="expected integers"):
        word_from_str(f"0 {token}", 2)


PARSERS = (parse_dfa, parse_graph, parse_batch)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def _random_table_text(rng: random.Random) -> tuple:
    """A parser and a text for it: a dfa, graph or batch table of up to 1,200
    rows and width 1 to 4, laid out with comments, blank lines, tabs and runs
    of spaces, and in about half the draws broken in one place."""
    kind = rng.choice(PARSERS)
    t = rng.randint(3, 5) if kind is parse_batch else rng.choice(
        (1, 2, rng.randint(3, 24), rng.randint(25, 1200)))
    width = rng.randint(1, 4)
    if kind is parse_batch:
        m = rng.randint(1, 4)
        blocks = [(["batch", str(m), str(t)], [])]
        blocks += [(["item", str(rng.randrange(4)), str(width)],
                    [[str(rng.randrange(t)) for _ in range(width)] for _ in range(t)])
                   for _ in range(m)]
    else:
        word = "dfa" if kind is parse_dfa else "graph"
        blocks = [([word, str(t), str(width)],
                   [[str(rng.randrange(t)) for _ in range(width)] for _ in range(t)])]
    head, rows = rng.choice(blocks[1:] or blocks)
    broken = rng.random() < 0.5
    if broken:
        fault = rng.randrange(5)
        if fault == 0:
            row = rng.choice(rows)
            row[rng.randrange(width)] = rng.choice(("\u0663", "1_0", "+1", "-1", "x", "1.0"))
        elif fault == 1:
            rng.choice(rows).pop()
        elif fault == 2:
            rng.choice(rows).append("0")
        elif fault == 3:
            if rng.random() < 0.5:
                rows.pop(rng.randrange(len(rows)))
            else:
                rows.insert(rng.randrange(len(rows) + 1), ["0"] * width)
        else:
            head[2] = "0"
    lines = []
    for head, rows in blocks:
        for tokens in [head] + rows:
            while rng.random() < 0.1:
                lines.append(rng.choice(("", "   ", "# comment", "\t# 1_0 \u0663", "#")))
            gap = rng.choice((" ", " ", " ", "  ", "\t", " \t ", "\u2003"))
            lines.append(rng.choice(("", " ", "\t")) + gap.join(tokens) + rng.choice(("", "  ")))
    return kind, "\n".join(lines) + rng.choice(("", "\n", "\n\n# end\n")), broken


def test_parsers_match_the_row_by_row_reference(monkeypatch):
    # parse_dfa, parse_graph and parse_batch read the whole body in one pass;
    # with the row-by-row reference in its place each gives the same value,
    # or the same exception type with the same message.
    rng = random.Random(24)
    broken = refused = 0
    for _ in range(400):
        parse, text, was_broken = _random_table_text(rng)
        got = _outcome(parse, text)
        with monkeypatch.context() as patch:
            for module in {sys.modules[p.__module__] for p in PARSERS}:
                patch.setattr(module, "_content_lines", reference_content_lines)
                patch.setattr(module, "_table", reference_table)
            want = _outcome(parse, text)
        assert got == want, text
        broken += was_broken
        refused += isinstance(want, tuple) and want[0] is InvalidInputError
    assert broken > 150 and refused > 120


def test_apply_word_empty_is_identity():
    a = cerny_automaton(4)
    s = frozenset({1, 3})
    assert apply_word(a, s, ()) == s


def test_apply_word_single_state():
    a = make_dfa([(0, 0)])
    assert apply_word(a, {0}, (1, 0, 1)) == frozenset({0})


def test_apply_word_rejects_bad_letters():
    a = cerny_automaton(3)
    with pytest.raises(InvalidInputError):
        apply_word(a, a.full_set(), (2,))


def test_apply_word_cerny_reset():
    a = cerny_automaton(4)
    w = shortest_reset_word(a)
    assert w is not None and len(w) == 9
    assert len(apply_word(a, a.full_set(), w)) == 1


def test_activity_trace_empty_word():
    a = cerny_automaton(3)
    assert activity_trace(a, ()) == [a.full_set()]


def test_activity_trace_monotone_and_ends_singleton():
    a = cerny_automaton(4)
    w = shortest_reset_word(a)
    trace = activity_trace(a, w)
    assert len(trace) == 10
    assert trace[0] == a.full_set()
    sizes = [len(s) for s in trace]
    assert all(x >= y for x, y in zip(sizes, sizes[1:]))
    assert sizes[-1] == 1


def test_activity_trace_identity_automaton_constant():
    a = make_dfa([(0, 0), (1, 1), (2, 2)])
    trace = activity_trace(a, (0, 1, 0, 1))
    assert all(s == a.full_set() for s in trace)


@pytest.mark.parametrize("n,expect", [(2, 1), (3, 4), (4, 9)])
def test_cerny_shortest_reset_lengths(n, expect):
    w = shortest_reset_word(cerny_automaton(n))
    assert w is not None and len(w) == expect


def test_cerny_rejects_small_n():
    with pytest.raises(InvalidInputError):
        cerny_automaton(1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30), st.data())
def test_extension_homomorphism(seed_u, seed_v, data):
    rng = random.Random(seed_u ^ (seed_v << 1))
    a = random_dfa(rng, rng.randint(1, 6), rng.randint(1, 3))
    u = tuple(rng.randrange(a.alphabet_size) for _ in range(rng.randint(0, 5)))
    v = tuple(rng.randrange(a.alphabet_size) for _ in range(rng.randint(0, 5)))
    s = frozenset(q for q in range(a.t) if rng.random() < 0.6) or frozenset({0})
    assert apply_word(a, s, u + v) == apply_word(a, apply_word(a, s, u), v)
    assert len(apply_word(a, s, u)) <= len(s)


def test_factor_embedding_preserves_reset():
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        a = random_dfa(rng, rng.randint(2, 5), 2)
        w = shortest_reset_word(a)
        if w is None:
            continue
        checked += 1
        prefix = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        suffix = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        assert len(apply_word(a, a.full_set(), prefix + w + suffix)) == 1


def test_dfa_text_roundtrip():
    a = cerny_automaton(5)
    text = write_dfa(a)
    assert parse_dfa(text) == a
    commented = "# header comment\n" + text + "\n# trailing\n"
    assert parse_dfa(commented) == a


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_dfa_text_roundtrip_property(seed):
    rng = random.Random(seed)
    a = random_dfa(rng, rng.randint(1, 12), rng.randint(1, 4))
    assert parse_dfa(write_dfa(a)) == a


def test_write_dfa_matches_reference_byte_for_byte():
    # Composed automata of the benchmark's gen shapes (t = 4, m = 12 and
    # t = 5, m = 28: 93 and 216 states), Cerny automata up to 300 states and
    # random DFAs of up to 1,200 states (names of one to four digits).
    rng = random.Random(21)
    automata = []
    for t, m in ((4, 12), (5, 28)):
        items = tuple(BatchItem(add_identity_letter(random_dfa(rng, t, 2)),
                                rng.randrange(pin_bound(t)))
                      for _ in range(m))
        automata.append(compose(CompositionBatch(t, items)).dfa)
    automata += [cerny_automaton(n) for n in (2, 3, 10, 11, 100, 300)]
    automata += [random_dfa(rng, rng.choice((1, 2, 9, 10, 99, 101, 1200)),
                            rng.randint(1, 5)) for _ in range(30)]
    assert [a.t for a in automata[:2]] == [93, 216]
    for a in automata:
        text = write_dfa(a)
        assert text == reference_write_dfa(a)
        assert parse_dfa(text) == a


def test_dfa_text_rejects_garbage():
    with pytest.raises(InvalidInputError):
        parse_dfa("graph 2 2\n0 1\n1 0\n")
    with pytest.raises(InvalidInputError):
        parse_dfa("dfa 2 2\n0 1\n")


def test_word_rendering_roundtrip():
    assert word_to_str((0, 1, 0), 2) == "aba"
    assert word_from_str("aba", 2) == (0, 1, 0)
    assert word_from_str("0 1 0", 2) == (0, 1, 0)
    assert word_from_str("", 2) == ()
    big = word_to_str((0, 27), 30)
    assert word_from_str(big, 30) == (0, 27)
