import random
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsync.automata import apply_word
from roadsync.errors import InvalidInputError, SizeLimitError
from roadsync.graphs import (
    apply_coloring,
    coloring_from_index,
    is_admissible,
    is_strongly_connected,
    out_degree_uniform,
)
from roadsync.satreduce import (
    RESET_WORD,
    Cnf3,
    augment_tautologies,
    build_reduction,
    extract_coloring,
    parse_dimacs,
    sat_oracle,
    verify_reduction,
    write_dimacs,
)
from roadsync.srcp import sweep_sync_indices

from support import all_reset_words_upto


def clause(*lits):
    return tuple((abs(v), v < 0) for v in lits)


FIG_FORMULA = Cnf3(4, (
    clause(1, -2, 3),
    clause(1, 2, 4),
    clause(-1, -3, 4),
))
FIG_ASSIGNMENT = (True, False, False, True)


def test_cnf_basics():
    f = Cnf3(2, (clause(1, -2, 2),))
    assert f.m == 1
    assert f.satisfied_by((True, False))
    assert f.satisfied_by((False, False))
    with pytest.raises(InvalidInputError):
        Cnf3(1, (clause(1, 2, 1),))


def test_dimacs_roundtrip():
    text = write_dimacs(FIG_FORMULA)
    assert parse_dimacs(text) == FIG_FORMULA
    with_comments = "c a comment\n" + text
    assert parse_dimacs(with_comments) == FIG_FORMULA


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_dimacs_roundtrip_property(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    f = Cnf3(n, tuple(
        tuple((rng.randint(1, n), rng.random() < 0.5) for _ in range(3))
        for _ in range(rng.randint(0, 8))
    ))
    assert parse_dimacs(write_dimacs(f)) == f


def test_dimacs_rejects_malformed():
    with pytest.raises(InvalidInputError):
        parse_dimacs("p cnf 1 1\n1 -1 0\n")
    with pytest.raises(InvalidInputError):
        parse_dimacs("1 2 3 0\n")


def test_augment_tautologies():
    f = Cnf3(1, (clause(-1, -1, -1),))
    aug = augment_tautologies(f)
    assert aug.m == 2
    assert aug.clauses[1] == clause(1, -1, -1)
    # formula already positive everywhere is unchanged
    assert augment_tautologies(FIG_FORMULA) == FIG_FORMULA


def test_augment_equisatisfiable_truth_table():
    rng = random.Random(5)
    lits = [1, -1, 2, -2, 3, -3]
    for _ in range(120):
        m = rng.randint(1, 3)
        f = Cnf3(3, tuple(clause(*(rng.choice(lits) for _ in range(3)))
                          for _ in range(m)))
        aug = augment_tautologies(f)
        assert (sat_oracle(f) is None) == (sat_oracle(aug) is None)


def test_sat_oracle_basics():
    assert sat_oracle(Cnf3(1, ())) == (False,)
    unsat = Cnf3(1, (clause(1, 1, 1), clause(-1, -1, -1)))
    assert sat_oracle(unsat) is None
    assert sat_oracle(FIG_FORMULA) is not None
    with pytest.raises(SizeLimitError):
        sat_oracle(Cnf3(30, ()))


def test_build_requires_positive_occurrences():
    f = Cnf3(1, (clause(-1, -1, -1),))
    with pytest.raises(InvalidInputError):
        build_reduction(f)


def test_structure_counts():
    for f in (FIG_FORMULA,
              Cnf3(1, (clause(1, 1, 1),)),
              Cnf3(2, (clause(1, 2, -1), clause(2, 2, 1)))):
        aug = augment_tautologies(f)
        rg = build_reduction(aug)
        assert rg.graph.t == 5 * aug.m + 3 * f.n + 8
        assert out_degree_uniform(rg.graph) == 2
        assert is_strongly_connected(rg.graph)
        assert is_admissible(rg.graph)
        # exactly three formula-dependent edges per clause, all at literals
        for j in range(1, aug.m + 1):
            lits = [rg.graph.out_edges[rg.clause(j, 1)][0],
                    rg.graph.out_edges[rg.clause(j, 1)][1],
                    rg.graph.out_edges[rg.clause(j, 2)][0]]
            for vertex, lit in zip(lits, aug.clauses[j - 1]):
                assert vertex == rg.literal_vertex(lit)


def test_gate_reachability_conditions():
    rg = build_reduction(augment_tautologies(FIG_FORMULA))
    g = rg.graph

    def exact_paths(src, length):
        frontier = {src}
        for _ in range(length):
            frontier = {u for v in frontier for u in g.out_edges[v]}
        return frontier

    assert rg.d(4) not in exact_paths(rg.d(0), 3)
    assert rg.d(4) not in exact_paths(rg.d(6), 3)
    assert rg.d(4) not in exact_paths(rg.d(7), 3)


def test_fig_formula_witness():
    rg = build_reduction(augment_tautologies(FIG_FORMULA))
    assert rg.graph.t == 35
    coloring = extract_coloring(rg, FIG_ASSIGNMENT)
    dfa = apply_coloring(rg.graph, coloring)
    assert apply_word(dfa, dfa.full_set(), RESET_WORD) == frozenset({rg.d(4)})


def test_extract_rejects_non_model():
    rg = build_reduction(augment_tautologies(FIG_FORMULA))
    # clause (x1 or x2 or x4) fails under all-false
    assert not FIG_FORMULA.satisfied_by((False, False, False, False))
    with pytest.raises(InvalidInputError):
        extract_coloring(rg, (False, False, False, False))


def test_unrouted_variable_coloring_flips():
    # variable 2 is never routed by the first-satisfied rule on this instance;
    # flipping its block between the two truth-value colorings keeps the reset
    rg = build_reduction(augment_tautologies(FIG_FORMULA))
    base = extract_coloring(rg, FIG_ASSIGNMENT)
    flipped_assignment = (True, True, False, True)
    assert FIG_FORMULA.satisfied_by(flipped_assignment)
    flipped = extract_coloring(rg, flipped_assignment)
    v2 = (rg.x(2), rg.xbar(2), rg.w(2))
    assert [base.slot_letters[v] for v in v2] != [flipped.slot_letters[v] for v in v2]
    hybrid_slots = list(base.slot_letters)
    for v in v2:
        hybrid_slots[v] = flipped.slot_letters[v]
    from roadsync.graphs import Coloring
    hybrid = Coloring(tuple(hybrid_slots))
    dfa = apply_coloring(rg.graph, hybrid)
    assert apply_word(dfa, dfa.full_set(), RESET_WORD) == frozenset({rg.d(4)})


def test_verify_reduction_tiny_instances():
    sat_one = Cnf3(1, (clause(1, -1, -1),))
    report = verify_reduction(sat_one)
    assert report.ok and report.satisfiable and report.srcp_yes

    unsat = Cnf3(1, (clause(1, 1, 1), clause(-1, -1, -1)))
    report = verify_reduction(unsat)
    assert report.ok and not report.satisfiable and not report.srcp_yes


def test_verify_reduction_cap():
    # 35 states: 2^34 colorings x 2^4 words is past srcp.SWEEP_WORK_CAP, so
    # the sweep is refused before it starts.
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        verify_reduction(FIG_FORMULA)
    assert time.perf_counter() - start < 1


def test_word_shape_and_rigidity_small():
    f = Cnf3(1, (clause(1, 1, 1),))
    rg = build_reduction(augment_tautologies(f))
    g = rg.graph
    d_block = set()
    for idx in sweep_sync_indices(g, 4):
        coloring = coloring_from_index(g, idx)
        dfa = apply_coloring(g, coloring)
        words = all_reset_words_upto(dfa, 4)
        assert words, "sweep returned a non-witness"
        for w in words:
            assert len(w) == 4
            assert w in (RESET_WORD, (1, 0, 1, 1))
            assert apply_word(dfa, dfa.full_set(), w) == frozenset({rg.d(4)})
        # normalize the global color swap before comparing D-block colorings
        if len(apply_word(dfa, dfa.full_set(), RESET_WORD)) == 1:
            norm = coloring.slot_letters
        else:
            norm = tuple(tuple(1 - x for x in row) for row in coloring.slot_letters)
        d_block.add(tuple(norm[2:8]))
    assert len(d_block) == 1


def test_reduction_equivalence_exhaustive_n1():
    lits = [(1, False), (1, True)]
    pool = list(combinations_with_replacement(lits, 3))
    for m in (1, 2):
        for clauses in combinations_with_replacement(pool, m):
            f = Cnf3(1, tuple(tuple(c) for c in clauses))
            aug = augment_tautologies(f)
            if 5 * aug.m + 3 * f.n + 8 > 21:
                continue
            report = verify_reduction(f)
            assert report.ok, (f, report)
