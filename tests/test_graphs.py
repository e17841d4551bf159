import importlib
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsync.errors import InvalidInputError
from roadsync.graphs import (
    Coloring,
    Multigraph,
    apply_coloring,
    coloring_count,
    coloring_from_index,
    enumerate_colorings,
    is_admissible,
    is_aperiodic,
    is_strongly_connected,
    make_graph,
    out_degree_uniform,
    parse_graph,
    strongly_connected_components,
    to_dot,
    walk_layers,
    write_graph,
    write_graph_with_colors,
)

from support import (
    enumerate_simple_cycle_lengths, random_multigraph, reference_is_admissible,
    reference_is_aperiodic,
)


def test_out_degree_uniform():
    assert out_degree_uniform(make_graph([(0, 0)])) == 2
    assert out_degree_uniform(make_graph([(1,), (0, 1)])) is None
    assert out_degree_uniform(make_graph([(1, 1), (0, 0)])) == 2


def test_aperiodicity_basics():
    assert is_aperiodic(make_graph([(0,)])) is True          # self-loop
    assert is_aperiodic(make_graph([(1,), (0,)])) is False   # pure 2-cycle
    # 2-cycle plus 3-cycle sharing vertex 0: gcd(2, 3) = 1
    g = make_graph([(1, 2), (0,), (3,), (0,)])
    assert is_aperiodic(g) is True


def test_aperiodicity_rejects_acyclic():
    with pytest.raises(InvalidInputError):
        is_aperiodic(make_graph([(1,), ()]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_aperiodicity_matches_cycle_enumeration(seed):
    rng = random.Random(seed)
    t = rng.randint(1, 5)
    g = random_multigraph(rng, t, rng.randint(1, 3))
    lengths = enumerate_simple_cycle_lengths(g)
    if not lengths:
        with pytest.raises(InvalidInputError):
            is_aperiodic(g)
        return
    assert is_aperiodic(g) == (math.gcd(*lengths) == 1 if len(lengths) > 1
                               else lengths == {1})


def test_admissibility_split():
    assert is_admissible(make_graph([(0, 0)])) is True
    assert is_admissible(make_graph([(1, 1), (0, 0)])) is False  # periodic
    assert is_admissible(make_graph([(1,), (0, 1)])) is False    # non-uniform
    assert is_admissible(make_graph([(0, 0), (1, 1)])) is False  # two sinks
    assert is_admissible(make_graph([(0, 2), (1, 1), (0, 2)])) is False  # two sinks
    assert is_admissible(make_graph([(1, 1), (0, 0), (2, 0)])) is False  # periodic sink
    assert is_admissible(make_graph([(0, 1), (0, 0)])) is True
    assert is_admissible(make_graph([(0, 0), (0, 0)])) is True   # one sink, {0}


def test_strong_connectivity():
    assert is_strongly_connected(make_graph([(0,)])) is True
    assert is_strongly_connected(make_graph([(1,), (1,)])) is False
    assert is_strongly_connected(make_graph([(1,), (2,), (0,)])) is True


def _verdicts(g: Multigraph, admissible, aperiodic) -> tuple:
    try:
        period = aperiodic(g)
    except InvalidInputError as exc:
        period = str(exc)
    return admissible(g), period


def _random_small_graph(rng: random.Random) -> Multigraph:
    """t <= 12, out-degree <= 3: uniform random rows, periodic layouts (edges
    from class c to class c + 1 mod p), several closed blocks (several sinks),
    self-loop-heavy rows, or rows of mixed length."""
    t = rng.randint(1, 12)
    d = rng.randint(1, 3)
    kind = rng.randrange(5)
    if kind == 1:
        p = rng.randint(2, 4)
        cls = [rng.randrange(p) for _ in range(t)]
        ahead = [[u for u in range(t) if cls[u] == (cls[v] + 1) % p] or [v] for v in range(t)]
        rows = [[rng.choice(ahead[v]) for _ in range(d)] for v in range(t)]
    elif kind == 2:
        cuts = sorted(rng.sample(range(1, t), rng.randint(0, min(3, t - 1))))
        blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [t])]
        rows = [[rng.choice(block) for _ in range(d)] for block in blocks for _ in block]
        for v in rng.sample(range(t), rng.randint(0, t // 3)):
            rows[v][0] = rng.randrange(t)
    elif kind == 3:
        rows = [[v if rng.random() < 0.5 else rng.randrange(t) for _ in range(d)]
                for v in range(t)]
    else:
        rows = [[rng.randrange(t) for _ in range(rng.randint(0, 3) if kind == 4 else d)]
                for _ in range(t)]
    return Multigraph(t, tuple(map(tuple, rows)))


def test_admissibility_matches_the_tarjan_reference():
    # is_admissible splits into components only the graphs two reaches from
    # vertex 0 find not strongly connected, and takes periods from BFS level
    # sets; the reference splits every graph and folds a per-vertex level
    # dict.  Verdicts, refusals and their messages agree.
    rng = random.Random(24)
    kinds = dict.fromkeys(("admissible", "not strongly connected", "several sinks",
                           "periodic", "acyclic", "one vertex"), 0)
    for _ in range(3000):
        g = _random_small_graph(rng)
        want = _verdicts(g, reference_is_admissible, reference_is_aperiodic)
        assert _verdicts(g, is_admissible, is_aperiodic) == want, g
        components = strongly_connected_components(g)
        assert is_strongly_connected(g) == (len(components) == 1)
        sinks = [c for c in components if {u for v in c for u in g.out_edges[v]} <= set(c)]
        kinds["admissible"] += want[0]
        kinds["not strongly connected"] += len(components) > 1
        kinds["several sinks"] += len(sinks) > 1
        kinds["periodic"] += want[1] is False
        kinds["acyclic"] += isinstance(want[1], str)
        kinds["one vertex"] += g.t == 1
    assert min(kinds.values()) > 40, kinds


def test_admissibility_matches_the_reference_on_benchmark_graphs(monkeypatch):
    # perfbench's random admissible graphs (a Hamiltonian cycle plus a random
    # chord per vertex), at the sizes of the coloring workload, and each one
    # with a vertex turned into a sink of self-loops: no longer strongly
    # connected, and admissible iff that vertex is the only sink.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random(24)
    for t in (100, 200, 400, 800):
        for _ in range(3):
            rows = workloads.random_admissible(rng, t)
            g = make_graph(rows)
            assert is_admissible(g) and reference_is_admissible(g)
            assert is_aperiodic(g) and reference_is_aperiodic(g)
            v = rng.randrange(t)
            rows[v] = (v, v)
            g = make_graph(rows)
            assert not is_strongly_connected(g)
            assert _verdicts(g, is_admissible, is_aperiodic) == _verdicts(
                g, reference_is_admissible, reference_is_aperiodic)


def test_walk_layers_path():
    g = make_graph([(0,), (0,), (1,)])
    assert walk_layers(g, 0, 2) == [
        frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})
    ]
    assert walk_layers(g, 2, 0) == [frozenset({2})]


def test_walk_layers_unreachable():
    g = make_graph([(0,), (0,)])
    assert walk_layers(g, 1, 3) == [frozenset({1})] + [frozenset()] * 3
    with pytest.raises(InvalidInputError):
        walk_layers(g, 2, 1)


def test_walk_layers_step_property():
    # v has a walk of exactly j edges to q iff some out-edge of v lands in W_{j-1}.
    rng = random.Random(9)
    for _ in range(50):
        g = random_multigraph(rng, rng.randint(1, 6), rng.randint(1, 3))
        q = rng.randrange(g.t)
        layers = walk_layers(g, q, 5)
        assert len(layers) == 6 and layers[0] == frozenset({q})
        for j in range(1, 6):
            for v in range(g.t):
                assert (v in layers[j]) == any(u in layers[j - 1]
                                               for u in g.out_edges[v])


def test_apply_coloring_functional_graph():
    g = make_graph([(1,), (0,)])
    (c,) = list(enumerate_colorings(g))
    dfa = apply_coloring(g, c)
    assert dfa.alphabet_size == 1
    assert dfa.delta == ((1,), (0,))


def test_apply_coloring_doubled_self_loop():
    g = make_graph([(0, 0)])
    for c in enumerate_colorings(g):
        dfa = apply_coloring(g, c)
        assert dfa.delta == ((0, 0),)


def test_apply_coloring_preserves_transition_multiset():
    rng = random.Random(4)
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(1, 3))
        for c in enumerate_colorings(g):
            dfa = apply_coloring(g, c)
            for v in range(g.t):
                assert sorted(dfa.delta[v]) == sorted(g.out_edges[v])
            break


def test_enumerate_colorings_counts():
    assert coloring_count(make_graph([(0,), (1,)])) == 1
    g3 = make_graph([(0, 1), (1, 2), (2, 0)])
    assert coloring_count(g3) == 8
    assert len(list(enumerate_colorings(g3))) == 8
    g16 = Multigraph(16, tuple((v, (v + 1) % 16) for v in range(16)))
    assert coloring_count(g16) == 65536


def test_enumerate_colorings_exhaustive_distinctness():
    rng = random.Random(2)
    for _ in range(40):
        t = rng.randint(1, 4)
        d = rng.randint(1, 3)
        g = random_multigraph(rng, t, d)
        seen = {c.slot_letters for c in enumerate_colorings(g)}
        assert len(seen) == coloring_count(g)


def test_enumerate_colorings_distinct_and_indexable():
    g = make_graph([(0, 1, 2), (1, 1, 0), (2, 0, 0)])
    seen = set()
    for idx, c in enumerate(enumerate_colorings(g)):
        assert coloring_from_index(g, idx) == c
        seen.add(c.slot_letters)
    assert len(seen) == coloring_count(g) == 6 ** 3


@pytest.mark.parametrize("out_edges, bad", [
    (((0, -1), (1, 0), (2, 2)), -1),  # negative
    (((0, 1), (3, 0), (2, 2)), 3),  # equal to t
    (((0, 1), (1, 0), (2, 7)), 7),  # in the last row only
    (((0, 4), (-1, 0), (2, 2)), 4),  # the first in row order, not the least
    (((0, 1), (5, -3), (9, 2)), 5),  # the first within its row
    (((0, 1), (), (3,)), 3),  # after an empty slot list
])
def test_multigraph_names_first_bad_target(out_edges, bad):
    with pytest.raises(InvalidInputError, match=rf"^edge target {bad} out of range$"):
        Multigraph(3, out_edges)


def test_multigraph_slot_lists_and_graph_rows():
    # Slot lists may differ in length, or be empty, but there is one per
    # vertex; the text format needs rows of the header's out-degree.
    assert Multigraph(3, ((0, 1), (1, 0), (2,))).out_edges[2] == (2,)
    assert Multigraph(2, ((), ())).predecessors == ((), ())
    with pytest.raises(InvalidInputError, match="^out_edges needs one slot list per vertex$"):
        Multigraph(3, ((0, 1), (1, 0)))
    with pytest.raises(InvalidInputError, match="row width must equal 2"):
        parse_graph("graph 3 2\n0 1\n1 0\n2\n")


def test_coloring_must_be_bijection():
    g = make_graph([(0, 0)])
    with pytest.raises(InvalidInputError):
        apply_coloring(g, Coloring(((0, 0),)))


def test_graph_text_roundtrip():
    g = make_graph([(1, 1), (0, 2), (2, 1)])
    assert parse_graph(write_graph(g)) == g


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_graph_text_roundtrip_property(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 12), rng.randint(1, 4))
    assert parse_graph(write_graph(g)) == g


def test_graph_with_colors_and_dot():
    g = make_graph([(1, 0), (0, 1)])
    c = Coloring(((0, 1), (1, 0)))
    text = write_graph_with_colors(g, c)
    assert "colors" in text and "a b" in text and "b a" in text
    dot = to_dot(g, c)
    assert 'label="a"' in dot and dot.startswith("digraph")
