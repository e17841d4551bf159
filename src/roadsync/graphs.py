"""Directed multigraphs with ordered out-edge slots, and colorings into DFAs.

Slot order is part of a graph's identity: colorings assign letters to slots,
and edge deletion removes individual slots.  Parallel edges are repeated
targets, never collapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations, product
from typing import Iterator, Optional, Sequence

from .automata import Dfa, _bad_target, _content_lines, _table, _unchecked_dfa, word_to_str
from .errors import InvalidInputError


@dataclass(frozen=True)
class Multigraph:
    t: int
    out_edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.t < 1:
            raise InvalidInputError("graph needs t >= 1")
        if len(self.out_edges) != self.t:
            raise InvalidInputError("out_edges needs one slot list per vertex")
        v = _bad_target(self.out_edges, self.t)
        if v is not None:
            raise InvalidInputError(f"edge target {v} out of range")

    @cached_property
    def out_degree(self) -> Optional[int]:
        """The out-degree shared by every vertex, or None when they differ."""
        degrees = set(map(len, self.out_edges))
        return degrees.pop() if len(degrees) == 1 else None

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Sources of the edges into each vertex, one entry per edge slot."""
        preds: list[list[int]] = [[] for _ in range(self.t)]
        for u, targets in enumerate(self.out_edges):
            for v in targets:
                preds[v].append(u)
        return tuple(tuple(us) for us in preds)


@dataclass(frozen=True)
class Coloring:
    """Per-vertex bijection from out-edge slots to letters 0..d-1."""

    slot_letters: tuple[tuple[int, ...], ...]

    def letter_slot(self, v: int, letter: int) -> int:
        return self.slot_letters[v].index(letter)


def make_graph(out_edges: Sequence[Sequence[int]]) -> Multigraph:
    return Multigraph(len(out_edges), tuple(tuple(ts) for ts in out_edges))


def strongly_connected_components(g: Multigraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative to survive deep graphs."""
    index = [-1] * g.t
    low = [0] * g.t
    on_stack = [False] * g.t
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(g.t):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            targets = g.out_edges[v]
            while ei < len(targets):
                w = targets[ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return components


def is_strongly_connected(g: Multigraph) -> bool:
    """Every vertex reaches vertex 0 and vertex 0 reaches every vertex."""
    return all(_levels(adjacency, 0)[0] == g.t for adjacency in (g.out_edges, g.predecessors))


def is_aperiodic(g: Multigraph) -> bool:
    """True iff the gcd of all cycle lengths is 1."""
    return _period(g, strongly_connected_components(g)) == 1


def _levels(adjacency: Sequence[Sequence[int]], root: int,
            members: Optional[set[int]] = None) -> tuple[int, int]:
    """BFS from root along adjacency, inside members (everywhere by default),
    one level set at a time.  Returns the number of vertices reached and the
    gcd of level(u) + 1 - level(v) over the edges u -> v it crosses, 0 when
    they close no cycle.  Inside a strongly connected component that gcd is
    its period."""
    seen, frontier = {root}, {root}
    level = {root: 0}
    gcd = 0
    depth = 0
    while frontier:
        depth += 1
        reached = set(chain.from_iterable(map(adjacency.__getitem__, frontier)))
        if members is not None:
            reached &= members
        frontier = reached - seen
        seen |= frontier
        # An edge from level depth - 1 into a vertex already at level j adds
        # depth - j, one into the new frontier adds 0; once the gcd is 1 the
        # levels are no longer needed.
        if gcd != 1:
            gcd = math.gcd(gcd, *[depth - j for j in set(map(level.get, reached)) - {None}])
            level.update(dict.fromkeys(frontier, depth))
    return len(seen), gcd


def _period(g: Multigraph, components: list[list[int]]) -> int:
    """The gcd of the cycle lengths inside the given strongly connected components."""
    overall = 0
    for comp in components:
        overall = math.gcd(overall, _levels(g.out_edges, comp[0], set(comp))[1])
    if not overall:
        raise InvalidInputError("graph has no cycles; period undefined")
    return overall


def is_admissible(g: Multigraph) -> bool:
    """Uniform positive out-degree and one sink component, which is aperiodic:
    exactly the graphs with a synchronizing coloring.  Two sinks never merge
    and a coloring keeps the cyclic classes of a periodic sink; otherwise the
    road coloring theorem synchronizes the sink, which every state reaches.
    A strongly connected graph is its own sink: the forward BFS that finds it
    so also gives its period, and only other graphs are split into components."""
    if not g.out_degree:
        return False
    reached, period = _levels(g.out_edges, 0)
    if reached == g.t and _levels(g.predecessors, 0)[0] == g.t:
        return period == 1
    sinks = [c for c in strongly_connected_components(g)
             if {u for v in c for u in g.out_edges[v]} <= set(c)]
    return len(sinks) == 1 and _period(g, sinks) == 1


def walk_layers(g: Multigraph, q: int, depth: int) -> list[frozenset[int]]:
    """W_0..W_depth, where W_j holds the vertices with a walk of exactly j edges to q."""
    if not 0 <= q < g.t:
        raise InvalidInputError(f"vertex {q} out of range")
    preds = g.predecessors
    layers = [frozenset((q,))]
    for _ in range(depth):
        layers.append(frozenset(u for v in layers[-1] for u in preds[v]))
    return layers


def apply_coloring(g: Multigraph, c: Coloring) -> Dfa:
    """Turn g into a DFA: delta(v, letter) follows the slot carrying that letter."""
    d = g.out_degree
    if d is None:
        raise InvalidInputError("coloring needs uniform out-degree")
    if len(c.slot_letters) != g.t:
        raise InvalidInputError("coloring must cover every vertex")
    rows = []
    for v in range(g.t):
        assignment = c.slot_letters[v]
        if sorted(assignment) != list(range(d)):
            raise InvalidInputError(f"coloring at vertex {v} is not a bijection")
        row = [0] * d
        for slot, letter in enumerate(assignment):
            row[letter] = g.out_edges[v][slot]
        rows.append(tuple(row))
    if not d:
        raise InvalidInputError("automaton needs t >= 1 and alphabet_size >= 1")
    # Multigraph checked every target, and each row permutes v's slots.
    return _unchecked_dfa(g.t, d, tuple(rows))


def coloring_count(g: Multigraph) -> int:
    d = g.out_degree
    if d is None:
        raise InvalidInputError("coloring count needs uniform out-degree")
    return math.factorial(d) ** g.t


def coloring_from_index(g: Multigraph, index: int) -> Coloring:
    """Reconstruct the index-th coloring of the enumeration order.

    The order is lexicographic over vertices (vertex 0 is the most significant
    digit), with per-vertex permutations ranked lexicographically; this makes
    the stream reproducible from an index for partitioned enumeration.
    """
    d = g.out_degree
    if d is None:
        raise InvalidInputError("coloring needs uniform out-degree")
    total = coloring_count(g)
    if not 0 <= index < total:
        raise InvalidInputError(f"coloring index {index} out of range")
    perms = list(permutations(range(d)))
    base = len(perms)
    digits = []
    for _ in range(g.t):
        index, digit = divmod(index, base)
        digits.append(digit)
    digits.reverse()
    return Coloring(tuple(perms[digit] for digit in digits))


def enumerate_colorings(g: Multigraph) -> Iterator[Coloring]:
    """All per-vertex slot->letter bijections, in the documented index order."""
    d = g.out_degree
    if d is None:
        raise InvalidInputError("coloring needs uniform out-degree")
    yield from map(Coloring, product(permutations(range(d)), repeat=g.t))


def parse_graph(text: str) -> Multigraph:
    """Parse the "graph" text format: header `graph <t> <d>`, then t slot rows."""
    t, _, rows = _table(_content_lines(text), "graph <t> <d>")
    return Multigraph(t, rows)


def write_graph(g: Multigraph) -> str:
    d = g.out_degree
    if d is None:
        raise InvalidInputError("graph text format needs uniform out-degree")
    lines = [f"graph {g.t} {d}"]
    for ts in g.out_edges:
        lines.append(" ".join(str(v) for v in ts))
    return "\n".join(lines) + "\n"


def write_graph_with_colors(g: Multigraph, c: Coloring) -> str:
    """Graph format followed by a parallel per-slot letter table, each
    letter as word_to_str renders it: a..z when there are at most 26, else
    integers."""
    d = g.out_degree
    if d is None:
        raise InvalidInputError("graph text format needs uniform out-degree")
    names = [word_to_str((letter,), d) for letter in range(d)]
    lines = ["colors"]
    for row in c.slot_letters:
        lines.append(" ".join([names[letter] for letter in row]))
    return write_graph(g) + "\n".join(lines) + "\n"


def to_dot(g: Multigraph) -> str:
    """DOT export: one unlabelled edge per slot."""
    out = ["digraph g {"]
    for v in range(g.t):
        out.append(f'  n{v} [label="{v}"];')
    for v, targets in enumerate(g.out_edges):
        out.extend(f"  n{v} -> n{w};" for w in targets)
    out.append("}")
    return "\n".join(out) + "\n"
