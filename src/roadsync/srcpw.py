"""Fixed-word road colorings.

G_w is the set of multigraphs of uniform out-degree d admitting a coloring
delta with |delta(Q, w)| = 1, for a word w over letters below d.
`fixed_word_coloring` decides membership for every d, per target q, by
propagation-guided selection with a backtracking fallback over each vertex's
choices of targets for the letters of w (derived here, exact, and validated
against brute-force oracles in the test suite).  The state reached after i
letters must reach q by the |w| - i letters left, which the backward walk
layers of q (`graphs.walk_layers`, cut at depth |w| - 1) tell; so q is tried
only if every vertex has a walk of exactly |w| edges to it, and no distance
search runs.  `first_word_coloring` runs the same search over words of one
length, target by target, each target's walk layers and walk test serving
every word, with one work budget of SEARCH_NODE_BUDGET search nodes (choices
tried) over all words and targets; past it the call raises SizeLimitError
instead of running for minutes.  SRCP at every k is a union of classes G_w,
decided by `srcp.srcp_exists_by_patterns` through it.

`decide_aaa`, `decide_aab` and `decide_aba` run at any out-degree through
it; the rest is out-degree 2 only.  The abb class additionally has the
paper's characterization by V_2(q), the vertices at distance exactly 2 from
q, which doubles as a witness construction; V_2(q) is read off the first
three walk layers.  `decide_abb` rests on it; the SRCP decision searches abb
like any other word.  The aaa class reduces to a self-loop plus three
backward layers.  An abb witness recolors to an aba one.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Iterable, Optional, Sequence

from .automata import Word, apply_word
from .errors import InvalidInputError, SizeLimitError
from .graphs import (
    Coloring,
    Multigraph,
    apply_coloring,
    walk_layers,
)

# Search nodes (choices tried by the backtracking) one first_word_coloring
# call may spend over all its words and targets before it refuses the graph.
SEARCH_NODE_BUDGET = 100_000


def _require_outdeg2(g: Multigraph) -> None:
    if g.out_degree != 2:
        raise InvalidInputError("fixed-word machinery needs out-degree 2")


def fixed_word_coloring(g: Multigraph, w: Sequence[int]) -> Optional[Coloring]:
    """Exact search for a coloring with |delta(Q, w)| = 1, for any out-degree d.

    A vertex's choice is the tuple of targets it gives to the letters of w:
    one injection of those letters into its d slots, each distinct tuple kept
    once and named by the least slot-letter tuple that realizes it (see
    `_choice_table`).  Per target q, a state active after i letters owes a
    duty: the target its choice gives letter w_i must have a walk of the
    |w| - i - 1 letters left to q, read off the backward walk layers of q
    (level 0 binds every state, and the last letter must reach q itself).
    The choices are resolved by demand propagation with backtracking,
    vertices in index order and choices in slot-letter order.  So the witness
    is, among the colorings under which w maps every vertex to the least
    possible q, the first in `enumerate_colorings` order.  Raises
    SizeLimitError once the backtracking has tried more than
    SEARCH_NODE_BUDGET choices over all targets; returned colorings are
    always verified.  This is `first_word_coloring` on one word.
    """
    return first_word_coloring(g, (w,))


def first_word_coloring(g: Multigraph, words: Iterable[Sequence[int]]) -> Optional[Coloring]:
    """A coloring that resets g by one of words, or None if g lies in no G_w.

    The words share one length L; mixed lengths raise InvalidInputError.
    Targets run on the outside and words on the inside, so the result is
    `fixed_word_coloring` of the first word reaching the least target any does.
    Each target is walked once, L - 1 layers deep, and skipped unless every
    vertex has a walk of exactly L edges to it.  Every word's letters and
    length are checked before the first search, one SEARCH_NODE_BUDGET covers
    every word and target, and the choice lists are built once per letter
    set, when the first target passes.  A reset word pads to any longer
    length (a singleton image stays a singleton), and renaming letters maps
    colorings to colorings, so SRCP at k is the union of G_w over the words
    of `srcp.pattern_words(k, d)`; `srcp.srcp_exists_by_patterns` decides it
    so.
    """
    d = g.out_degree
    if d is None:
        raise InvalidInputError("fixed-word search needs uniform out-degree")
    words = [tuple(w) for w in words]
    if any(not 0 <= x < d for w in words for x in w):
        raise InvalidInputError(f"word letters must lie below the out-degree {d}")
    if len({len(w) for w in words}) > 1:
        raise InvalidInputError("fixed-word search needs words of one length")
    # Every word, the empty one too, resets the one-vertex graph by the
    # identity coloring; the empty word resets no larger graph.
    if g.t == 1:
        return Coloring((tuple(range(d)),)) if words else None
    if not words or not words[0]:
        return None
    L = len(words[0])
    letter_sets = [tuple(sorted(set(w))) for w in words]
    # A letter set's choice lists, built when the first target passes.
    choices: dict[tuple[int, ...], list[tuple]] = {}
    budget = [SEARCH_NODE_BUDGET]
    for q in range(g.t):
        walks = walk_layers(g, q, L - 1)
        # Any slot can carry the first letter, so every vertex needs an
        # out-edge into W_{L-1}: a walk of exactly L edges to q.
        if not all(any(u in walks[-1] for u in ts) for ts in g.out_edges):
            continue
        for w, letters in zip(words, letter_sets):
            if letters not in choices:
                choices[letters] = [_choice_table(tuple(map(ts.index, ts)), letters, d)
                                    for ts in g.out_edges]
            coloring = _fixed_word_at(g, w, q, walks, choices[letters], budget)
            if coloring is not None:
                return coloring
    return None


# Bounded: an entry holds up to d^|letters| rows of d letters each.
@lru_cache(maxsize=256)
def _choice_table(shape: tuple[int, ...], letters: tuple[int, ...], d: int) -> tuple:
    """The choices of a vertex whose slot s leads to the target named shape[s].

    shape names each target by its first slot, so parallel edges share a name.
    Each distinct letter-target tuple the slots can realize gives one choice:
    the least slot-letter tuple realizing it, and the slot of each letter
    under that tuple.  Returns both as parallel tuples in ascending
    slot-letter order.  The least tuple is built slot by slot, taking the
    least letter that leaves each pending letter a later slot of its target:
    the least pending letter of this slot's target, or the least unused letter.
    """
    slot_count = Counter(shape)
    rows = []
    for xs in product(slot_count, repeat=len(letters)):
        if any(xs.count(u) > slot_count[u] for u in xs):
            continue
        pending = dict(zip(letters, xs))
        unused = [x for x in range(d) if x not in pending]
        left, row = Counter(shape), []
        for u in shape:
            left[u] -= 1
            mine = [x for x, v in pending.items() if v == u]
            if unused and len(mine) <= left[u] and unused[0] < min(mine, default=d):
                row.append(unused.pop(0))
            else:
                row.append(min(mine))
                del pending[row[-1]]
        rows.append(tuple(row))
    rows.sort()
    slots = tuple(tuple(sorted(range(d), key=row.__getitem__)) for row in rows)
    return tuple(rows), slots


def _fixed_word_at(g: Multigraph, w: Word, q: int, walks: list[frozenset[int]],
                   choices: list[tuple], budget: list[int]) -> Optional[Coloring]:
    """The first coloring that resets by w to q; each choice tried spends 1 of
    budget[0].  walks is `walk_layers(g, q, |w| - 1)`."""
    t, L = g.t, len(w)
    tgt = g.out_edges

    def duty_ok(v: int, slots: tuple[int, ...], i: int) -> bool:
        # slots[x] is the slot that carries letter x under one choice of v.
        # A state active after i + 1 letters needs a walk of the L - i - 1
        # letters left to q; walks[0] is {q}.
        return tgt[v][slots[w[i]]] in walks[L - 1 - i]

    # Exact selection: sigma (a choice index) per state plus the duty levels
    # demanded of it by already-made choices.  Unassigned duty targets are
    # judged optimistically through the walk layers, assigned ones exactly via
    # requeueing.
    sigma: list[Optional[int]] = [None] * t
    demand: list[set[int]] = [{0} for _ in range(t)]

    def options(v: int) -> list[int]:
        return [c for c, s in enumerate(choices[v][1])
                if all(duty_ok(v, s, i) for i in demand[v])]

    def propagate(queue: list[int], trail: list) -> bool:
        while queue:
            v = queue.pop()
            if sigma[v] is None:
                opts = options(v)
                if not opts:
                    return False
                if len(opts) > 1:
                    continue
                sigma[v] = opts[0]
                trail.append(("sigma", v, None))
            s = choices[v][1][sigma[v]]
            if not all(duty_ok(v, s, i) for i in demand[v]):
                return False
            for i in list(demand[v]):
                if i + 1 == L:
                    continue
                u = tgt[v][s[w[i]]]
                if i + 1 not in demand[u]:
                    demand[u].add(i + 1)
                    trail.append(("demand", u, i + 1))
                    queue.append(u)
        return True

    def undo(trail: list, mark: int) -> None:
        while len(trail) > mark:
            kind, v, payload = trail.pop()
            if kind == "sigma":
                sigma[v] = None
            else:
                demand[v].discard(payload)

    def next_open(v: int) -> int:
        while v < t and sigma[v] is not None:
            v += 1
        return v

    def search(trail: list) -> bool:
        # Depth-first over the undecided vertices in index order, one frame
        # (vertex, its remaining options, trail mark) per decided vertex.
        v = next_open(0)
        if v == t:
            return True
        stack = [(v, iter(options(v)), len(trail))]
        while stack:
            v, opts, mark = stack[-1]
            undo(trail, mark)
            s = next(opts, None)
            if s is None:
                stack.pop()
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise SizeLimitError(
                    f"fixed-word search budget of {SEARCH_NODE_BUDGET} choices spent")
            sigma[v] = s
            trail.append(("sigma", v, None))
            if not propagate([v], trail):
                continue
            v = next_open(v + 1)
            if v == t:
                return True
            stack.append((v, iter(options(v)), len(trail)))
        return False

    trail: list = []
    if not propagate(list(range(t)), trail):
        return None
    if not search(trail):
        return None
    coloring = Coloring(tuple(choices[v][0][s] for v, s in enumerate(sigma)))
    dfa = apply_coloring(g, coloring)
    if len(apply_word(dfa, dfa.full_set(), w)) == 1:
        return coloring
    return None


def decide_aaa(g: Multigraph) -> bool:
    """Membership in G_aaa.

    Equivalent direct form: some q with a self-loop edge whose backward layers
    cover every vertex within 3 steps; the fixed-word search reduces to that.
    """
    return fixed_word_coloring(g, (0, 0, 0)) is not None


def decide_aab(g: Multigraph) -> bool:
    """Membership in G_aab minus G_aaa."""
    return (fixed_word_coloring(g, (0, 0, 1)) is not None) and not decide_aaa(g)


def decide_aba(g: Multigraph) -> bool:
    """Membership in G_aba minus G_aaa."""
    return (fixed_word_coloring(g, (0, 1, 0)) is not None) and not decide_aaa(g)


def _distance_two(g: Multigraph, q: int) -> frozenset[int]:
    """V_2(q): a vertex is at distance <= 1 from q iff it lies in W_0 or W_1."""
    w0, w1, w2 = walk_layers(g, q, 2)
    return w2 - w1 - w0


def abb_witness_target(g: Multigraph) -> Optional[int]:
    """A vertex q such that every vertex has an out-edge into V_2(q), if any."""
    _require_outdeg2(g)
    for q in range(g.t):
        v2 = _distance_two(g, q)
        if all(any(u in v2 for u in ts) for ts in g.out_edges):
            return q
    return None


def abb_coloring_from_target(g: Multigraph, q: int) -> Coloring:
    """Label edges into V_2(q) with a (lower slot wins ties), the rest with b."""
    _require_outdeg2(g)
    v2 = _distance_two(g, q)
    slots = []
    for v in range(g.t):
        t0, t1 = g.out_edges[v]
        if t0 in v2:
            slots.append((0, 1))
        elif t1 in v2:
            slots.append((1, 0))
        else:
            raise InvalidInputError(f"vertex {v} has no edge into V_2({q})")
    return Coloring(tuple(slots))


def decide_abb(g: Multigraph) -> bool:
    """Membership in G_abb minus (G_aba union G_aaa).

    Characterization: outside those classes, membership holds iff some q has
    every vertex sending an out-edge into V_2(q); the constructed coloring
    labels V_2(q)-bound edges with a and synchronizes by abb at q.
    """
    _require_outdeg2(g)
    if decide_aaa(g) or (fixed_word_coloring(g, (0, 1, 0)) is not None):
        return False
    return abb_witness_target(g) is not None


def recolor_abb_to_aba(g: Multigraph, c: Coloring) -> Coloring:
    """Swap the two edge colors at every state whose b-edge enters the abb target.

    Preconditions: c synchronizes g by abb at some q, q is in the image of
    letter a, and g is not in G_aaa.  The result synchronizes by aba at q.
    """
    _require_outdeg2(g)
    dfa = apply_coloring(g, c)
    image = apply_word(dfa, dfa.full_set(), (0, 1, 1))
    if len(image) != 1:
        raise InvalidInputError("precondition violated: coloring does not synchronize by abb")
    (q,) = image
    if q not in apply_word(dfa, dfa.full_set(), (0,)):
        raise InvalidInputError("precondition violated: target not in the image of letter a")
    if decide_aaa(g):
        raise InvalidInputError("precondition violated: graph lies in G_aaa")
    slots = []
    for v in range(g.t):
        b_slot = c.letter_slot(v, 1)
        if g.out_edges[v][b_slot] == q:
            a, b = c.slot_letters[v]
            slots.append((1 - a, 1 - b))
        else:
            slots.append(c.slot_letters[v])
    return Coloring(tuple(slots))
