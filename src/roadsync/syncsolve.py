"""Synchronization tests and exact shortest reset words.

The polynomial decision uses backward closure over state pairs; the exact
search is a breadth-first walk over images of the full state set, packed as
bitmasks.  The two are algorithmically independent, so they cross-validate.

The walk steps a set through byte tables: per block of 8 states, a 256-row
table maps the block's bits to their images under every letter, so the images
of a set are one row per nonzero byte, OR-ed together.  The same step serves
every width, masks of more than 64 states included.
"""

from __future__ import annotations

from collections import deque
from operator import or_
from typing import Optional

from .automata import Dfa, Word
from .errors import InvalidInputError


def pin_bound(t: int) -> int:
    """Upper bound (t^3 - t) / 6 on shortest reset length; exact integer."""
    if t < 1:
        raise InvalidInputError("pin_bound needs t >= 1")
    return (t ** 3 - t) // 6


def is_synchronizing(a: Dfa) -> bool:
    """Pair-merging criterion: every state pair can reach a diagonal pair.

    Runs backward closure from the diagonal in the pair automaton; polynomial
    in t and alphabet size.
    """
    t = a.t
    if t == 1:
        return True

    def pair_id(p: int, q: int) -> int:
        if p > q:
            p, q = q, p
        return p * t + q

    preds: list[list[int]] = [[] for _ in range(t * t)]
    for p in range(t):
        for q in range(p + 1, t):
            src = pair_id(p, q)
            for x in range(a.alphabet_size):
                preds[pair_id(a.delta[p][x], a.delta[q][x])].append(src)

    reached = [False] * (t * t)
    queue = deque()
    for r in range(t):
        reached[pair_id(r, r)] = True
        queue.append(pair_id(r, r))
    while queue:
        cur = queue.popleft()
        for src in preds[cur]:
            if not reached[src]:
                reached[src] = True
                queue.append(src)
    return all(reached[pair_id(p, q)] for p in range(t) for q in range(p + 1, t))


def _byte_tables(a: Dfa) -> list[list[tuple[int, ...]]]:
    """Image tables over 8-state blocks: tables[p][v][x] is the image, under
    letter x, of the states 8p..8p+7 whose bits are set in the byte v.

    Each letter's table is built by doubling over the block's states; the
    letters are then zipped together, so one lookup per block gives the
    images under every letter.  Letters that act alike on a block share one
    table, as many letters of a composed automaton do on its guard cells.
    """
    blocks = []
    for start in range(0, a.t, 8):
        built: dict[tuple[int, ...], list[int]] = {}
        per_letter = []
        for x in range(a.alphabet_size):
            targets = tuple(a.delta[v][x] for v in range(start, min(start + 8, a.t)))
            table = built.get(targets)
            if table is None:
                table = built[targets] = [0]
                for q in targets:
                    bit = 1 << q
                    table += [image | bit for image in table]
            per_letter.append(table)
        blocks.append(list(zip(*per_letter)))
    return blocks


def shortest_reset_word(a: Dfa, limit: Optional[int] = None) -> Optional[Word]:
    """Shortest reset word by subset BFS, or None if none exists (within limit).

    Letters are expanded in increasing order, so among equal-length reset words
    the lexicographically least is returned; repeated calls are identical.
    The images of a set under all letters are the OR, over its nonzero bytes,
    of one _byte_tables row each.
    """
    if limit is not None and limit < 0:
        raise InvalidInputError("limit must be >= 0")
    t = a.t
    if t == 1:
        return ()
    if limit == 0:
        return None
    low, *high = _byte_tables(a)
    high_blocks = list(zip(range(8, t, 8), high))
    full = (1 << t) - 1
    parent: dict[int, tuple[int, int]] = {full: (-1, -1)}
    frontier = [full]
    level = 0
    while frontier and (limit is None or level < limit):
        level += 1
        nxt_frontier = []
        for cur in frontier:
            images = low[cur & 255]
            for shift, table in high_blocks:
                byte = (cur >> shift) & 255
                if byte:
                    images = map(or_, images, table[byte])
            for x, nxt in enumerate(images):
                if nxt in parent:
                    continue
                parent[nxt] = (cur, x)
                if nxt & (nxt - 1) == 0:
                    word = []
                    node = nxt
                    while parent[node][1] != -1:
                        node, letter = parent[node]
                        word.append(letter)
                    word.reverse()
                    return tuple(word)
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return None


def syn_decide(a: Dfa, k: int) -> bool:
    """Does a reset word of length <= k exist?

    When k reaches the pin bound, synchronizability alone settles the answer,
    so the subset search is skipped.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    if k >= pin_bound(a.t):
        return is_synchronizing(a)
    return shortest_reset_word(a, limit=k) is not None
