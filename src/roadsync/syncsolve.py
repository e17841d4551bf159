"""Synchronization tests and exact shortest reset words.

The polynomial decision uses backward closure over state pairs; the exact
search is a bidirectional breadth-first search over state sets packed as
bitmasks: images of the full set forward, preimages of the singletons
backward, until a forward set lies inside a backward one.  The two are
algorithmically independent, so they cross-validate.

Both sides step a set through byte tables: per block of 8 states, a 256-row
table maps the block's bits to their images (or preimages) under every
letter at once, one field per letter, so a step is one row per nonzero byte,
OR-ed together.  The same step serves every width, masks of more than
64 states included.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .automata import Dfa, Word
from .errors import InvalidInputError, SizeLimitError

# One set of byte tables of the reset-word search holds at most this many
# bytes; the search builds two (forward, then backward), about 270 MiB RSS
# at the cap (t = 4,095 states over two letters).
RESET_TABLE_BYTE_CAP = 2 ** 27


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


def _field_bits(t: int) -> int:
    """Width of the field that holds one set of t states in a packed
    integer: whole bytes, with at least one bit to spare above the set."""
    return 8 * (t // 8 + 1)


def _image_masks(a: Dfa) -> list[int]:
    """Per state p, one field per letter x at bit x * _field_bits(t),
    holding the state delta[p][x]."""
    w = _field_bits(a.t)
    return [sum(1 << q + x * w for x, q in enumerate(row)) for row in a.delta]


def _preimage_masks(a: Dfa) -> list[int]:
    """Per state q, one field per letter x at bit x * _field_bits(t),
    holding the states p with delta[p][x] = q."""
    w = _field_bits(a.t)
    masks = [0] * a.t
    for p, row in enumerate(a.delta):
        for x, q in enumerate(row):
            masks[q] |= 1 << p + x * w
    return masks


def _byte_tables(masks: list[int]) -> list[list[int]]:
    """Tables over 8-state blocks: tables[p][v] is the OR of masks[q] over
    the states q = 8p..8p+7 whose bits are set in the byte v.

    The masks pack one field per letter (_image_masks, _preimage_masks), so
    one OR per nonzero byte of a set gives its images, or its preimages,
    under every letter at once; field x is the set under letter x.  Each
    table is built by doubling over the block's states.
    """
    tables = []
    for start in range(0, len(masks), 8):
        table = [0]
        for mask in masks[start:start + 8]:
            table += [row | mask for row in table]
        tables.append(table)
    return tables


def _step(tables: list[list[int]], cur: int) -> int:
    """The packed images (or preimages) of cur under every letter."""
    low, *high = tables
    images = low[cur & 255]
    for shift, table in enumerate(high, 1):
        byte = (cur >> 8 * shift) & 255
        if byte:
            images |= table[byte]
    return images


def _pack(sets: list[int], t: int) -> tuple[int, int, int]:
    """Sets of t states in one integer, field i at bit i * _field_bits(t):
    the packed sets, `ones` with a 1 at the bottom of every field, and
    `guard` with a 1 just above every field's t bits."""
    width = _field_bits(t) // 8
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(sets), "little")
    packed = int.from_bytes(b"".join(s.to_bytes(width, "little") for s in sets),
                            "little")
    return packed, ones, ones << t


def _disjoint(pack: tuple[int, int, int], v: int) -> int:
    """The guard bits of the packed sets that are disjoint from v.

    v * ones copies v into every field, and a field of packed & v * ones is
    0 exactly when its set misses v; subtracting ones then clears the guard
    bit set above it, and only there."""
    packed, ones, guard = pack
    return guard & ~((packed & v * ones | guard) - ones)


def shortest_reset_word(a: Dfa, limit: Optional[int] = None) -> Optional[Word]:
    """Shortest reset word by bidirectional subset search, or None if none
    exists (within limit).

    The forward side walks the images of the full set, level by level; the
    backward side the preimages of the singletons.  A set f of forward level
    i inside a set of backward level j gives a reset word of length i + j.
    Each step moves one side and tests only the new pair of levels, so the
    first meeting is at the shortest length: every split of a shortest word
    meets at its own pair.  Both sides keep only sets new to them, and the
    backward side only the maximal ones of each level (Kisielewicz,
    Kowalski and Szykuła, J. Comb. Optim. 29, 2015): a set inside another
    holds no more forward sets, and neither do its preimages.

    Each step moves the side with the smaller frontier, the backward one
    counted as the new preimages its last step found.

    The word is the lexicographically least of that length.  Its prefix is
    the parent chain of the first meeting forward set, in frontier order,
    with letters expanded in increasing order; it is completed with the
    least letter whose image lies inside a set of the backward level one
    shorter, step by step, tested against the complements of that level's
    sets that the search kept.  Repeated calls are identical.

    Raises SizeLimitError, before any table or mask is built, when one set
    of byte tables would pass RESET_TABLE_BYTE_CAP bytes: ceil(t/8) tables
    of 256 ints, each of one _field_bits(t)-bit field per letter.
    """
    if limit is not None and limit < 0:
        raise InvalidInputError("limit must be >= 0")
    t = a.t
    if t == 1:
        return ()
    if limit == 0:
        return None
    table_bytes = (t + 7) // 8 * 256 * a.alphabet_size * _field_bits(t) // 8
    if table_bytes > RESET_TABLE_BYTE_CAP:
        raise SizeLimitError(f"reset-word search tables of {table_bytes} bytes "
                             f"above cap {RESET_TABLE_BYTE_CAP}")
    forward_tables = _byte_tables(_image_masks(a))
    low, *high = forward_tables
    high_blocks = list(zip(range(8, t, 8), high))
    full = (1 << t) - 1
    stride = _field_bits(t)
    letters = range(a.alphabet_size)
    parent: dict[int, tuple[int, int]] = {full: (-1, -1)}
    frontier = [full]
    inside = None  # _pack(frontier, t), built when the backward side needs it
    last = [1 << q for q in range(t)]  # the backward side's last level
    # kept[j - 1]: the complements of the sets of backward level j >= 1, as
    # the search built them; level 0 holds the singletons.
    kept: list[list[int]] = []
    outside = None  # _pack(kept[-1], t), built when the forward side needs it
    found = t  # new sets of the backward side's last step: its frontier size
    seen = {0, *last}  # so the empty preimage is never kept
    pre_masks: list[int] = []
    backward_tables: list[list[int]] = []

    def complete(f: int) -> Word:
        word = []
        node = f
        while parent[node][1] != -1:
            node, letter = parent[node]
            word.append(letter)
        word.reverse()
        for r in range(len(kept) - 1, -1, -1):
            images = _step(forward_tables, f)
            for x in letters:
                f = (images >> x * stride) & full
                # Inside a set of backward level r: a singleton at r = 0.
                if any(not f & rest for rest in kept[r - 1]) if r else f & (f - 1) == 0:
                    break
            word.append(x)
        return tuple(word)

    length = 0
    while limit is None or length < limit:
        length += 1
        if len(frontier) <= found:
            if outside is None and kept:
                outside = _pack(kept[-1], t)
            nxt_frontier = []
            for cur in frontier:
                images = low[cur & 255]
                for shift, table in high_blocks:
                    byte = (cur >> shift) & 255
                    if byte:
                        images |= table[byte]
                for x in letters:
                    nxt = images & full
                    images >>= stride
                    if nxt in parent:
                        continue
                    parent[nxt] = (cur, x)
                    # Inside a singleton while the backward side has not
                    # moved, else inside a set of its last level.
                    if (nxt & (nxt - 1) == 0 if outside is None
                            else _disjoint(outside, nxt)):
                        return complete(nxt)
                    nxt_frontier.append(nxt)
            frontier = nxt_frontier
            inside = None
            if not frontier:
                return None
        else:
            if not kept:
                # A singleton's preimages are its mask, so the tables wait
                # for the second backward step.
                pre_masks = _preimage_masks(a)
                steps = pre_masks
            else:
                if len(kept) == 1:
                    backward_tables = _byte_tables(pre_masks)
                steps = [_step(backward_tables, cur) for cur in last]
            candidates = []
            for images in steps:
                for x in letters:
                    pre = images & full
                    images >>= stride
                    if pre not in seen:
                        seen.add(pre)
                        candidates.append(pre)
            # Largest first, so a set is kept only when no kept set holds it.
            candidates.sort(key=int.bit_count, reverse=True)
            level, complements = [], []
            for pre in candidates:
                for rest in complements:
                    if not pre & rest:
                        break
                else:
                    level.append(pre)
                    complements.append(full ^ pre)
            if not level:
                return None
            last = level
            kept.append(complements)
            outside = None
            found = len(candidates)
            if inside is None:
                inside = _pack(frontier, t)
            hits = 0
            for rest in complements:
                hits |= _disjoint(inside, rest)
            if hits:
                f = frontier[((hits & -hits).bit_length() - 1) // stride]
                return complete(f)
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
