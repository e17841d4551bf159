"""Composition of synchronization instances into one automaton.

Given t-state automata A_1..A_m with length budgets d_1..d_m (all below the
cubic bound z(t)), the composed automaton A' answers the disjunction: A' has a
reset word of length at most z(t)+1 iff some A_i has one of length at most
d_i.  A guard table of (z(t)+1) x (q(m)+1) x {T,F} states enforces that every
short reset word of A' has the shape

    alpha_i  y_1 ... y_{d_i}  kappa^{z(t)-1-d_i}  omega_s

with y_1..y_{d_i} a reset word of A_i: the selector alpha_i stamps the binary
activity pattern of i onto the table rows, letters of other instances scramble
the pattern back to row 0 (a dead end for short words), and only the bottom
row escapes to the absorbing state via the omega letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import Optional, Sequence

from .automata import Dfa, _content_lines, _header, _ints, _table, _unchecked_dfa, apply_word
from .errors import InvalidInputError, SizeLimitError
from .syncsolve import (_byte_tables, _disjoint, _field_bits, _image_masks,
                        _pack, _step, is_synchronizing, pin_bound,
                        shortest_reset_word, syn_decide)

# verify_c1_c2_c3 refuses a space of more words of length z(t)+1 than this.
# It bounds the space, not the work, which follows the prefix images.
C2_WORD_CAP = 10 ** 8
VERIFY_STATE_CAP = 3
VERIFY_ITEM_CAP = 2
# compose builds at most this many transitions, states x letters.
COMPOSE_ENTRY_CAP = 10 ** 7


@dataclass(frozen=True)
class BatchItem:
    """One composed instance: its automaton (kappa as letter 0) and budget."""

    dfa: Dfa
    d: int


@dataclass(frozen=True)
class CompositionBatch:
    t: int
    items: tuple[BatchItem, ...]

    def __post_init__(self) -> None:
        z = pin_bound(self.t)
        for item in self.items:
            if item.dfa.t != self.t:
                raise InvalidInputError("all batch items need the shared state count")
            if not all(item.dfa.delta[s][0] == s for s in range(self.t)):
                raise InvalidInputError("letter 0 of every item must be the identity")
            if item.d >= z:
                raise InvalidInputError("preprocessed budgets must be below the bound")

    @property
    def m(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class PreprocessResult:
    answer: Optional[bool]
    batch: Optional[CompositionBatch]


def add_identity_letter(a: Dfa) -> Dfa:
    """Prefix a fresh identity letter (kappa) as letter 0.  a's table was
    checked and the new column holds each row's own state, so the new
    table is not checked again."""
    rows = tuple((s,) + row for s, row in enumerate(a.delta))
    return _unchecked_dfa(a.t, a.alphabet_size + 1, rows)


def preprocess(raw: Sequence[tuple[Dfa, int]], t: int) -> PreprocessResult:
    """The two early exits of the composition, else the batch to compose.

    An item with d_i >= z(t) is decided by the synchronizability test alone:
    a yes short-circuits the whole batch, a no deletes the item.  An empty
    remainder short-circuits to false.  When m >= 2^t items remain, each is
    decided on its own and the answer is their disjunction.  The survivors
    get kappa as letter 0.
    """
    z = pin_bound(t)
    kept: list[BatchItem] = []
    for dfa, d in raw:
        if dfa.t != t:
            raise InvalidInputError("state count mismatch in composition input")
        if d < 0:
            raise InvalidInputError("budgets must be >= 0")
        if d >= z:
            if is_synchronizing(dfa):
                return PreprocessResult(True, None)
            continue
        kept.append(BatchItem(add_identity_letter(dfa), d))
    if not kept:
        return PreprocessResult(False, None)
    if len(kept) >= 2 ** t:
        return PreprocessResult(any(syn_decide(item.dfa, item.d) for item in kept), None)
    return PreprocessResult(None, CompositionBatch(t, tuple(kept)))


def pattern_width(m: int) -> int:
    """q(m) = floor(log2(m+1)); the guard table has q(m)+1 columns per flag."""
    if m < 1:
        raise InvalidInputError("need m >= 1")
    return (m + 1).bit_length() - 1


def pattern_subset(i: int, m: int) -> frozenset[int]:
    """Positions of the 1-bits of i inside R = {0..q(m)}; nonempty and proper."""
    if not 1 <= i <= m:
        raise InvalidInputError(f"pattern index {i} out of range 1..{m}")
    q = pattern_width(m)
    bits = frozenset(k for k in range(q + 1) if (i >> k) & 1)
    if not bits or len(bits) > q:
        raise RuntimeError(f"pattern of {i} is not a nonempty proper subset")
    return bits


def pattern_functions(i: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Concrete pattern functions (pi_T, pi_F) on R, as target tuples.

    The required ranges are the bit subset of i and its complement; listing a
    range ascending as b_0 < ... < b_{r-1}, we use pi(k) = b_{k mod r}.
    """
    return _patterns(pattern_subset(i, m), pattern_width(m))


def _patterns(inside: frozenset[int], q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """pattern_functions of the nonempty proper subset `inside` of R = {0..q}."""
    ranges = (sorted(inside), [k for k in range(q + 1) if k not in inside])
    return tuple(tuple((r * (q + 1))[:q + 1]) for r in ranges)


@dataclass(frozen=True)
class ComposedAutomaton:
    dfa: Dfa
    t: int
    m: int
    d_prime: int
    z: int
    q: int
    item_letter_offsets: tuple[int, ...]  # first non-kappa letter of each item
    item_alphabet_sizes: tuple[int, ...]  # including kappa

    # State layout: base states 0..t-1, then D, then guard cells.
    @cached_property
    def state_names(self) -> tuple[str, ...]:
        """s1..st, D, then the guard cells (h,col,T|F), row by row."""
        names = [f"s{s + 1}" for s in range(self.t)] + ["D"]
        names += [f"({h},{col},{flag})" for h in range(self.z + 1)
                  for col in range(self.q + 1) for flag in "TF"]
        return tuple(names)

    @cached_property
    def letter_names(self) -> tuple[str, ...]:
        """kappa, the items' letters xi,j, then alpha1..alpham, omega1..omegat."""
        names = ["kappa"]
        for i, size in enumerate(self.item_alphabet_sizes, 1):
            names += [f"x{i},{j}" for j in range(1, size)]
        names += [f"alpha{i}" for i in range(1, self.m + 1)]
        names += [f"omega{s + 1}" for s in range(self.t)]
        return tuple(names)

    @property
    def dead(self) -> int:
        return self.t

    def guard_cell_of(self, state: int) -> Optional[tuple[int, int, str]]:
        if state <= self.t:
            return None
        raw = state - self.t - 1
        h, col = divmod(raw >> 1, self.q + 1)
        return (h, col, "TF"[raw & 1])

    @property
    def kappa(self) -> int:
        return 0

    def x_letter(self, i: int, j: int) -> int:
        # j >= 1 indexes the non-kappa letters of item i (1-based item index).
        return self.item_letter_offsets[i - 1] + (j - 1)

    def alpha(self, i: int) -> int:
        return 1 + sum(k - 1 for k in self.item_alphabet_sizes) + (i - 1)

    def omega(self, s: int) -> int:
        return self.alpha(self.m) + 1 + s

    def letters_of_item(self, i: int) -> frozenset[int]:
        base = self.item_letter_offsets[i - 1]
        width = self.item_alphabet_sizes[i - 1] - 1
        return frozenset({0}) | frozenset(range(base, base + width))


def compose(batch: CompositionBatch) -> ComposedAutomaton:
    """Build the composed automaton A' with d' = z(t)+1.

    Letters: the shared identity kappa, the non-kappa letters of every item,
    one selector alpha_i per item, and one omega_s per base state.  The guard
    table is built one column per letter kind and transposed into rows.

    Raises SizeLimitError, before any row is built, when states x letters
    passes COMPOSE_ENTRY_CAP.
    """
    t, m = batch.t, batch.m
    if m >= 2 ** t:
        raise InvalidInputError("compose needs m < 2^t; preprocess decides the rest")
    z = pin_bound(t)
    q = pattern_width(m)

    sizes = tuple(item.dfa.alphabet_size for item in batch.items)
    offsets = []
    cursor = 1
    for size in sizes:
        offsets.append(cursor)
        cursor += size - 1
    n_letters = cursor + m + t
    width = 2 * (q + 1)  # guard cells per table row
    n_states = t + 1 + (z + 1) * width
    if n_states * n_letters > COMPOSE_ENTRY_CAP:
        raise SizeLimitError(
            f"composed automaton of {n_states} states x {n_letters} letters "
            f"above cap {COMPOSE_ENTRY_CAP} entries")

    subsets = [pattern_subset(i, m) for i in range(1, m + 1)]
    dead = t

    # Base states: the items' letters, fixed by kappa and every alpha_i;
    # omega_s sends s to the absorbing state D.
    delta = []
    for s in range(t):
        row = [s]
        for item in batch.items:
            row += item.dfa.delta[s][1:]
        row += [s] * m
        row += [dead if s == s_bar else s for s_bar in range(t)]
        delta.append(tuple(row))
    delta.append((dead,) * n_letters)

    # Guard cells (h, col, flag), numbered row by row: rows[h] holds the
    # cells of table row h, in the order of `cells`.  kappa moves rows
    # 1..z-1 one row down and sends rows 0 and z to row 0.  An x letter of
    # item i moves rows 1..d_i down while the cell agrees with the activity
    # pattern of i (T inside it, F outside) and drops to (0, col, T)
    # otherwise; on the other rows it sends the cell to row 0.  alpha_i
    # stamps the pattern of i onto row 1, and omega sends the bottom row to
    # D and the rest to row 0.  So over one table row, a letter's targets
    # are a whole row, a block no row changes, or one fixed pick (per item)
    # from the next row and the drop targets: the table is built one column
    # per letter kind, block by block, and transposed.
    cells = [(col, flag) for col in range(q + 1) for flag in range(2)]
    rows = [tuple(range(t + 1 + h * width, t + 1 + (h + 1) * width))
            for h in range(z + 1)]
    row0 = rows[0]
    drops = tuple(row0[2 * col] for col, _ in cells)
    # On table row h = 1..z-1, an x letter picks from nexts[h - 1].
    nexts = [rows[h + 1] + drops for h in range(1, z)]
    columns = [list(chain.from_iterable(
        rows[h + 1] if 1 <= h < z else row0 for h in range(z + 1)))]
    for item, inside, size in zip(batch.items, subsets, sizes):
        pick = itemgetter(*[c if (col in inside) == (flag == 0) else width + c
                            for c, (col, flag) in enumerate(cells)])
        x = list(chain.from_iterable(
            [row0, *map(pick, nexts[:item.d]), *[row0] * (z - item.d)]))
        columns += [x] * (size - 1)
    for inside in subsets:
        pi = _patterns(inside, q)
        columns.append([rows[1][2 * pi[flag][col] + flag] for col, flag in cells] * (z + 1))
    columns += [list(chain.from_iterable([row0] * z + [(dead,) * width]))] * t
    delta += zip(*columns)
    # Each target is a base state, D or a cell of `rows`; each row is full.
    return ComposedAutomaton(
        dfa=_unchecked_dfa(len(delta), n_letters, tuple(delta)),
        t=t,
        m=m,
        d_prime=z + 1,
        z=z,
        q=q,
        item_letter_offsets=tuple(offsets),
        item_alphabet_sizes=sizes,
    )


@dataclass(frozen=True)
class C123Report:
    c1_no_short_reset: bool
    c2_all_shaped: bool
    c3_assembled_words_reset: bool
    reset_word_count: int
    assembled_count: int

    @property
    def all_pass(self) -> bool:
        return (self.c1_no_short_reset and self.c2_all_shaped
                and self.c3_assembled_words_reset)


def _word_matches_form(composed: ComposedAutomaton, batch: CompositionBatch,
                       word: Sequence[int]) -> bool:
    z = composed.z
    if len(word) != z + 1:
        return False
    first = word[0]
    alpha_base = composed.alpha(1)
    if not alpha_base <= first < alpha_base + composed.m:
        return False
    i = first - alpha_base + 1
    item = batch.items[i - 1]
    letters_i = composed.letters_of_item(i)
    body = word[1:1 + item.d]
    tail = word[1 + item.d:z]
    last = word[z]
    if any(x not in letters_i for x in body):
        return False
    if any(x != composed.kappa for x in tail):
        return False
    omega_base = composed.omega(0)
    if not omega_base <= last < omega_base + composed.t:
        return False
    item_word = tuple(_to_item_letter(composed, i, x) for x in body)
    image = apply_word(item.dfa, item.dfa.full_set(), item_word)
    return len(image) == 1


def _to_item_letter(composed: ComposedAutomaton, i: int, letter: int) -> int:
    if letter == composed.kappa:
        return 0
    base = composed.item_letter_offsets[i - 1]
    return letter - base + 1


def _reset_words_of_length(dfa: Dfa, length: int) -> list[tuple[int, ...]]:
    """Every word of the given length that resets dfa, in product order.

    The resetting suffixes of a prefix depend only on its depth and its
    image, so each image reached at a depth is stepped once, under every
    letter at once, through the reset-word search's byte tables, and its
    list of suffixes is built once and shared by every prefix that reaches
    it: the work follows the distinct images and the words found, not the
    alphabet_size^length words of the space.  The last letter is tested for
    all letters at once: a field of images & (images - ones) is 0 exactly
    when its image is a singleton (no image is empty, so no borrow crosses
    fields), and _disjoint sets that field's guard bit.
    """
    t = dfa.t
    if length == 0:
        return [()] if t == 1 else []
    tables = _byte_tables(_image_masks(dfa))
    full = (1 << t) - 1
    stride = _field_bits(t)
    letters = range(dfa.alphabet_size)
    _, ones, guard = _pack([0] * dfa.alphabet_size, t)
    # suffixes[depth][image]: the words of length - depth letters that
    # reset image, in product order.
    suffixes: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in range(length)]

    def words_from(depth: int, image: int) -> list[tuple[int, ...]]:
        known = suffixes[depth].get(image)
        if known is not None:
            return known
        images = _step(tables, image)
        if depth + 1 == length:
            singletons = _disjoint((images & (images - ones), ones, guard), full)
            words = [(x,) for x in letters if (singletons >> (x * stride + t)) & 1]
        else:
            words = [(x,) + word for x in letters
                     for word in words_from(depth + 1, (images >> x * stride) & full)]
        suffixes[depth][image] = words
        return words

    words = words_from(0, full)
    del words_from  # it refers to itself: drop the cycle, so the memo goes now
    return words


def verify_c1_c2_c3(composed: ComposedAutomaton,
                    batch: CompositionBatch) -> C123Report:
    """Exhaustively check the three guard-table guarantees on a small instance.

    C1: no reset word of length <= z(t).  C2: every reset word of length
    exactly z(t)+1 has the selector/body/kappa/omega shape with a resetting
    body.  C3: every assembled word of that shape resets A'.  C2's words
    and C3's bodies (the reset words of length d_i of each item) are both
    enumerated by prefix image.
    """
    t, m, z = composed.t, composed.m, composed.z
    if t > VERIFY_STATE_CAP or m > VERIFY_ITEM_CAP:
        raise SizeLimitError(
            f"verify_c1_c2_c3 is exhaustive; capped at t<={VERIFY_STATE_CAP}, "
            f"m<={VERIFY_ITEM_CAP}"
        )
    n_letters = composed.dfa.alphabet_size
    if n_letters ** (z + 1) > C2_WORD_CAP:
        raise SizeLimitError(f"word enumeration above cap {C2_WORD_CAP}")

    c1 = shortest_reset_word(composed.dfa, limit=z) is None

    reset_words = _reset_words_of_length(composed.dfa, z + 1)
    c2 = all(_word_matches_form(composed, batch, word) for word in reset_words)

    full = composed.dfa.full_set()
    c3 = True
    assembled = 0
    for i, item in enumerate(batch.items, 1):
        for body in _reset_words_of_length(item.dfa, item.d):
            (s,) = apply_word(item.dfa, item.dfa.full_set(), body)
            word = ((composed.alpha(i),)
                    + tuple(composed.x_letter(i, j) if j else composed.kappa
                            for j in body)
                    + (composed.kappa,) * (z - 1 - item.d)
                    + (composed.omega(s),))
            assembled += 1
            if len(apply_word(composed.dfa, full, word)) != 1:
                c3 = False
    return C123Report(c1, c2, c3, len(reset_words), assembled)


def _items_at_once(lines: Sequence[str], m: int, t: int) -> list[tuple[Dfa, int]]:
    """Every item of a batch, its headers and rows checked and parsed
    together as _table does for one table, and all targets checked at once
    by their least and greatest, so Dfa does not check the tables again.
    Raises InvalidInputError, not always naming the first error, when any
    line is malformed or any target out of range."""
    split = list(map(str.split, lines[1:]))
    heads = split[::1 + t]
    del split[::1 + t]
    values = _ints([x for head in heads for x in head[1:]]
                   + list(chain.from_iterable(split)), "batch")
    ks, cells = values[1:2 * m:2], values[2 * m:]
    if (len(lines) != 1 + m * (1 + t)
            or any(len(head) != 3 or head[0] != "item" for head in heads)
            or list(map(len, split)) != [k for k in ks for _ in range(t)]
            or min(cells, default=0) < 0 or max(cells, default=0) >= t):
        raise InvalidInputError("malformed batch")
    cells = iter(cells)
    return [(_unchecked_dfa(t, k, tuple(zip(*[islice(cells, t * k)] * k))), d)
            for d, k in zip(values[:2 * m:2], ks)]


def parse_batch(text: str) -> tuple[list[tuple[Dfa, int]], int]:
    """Parse the batch format: `batch <m> <t>`, then per item a header
    `item <d_i> <alphabet_size>` followed by t transition rows.

    The items are parsed in one pass; only when that fails are they read
    again one by one, to name the first error."""
    lines = _content_lines(text)
    m, t = _header(lines, "batch <m> <t>")
    if m < 0 or t < 1:
        raise InvalidInputError("batch needs m >= 0 items of t >= 1 states")
    try:
        return _items_at_once(lines, m, t), t
    except InvalidInputError:
        pass
    raw: list[tuple[Dfa, int]] = []
    pos = 1
    for _ in range(m):
        d, k, rows = _table(lines[pos: pos + 1 + t], "item <d> <alphabet_size>", t)
        raw.append((Dfa(t, k, rows), d))
        pos += 1 + t
    if pos != len(lines):
        raise InvalidInputError("trailing content after the last item")
    return raw, t


def write_batch(raw: Sequence[tuple[Dfa, int]], t: int) -> str:
    lines = [f"batch {len(raw)} {t}"]
    for dfa, d in raw:
        lines.append(f"item {d} {dfa.alphabet_size}")
        for row in dfa.delta:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def names_json(composed: ComposedAutomaton) -> dict:
    return {
        "states": {str(i): composed.state_names[i]
                   for i in range(composed.dfa.t)},
        "letters": {str(i): composed.letter_names[i]
                    for i in range(composed.dfa.alphabet_size)},
        "d_prime": composed.d_prime,
    }
