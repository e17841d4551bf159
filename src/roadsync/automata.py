"""Complete deterministic finite automata over dense integer states and letters.

States are 0..t-1, letters are 0..alphabet_size-1.  Words are tuples of letter
indices.  State sets are frozensets; images under words shrink monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import InvalidInputError, SizeLimitError

Word = tuple[int, ...]
StateSet = frozenset[int]

LETTER_CHARS = "abcdefghijklmnopqrstuvwxyz"
CERNY_STATE_CAP = 10 ** 6  # about 250 B per state: 254 MiB RSS at n = 10^6


@dataclass(frozen=True)
class Dfa:
    """Transition table of a complete DFA; delta[state][letter] is a state."""

    t: int
    alphabet_size: int
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.t < 1 or self.alphabet_size < 1:
            raise InvalidInputError("automaton needs t >= 1 and alphabet_size >= 1")
        if len(self.delta) != self.t:
            raise InvalidInputError("delta needs exactly one row per state")
        if set(map(len, self.delta)) != {self.alphabet_size}:
            raise InvalidInputError("delta row width must equal alphabet_size")
        q = _bad_target(self.delta, self.t)
        if q is not None:
            raise InvalidInputError(f"transition target {q} out of range")

    def full_set(self) -> StateSet:
        return frozenset(range(self.t))

    def check_word(self, w: Sequence[int]) -> None:
        for x in w:
            if not 0 <= x < self.alphabet_size:
                raise InvalidInputError(f"letter {x} out of range for alphabet_size {self.alphabet_size}")


def _bad_target(rows: Sequence[Sequence[int]], t: int) -> Optional[int]:
    """The first entry of rows, in row order, outside 0..t-1, or None.

    All entries are checked at once, through one set and its min and max;
    the rows are scanned in order only when that check fails."""
    targets = set().union(*rows)
    if targets and (min(targets) < 0 or max(targets) >= t):
        return next(q for row in rows for q in row if not 0 <= q < t)
    return None


def make_dfa(rows: Sequence[Sequence[int]]) -> Dfa:
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        raise InvalidInputError("empty transition table")
    return Dfa(len(rows), len(rows[0]), rows)


def apply_word(a: Dfa, s: Iterable[int], w: Sequence[int]) -> StateSet:
    """Image of the state set s under w, applied left to right."""
    a.check_word(w)
    cur = frozenset(s)
    for q in cur:
        if not 0 <= q < a.t:
            raise InvalidInputError(f"state {q} out of range")
    for x in w:
        cur = frozenset(a.delta[q][x] for q in cur)
    return cur


def activity_trace(a: Dfa, w: Sequence[int]) -> list[StateSet]:
    """Images of the full state set under every prefix of w (prefix 0 first)."""
    a.check_word(w)
    cur = a.full_set()
    trace = [cur]
    for x in w:
        cur = frozenset(a.delta[q][x] for q in cur)
        trace.append(cur)
    return trace


def cerny_automaton(n: int) -> Dfa:
    """Two-letter slowly synchronizing family with shortest reset length (n-1)^2.

    Letter 0 sends state 0 to 1 and fixes every other state; letter 1 is the
    cyclic shift i -> i+1 mod n.
    """
    if n < 2:
        raise InvalidInputError("cerny_automaton needs n >= 2")
    if n > CERNY_STATE_CAP:
        raise SizeLimitError(f"cerny_automaton capped at n={CERNY_STATE_CAP}")
    rows = []
    for i in range(n):
        rows.append((1 if i == 0 else i, (i + 1) % n))
    return Dfa(n, 2, tuple(rows))


def word_to_str(w: Sequence[int], alphabet_size: int) -> str:
    """Render letters as a..z when the alphabet allows it, else as integers."""
    if alphabet_size <= len(LETTER_CHARS):
        return "".join(LETTER_CHARS[x] for x in w)
    return " ".join(str(x) for x in w)


def word_from_str(text: str, alphabet_size: int) -> Word:
    """Parse either letter form (abba) or integer form (0 1 1 0)."""
    text = text.strip()
    if not text:
        return ()
    if any(ch.isdigit() for ch in text):
        letters = _ints(text.split(), "word")
    elif set(text) <= set(LETTER_CHARS):
        letters = tuple(LETTER_CHARS.index(ch) for ch in text)
    else:
        raise InvalidInputError(f"word {text!r}: letters must be a..z")
    for x in letters:
        if not 0 <= x < alphabet_size:
            raise InvalidInputError(f"letter {x} out of range")
    return letters


def _ints(tokens: Sequence[str], what: str) -> tuple[int, ...]:
    """Parse the ASCII decimal integer tokens of an input field, else
    InvalidInputError.  int() alone would also take digit-group underscores
    (1_0) and non-ASCII digits, so the joined tokens are checked first."""
    text = " ".join(tokens)
    if text.isascii() and "_" not in text:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    raise InvalidInputError(f"{what}: expected integers, got {text!r}")


def _content_lines(text: str) -> list[str]:
    """The stripped lines of text that are neither blank nor `#` comments."""
    return [line for line in filter(None, map(str.strip, text.splitlines()))
            if line[0] != "#"]


def _header(lines: Sequence[str], usage: str) -> tuple[int, ...]:
    """The two integers of the header line lines[0], written as `usage`."""
    head = lines[0].split() if lines else []
    if len(head) != 3 or head[0] != usage.split()[0]:
        raise InvalidInputError(f"expected `{usage}` header")
    return _ints(head[1:], f"{head[0]} header")


def _table(lines: Sequence[str], usage: str,
           count: Optional[int] = None) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """A `<keyword> <x> <width>` header, then exactly count rows (x rows by
    default) of width integers each; returns x, width and the rows.

    The body is checked once, all tokens together, for ASCII and `_`, its
    row widths through one set, and it is parsed by one map(int) cut into
    rows by zip.  Only when that fails are the rows scanned in order, to
    name the first bad row."""
    x, width = _header(lines, usage)
    count = x if count is None else count
    if len(lines) != 1 + count:
        raise InvalidInputError(f"`{usage}`: expected {count} rows, found {len(lines) - 1}")
    if not count:
        # No row checks the header's width, so no row list is cut by it.
        return x, width, ()
    split = list(map(str.split, lines[1:]))
    tokens = list(chain.from_iterable(split))
    joined = "".join(tokens)
    if joined.isascii() and "_" not in joined and set(map(len, split)) == {width}:
        try:
            return x, width, tuple(zip(*[map(int, tokens)] * width))
        except ValueError:
            pass
    for row in split:
        _ints(row, f"row under `{usage}`")
    raise InvalidInputError(f"`{usage}`: row width must equal {width}")


def parse_dfa(text: str) -> Dfa:
    """Parse the "dfa" text format: header `dfa <t> <alphabet_size>`, then t rows."""
    t, k, rows = _table(_content_lines(text), "dfa <t> <alphabet_size>")
    return Dfa(t, k, rows)


def write_dfa(a: Dfa) -> str:
    names = [str(q) for q in range(a.t)]
    if a.alphabet_size == 1:
        # itemgetter of one index returns the name itself, not a 1-tuple.
        names = [(name,) for name in names]
    lines = [f"dfa {a.t} {a.alphabet_size}"]
    lines += [" ".join(itemgetter(*row)(names)) for row in a.delta]
    return "\n".join(lines) + "\n"
