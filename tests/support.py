"""Shared brute-force helpers for the test suite.

Everything here is deliberately independent of the library's clever paths:
plain enumeration over words, colorings, and graphs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import random
from itertools import combinations_with_replacement, permutations, product
from typing import Optional, Sequence

import numpy as np

from roadsync import cli
from roadsync.automata import Dfa, _header, _ints, apply_word
from roadsync.compose import pattern_functions, pattern_subset, pattern_width
from roadsync.errors import InvalidInputError
from roadsync.graphs import (Coloring, Multigraph, apply_coloring,
                             coloring_from_index, enumerate_colorings,
                             strongly_connected_components)
from roadsync.syncsolve import pin_bound, shortest_reset_word


def random_dfa(rng: random.Random, t: int, k: int) -> Dfa:
    return Dfa(t, k, tuple(tuple(rng.randrange(t) for _ in range(k))
                           for _ in range(t)))


def reference_write_dfa(a: Dfa) -> str:
    """The "dfa" text of a, one str() call per entry: the reference for
    `write_dfa`, which renders each state's name once."""
    lines = [f"dfa {a.t} {a.alphabet_size}"]
    for row in a.delta:
        lines.append(" ".join(str(q) for q in row))
    return "\n".join(lines) + "\n"


def reference_parser(integer=int) -> argparse.ArgumentParser:
    """The argparse tree that `cli._parse` replaced, built from the same
    `cli._ACTIONS` and `cli._FLAGS`: its reference.  `integer` converts the
    values of the integer flags (argparse's `type`)."""
    parser = argparse.ArgumentParser(prog="roadsync", allow_abbrev=False)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    commands = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for (command, action), (handler, *flags) in cli._ACTIONS.items():
        if command not in actions:
            actions[command] = commands.add_parser(command).add_subparsers(
                dest="action", required=True)
        # No prefixes: --n must not stand for --names.
        p = actions[command].add_parser(action, allow_abbrev=False)
        for flag in flags:
            spec = dict(cli._FLAGS[flag])
            if "type" in spec:
                spec["type"] = integer
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
    return parser


def reference_parse(parser: argparse.ArgumentParser, argv: list[str]):
    """("help",), ("error",), or ("ok", handler, --json, {dest: value}) for
    argv under an argparse tree from `reference_parser`."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return ("help",) if exc.code in (0, None) else ("error",)
    fixed = ("json", "command", "action", "handler")
    return ("ok", args["handler"], args["json"],
            {dest: value for dest, value in args.items() if dest not in fixed})


def reference_content_lines(text: str) -> list[str]:
    """The content lines of an input, one line at a time: the reference for
    `automata._content_lines`."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def reference_table(lines: Sequence[str], usage: str,
                    count: Optional[int] = None) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """A header and its rows, each row checked and parsed on its own: the
    reference for `automata._table`, which parses the whole body at once."""
    x, width = _header(lines, usage)
    count = x if count is None else count
    if len(lines) != 1 + count:
        raise InvalidInputError(f"`{usage}`: expected {count} rows, found {len(lines) - 1}")
    rows = tuple(_ints(line.split(), f"row under `{usage}`") for line in lines[1:])
    if any(len(row) != width for row in rows):
        raise InvalidInputError(f"`{usage}`: row width must equal {width}")
    return x, width, rows


def reference_parse_batch(text: str) -> tuple[list[tuple[Dfa, int]], int]:
    """A batch read one item at a time, each row on its own, and each
    item's Dfa built before the next item is read: the reference for
    `compose.parse_batch`, which parses all items in one pass."""
    lines = reference_content_lines(text)
    m, t = _header(lines, "batch <m> <t>")
    if m < 0 or t < 1:
        raise InvalidInputError("batch needs m >= 0 items of t >= 1 states")
    raw = []
    pos = 1
    for _ in range(m):
        d, k, rows = reference_table(lines[pos: pos + 1 + t], "item <d> <alphabet_size>", t)
        raw.append((Dfa(t, k, rows), d))
        pos += 1 + t
    if pos != len(lines):
        raise InvalidInputError("trailing content after the last item")
    return raw, t


def reference_period(g: Multigraph, components: list[list[int]]) -> int:
    """The gcd of the cycle lengths inside the given strongly connected
    components, from a per-vertex level dict and a list of internal edges:
    the reference for `graphs._period`, which works on level sets."""
    overall = 0
    saw_cycle = False
    for comp in components:
        members = set(comp)
        internal = [(u, v) for u in comp for v in g.out_edges[u] if v in members]
        if not internal:
            continue
        saw_cycle = True
        root = comp[0]
        level = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.out_edges[u]:
                    if v in members and v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        for u, v in internal:
            overall = math.gcd(overall, abs(level[u] + 1 - level[v]))
    if not saw_cycle:
        raise InvalidInputError("graph has no cycles; period undefined")
    return overall


def reference_is_aperiodic(g: Multigraph) -> bool:
    return reference_period(g, strongly_connected_components(g)) == 1


def reference_is_admissible(g: Multigraph) -> bool:
    """Uniform positive out-degree, and among the Tarjan components exactly
    one sink, which is aperiodic: the reference for `graphs.is_admissible`,
    which splits only graphs that are not strongly connected."""
    degrees = {len(ts) for ts in g.out_edges}
    if len(degrees) != 1 or not degrees.pop():
        return False
    sinks = [c for c in strongly_connected_components(g)
             if {u for v in c for u in g.out_edges[v]} <= set(c)]
    return len(sinks) == 1 and reference_period(g, sinks) == 1


def random_multigraph(rng: random.Random, t: int, d: int) -> Multigraph:
    return Multigraph(t, tuple(tuple(rng.randrange(t) for _ in range(d))
                               for _ in range(t)))


def outdeg2_graphs_exhaustive(t: int):
    """All out-degree-2 multigraphs on t vertices with unordered slot pairs.

    Slot order never changes any decision in this library (colorings range
    over both orders), so (u, v) with u <= v per vertex is a complete set.
    """
    pairs = list(combinations_with_replacement(range(t), 2))
    for rows in product(pairs, repeat=t):
        yield Multigraph(t, rows)


def canonical_iso_form(g: Multigraph) -> tuple:
    """Minimal relabeling of an out-degree-2 graph over all vertex bijections."""
    best = None
    for perm in permutations(range(g.t)):
        rows = [None] * g.t
        for v in range(g.t):
            ts = tuple(sorted(perm[u] for u in g.out_edges[v]))
            rows[perm[v]] = ts
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


def iso_class_representatives(t: int) -> list[Multigraph]:
    """First graph of each isomorphism class in `outdeg2_graphs_exhaustive(t)`.

    The same selection as keeping the graphs whose `canonical_iso_form` is new,
    in the same order, vectorized: a graph is its base-P code over the P slot
    pairs (vertex 0 most significant), and pair order is tuple order, so the
    minimal code over all relabelings orders like the canonical form.
    """
    pairs = list(combinations_with_replacement(range(t), 2))
    base = len(pairs)
    index_of = {pair: i for i, pair in enumerate(pairs)}
    weights = base ** np.arange(t - 1, -1, -1, dtype=np.int64)
    digits = np.indices((base,) * t, dtype=np.int64).reshape(t, -1)
    best = None
    for perm in permutations(range(t)):
        relabel = np.array([index_of[tuple(sorted((perm[u], perm[v])))]
                            for u, v in pairs], dtype=np.int64)
        code = sum(relabel[digits[v]] * weights[perm[v]] for v in range(t))
        best = code if best is None else np.minimum(best, code)
    _, first = np.unique(best, return_index=True)
    return [Multigraph(t, tuple(pairs[d] for d in digits[:, i]))
            for i in np.sort(first)]


def brute_shortest_reset(a: Dfa, max_len: int):
    """Word enumeration in length-then-lex order; None if nothing found."""
    full = a.full_set()
    if a.t == 1:
        return ()
    for length in range(1, max_len + 1):
        for word in product(range(a.alphabet_size), repeat=length):
            if len(apply_word(a, full, word)) == 1:
                return word
    return None


def bitloop_shortest_reset_word(a: Dfa, limit: Optional[int] = None):
    """Subset BFS with a per-bit image loop: the reference for the library's
    byte-table BFS.  Same frontier order, parent choice and letter order, so
    it returns the same word, not only the same length."""
    t = a.t
    full = (1 << t) - 1
    if t == 1:
        return ()
    bits = [[1 << a.delta[v][x] for v in range(t)] for x in range(a.alphabet_size)]
    parent = {full: (-1, -1)}
    frontier = [full]
    level = 0
    while frontier and (limit is None or level < limit):
        level += 1
        nxt_frontier = []
        for cur in frontier:
            for x in range(a.alphabet_size):
                row = bits[x]
                nxt = 0
                rem = cur
                while rem:
                    low = rem & -rem
                    nxt |= row[low.bit_length() - 1]
                    rem ^= low
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


def passwise_kernel_graph(g: Multigraph) -> Multigraph:
    """The kernel's degree reduction one pass at a time: each pass recounts
    every vertex's targets and deletes one edge from a maximum-multiplicity
    multiedge (ties to the smallest target, deleting its highest slot), down
    to max(t * (z - 1), t) edges.  The reference for `srcp.kernelize` at
    k < pin_bound(t), which counts once."""
    z = pin_bound(g.t)
    threshold = max(g.t * (z - 1), g.t)
    edges = [list(ts) for ts in g.out_edges]
    degree = len(edges[0])
    while degree > threshold:
        for row in edges:
            counts: dict[int, int] = {}
            for u in row:
                counts[u] = counts.get(u, 0) + 1
            target = max(counts.items(), key=lambda item: (item[1], -item[0]))[0]
            for slot in range(len(row) - 1, -1, -1):
                if row[slot] == target:
                    del row[slot]
                    break
        degree -= 1
    return Multigraph(g.t, tuple(tuple(row) for row in edges))


def per_letter_compose_tables(batch):
    """The guard-table composition built one letter at a time, one mapping
    call per state: the reference for `compose`, which writes each state's
    row at once.  Returns (delta, state_names, letter_names)."""
    t, m = batch.t, batch.m
    z = pin_bound(t)
    q = pattern_width(m)
    n_states = t + 1 + 2 * (z + 1) * (q + 1)
    sizes = [item.dfa.alphabet_size for item in batch.items]
    offsets = []
    cursor = 1
    for size in sizes:
        offsets.append(cursor)
        cursor += size - 1
    n_letters = cursor + m + t
    dead = t

    def guard(h, col, flag):
        return t + 1 + ((h * (q + 1) + col) * 2 + flag)

    delta = [[0] * n_letters for _ in range(n_states)]

    def set_letter(letter, on_base, on_guard):
        for s in range(n_states):
            if s == dead:
                delta[s][letter] = dead
            elif s < t:
                delta[s][letter] = on_base(s)
            else:
                h, rest = divmod(s - t - 1, 2 * (q + 1))
                delta[s][letter] = on_guard(h, rest // 2, rest % 2)

    set_letter(0, lambda s: s, lambda h, col, flag:
               guard(h + 1, col, flag) if 1 <= h <= z - 1 else guard(0, col, flag))

    for i in range(1, m + 1):
        item = batch.items[i - 1]
        inside = pattern_subset(i, m)
        for j in range(1, item.dfa.alphabet_size):
            def on_guard(h, col, flag, item=item, inside=inside):
                if 1 <= h <= item.d:
                    if flag == 0:
                        return guard(h + 1, col, 0) if col in inside else guard(0, col, 0)
                    return guard(h + 1, col, 1) if col not in inside else guard(0, col, 0)
                return guard(0, col, flag)
            set_letter(offsets[i - 1] + j - 1,
                       lambda s, item=item, j=j: item.dfa.delta[s][j], on_guard)

    for i in range(1, m + 1):
        pi_t, pi_f = pattern_functions(i, m)
        set_letter(cursor + i - 1, lambda s: s, lambda h, col, flag, pi_t=pi_t, pi_f=pi_f:
                   guard(1, pi_t[col], 0) if flag == 0 else guard(1, pi_f[col], 1))

    for s_bar in range(t):
        set_letter(cursor + m + s_bar, lambda s, s_bar=s_bar: dead if s == s_bar else s,
                   lambda h, col, flag: dead if h == z else guard(0, col, flag))

    state_names = [f"s{s + 1}" for s in range(t)] + ["D"]
    for h in range(z + 1):
        for col in range(q + 1):
            for flag in "TF":
                state_names.append(f"({h},{col},{flag})")
    letter_names = ["kappa"]
    for i in range(1, m + 1):
        letter_names += [f"x{i},{j}" for j in range(1, sizes[i - 1])]
    letter_names += [f"alpha{i}" for i in range(1, m + 1)]
    letter_names += [f"omega{s + 1}" for s in range(t)]
    return (tuple(map(tuple, delta)), tuple(state_names), tuple(letter_names))


def all_reset_words_upto(a: Dfa, max_len: int):
    full = a.full_set()
    out = []
    for length in range(max_len + 1):
        for word in product(range(a.alphabet_size), repeat=length):
            if len(apply_word(a, full, word)) == 1:
                out.append(word)
    return out


def oracle_first_indices(g: Multigraph, words) -> dict:
    """For each word, the index of the first coloring that synchronizes by it.

    One bitmask pass over the out-degree-2 colorings in the order of
    `coloring_from_index`; None for a word no coloring synchronizes by.
    """
    t = g.t
    e0 = [1 << ts[0] for ts in g.out_edges]
    e1 = [1 << ts[1] for ts in g.out_edges]
    full = (1 << t) - 1
    first: dict = {tuple(w): None for w in words}
    remaining = len(first)
    for c in range(1 << t):
        ta = [0] * t
        tb = [0] * t
        for v in range(t):
            if (c >> (t - 1 - v)) & 1:
                ta[v], tb[v] = e1[v], e0[v]
            else:
                ta[v], tb[v] = e0[v], e1[v]
        for w in first:
            if first[w] is not None:
                continue
            img = full
            for x in w:
                tab = ta if x == 0 else tb
                nxt = 0
                m = img
                while m:
                    low = m & -m
                    nxt |= tab[low.bit_length() - 1]
                    m ^= low
                img = nxt
            if img & (img - 1) == 0:
                first[w] = c
                remaining -= 1
        if not remaining:
            break
    return first


def oracle_word_memberships(g: Multigraph, words) -> dict:
    """For each word, does SOME coloring synchronize by it?"""
    return {w: i is not None for w, i in oracle_first_indices(g, words).items()}


def enumeration_srcp_oracle(g: Multigraph, k: int):
    """srcp_oracle one coloring at a time, with no cap: the first coloring in
    enumeration order with a reset word of length <= k, and its shortest
    reset word, or None.  The reference for the bit-sliced sweep."""
    for coloring in enumerate_colorings(g):
        word = shortest_reset_word(apply_coloring(g, coloring), limit=k)
        if word is not None:
            return coloring, word
    return None


def in_class_oracle(g: Multigraph, w) -> Optional[Coloring]:
    """First coloring in enumeration order with |delta(Q, w)| = 1, or None."""
    index = oracle_first_indices(g, [w])[tuple(w)]
    return None if index is None else coloring_from_index(g, index)


def enumerate_simple_cycle_lengths(g: Multigraph) -> set[int]:
    """All simple cycle lengths (vertices distinct except endpoints)."""
    lengths = set()
    t = g.t

    def walk(start: int, v: int, visited: frozenset, depth: int):
        for u in set(g.out_edges[v]):
            if u == start:
                lengths.add(depth + 1)
            elif u not in visited and depth + 1 < t:
                walk(start, u, visited | {u}, depth + 1)

    for s in range(t):
        walk(s, s, frozenset({s}), 0)
    return lengths
