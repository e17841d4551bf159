"""Seeded inputs, query lists and answer checks for the roadsync benchmark.

Each workload is built from one integer seed and is the union of two query
families: reset-compose = reset-deep + compose, coloring = srcp-sweep +
fixed-word.  Every instance is drawn from a family whose answer is known
without running roadsync, so every answer of every seed is checked:

* reset-deep: relabelled Cerny automata (shortest reset length (n-1)^2) and
  relabelled "t-cycle plus one merging letter" automata.  With the merge
  p -> p+d along the cycle such an automaton synchronizes iff gcd(d, t) = 1,
  and then its shortest reset length is (t-1)^2 - (t-2)(d-1); the formula was
  checked against the exact subset BFS for every t in 4..17 and every d.
* srcp-sweep: random admissible graphs from ``pool.json`` (base graphs whose
  SRCP answers were recorded once, see ``make_pool.py``) under a seeded vertex
  relabelling and slot swap, which preserves the answer; ring graphs with
  short chords, which no coloring resets in 4 letters (certified below); and
  3-SAT reduction graphs, whose answer is the formula's satisfiability.
* fixed-word: random admissible graphs certified to lie in no length-3 class,
  small graphs with a planted coloring that resets by a chosen length-3 word,
  and reduction graphs (no coloring of those resets in fewer than 4 letters).
* compose: batches of small random automata whose budgets are set from their
  own shortest reset lengths, so the composed answer is known; the batches
  are fixed and the seed permutes their states.

The program only ever receives the generated files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reset-compose", "coloring")
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Query:
    """One call of ``roadsync.cli.main``; ``check`` holds the known answer."""

    qid: str
    group: str
    argv: list[str]
    check: dict


@dataclass
class Inputs:
    files: dict[str, str] = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)
    # Run once per set-up, before timing; their answers are checked too.
    warmup: list[Query] = field(default_factory=list)

    def digest(self, workdir: str) -> str:
        """sha256 of every file and query, with the work directory left out."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        for q in self.warmup + self.queries:
            argv = [arg.replace(workdir, "{dir}") for arg in q.argv]
            h.update(json.dumps([q.qid, argv]).encode())
        return h.hexdigest()

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# Text formats (see the README of roadsync).

def dfa_text(delta: list[tuple[int, ...]]) -> str:
    return f"dfa {len(delta)} {len(delta[0])}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in delta)


def graph_text(edges: list[tuple[int, int]]) -> str:
    return f"graph {len(edges)} 2\n" + "".join(f"{a} {b}\n" for a, b in edges)


def batch_text(items: list[tuple[list[tuple[int, ...]], int]], t: int) -> str:
    lines = [f"batch {len(items)} {t}"]
    for delta, d in items:
        lines.append(f"item {d} {len(delta[0])}")
        lines.extend(" ".join(map(str, row)) for row in delta)
    return "\n".join(lines) + "\n"


def cnf_text(n: int, clauses: list[tuple[int, int, int]]) -> str:
    return f"p cnf {n} {len(clauses)}\n" + "".join(
        f"{a} {b} {c} 0\n" for a, b, c in clauses)


def parse_dfa_text(text: str) -> list[tuple[int, ...]]:
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    t, k = int(rows[0][1]), int(rows[0][2])
    delta = [tuple(int(x) for x in r) for r in rows[1:]]
    if len(delta) != t or any(len(r) != k for r in delta):
        raise ValueError("malformed dfa file")
    return delta


# --------------------------------------------------------------------------
# Independent helpers: image of a state set, exact-length reachability,
# admissibility, shortest reset length of tiny automata, 3-SAT by truth table.

def image(delta, states, word) -> set[int]:
    cur = set(states)
    for x in word:
        cur = {delta[s][x] for s in cur}
    return cur


def relabel_dfa(delta, perm, swap_letters: bool):
    out = [None] * len(delta)
    for s, row in enumerate(delta):
        row = tuple(perm[q] for q in row)
        out[perm[s]] = row[::-1] if swap_letters else row
    return out


def relabel_graph(edges, perm, swaps):
    out = [None] * len(edges)
    for v, (a, b) in enumerate(edges):
        pair = (perm[a], perm[b])
        out[perm[v]] = pair[::-1] if swaps[v] else pair
    return out


def exact_walk_targets(edges, k: int) -> int:
    """Bitmask of vertices that every vertex reaches by a walk of exactly k steps.

    A coloring with a reset word of length <= k also has one of length exactly
    k (pad the word), so an empty mask certifies that SRCP(g, k) is false.
    """
    t = len(edges)
    reach = [(1 << a) | (1 << b) for a, b in edges]
    for _ in range(k - 1):
        reach = [reach[a] | reach[b] for a, b in edges]
    common = (1 << t) - 1
    for r in reach:
        common &= r
    return common


def is_admissible_sc(edges) -> bool:
    """Strongly connected and aperiodic (gcd of cycle lengths is 1)."""
    t = len(edges)
    level = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in edges[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    if len(level) != t:
        return False
    preds = [[] for _ in range(t)]
    for u, (a, b) in enumerate(edges):
        preds[a].append(u)
        preds[b].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in preds[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    if len(seen) != t:
        return False
    period = 0
    for u in range(t):
        for v in edges[u]:
            period = gcd(period, abs(level[u] + 1 - level[v]))
    return period == 1


def tiny_shortest_reset(delta) -> Optional[int]:
    """Shortest reset length by BFS over subsets (only for a handful of states)."""
    t = len(delta)
    start = frozenset(range(t))
    depth = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            if len(s) == 1:
                return depth[s]
            for x in range(len(delta[0])):
                img = frozenset(delta[q][x] for q in s)
                if img not in depth:
                    depth[img] = depth[s] + 1
                    nxt.append(img)
        frontier = nxt
    return None


def satisfiable(n: int, clauses) -> bool:
    for bits in range(1 << n):
        if all(any((lit > 0) == bool((bits >> (abs(lit) - 1)) & 1) for lit in c)
               for c in clauses):
            return True
    return False


def pin_bound(t: int) -> int:
    return (t ** 3 - t) // 6


# --------------------------------------------------------------------------
# Instance families.

def cerny(n: int) -> list[tuple[int, int]]:
    return [((1 if i == 0 else i), (i + 1) % n) for i in range(n)]


def cycle_merge(t: int, d: int) -> list[tuple[int, int]]:
    """Letter a: the cycle i -> i+1; letter b: identity except 0 -> d."""
    return [((i + 1) % t, d if i == 0 else i) for i in range(t)]


def cycle_merge_length(t: int, d: int) -> Optional[int]:
    if gcd(d, t) != 1:
        return None
    return (t - 1) ** 2 - (t - 2) * (d - 1)


def random_admissible(rng: random.Random, t: int) -> list[tuple[int, int]]:
    """A Hamiltonian cycle on one slot plus a random second edge, slots shuffled."""
    while True:
        order = list(range(t))
        rng.shuffle(order)
        edges = [None] * t
        for i, v in enumerate(order):
            pair = (order[(i + 1) % t], rng.randrange(t))
            edges[v] = pair if rng.random() < 0.5 else pair[::-1]
        if is_admissible_sc(edges):
            return edges


def ring_chords(rng: random.Random, t: int) -> list[tuple[int, int]]:
    """v -> v+1 and v -> v+s with s in {1, 2, 3}: walks of length k cover at
    most 2k+1 residues, so for t > 3k no coloring resets in k letters."""
    while True:
        steps = [rng.choice((1, 2, 3)) for _ in range(t)]
        edges = [((v + 1) % t, (v + s) % t) for v, s in enumerate(steps)]
        perm = list(range(t))
        rng.shuffle(perm)
        edges = relabel_graph(edges, perm, [rng.random() < 0.5 for _ in range(t)])
        if is_admissible_sc(edges):
            return edges


def planted_word_graph(rng: random.Random, t: int, word: str) -> list[tuple[int, int]]:
    """Out-degree-2 graph with a coloring under which ``word`` (a..., length 3)
    maps every vertex to one target q.

    Letter a sends every vertex into a 4-set R; R and a 2-set S carry the
    remaining two letters to q; the free b-edges form a path through the
    other vertices so that the graph is strongly connected.
    """
    while True:
        vs = list(range(t))
        rng.shuffle(vs)
        q, s_set, r_set = vs[0], vs[1:3], vs[3:7]
        a: dict[int, int] = {}
        b: dict[int, int] = {}
        if word == "abb":
            for r in r_set:
                b[r] = rng.choice(s_set)
            for s in s_set:
                b[s] = q
        elif word == "aab":
            s_set = r_set[:2]
            for r in r_set:
                a[r] = rng.choice(s_set)
            for s in s_set:
                b[s] = q
        elif word == "aba":
            r_set = [q] + r_set[:3]
            for r in r_set:
                b[r] = rng.choice(s_set)
            for s in s_set:
                a[s] = q
        else:
            raise ValueError(word)
        for v in range(t):
            a.setdefault(v, rng.choice(r_set))
        # Every a-edge enters R, and R reaches S and q.  The free b-edges form
        # one path that starts inside R, S or q and ends in R, so every vertex
        # is reachable from every other one.
        core = set(r_set) | set(s_set) | {q}
        free = [v for v in range(t) if v not in b]
        rng.shuffle(free)
        chain = sorted(free, key=lambda v: v not in core)
        for u, v in zip(chain, chain[1:]):
            b[u] = v
        b[chain[-1]] = rng.choice(r_set)
        edges = []
        for v in range(t):
            pair = (a[v], b[v])
            edges.append(pair if rng.random() < 0.5 else pair[::-1])
        coloring_ok = len(image({v: (a[v], b[v]) for v in range(t)}, range(t),
                                [LETTERS.index(x) for x in word])) == 1
        if coloring_ok and is_admissible_sc(edges):
            return edges


def reduction_graph(n: int, clauses) -> list[tuple[int, int]]:
    """The 3-SAT reduction graph on 5m + 3n + 8 vertices, built from the
    gadget layout the roadsync documentation gives (D block, variable blocks,
    clause blocks); every variable must occur positively."""
    m = len(clauses)
    t = 5 * m + 3 * n + 8
    first_c0 = 8 + 3 * n
    edges = [(1, 1), (2, 2), (3, 6), (4, 6), (5, 2), (4, 6), (3, 7), (first_c0, 0)]
    for var in range(1, n + 1):
        x = 8 + 3 * (var - 1)
        edges += [(x + 1, 4), (x + 2, 4), (x + 1, 4)]
    for j, clause in enumerate(clauses):
        c = first_c0 + 5 * j
        nxt = first_c0 + 5 * ((j + 1) % m)
        lit = [8 + 3 * (abs(v) - 1) + (1 if v < 0 else 0) for v in clause]
        edges += [(c + 1, c + 2), (lit[0], lit[1]), (lit[2], c + 3), (4, c + 4), (nxt, 5)]
    assert len(edges) == t
    return edges


def random_cnf(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    """Random 3-CNF; tautology clauses (x, -x, -x) give every variable a
    positive occurrence, as the reduction requires."""
    clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
               for _ in range(m)]
    positive = {v for c in clauses for v in c if v > 0}
    clauses += [(v, -v, -v) for v in range(1, n + 1) if v not in positive]
    return clauses


def random_dfa(rng: random.Random, t: int):
    """A uniformly random two-letter automaton on t states."""
    return [(rng.randrange(t), rng.randrange(t)) for _ in range(t)]


def load_pool() -> dict:
    return json.loads((HERE / "pool.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Query families.  Every family keeps its cost groups apart and of fixed
# size, so the median and the tail rank (the 11th slowest query) of each
# workload fall at the same place on every seed: in reset-compose among n14
# and at the top of n15 / verify-m1, in coloring among t14k4 / t400-w and at
# the bottom of the 0.2 s to 0.3 s sweeps.

class _Builder:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.rng = random.Random(f"{workload}:{seed}")
        self.dir = workdir
        self.inputs = Inputs()
        self.count = 0

    def file(self, stem: str, text: str) -> str:
        name = f"{stem}-{len(self.inputs.files)}.txt"
        self.inputs.files[name] = text
        return str(self.dir / name)

    def query(self, group: str, argv: list[str], check: dict, warmup: bool = False) -> None:
        self.count += 1
        q = Query(f"q{self.count:03d}-{group}", group, ["--json"] + argv, check)
        (self.inputs.warmup if warmup else self.inputs.queries).append(q)


def _dfa_queries(b: _Builder, group: str, delta, length: Optional[int], *,
                 check: bool, limit: Optional[int] = None, warmup: bool = False) -> None:
    perm = list(range(len(delta)))
    b.rng.shuffle(perm)
    delta = relabel_dfa(delta, perm, b.rng.random() < 0.5)
    path = b.file("dfa", dfa_text(delta))
    argv = ["sync", "shortest", "--in", path]
    if limit is not None:
        argv += ["--limit", str(limit)]
    b.query(group, argv, {"kind": "shortest", "delta": delta, "length": length,
                          "limit": limit}, warmup)
    if check:
        b.query("check", ["sync", "check", "--in", path],
                {"kind": "bool", "answer": length is not None}, warmup)


def build_reset_deep(b: _Builder, smoke: bool) -> None:
    _dfa_queries(b, "n6", cerny(6), 25, check=True, warmup=True)
    if smoke:
        _dfa_queries(b, "n10", cerny(10), 81, check=True)
        _dfa_queries(b, "n10", cycle_merge(10, 3), cycle_merge_length(10, 3), check=True)
        _dfa_queries(b, "n10", cycle_merge(10, 2), None, check=True)
        _dfa_queries(b, "n10", cerny(10), None, check=False, limit=70)
        return
    rng = b.rng
    coprime = {t: [d for d in range(1, t) if gcd(d, t) == 1] for t in range(12, 17)}
    halved = {t: [d for d in range(2, t, 2) if gcd(d, t) == 2] for t in (12, 16)}

    def merge(t: int, group: str, sync: bool = True, check: bool = False) -> None:
        d = rng.choice(coprime[t] if sync else halved[t])
        _dfa_queries(b, group, cycle_merge(t, d), cycle_merge_length(t, d), check=check)

    # Cost doubles with each state, so the groups n12..n17 are well apart.
    _dfa_queries(b, "n12", cerny(12), 121, check=True)
    for _ in range(2):
        merge(12, "n12", sync=False, check=True)
    _dfa_queries(b, "n13", cerny(13), 144, check=False)
    for i in range(2):
        merge(13, "n13", check=i == 0)
    _dfa_queries(b, "n14", cerny(14), 169, check=True)
    for _ in range(7):
        merge(14, "n14")
    _dfa_queries(b, "n15", cerny(15), 196, check=False)
    for _ in range(7):
        merge(15, "n15")
    _dfa_queries(b, "n16", cerny(16), 225, check=False)
    for _ in range(2):
        merge(16, "n16")
    merge(16, "n16", sync=False, check=True)
    _dfa_queries(b, "n16", cerny(16), None, check=False, limit=225 - rng.randint(1, 30))
    _dfa_queries(b, "n17", cerny(17), 256, check=False)
    _dfa_queries(b, "n17", cerny(17), None, check=False, limit=256 - rng.randint(1, 30))


def _graph_file(b: _Builder, edges) -> str:
    return b.file("graph", graph_text(edges))


def build_srcp_sweep(b: _Builder, smoke: bool) -> None:
    rng = b.rng
    pool = load_pool()

    def pooled(t: int, k: int, group: str, warmup: bool = False) -> None:
        base = rng.choice(pool[str(t)])
        perm = list(range(t))
        rng.shuffle(perm)
        edges = relabel_graph(base["edges"], perm, [rng.random() < 0.5 for _ in range(t)])
        b.query(group, ["srcp", "decide", "--in", _graph_file(b, edges), "--k", str(k)],
                {"kind": "bool", "answer": base["srcp"][str(k)]}, warmup)

    def ring(t: int, k: int) -> None:
        edges = ring_chords(rng, t)
        if exact_walk_targets(edges, k):
            raise RuntimeError(f"ring graph t={t} is not certified to fail k={k}")
        b.query(f"t{t}k{k}", ["srcp", "decide", "--in", _graph_file(b, edges), "--k", str(k)],
                {"kind": "bool", "answer": False})

    def reduction(n: int, m: int, verify: bool) -> None:
        # Resample until satisfiable and free of added tautologies, so that t
        # is 5m + 3n + 8.  An unsatisfiable reduction graph needs n = 1, m = 2
        # (t = 21) and a full sweep of 2^21 colorings, about 10 s per query.
        while True:
            clauses = random_cnf(rng, n, m)
            if len(clauses) == m and satisfiable(n, clauses):
                break
        edges = reduction_graph(n, clauses)
        t = len(edges)
        b.query(f"red-t{t}", ["srcp", "decide", "--in", _graph_file(b, edges), "--k", "4"],
                {"kind": "bool", "answer": True})
        if verify:
            path = b.file("cnf", cnf_text(n, clauses))
            b.query(f"sat-t{t}", ["verify", "sat-reduce", "--in", path],
                    {"kind": "sat_reduce", "satisfiable": True})

    pooled(10, 4, "warm", warmup=True)
    if smoke:
        pooled(10, 4, "t10k4")
        ring(13, 4)
        reduction(1, 1, verify=True)
        return
    # A sweep at t <= 16 is one chunk whatever the answer, so each (t, k)
    # costs the same on every seed.
    for t, k, count in ((14, 4, 8), (14, 5, 4), (15, 4, 7), (14, 6, 1), (15, 5, 4),
                        (16, 4, 1)):
        for _ in range(count):
            pooled(t, k, f"t{t}k{k}")
    for n, m in ((1, 1), (2, 1), (1, 2)):
        reduction(n, m, verify=(n, m) != (2, 1))
    ring(17, 4)
    ring(18, 4)


def build_fixed_word(b: _Builder, smoke: bool) -> None:
    rng = b.rng

    def certified_no(t: int) -> list[tuple[int, int]]:
        while True:
            edges = random_admissible(rng, t)
            if exact_walk_targets(edges, 3) == 0:
                return edges

    def all_no(edges, group: str, decide: bool = True) -> None:
        path = _graph_file(b, edges)
        b.query(group, ["srcp", "k3", "--in", path], {"kind": "bool", "answer": False})
        if decide:
            b.query(group, ["srcp", "decide", "--k", "3", "--in", path],
                    {"kind": "bool", "answer": False})
        for w in ("aab", "aba", "abb"):
            b.query(f"{group}-w", ["srcpw", "decide", "--word", w, "--in", path],
                    {"kind": "bool", "answer": False})

    def planted(t: int, word: str, warmup: bool = False) -> None:
        # Planted graphs stay small.  From t = 100 on, the search of
        # fixed_word_coloring, which has no work budget, runs for minutes on
        # about 3% of them; at t <= 24 it took at most 30 ms on 3000 graphs.
        edges = planted_word_graph(rng, t, word)
        b.query(f"yes-t{t}-w", ["srcpw", "decide", "--word", word, "--in", _graph_file(b, edges)],
                {"kind": "colored", "edges": edges, "word": word}, warmup)

    def reduction(n: int, m: int) -> None:
        while True:
            clauses = random_cnf(rng, n, m)
            if len(clauses) == m:
                break
        all_no(reduction_graph(n, clauses), f"k3-red-t{5 * m + 3 * n + 8}")

    planted(20, "abb", warmup=True)
    if smoke:
        all_no(certified_no(40), "t40")
        planted(24, rng.choice(("aab", "aba", "abb")))
        reduction(2, 3)
        return
    # Every srcp k3 query here answers no, so it evaluates all four classes.
    for n, m in ((1, 2), (2, 4), (4, 8)):
        reduction(n, m)
    for t, count in ((100, 3), (200, 3), (400, 1)):
        for _ in range(count):
            all_no(certified_no(t), f"t{t}")
    all_no(certified_no(800), "t800", decide=False)
    for word in ("aab", "aba", "abb"):
        planted(24, word)


def build_compose(b: _Builder, smoke: bool) -> None:
    rng = b.rng

    def batch(t: int, m: int, want: bool, base: str):
        """m random two-letter items whose budgets make the answer ``want``.

        Items come from the fixed base ``base``; the seed only permutes the
        states, which changes neither the answer nor the work.  (The BFS and
        verification cost of independent random batches varies by about 25%
        from batch to batch.)
        """
        brng = random.Random(f"compose-base:{base}")
        z = pin_bound(t)
        while True:
            items = []
            for _ in range(m):
                delta = random_dfa(brng, t)
                length = tiny_shortest_reset(delta)
                top = z - 1 if length is None else min(length - 1, z - 1)
                items.append([delta, brng.randint(0, max(top, 0)), length])
            hits = [it for it in items if it[2] is not None and it[2] < z]
            if not want or hits:
                break
        if want:
            hit = brng.choice(hits)
            hit[1] = hit[2]
        perm = list(range(t))
        rng.shuffle(perm)
        return [(relabel_dfa(delta, perm, False), d) for delta, d, _ in items]

    def answer(items) -> bool:
        return any((length := tiny_shortest_reset(delta)) is not None and length <= d
                   for delta, d in items)

    def gen(t: int, m: int, i: int, group: str, warmup: bool = False) -> None:
        items = batch(t, m, i % 2 == 0, f"gen:{t}:{m}:{i}")
        path = b.file("batch", batch_text(items, t))
        q = (m + 1).bit_length() - 1
        states = t + 1 + 2 * (pin_bound(t) + 1) * (q + 1)
        letters = 1 + sum(len(delta[0]) for delta, _ in items) + m + t
        out = b.file("composed-out", "")
        b.query(group, ["gen", "compose", "--batch", path, "--out", out],
                {"kind": "composed", "states": states, "letters": letters, "out": out},
                warmup)

    def shortest(t: int, m: int, i: int) -> None:
        items = batch(t, m, i % 2 == 0, f"short:{t}:{m}:{i}")
        path = b.file("batch", batch_text(items, t))
        out = b.file("composed", "")
        d_prime = pin_bound(t) + 1
        # The composed automaton is written during set-up by this warm-up query.
        gen_q = Query(f"setup-{Path(out).name}", "gen",
                      ["--json", "gen", "compose", "--batch", path, "--out", out],
                      {"kind": "composed", "states": None, "letters": None, "out": out})
        b.inputs.warmup.append(gen_q)
        b.query(f"short-m{m}", ["sync", "shortest", "--limit", str(d_prime), "--in", out],
                {"kind": "composed_shortest", "answer": answer(items), "length": d_prime,
                 "file": out})

    def verify(m: int) -> None:
        # One base batch per m, so the verify-m1 queries, next to the tail
        # rank, all cost the same.
        items = batch(3, m, True, f"verify:{m}")
        path = b.file("batch", batch_text(items, 3))
        b.query(f"verify-m{m}", ["verify", "compose", "--batch", path],
                {"kind": "verify_compose"})

    gen(3, 2, 0, "warm", warmup=True)
    if smoke:
        gen(4, 12, 0, "gen-t4")
        shortest(3, 2, 0)
        verify(1)
        return
    for i in range(10):
        gen(4, 12, i, "gen-t4")
    for i in range(12):
        gen(5, 28, i, "gen-t5")
    for i in range(6):
        shortest(4, 4, i)
    for _ in range(8):
        verify(1)
    verify(2)
    for i in range(2):
        shortest(4, 8, i)


# Two workloads of two families each, so that one 55 s run spans several of
# the host's fast and slow phases (see README.md).
BUILDERS = {
    "reset-compose": (build_reset_deep, build_compose),
    "coloring": (build_srcp_sweep, build_fixed_word),
}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> Inputs:
    b = _Builder(workload, seed, workdir)
    for family in BUILDERS[workload]:
        family(b, smoke)
    return b.inputs


# --------------------------------------------------------------------------
# Answer checks.  ``result`` is the parsed --json object of one query.

def check_answer(q: Query, code: int, result: Optional[dict]) -> Optional[str]:
    """None when the answer is right, else a short reason."""
    if code != 0:
        return f"exit code {code}"
    if result is None:
        return "no JSON answer"
    c = q.check
    ans = result.get("answer")
    kind = c["kind"]
    if kind == "bool":
        return None if ans is c["answer"] else f"answer {ans!r}, expected {c['answer']!r}"
    if kind == "shortest":
        if c["length"] is None:
            if ans != "NONE":
                return f"answer {ans!r}, expected NONE"
            if c["limit"] is None and _roadsync_is_synchronizing(c["delta"]):
                return "NONE but is_synchronizing says yes"
            return None
        return _check_word(c["delta"], result, c["length"])
    if kind == "composed_shortest":
        if not c["answer"]:
            return None if ans == "NONE" else f"answer {ans!r}, expected NONE"
        delta = parse_dfa_text(Path(c["file"]).read_text(encoding="utf-8"))
        return _check_word(delta, result, c["length"])
    if kind == "colored":
        if ans is not True:
            return f"answer {ans!r}, expected True"
        slots = result.get("witness_coloring")
        word = [LETTERS.index(x) for x in c["word"]]
        edges = c["edges"]
        # slot_letters[v][s] is the letter of slot s, so delta(v, letter) is
        # the target of the slot carrying that letter.
        try:
            delta = [tuple(edges[v][slots[v].index(x)] for x in (0, 1))
                     for v in range(len(edges))]
        except (TypeError, ValueError, IndexError):
            return "malformed witness coloring"
        if len(image(delta, range(len(edges)), word)) != 1:
            return "witness coloring does not reset by the word"
        return None
    if kind == "composed":
        if not isinstance(ans, int) or isinstance(ans, bool):
            return f"answer {ans!r}, expected a state count"
        head = Path(c["out"]).read_text(encoding="utf-8").split("\n", 1)[0].split()
        expected = ["dfa", str(c["states"]), str(c["letters"])]
        if c["states"] is not None and (ans != c["states"] or head != expected):
            return f"composed automaton header {head}, expected {expected}"
        return None
    if kind == "sat_reduce":
        rep = result.get("report") or {}
        if ans is not True or rep.get("satisfiable") is not c["satisfiable"]:
            return f"verify sat-reduce gave {ans!r} / {rep}"
        return None
    if kind == "verify_compose":
        rep = result.get("report") or {}
        if ans is not True or not all(rep.get(k) for k in (
                "c1_no_short_reset", "c2_all_shaped", "c3_assembled_words_reset")):
            return f"verify compose gave {ans!r} / {rep}"
        return None
    raise ValueError(f"unknown check kind {kind}")


def _check_word(delta, result: dict, length: int) -> Optional[str]:
    ans = result.get("answer")
    if ans != length:
        return f"length {ans!r}, expected {length}"
    text = result.get("witness_word") or ""
    k = len(delta[0])
    word = ([LETTERS.index(ch) for ch in text] if k <= 26
            else [int(tok) for tok in text.split()])
    if len(word) != length or len(image(delta, range(len(delta)), word)) != 1:
        return "witness word does not reset the automaton"
    return None


def _roadsync_is_synchronizing(delta) -> bool:
    from roadsync.automata import Dfa
    from roadsync.syncsolve import is_synchronizing

    return is_synchronizing(Dfa(len(delta), len(delta[0]), tuple(map(tuple, delta))))

