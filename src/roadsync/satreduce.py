"""3-SAT to synchronizing-road-coloring reduction at word length 4.

Builds, for a 3-CNF formula with a positive occurrence of every variable, a
uniform out-degree-2 multigraph on 5m+3n+8 vertices that admits a coloring
synchronizing in at most 4 letters iff the formula is satisfiable.  The only
reset words of length 4 are a b a a up to swapping the two letters, and the
synchronization target is always the hub vertex D4.

Gadget layout (vertex order: D block, then variable blocks, then clause blocks):

  D block (8 vertices): a funnel D2 -> D3 -> D4 <-> D5 plus a doubled-edge
  clock D0 => D1 => D2 and a return path D6 -> D7 -> first clause entry.
  D4 has no 3-step path from D0, D6 or D7, which forces every edge into
  those vertices to carry the second letter; the clock's unique viable
  4-step paths then force the reset word a b a a once the target is D4.

  Variable block (x, xbar, w): x -> {xbar, D4}, xbar -> {w, D4}, w -> {xbar, D4}.
  A coloring can give x a two-step all-a path to D4 only via a(x)=xbar,
  a(xbar)=D4, and xbar such a path only via a(xbar)=w, a(w)=D4; the shared
  edge function at xbar makes the two requirements mutually exclusive, which
  is the consistency mechanism of the whole reduction.

  Clause block (c0..c4): c0 -> {c1, c2}, c1 -> {lit1, lit2}, c2 -> {lit3, c3},
  c3 -> {D4, c4}, c4 -> {next c0, D5}.  The two-step cone of c0 contains only
  literal vertices and c3, and c3 never has a two-step all-a path to D4, so a
  short reset word must route c0 through a literal that can still reach D4 in
  two a-steps - which is exactly a satisfied one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .automata import _ints, apply_word
from .errors import InvalidInputError, SizeLimitError
from .graphs import (
    Coloring,
    Multigraph,
    apply_coloring,
    is_strongly_connected,
)
from .srcp import srcp_oracle

Literal = tuple[int, bool]  # (variable index 1..n, negated)
Clause = tuple[Literal, Literal, Literal]

# sat_oracle tries all 2^n assignments; beyond this it is refused.
SAT_ORACLE_VAR_CAP = 25
# parse_dimacs refuses a header whose reduction graph could pass this many
# states: augment_tautologies adds up to n clauses, and build_reduction builds
# 5 vertices per clause and 3 per variable, plus 8.
REDUCTION_STATE_CAP = 10 ** 6


@dataclass(frozen=True)
class Cnf3:
    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if len(clause) != 3:
                raise InvalidInputError("every clause needs exactly 3 literals")
            for var, _ in clause:
                if not 1 <= var <= self.n:
                    raise InvalidInputError(f"variable {var} out of range 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.n:
            raise InvalidInputError("assignment length must equal variable count")
        for clause in self.clauses:
            if not any(assignment[var - 1] != neg for var, neg in clause):
                return False
        return True


def parse_dimacs(text: str) -> Cnf3:
    """DIMACS-style input: `p cnf n m`, then m lines of 3 signed ints and a 0;
    a header whose reduction could pass REDUCTION_STATE_CAP states is refused."""
    n = None
    expected = None
    clauses: list[Clause] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InvalidInputError("malformed DIMACS header")
            n, expected = _ints(parts[2:], "DIMACS header")
            if 5 * (expected + n) + 3 * n + 8 > REDUCTION_STATE_CAP:
                raise SizeLimitError(
                    f"DIMACS header p cnf {n} {expected} could need more than "
                    f"{REDUCTION_STATE_CAP} reduction states")
            continue
        if n is None:
            raise InvalidInputError("clause before DIMACS header")
        nums = _ints(line.split(), "clause")
        if len(nums) != 4 or nums[3] != 0:
            raise InvalidInputError("each clause line needs 3 literals and a terminating 0")
        clause = tuple((abs(v), v < 0) for v in nums[:3])
        clauses.append(clause)  # type: ignore[arg-type]
    if n is None:
        raise InvalidInputError("missing DIMACS header")
    if expected is not None and expected != len(clauses):
        raise InvalidInputError("clause count does not match header")
    return Cnf3(n, tuple(clauses))


def write_dimacs(f: Cnf3) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    for clause in f.clauses:
        lines.append(" ".join(str(-var if neg else var) for var, neg in clause) + " 0")
    return "\n".join(lines) + "\n"


def augment_tautologies(f: Cnf3) -> Cnf3:
    """Append (x or not-x or not-x) for every variable lacking a positive occurrence.

    Output is equisatisfiable and guarantees the strong-connectivity
    precondition of build_reduction; original clause indices are preserved.
    """
    positive = set()
    for clause in f.clauses:
        for var, neg in clause:
            if not neg:
                positive.add(var)
    extra: list[Clause] = []
    for var in range(1, f.n + 1):
        if var not in positive:
            extra.append(((var, False), (var, True), (var, True)))
    return Cnf3(f.n, f.clauses + tuple(extra))


@dataclass(frozen=True)
class ReductionLayout:
    """Vertex numbering of the reduction graph; the only place that owns it."""

    n: int
    m: int

    # D block occupies vertices 0..7.
    def d(self, i: int) -> int:
        return i

    def x(self, var: int) -> int:
        return 8 + 3 * (var - 1)

    def xbar(self, var: int) -> int:
        return self.x(var) + 1

    def w(self, var: int) -> int:
        return self.x(var) + 2

    def clause(self, j: int, r: int) -> int:
        return 8 + 3 * self.n + 5 * (j - 1) + r

    def literal_vertex(self, lit: Literal) -> int:
        var, neg = lit
        return self.xbar(var) if neg else self.x(var)


@dataclass(frozen=True)
class ReductionGraph(ReductionLayout):
    graph: Multigraph
    names: tuple[str, ...]


def build_reduction(f: Cnf3) -> ReductionGraph:
    """Construct the reduction graph; requires a positive occurrence of each variable."""
    positive = {var for clause in f.clauses for var, neg in clause if not neg}
    missing = [v for v in range(1, f.n + 1) if v not in positive]
    if missing:
        raise InvalidInputError(
            f"variables {missing} lack a positive occurrence; run augment_tautologies first"
        )
    n, m = f.n, f.m
    if m < 1:
        raise InvalidInputError("need at least one clause")
    lay = ReductionLayout(n, m)
    D = lay.d
    t = 5 * m + 3 * n + 8
    edges: list[tuple[int, int]] = [(0, 0)] * t
    edges[D(0)] = (D(1), D(1))
    edges[D(1)] = (D(2), D(2))
    edges[D(2)] = (D(3), D(6))
    edges[D(3)] = (D(4), D(6))
    edges[D(4)] = (D(5), D(2))
    edges[D(5)] = (D(4), D(6))
    edges[D(6)] = (D(3), D(7))
    edges[D(7)] = (lay.clause(1, 0), D(0))
    names = [f"D{i}" for i in range(8)]

    for var in range(1, n + 1):
        x, xbar, w = lay.x(var), lay.xbar(var), lay.w(var)
        edges[x] = (xbar, D(4))
        edges[xbar] = (w, D(4))
        edges[w] = (xbar, D(4))
        names.extend((f"x{var}", f"~x{var}", f"W{var}"))

    for j in range(1, m + 1):
        c = [lay.clause(j, r) for r in range(5)]
        lit = [lay.literal_vertex(literal) for literal in f.clauses[j - 1]]
        edges[c[0]] = (c[1], c[2])
        edges[c[1]] = (lit[0], lit[1])
        edges[c[2]] = (lit[2], c[3])
        edges[c[3]] = (D(4), c[4])
        edges[c[4]] = (lay.clause(j % m + 1, 0), D(5))
        names.extend(f"C{j},{r}" for r in range(5))

    return ReductionGraph(n, m, Multigraph(t, tuple(edges)), tuple(names))


# The intended reset word: letters a=0, b=1.
RESET_WORD = (0, 1, 0, 0)

# Canonical slot->letter tables.  Slot layout is fixed by build_reduction; a
# pair (p, q) below says slot 0 carries letter p and slot 1 carries letter q.
_A_FIRST = (0, 1)
_B_FIRST = (1, 0)


def extract_coloring(rg: ReductionGraph, assignment: Sequence[bool]) -> Coloring:
    """Coloring under which a b a a synchronizes the graph at D4.

    Clause routing picks the first satisfied literal; variable blocks are
    colored by truth value; the D block has its single valid coloring.
    """
    if len(assignment) != rg.n:
        raise InvalidInputError("assignment length must equal variable count")
    g = rg.graph
    slots: list[tuple[int, int]] = [(0, 1)] * g.t

    # D block: slot 0 is the funnel edge everywhere.
    for i in range(8):
        slots[rg.d(i)] = _A_FIRST

    # Variable blocks, and the truth value of every literal vertex.
    truth: dict[int, bool] = {}
    for var in range(1, rg.n + 1):
        x, xbar, w = rg.x(var), rg.xbar(var), rg.w(var)
        value = truth[x] = assignment[var - 1]
        truth[xbar] = not value
        if value:
            slots[x] = _A_FIRST           # a -> xbar, b -> D4
            slots[xbar] = _B_FIRST        # a -> D4, b -> w
            slots[w] = _A_FIRST           # a -> xbar, b -> D4
        else:
            slots[x] = _B_FIRST           # a -> D4, b -> xbar
            slots[xbar] = _A_FIRST        # a -> w,  b -> D4
            slots[w] = _B_FIRST           # a -> D4, b -> xbar

    for j in range(1, rg.m + 1):
        c0, c1, c2, c3, c4 = (rg.clause(j, r) for r in range(5))
        lit1, lit2 = g.out_edges[c1]
        lit3 = g.out_edges[c2][0]
        sat = [truth[v] for v in (lit1, lit2, lit3)]
        if not any(sat):
            raise InvalidInputError(f"assignment does not satisfy clause {j}")
        slots[c2] = _B_FIRST              # a -> c3, b -> lit3 (constant)
        slots[c3] = _A_FIRST              # a -> D4, b -> c4 (constant)
        slots[c4] = _B_FIRST              # a -> D3, b -> next entry (constant)
        if sat[0]:
            slots[c0] = _A_FIRST          # a -> c1
            slots[c1] = _B_FIRST          # b -> lit1, a -> lit2
        elif sat[1]:
            slots[c0] = _A_FIRST
            slots[c1] = _A_FIRST          # b -> lit2, a -> lit1
        else:
            slots[c0] = _B_FIRST          # a -> c2, b -> c1
            slots[c1] = _A_FIRST          # a -> lit1 (unsatisfied, points at D4)

    coloring = Coloring(tuple(slots))
    dfa = apply_coloring(g, coloring)
    image = apply_word(dfa, dfa.full_set(), RESET_WORD)
    if image != frozenset({rg.d(4)}):
        raise RuntimeError("canonical coloring failed to synchronize at D4")
    return coloring


def sat_oracle(f: Cnf3) -> Optional[tuple[bool, ...]]:
    """Truth-table search; returns the least satisfying assignment in binary
    order (variable 1 is the least significant bit), or None."""
    if f.n > SAT_ORACLE_VAR_CAP:
        raise SizeLimitError(f"sat_oracle capped at {SAT_ORACLE_VAR_CAP} variables")
    for bits in range(1 << f.n):
        assignment = tuple(bool((bits >> i) & 1) for i in range(f.n))
        if f.satisfied_by(assignment):
            return assignment
    return None


@dataclass(frozen=True)
class ReductionReport:
    satisfiable: bool
    srcp_yes: bool
    equivalent: bool
    size_ok: bool
    degree_ok: bool
    strongly_connected: bool
    witness_checked: bool

    @property
    def ok(self) -> bool:
        return (self.equivalent and self.size_ok and self.degree_ok
                and self.strongly_connected
                and (self.witness_checked or not self.satisfiable))


def verify_reduction(f: Cnf3) -> ReductionReport:
    """Check SAT <=> SRCP(G, 4) by brute force, plus the structural contracts."""
    augmented = augment_tautologies(f)
    rg = build_reduction(augmented)
    # First, so that the sweep cap refuses a large graph before any work.
    witness = srcp_oracle(rg.graph, 4)
    assignment = sat_oracle(f)

    witness_checked = False
    if assignment is not None:
        coloring = extract_coloring(rg, assignment)
        dfa = apply_coloring(rg.graph, coloring)
        witness_checked = apply_word(dfa, dfa.full_set(), RESET_WORD) == frozenset({rg.d(4)})

    return ReductionReport(
        satisfiable=assignment is not None,
        srcp_yes=witness is not None,
        equivalent=(assignment is None) == (witness is None),
        size_ok=rg.graph.t == 5 * rg.m + 3 * rg.n + 8,
        degree_ok=rg.graph.out_degree == 2,
        strongly_connected=is_strongly_connected(rg.graph),
        witness_checked=witness_checked,
    )


def reduction_names_json(rg: ReductionGraph) -> dict:
    return {"states": {str(i): rg.names[i] for i in range(rg.graph.t)}}
