"""Synchronizing-road-coloring decisions: brute-force oracle, shortcuts, kernel.

srcp_decide answers every k through srcp_exists_by_patterns, which runs the
fixed-word search over the pattern words and never enumerates colorings.
Only when that refuses does it ask srcp_oracle, the ground truth everything
else is validated against: it walks every coloring in enumeration order and
asks for a reset word of length <= k.
A numpy sweep accelerates the out-degree-2 case without changing the sequential
first-witness semantics.  It rests on two facts:

- Color-swap symmetry.  With out-degree 2, flipping every digit of a coloring
  index swaps the letters a and b, so colorings i and 2^t - 1 - i have the same
  reset lengths; only the 2^(t-1) colorings of the lower half are evaluated.
- Padding.  A singleton image stays a singleton, so a reset word of length
  <= k extends to one of length exactly k; only the 2^k words of length k are
  tested, walked depth-first with one image per depth.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .automata import Word
from .errors import InvalidInputError, SizeLimitError
from .graphs import (
    Coloring,
    Multigraph,
    apply_coloring,
    coloring_count,
    coloring_from_index,
    enumerate_colorings,
    is_admissible,
    is_aperiodic,
    out_degree_uniform,
)
from .srcpw import SEARCH_NODE_BUDGET, first_word_coloring
from .syncsolve import pin_bound, shortest_reset_word

# The numpy sweep's work, 2^(t-1) colorings times 2^k words, is refused past
# this.  At 0.75-1.23 M colorings/s at k = 4 that is at most about 55-90 s
# (t = 27); it admits t <= 26 at k = 5 and t <= 23 at k = 8.
SWEEP_WORK_CAP = 1 << 30
# Colorings that srcp_oracle tries one at a time, one reset-word search each
# (30 to 90 us per coloring at t = 6..12), are refused beyond this many: about
# half a minute of work.  SWEEP_WORK_CAP sizes the numpy sweep instead.
ORACLE_ENUMERATION_CAP = 1 << 19
_SWEEP_CHUNK = 1 << 13
# The vectorized sweep walks the 2^k words of length k depth-first, one image
# array per depth (O(k * chunk) memory) and 2^(k+1) - 2 steps per chunk; the
# per-coloring search takes over beyond this depth.
_SWEEP_WORD_DEPTH_CAP = 8


def _step_tables(e0: np.ndarray, e1: np.ndarray, t: int) -> np.ndarray:
    """Flat int64 lookup tables for one letter-a step, 256 rows per vertex group.

    Inside the kernel vertex v is bit t-1-v of an image, the same bit that
    holds its digit in a coloring index, so group g covers bits 4g..4g+3 of
    both.  Row g*256 + (D << 4 | A) is the image of the active vertices A
    under letter a when their digits are D.  Letter a takes slot 0 where the
    digit is 0, so letter b is the same lookup with D complemented.
    """
    groups = -(-t // 4)
    # by_bit(e)[g, j] is e of the vertex at bit 4g+j; valid masks out the
    # padding bits past t.
    valid = (np.arange(groups * 4) < t).reshape(groups, 4, 1)

    def by_bit(e: np.ndarray) -> np.ndarray:
        padded = np.zeros(groups * 4, dtype=np.int64)
        padded[:t] = e[::-1]
        return padded.reshape(groups, 4, 1)

    rows = np.arange(256, dtype=np.int64)
    j = np.arange(4, dtype=np.int64)[:, None]
    targets = np.where((rows >> (4 + j)) & 1, by_bit(e1), by_bit(e0))
    images = np.left_shift(1, t - 1 - targets) * (((rows >> j) & 1) * valid)
    return np.bitwise_or.reduce(images, axis=1).ravel()


def _sync_mask_chunk(e0: np.ndarray, e1: np.ndarray, t: int, k: int,
                     idx: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Boolean array: which coloring indices admit a reset word of length <= k.

    Colorings are packed into idx (int64) with vertex 0 as the most
    significant bit; bit 0 means slot 0 carries letter a.  The words of
    length exactly k are walked depth-first with one image array per depth,
    and only the leaves are tested: a reset word shorter than k pads to
    length k, because a singleton image stays a singleton.  The step reads
    only tables, which the caller builds once per sweep as
    _step_tables(e0, e1, t).
    """
    if t == 1:
        return np.ones(idx.shape, dtype=bool)
    shifts = np.arange(0, t, 4, dtype=np.int64)[:, None]  # 4g for group g
    # Table rows g*256 + (D << 4) under letter a; letter b complements D.
    rows_a = (shifts << 6) | (((idx >> shifts) & 15) << 4)
    rows_b = rows_a ^ 0xF0
    ok = np.zeros(idx.shape, dtype=bool)
    # Preallocated buffers: one image and one active-nibble array per depth.
    images = [np.full(idx.shape, (1 << t) - 1, dtype=np.int64)]
    images += [np.empty_like(images[0]) for _ in range(k)]
    actives = [(images[0] >> shifts) & 15]
    actives += [np.empty_like(rows_a) for _ in range(k - 1)]
    rows, gathered = np.empty_like(rows_a), np.empty_like(rows_a)
    for word in range(1 << k):
        # Letters above the lowest set bit of word match the previous word, so
        # the images down to that depth are reused.
        first = k - (word & -word).bit_length() if word else 0
        for depth in range(first, k):
            letter_rows = rows_b if word >> (k - 1 - depth) & 1 else rows_a
            np.bitwise_or(letter_rows, actives[depth], out=rows)
            np.take(tables, rows, out=gathered, mode="clip")
            image = images[depth + 1]
            np.bitwise_or.reduce(gathered, axis=0, out=image)
            if depth + 1 < k:
                np.right_shift(image, shifts, out=actives[depth + 1])
                actives[depth + 1] &= 15
        leaf = images[k]
        ok |= (leaf & (leaf - 1)) == 0
    return ok


def sweep_sync_indices(g: Multigraph, k: int,
                       chunk: int = _SWEEP_CHUNK) -> Iterator[int]:
    """Ascending enumeration indices of colorings synchronizable within k letters.

    Out-degree 2 only; the order matches enumerate_colorings exactly.

    Color-swap symmetry: flipping every digit of index i swaps the letters a
    and b, so index i and index 2^t - 1 - i have the same reset lengths.  The
    kernel therefore runs only on the lower half, below 2^(t-1), yielding its
    hits as they are found, and keeps the masks of chunks with a hit packed,
    at most 2^(t-1) bits; the upper half is then yielded by walking those
    masks backwards.
    A caller that stops at the first hit never reaches the upper half.
    """
    d = out_degree_uniform(g)
    if d != 2:
        raise InvalidInputError("sweep_sync_indices needs out-degree 2")
    if k > _SWEEP_WORD_DEPTH_CAP:
        raise SizeLimitError(
            f"sweep walks 2^k words per coloring; capped at k={_SWEEP_WORD_DEPTH_CAP}"
        )
    t = g.t
    total = 1 << t
    half = total >> 1
    e0 = np.array([g.out_edges[v][0] for v in range(t)], dtype=np.uint64)
    e1 = np.array([g.out_edges[v][1] for v in range(t)], dtype=np.uint64)
    tables = _step_tables(e0, e1, t)
    # Packed kernel masks of the lower-half chunks that hold a hit.
    lower: list[tuple[int, np.ndarray]] = []
    for start in range(0, half, chunk):
        idx = np.arange(start, min(start + chunk, half), dtype=np.int64)
        ok = _sync_mask_chunk(e0, e1, t, k, idx, tables)
        found = np.flatnonzero(ok)
        if len(found):
            lower.append((start, np.packbits(ok)))
            for i in found.tolist():
                yield start + i
    for start, packed in reversed(lower):
        for i in np.flatnonzero(np.unpackbits(packed))[::-1].tolist():
            yield total - 1 - start - i


def srcp_oracle(g: Multigraph, k: int,
                fast: bool = True) -> Optional[tuple[Coloring, Word]]:
    """First coloring (in enumeration order) with a reset word of length <= k.

    Returns that coloring and its shortest reset word, or None.  Exhaustive:
    this is the oracle the polynomial paths are validated against.  The numpy
    sweep (out-degree 2, k <= 8) is refused past SWEEP_WORK_CAP colorings times
    words, the one-by-one enumeration past ORACLE_ENUMERATION_CAP colorings.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    d = out_degree_uniform(g)
    if d is None:
        raise InvalidInputError("srcp_oracle needs uniform out-degree")
    sweep = fast and d == 2 and k <= _SWEEP_WORD_DEPTH_CAP
    count = coloring_count(g)
    # The sweep evaluates half of the colorings, each under 2^k words.
    work = (count >> 1) << k if sweep else count
    cap = SWEEP_WORK_CAP if sweep else ORACLE_ENUMERATION_CAP
    if work > cap:
        how = "coloring-word pairs swept" if sweep else "colorings tried one by one"
        raise SizeLimitError(f"srcp_oracle capped at {cap} {how}; "
                             f"needs 2^{work.bit_length() - 1} or more")
    if sweep:
        for index in sweep_sync_indices(g, k):
            coloring = coloring_from_index(g, index)
            word = shortest_reset_word(apply_coloring(g, coloring), limit=k)
            if word is None:
                raise RuntimeError(
                    f"sweep hit at coloring {index} has no reset word of length <= {k}"
                )
            return coloring, word
        return None
    for coloring in enumerate_colorings(g):
        word = shortest_reset_word(apply_coloring(g, coloring), limit=k)
        if word is not None:
            return coloring, word
    return None


def srcp_decide(g: Multigraph, k: int) -> bool:
    """Decide SRCP on an admissible graph.

    k >= pin_bound(t) is an immediate yes: every admissible graph has a
    synchronizing coloring and the bound caps its shortest reset word.  Every
    other k goes to srcp_exists_by_patterns, at any out-degree and size; only
    when it refuses (SizeLimitError) does srcp_oracle decide, within its own
    caps.  When both refuse, the SizeLimitError names both limits.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    if not is_admissible(g):
        raise InvalidInputError("srcp_decide is defined on admissible graphs")
    if k >= pin_bound(g.t):
        return True
    try:
        return srcp_exists_by_patterns(g, k)
    except SizeLimitError as refusal:
        try:
            return srcp_oracle(g, k) is not None
        except SizeLimitError as oracle_refusal:
            raise SizeLimitError(f"{refusal}; then {oracle_refusal}") from None


@dataclass(frozen=True)
class KernelResult:
    graph: Multigraph
    k: int
    trivially_yes: bool
    aperiodicity_preserved: Optional[bool]


def kernelize(g: Multigraph, k: int) -> KernelResult:
    """Reduce out-degree to at most max(t*(pin_bound(t)-1), t), preserving
    the answer.

    For k >= pin_bound(t) the instance is already a yes; a fixed trivial yes
    instance (single vertex, all self-loops, k'=0) is returned.  Otherwise
    each vertex deletes one edge at a time, always from a maximum-multiplicity
    multiedge (ties to the smallest target), until the out-degree bound
    holds; it keeps the lowest slots of each target.  One count and one heap
    per vertex, so the work is O(d log t) per vertex.  The vertex set never
    changes.  With at least t edges left no vertex loses a target, so the
    kernel stays admissible; the floor t binds only at t = 2, where
    t*(pin_bound(t)-1) = 0 and k = 0 is a no at every out-degree.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    d = out_degree_uniform(g)
    if d is None or not is_admissible(g):
        raise InvalidInputError("kernelize is defined on admissible graphs")
    z = pin_bound(g.t)
    if k >= z:
        trivial = Multigraph(1, (tuple([0] * d),))
        return KernelResult(trivial, 0, True, True)
    degree = min(d, max(g.t * (z - 1), g.t))
    edges = []
    for v, ts in enumerate(g.out_edges):
        heap = [(-count, u) for u, count in Counter(ts).items()]
        heapq.heapify(heap)
        for removed in range(d - degree):
            count, u = heap[0]
            # Pigeonhole: degree > t*(z-1) over <= t targets forces >= z copies.
            if -count < z:
                raise RuntimeError(
                    f"vertex {v}: out-degree {d - removed} leaves only {-count} "
                    f"parallel edges, fewer than {z}"
                )
            heapq.heapreplace(heap, (count + 1, u))
        keep = {u: -count for count, u in heap}
        row = []
        for u in ts:
            if keep[u]:
                keep[u] -= 1
                row.append(u)
        edges.append(tuple(row))
    result = Multigraph(g.t, tuple(edges))
    preserved: Optional[bool]
    try:
        preserved = is_aperiodic(result)
    except InvalidInputError:
        preserved = None
    return KernelResult(result, k, False, preserved)


def pattern_words(k: int, d: int) -> Iterator[Word]:
    """The words of length exactly k over letters below d, in ascending order,
    whose letters appear in first-occurrence order (0 first, then 1, ...),
    each built only when it is asked for."""
    stack: list[Word] = [()]
    while stack:
        w = stack.pop()
        if len(w) >= k:
            yield w
        else:
            top = min(d, max(w, default=-1) + 2)
            stack.extend(w + (x,) for x in reversed(range(top)))


def srcp_exists_by_patterns(g: Multigraph, k: int) -> bool:
    """Complete SRCP decision for any k that never enumerates full colorings.

    A reset word of length <= k pads to length exactly k, since a singleton
    image stays a singleton.  Renaming letters maps colorings to colorings (a
    coloring is a per-vertex bijection from slots to letters), so the letters
    can be renamed into first-occurrence order.  SRCP(g, k) therefore holds
    iff g lies in G_w for one of the pattern_words(k, d), and
    first_word_coloring decides that over all of them in one search.

    Raises SizeLimitError before any search when the pattern words times the
    t targets, the (word, target) pairs a NO instance may try, pass
    SEARCH_NODE_BUDGET, and during the search once it has tried more than
    SEARCH_NODE_BUDGET choices over all words.  The empty word, the one
    pattern word of k = 0, costs no walk and is not counted.
    """
    d = out_degree_uniform(g)
    if d is None:
        raise InvalidInputError("needs uniform out-degree")
    most = SEARCH_NODE_BUDGET // g.t
    longest = most.bit_length() + 1
    refusal = SizeLimitError(
        f"pattern decision capped at {SEARCH_NODE_BUDGET} (word, target) pairs; "
        f"{g.t} targets admit at most {most} pattern words, of length at most {longest}")
    # A longer k is refused before one word of it is built: at d >= 2 it has
    # 2^(k-1) > 2 * most pattern words, and at d = 1 its one word would be
    # walked k - 1 layers deep per target, work the budget does not count.
    if k > longest:
        raise refusal
    words = list(islice(pattern_words(k, d), most + 1))
    if k and len(words) > most:
        raise refusal
    return first_word_coloring(g, words) is not None
