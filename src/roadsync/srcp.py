"""Synchronizing-road-coloring decisions: brute-force oracle, shortcuts, kernel.

srcp_decide answers every k through srcp_exists_by_patterns, which runs the
fixed-word search over the pattern words and never enumerates colorings.
Only when that refuses does it ask srcp_oracle, the ground truth everything
else is validated against: it walks every coloring in enumeration order and
asks for a reset word of length <= k.
A bit-sliced sweep, one bit per coloring in each big int, accelerates the
out-degree-2 case without changing the sequential first-witness semantics.
It rests on two facts:

- Color-swap symmetry.  With out-degree 2, flipping every digit of a coloring
  index swaps the letters a and b, so colorings i and 2^t - 1 - i have the same
  reset lengths; only the 2^(t-1) colorings of the lower half are evaluated.
- Padding.  A singleton image stays a singleton, so a reset word of length
  <= k extends to one of length exactly k; only the 2^k words of length k are
  tested, walked depth-first with one image per depth.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

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
)
from .srcpw import SEARCH_NODE_BUDGET, first_word_coloring
from .syncsolve import pin_bound, shortest_reset_word

# The sweep's work, 2^(t-1) colorings times 2^k words, is refused past this.
# At 14-17 M colorings/s at k = 4 that is at most about 4-5 s (t = 27); it
# admits t <= 26 at k = 5 and t <= 23 at k = 8.
SWEEP_WORK_CAP = 1 << 30
# Colorings that srcp_oracle tries one at a time, one reset-word search each
# (30 to 90 us per coloring at t = 6..12), are refused beyond this many: about
# half a minute of work.  SWEEP_WORK_CAP sizes the sweep instead.
ORACLE_ENUMERATION_CAP = 1 << 19
_SWEEP_CHUNK = 1 << 13
# The sweep walks the 2^k words of length k depth-first, 2^(k+1) - 2 steps
# per chunk, so its work doubles with each letter; the per-coloring search
# takes over beyond this depth.
_SWEEP_WORD_DEPTH_CAP = 8


def _sync_mask_chunk(e0: list[int], e1: list[int], t: int, k: int,
                     idx: range) -> int:
    """Bit j is set when coloring idx[j] admits a reset word of length <= k.

    Bit-sliced: idx is range(start, start + n) with n = 2^c and start a
    multiple of n, and each int below carries one bit per coloring.  The
    digit of vertex v, bit b = t-1-v of the index (1 means slot 1 carries
    letter a), is such a mask: for b < c it repeats with period 2^(b+1), from
    c up it is constant over the chunk.  A step sends the active bits of v
    to e0[v] and e1[v] under the digit mask and its complement.  The words of
    length exactly k are walked depth-first with one image per depth, and
    only the leaves are tested: a shorter reset word pads to length k,
    because a singleton image stays a singleton.
    """
    n = len(idx)
    full = (1 << n) - 1
    if t == 1:
        return full
    c = n.bit_length() - 1
    # moves[letter][v]: v's target under digit 0, under digit 1, and the mask
    # of the colorings whose digit is 0.
    moves: list[list[tuple[int, int, int]]] = [[], []]
    for v in range(t):
        b = t - 1 - v
        if b < c:
            digit, period = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
            while period < n:
                digit |= digit << period
                period <<= 1
        else:
            digit = full if idx[0] >> b & 1 else 0
        moves[0].append((e0[v], e1[v], full ^ digit))
        moves[1].append((e1[v], e0[v], full ^ digit))
    ok = 0
    images = [[full] * t] + [[]] * k
    for word in range(1 << k):
        # Letters above the lowest set bit of word match the previous word, so
        # the images down to that depth are reused.
        first = k - (word & -word).bit_length() if word else 0
        for depth in range(first, k):
            image = [0] * t
            for active, (u, w, mask) in zip(images[depth],
                                            moves[word >> (k - 1 - depth) & 1]):
                if active:
                    stay = active & mask
                    image[u] |= stay
                    image[w] |= active ^ stay
            images[depth + 1] = image
        once = twice = 0
        for active in images[k]:
            twice |= once & active
            once |= active
        ok |= full ^ twice
    return ok


def sweep_sync_indices(g: Multigraph, k: int) -> Iterator[int]:
    """Ascending enumeration indices of colorings synchronizable within k letters.

    Out-degree 2 only; the order matches enumerate_colorings exactly.

    Color-swap symmetry: flipping every digit of index i swaps the letters a
    and b, so index i and index 2^t - 1 - i have the same reset lengths.  The
    kernel therefore runs only on the lower half, below 2^(t-1), in aligned
    chunks, yielding its hits as they are found, and keeps the masks of
    chunks with a hit; the upper half is then yielded by walking those masks
    from the top bit down.
    A caller that stops at the first hit never reaches the upper half.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    d = g.out_degree
    if d != 2:
        raise InvalidInputError("sweep_sync_indices needs out-degree 2")
    if k > _SWEEP_WORD_DEPTH_CAP:
        raise SizeLimitError(
            f"sweep walks 2^k words per coloring; capped at k={_SWEEP_WORD_DEPTH_CAP}"
        )
    t = g.t
    total = 1 << t
    half = total >> 1
    chunk = min(_SWEEP_CHUNK, half)
    e0 = [edges[0] for edges in g.out_edges]
    e1 = [edges[1] for edges in g.out_edges]
    # Kernel masks of the lower-half chunks that hold a hit.
    lower: list[tuple[int, int]] = []
    for start in range(0, half, chunk):
        ok = _sync_mask_chunk(e0, e1, t, k, range(start, start + chunk))
        if ok:
            lower.append((start, ok))
            # Character j of the reversed binary digits is bit j.
            for hit in re.finditer("1", f"{ok:b}"[::-1]):
                yield start + hit.start()
    for start, ok in reversed(lower):
        # Character j of the binary digits is bit len(bits) - 1 - j.
        bits = f"{ok:b}"
        for hit in re.finditer("1", bits):
            yield total - start - len(bits) + hit.start()


def srcp_oracle(g: Multigraph, k: int,
                fast: bool = True) -> Optional[tuple[Coloring, Word]]:
    """First coloring (in enumeration order) with a reset word of length <= k.

    Returns that coloring and its shortest reset word, or None.  Exhaustive:
    this is the oracle the polynomial paths are validated against.  The
    bit-sliced sweep (out-degree 2, k <= 8) still tests every coloring; it is
    refused past SWEEP_WORK_CAP colorings times words, the one-by-one
    enumeration past ORACLE_ENUMERATION_CAP colorings.  No command sets
    fast=False; perfbench/make_pool.py does, to confirm its pool's answers
    by the enumeration.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    d = g.out_degree
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
    aperiodicity_preserved: bool


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
    kernel keeps the input's cycles: it stays admissible and aperiodic.  The
    floor t binds only at t = 2, where t*(pin_bound(t)-1) = 0 and k = 0 is a
    no at every out-degree.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    d = g.out_degree
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
    return KernelResult(result, k, False, is_aperiodic(result))


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
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    d = g.out_degree
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
