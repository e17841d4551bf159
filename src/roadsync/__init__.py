"""Synchronizing automata and road colorings at desk scale.

Exact reset-word search, polynomial synchronization tests, fixed-word road
coloring deciders, the SRCP kernelization, a guard-table composition of
synchronization instances, and a 3-SAT reduction to road coloring at word
length 4 - each cross-validated against brute-force oracles.
"""

from .automata import (
    Dfa,
    StateSet,
    Word,
    activity_trace,
    apply_word,
    cerny_automaton,
    make_dfa,
    parse_dfa,
    word_from_str,
    word_to_str,
    write_dfa,
)
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
    is_strongly_connected,
    make_graph,
    out_degree_uniform,
    parse_graph,
    to_dot,
    walk_layers,
    write_graph,
)
from .syncsolve import is_synchronizing, pin_bound, shortest_reset_word, syn_decide
from .srcp import (
    KernelResult,
    kernelize,
    srcp_decide,
    srcp_exists_by_patterns,
    srcp_oracle,
    sweep_sync_indices,
)
from .srcpw import (
    abb_coloring_from_target,
    abb_witness_target,
    decide_aaa,
    decide_aab,
    decide_aba,
    decide_abb,
    fixed_word_coloring,
    recolor_abb_to_aba,
)
from .compose import (
    BatchItem,
    ComposedAutomaton,
    CompositionBatch,
    big_m_branch,
    compose,
    compose_or_decide,
    decide_early,
    pattern_functions,
    pattern_subset,
    pattern_width,
    preprocess,
    verify_c1_c2_c3,
)
from .satreduce import (
    Cnf3,
    ReductionGraph,
    augment_tautologies,
    build_reduction,
    extract_coloring,
    parse_dimacs,
    sat_oracle,
    verify_reduction,
    write_dimacs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
