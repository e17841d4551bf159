"""The test suite's own helpers against their plain reference versions."""

from itertools import islice

from support import (
    canonical_iso_form,
    iso_class_representatives,
    outdeg2_graphs_exhaustive,
)


def _first_of_each_class(graphs):
    seen = set()
    out = []
    for g in graphs:
        key = canonical_iso_form(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def test_iso_representatives_match_canonical_form_small():
    for t in (1, 2, 3, 4):
        expected = _first_of_each_class(outdeg2_graphs_exhaustive(t))
        assert iso_class_representatives(t) == expected


def test_iso_representatives_match_canonical_form_t5_prefix():
    prefix = list(islice(outdeg2_graphs_exhaustive(5), 20_000))
    expected = _first_of_each_class(prefix)
    members = set(prefix)
    fast = [g for g in iso_class_representatives(5) if g in members]
    assert fast == expected
    assert len(expected) > 1000
