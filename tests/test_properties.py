"""Property tests of the paper's invariants over generated count tables."""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from depscore import (  # noqa: E402
    DofMode,
    dof,
    from_counts,
    merge_states,
    mi_plugin,
    r_score,
    standardized_information,
)
from depscore.tables import _fold  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def count_tables(draw, max_card: int = 6, max_count: int = 60):
    a = draw(st.integers(2, max_card))
    b = draw(st.integers(2, max_card))
    cells = draw(st.lists(st.integers(0, max_count), min_size=a * b, max_size=a * b)
                 .filter(any))
    return from_counts(np.array(cells, dtype=np.int64).reshape(a, b))


@st.composite
def partition(draw, card: int):
    """A partition of 0..card-1 into at least two nonempty groups."""
    labels = draw(st.lists(st.integers(0, card - 1), min_size=card, max_size=card)
                  .filter(lambda ls: len(set(ls)) >= 2))
    return tuple(tuple(s for s in range(card) if labels[s] == g) for g in sorted(set(labels)))


@PROPERTY_SETTINGS
@given(count_tables(), st.sampled_from(list(DofMode)))
def test_si_r_identity(t, mode):
    d = dof(t, mode)
    assume(d >= 1)
    si = standardized_information(t, mode)
    expected = si * (si + 2.0 * math.sqrt(d)) / math.sqrt(2.0 * d)
    assert r_score(t, mode) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@PROPERTY_SETTINGS
@given(count_tables())
def test_mi_bounds(t):
    mi = mi_plugin(t)
    assert 0.0 <= mi <= math.log(min(t.counts.shape)) + 1e-12


@PROPERTY_SETTINGS
@given(st.data())
def test_data_processing_inequality_under_merging(data):
    t = data.draw(count_tables())
    part_a, part_b = (data.draw(partition(card)) for card in t.counts.shape)
    assert mi_plugin(merge_states(t, part_a, part_b)) <= mi_plugin(t) + 1e-12


@PROPERTY_SETTINGS
@given(st.data())
def test_fold_sums_the_blocks_of_a_partition(data):
    """One fold of a (G, a, b) stack equals block sums written out, exactly in int64
    (a cell may be 2**56, past float's 53 bits), and merge_states is it on one table."""
    g, a, b = (data.draw(st.integers(low, 5)) for low in (1, 2, 2))
    cells = data.draw(st.lists(st.integers(0, 2**56) | st.integers(0, 9),
                               min_size=g * a * b, max_size=g * a * b))
    c = np.array(cells, dtype=np.int64).reshape(g, a, b)
    part_a, part_b = data.draw(partition(a)), data.draw(partition(b))
    expected = [[[sum(int(t[r, s]) for r in rows for s in cols) for cols in part_b]
                 for rows in part_a] for t in c]
    folded = _fold(c, part_a, part_b)
    assert folded.dtype == np.int64 and folded.tolist() == expected
    for t, e in zip(c, expected):
        if t.any():
            assert merge_states(from_counts(t), part_a, part_b).counts.tolist() == e


@PROPERTY_SETTINGS
@given(count_tables())
def test_effective_dof_at_most_nominal(t):
    assert 0 <= dof(t, DofMode.EFFECTIVE) <= dof(t, DofMode.NOMINAL)
