"""Contingency-table construction, dof counting, merging, and sampling."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from depscore import (
    DofMode,
    MeasureKind,
    compare_discretizations,
    dof,
    from_counts,
    from_samples,
    make_prob_table,
    merge_states,
    sample_table,
    substream,
)
from conftest import random_count_table


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_from_counts_total():
    t = from_counts([[2, 1], [1, 2]])
    assert t.n == 6 and t.counts.shape == (2, 2)


def test_from_counts_all_ones():
    assert from_counts(np.ones((4, 4), dtype=int)).n == 16


@pytest.mark.parametrize("bad", [
    [[0, 0], [0, 0]],          # all zero
    [[1, -1], [0, 2]],         # negative
    [[1, 2]],                  # 1 row
    [[1], [2]],                # 1 column
    [[1.5, 2.0], [1.0, 0.0]],  # non-integer
])
def test_from_counts_rejects(bad):
    with pytest.raises(ValueError):
        from_counts(bad)


@pytest.mark.parametrize("bad", [
    [[9999999999999999999999, 1], [1, 1]],          # one count beyond int64
    np.array([[2**63, 1], [1, 1]], dtype=np.uint64),
    [[2.0**63, 1.0], [1.0, 1.0]],
    [[2**62, 2**62], [2**62, 1]],                  # each count fits, the total does not
    [[2**63 - 1, 1], [0, 0]],
])
def test_from_counts_rejects_counts_beyond_int64(bad):
    with pytest.raises(ValueError, match="too large for int64"):
        from_counts(bad)


def test_from_counts_accepts_total_just_below_int64():
    assert from_counts([[2**62, 2**61], [2**60, 2**63 - 1 - 2**62 - 2**61 - 2**60]]).n \
        == 2**63 - 1


def test_from_samples_counts():
    t = from_samples([(0, 0), (1, 1), (0, 0)], 2, 2)
    assert t.counts.tolist() == [[2, 0], [0, 1]]
    assert t.n == 3


def test_from_samples_empty_and_range():
    with pytest.raises(ValueError):
        from_samples([], 2, 2)
    with pytest.raises(ValueError):
        from_samples(np.empty((0, 2), dtype=np.int64), 2, 2)
    with pytest.raises(ValueError):
        from_samples([(0, 2)], 2, 2)
    with pytest.raises(ValueError):
        from_samples([(-1, 0)], 2, 2)
    with pytest.raises(ValueError, match="state indices must be integers"):
        from_samples([(0.5, 0)], 2, 2)
    with pytest.raises(ValueError, match="card_a must be an integer >= 2, got 2.5"):
        from_samples([(0, 0)], 2.5, 2)
    with pytest.raises(ValueError, match="card_a must be an integer >= 2, got 1"):
        from_samples([(0, 0)], 1, 2)
    for pairs in ([0, 1], [(0, 1, 1)], [[[0, 1]]]):
        with pytest.raises(ValueError, match=r"sequence of \(a, b\) index pairs"):
            from_samples(pairs, 2, 2)
    # beyond int64: a ValueError, not the OverflowError of the int64 cast or bincount
    with pytest.raises(ValueError, match="state index out of range"):
        from_samples([(2**70, 0)], 2, 2)
    with pytest.raises(ValueError, match=r"card_a \* card_b must be below 2\*\*63"):
        from_samples([(0, 0)], 2**40, 2**40)


def test_from_samples_length():
    pairs = [(i % 2, (i // 2) % 3) for i in range(1000)]
    assert from_samples(pairs, 2, 3).n == 1000


def test_from_samples_array_equals_tuples():
    gen = np.random.default_rng(17)
    for _ in range(50):
        a, b = (int(v) for v in gen.integers(2, 9, 2))
        n = int(gen.integers(1, 400))
        idx = np.column_stack((gen.integers(0, a, n), gen.integers(0, b, n))).astype(np.int64)
        as_array = from_samples(idx, a, b)
        as_tuples = from_samples([tuple(r) for r in idx.tolist()], a, b)
        assert as_array.counts.dtype == as_tuples.counts.dtype == np.int64
        assert np.array_equal(as_array.counts, as_tuples.counts)


# ---------------------------------------------------------------------------
# empirical distribution and marginals
# ---------------------------------------------------------------------------

def test_from_samples_then_empirical_is_exact():
    # relative frequencies come out as exact rationals on small cases
    pairs = [(0, 0)] * 3 + [(0, 1)] * 1 + [(1, 0)] * 2 + [(1, 1)] * 2
    t = from_samples(pairs, 2, 2)
    assert (t.counts / t.n).tolist() == [[3 / 8, 1 / 8], [2 / 8, 2 / 8]]


def test_marginals():
    t = from_counts([[2, 1], [1, 2]])
    p = t.counts / t.n
    assert p.sum(axis=1).tolist() == [0.5, 0.5] and p.sum(axis=0).tolist() == [0.5, 0.5]
    p4 = make_prob_table(np.full((4, 4), 1 / 16)).probs
    assert np.allclose(p4.sum(axis=1), 0.25) and np.allclose(p4.sum(axis=0), 0.25)
    p1 = make_prob_table([[1.0, 0.0], [0.0, 0.0]]).probs
    assert p1.sum(axis=1).tolist() == [1.0, 0.0] and p1.sum(axis=0).tolist() == [1.0, 0.0]


def test_make_prob_table_rejects():
    with pytest.raises(ValueError):
        make_prob_table([[0.5, 0.6], [0.2, 0.2]])
    with pytest.raises(ValueError):
        make_prob_table([[0.5, -0.1], [0.3, 0.3]])
    for probs in ([[0.5, 0.5]], [0.5, 0.5]):
        with pytest.raises(ValueError, match="at least 2x2"):
            make_prob_table(probs)


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------

def test_dof_nominal_and_effective_full_table():
    t = from_counts(np.ones((4, 4), dtype=int))
    assert dof(t, DofMode.NOMINAL) == 9
    assert dof(t, DofMode.EFFECTIVE) == 9
    with pytest.raises(ValueError, match="unknown dof mode 'effective'"):
        dof(t, "effective")  # the mode's value is not the mode


def test_dof_effective_one_empty_cell():
    c = np.ones((4, 4), dtype=int)
    c[2, 3] = 0
    assert dof(from_counts(c), DofMode.EFFECTIVE) == 8


def test_dof_effective_empty_row_reduces_to_smaller_table():
    c = np.ones((4, 4), dtype=int)
    c[0, :] = 0
    # 12 occupied cells, 3 positive rows, 4 positive columns
    assert dof(from_counts(c), DofMode.EFFECTIVE) == (3 - 1) * (4 - 1)


def test_dof_effective_never_exceeds_nominal():
    gen = np.random.default_rng(11)
    for _ in range(300):
        t = random_count_table(gen, max_n=200)
        d_eff = dof(t, DofMode.EFFECTIVE)
        d_nom = dof(t, DofMode.NOMINAL)
        assert d_eff <= d_nom
        if np.all(t.counts > 0):
            assert d_eff == d_nom


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def test_merge_states_block_sums():
    t = from_counts(np.arange(16).reshape(4, 4) + 1)
    m = merge_states(t, ((0, 1), (2, 3)), ((0, 1), (2, 3)))
    c = t.counts
    expect = [[int(c[:2, :2].sum()), int(c[:2, 2:].sum())],
              [int(c[2:, :2].sum()), int(c[2:, 2:].sum())]]
    assert m.counts.tolist() == expect
    assert m.n == t.n


def test_merge_states_identity_partition():
    t = from_counts([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    m = merge_states(t, ((0,), (1,), (2,)), ((0,), (1,), (2,)))
    assert m.counts.tolist() == t.counts.tolist()


def test_merge_states_rejects_bad_partitions():
    t = from_counts(np.ones((4, 4), dtype=int))
    with pytest.raises(ValueError):
        merge_states(t, ((0, 1, 2, 3),), ((0, 1), (2, 3)))       # single group
    with pytest.raises(ValueError):
        merge_states(t, ((0, 1), (1, 2, 3)), ((0, 1), (2, 3)))   # overlap
    with pytest.raises(ValueError):
        merge_states(t, ((0, 1), (2,)), ((0, 1), (2, 3)))        # gap
    with pytest.raises(ValueError, match="state indices must be integers"):
        merge_states(t, ((0, 1.5), (2, 3)), ((0, 1), (2, 3)))    # not a state


@pytest.mark.parametrize("part_a", [((0, 1, 2), ()), ((), (0, 1, 2)), ((0,), (1, 2), ())])
def test_merge_states_rejects_an_empty_group(part_a):
    # an empty group would get round the "at least 2 groups" rule: the merged table
    # would have an empty state, and compare_discretizations would answer "coarse"
    t = from_counts([[3, 1, 2], [2, 5, 4], [1, 1, 7]])
    empty = f"partition group {part_a.index(())} is empty"
    with pytest.raises(ValueError, match=empty):
        merge_states(t, part_a, ((0, 1), (2,)))
    with pytest.raises(ValueError, match=empty):
        compare_discretizations(t, (part_a, ((0, 1), (2,))), MeasureKind.SI)


@pytest.mark.parametrize("part_a, group, shape", [([0, 1], 0, ()), ([[0], [[1, 2]]], 1, (1, 2))])
def test_merge_states_rejects_a_group_that_is_not_flat(part_a, group, shape):
    # a bare state and a nested group ended in a TypeError, not a ValueError
    t = from_counts([[3, 1], [2, 5], [1, 7]])
    with pytest.raises(ValueError, match=re.escape(
            f"partition group {group} must be a flat sequence of states, got shape {shape}")):
        merge_states(t, part_a, [[0], [1]])


def test_merge_states_reads_states_as_from_samples_does():
    # False and True are states 0 and 1, and 1.0 is state 1, not a boolean mask
    # or an IndexError
    t = from_counts([[3, 1, 2], [2, 5, 4], [1, 1, 7]])
    for part_a in (((False,), (True, 2)), ((0,), (1.0, 2))):
        assert merge_states(t, part_a, ((0, 1), (2,))).counts.tolist() == [[4, 2], [9, 11]]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_table_degenerate():
    p = make_prob_table([[1.0, 0.0], [0.0, 0.0]])
    t = sample_table(p, 10, substream(0, 0))
    assert t.counts.tolist() == [[10, 0], [0, 0]]
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_table(p, 1.5, substream(0, 0))
    with pytest.raises(ValueError, match="n must be an integer >= 1 and below 2\\*\\*63"):
        sample_table(p, 2**63, substream(0, 0))


def test_sample_table_determinism():
    p = make_prob_table(np.full((3, 3), 1 / 9))
    a = sample_table(p, 500, substream(5, 1))
    b = sample_table(p, 500, substream(5, 1))
    assert a.counts.tolist() == b.counts.tolist()


def test_sample_table_uniform_cells_within_5_sigma():
    n = 160_000
    t = sample_table(make_prob_table(np.full((4, 4), 1 / 16)), n, substream(123, 0))
    sigma = math.sqrt(n * (1 / 16) * (15 / 16))
    assert np.all(np.abs(t.counts - n / 16) <= 5.0 * sigma)
    assert t.n == n


def test_merge_commutes_with_sampling_in_mean():
    # merging the distribution then sampling vs sampling then merging:
    # per-block mean counts agree within 3 sigma over 1000 seeded replicates
    probs = make_prob_table(np.array([
        [0.10, 0.05, 0.05, 0.05],
        [0.05, 0.10, 0.05, 0.05],
        [0.02, 0.03, 0.10, 0.05],
        [0.03, 0.02, 0.05, 0.20],
    ]))
    parts = (((0, 1), (2, 3)), ((0, 1), (2, 3)))
    block = probs.probs.reshape(2, 2, 2, 2).sum(axis=(1, 3))
    merged_probs = make_prob_table(block)
    n, reps = 200, 1000
    acc_a = np.zeros((2, 2))
    acc_b = np.zeros((2, 2))
    for r in range(reps):
        acc_a += merge_states(sample_table(probs, n, substream(77, r)), *parts).counts
        acc_b += sample_table(merged_probs, n, substream(78, r)).counts
    mean_a, mean_b = acc_a / reps, acc_b / reps
    sigma = np.sqrt(n * block * (1 - block) / reps)
    assert np.all(np.abs(mean_a - n * block) <= 3.0 * sigma)
    assert np.all(np.abs(mean_b - n * block) <= 3.0 * sigma)
