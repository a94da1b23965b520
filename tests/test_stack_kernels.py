"""``stack_stats`` against the per-table functions, bit for bit.

``stack_stats`` and the array form of ``score`` score many tables of one
shape at once, and ``score_candidates`` scores tables of mixed shapes with one
``stack_stats`` call per shape. Every value must equal (``==``, not
approximately) the per-table function on that table alone, and the per-table
functions must equal the plain one-table formulas written out below.
"""

from __future__ import annotations

import numpy as np
import pytest

import depscore
from depscore import (
    DofMode,
    MeasureKind,
    dof,
    from_counts,
    mean_marginal_entropy,
    mi_plugin,
    score,
    score_candidates,
    stack_stats,
)
from depscore import measures, tables


def reference_mi(c: np.ndarray) -> float:
    """Plug-in MI of one table: masked terms summed as one 1-D array."""
    n = float(c.sum())
    ra, cb = c.sum(axis=1), c.sum(axis=0)
    mask = c > 0
    cf = c[mask].astype(float)
    denom = (ra.astype(float)[:, None] * cb.astype(float)[None, :])[mask]
    return float(max((cf / n * np.log((cf * n) / denom)).sum(), 0.0))


def reference_entropy(v: np.ndarray) -> float:
    pos = v[v > 0.0]
    return float(max(-(pos * np.log(pos)).sum(), 0.0))


def reference_h_bar(c: np.ndarray) -> float:
    p = c / int(c.sum())
    return 0.5 * (reference_entropy(p.sum(axis=1)) + reference_entropy(p.sum(axis=0)))


def reference_dof(c: np.ndarray, mode: DofMode) -> int:
    if mode is DofMode.NOMINAL:
        return (c.shape[0] - 1) * (c.shape[1] - 1)
    pos = c > 0
    return max(0, int(pos.sum()) - int(pos.any(axis=1).sum()) - int(pos.any(axis=0).sum()) + 1)


def seeded_stacks():
    """60 stacks of 30 tables, shapes 2x2 to 12x12, N from 1 to 1e6.

    Cells are multinomial on a Dirichlet joint in which some cells, rows and
    columns have probability 0, so empty cells, rows and columns all occur.
    """
    rng = np.random.default_rng(20_261_018)
    for _ in range(60):
        a, b = (int(v) for v in rng.integers(2, 13, size=2))
        tables = []
        for _ in range(30):
            p = rng.dirichlet(np.full(a * b, float(rng.choice([0.2, 1.0, 5.0])))).reshape(a, b)
            p *= rng.random((a, b)) > 0.2
            p[rng.random(a) < 0.15] = 0.0
            p[:, rng.random(b) < 0.15] = 0.0
            if not p.any():
                p[0, 0] = 1.0
            n = int(round(10 ** rng.uniform(0.0, 6.0)))
            tables.append(rng.multinomial(n, (p / p.sum()).ravel()).reshape(a, b))
        yield np.array(tables, dtype=np.int64)


STACKS = list(seeded_stacks())


def test_stacks_cover_the_edge_cases():
    tables = [c for stack in STACKS for c in stack]
    assert min(c.sum() for c in tables) == 1
    assert max(c.sum() for c in tables) >= 900_000
    assert any((c.sum(axis=1) == 0).any() for c in tables)
    assert any((c.sum(axis=0) == 0).any() for c in tables)
    assert any(reference_dof(c, DofMode.EFFECTIVE) == 0 for c in tables)
    assert any(reference_h_bar(c) == 0.0 for c in tables)
    assert min(min(c.shape) for c in tables) == 2 and max(max(c.shape) for c in tables) == 12


@pytest.mark.parametrize("i", range(len(STACKS)))
def test_statistics_equal_per_table(i):
    stack = STACKS[i]
    for mode in DofMode:
        mi, d, n, h_bar = stack_stats(stack, mode)
        for g, c in enumerate(stack):
            t = from_counts(c)
            assert mi[g] == mi_plugin(t) == reference_mi(c)
            assert h_bar[g] == mean_marginal_entropy(t) == reference_h_bar(c)
            assert n[g] == t.n
        assert d.tolist() == [dof(from_counts(c), mode) for c in stack] \
            == [reference_dof(c, mode) for c in stack]
        assert d.dtype == n.dtype == np.int64


@pytest.mark.parametrize("i", range(0, len(STACKS), 3))
def test_scores_equal_per_table(i):
    # every measure, the p-value included, over the arrays of a stack: a
    # defined entry is its one-table score, an undefined one is (nan, -inf)
    stack = STACKS[i]
    stats = stack_stats(stack)
    _, d, _, h_bar = stats
    for kind in MeasureKind:
        scores, keys = score(kind, *stats)
        defined = np.ones(len(stack), dtype=bool) if kind is MeasureKind.MI_PLUGIN \
            else h_bar > 0.0 if kind is MeasureKind.NI else d >= 1
        for g, c in enumerate(stack):
            t = from_counts(c)
            one = score(kind, mi_plugin(t), dof(t), t.n, mean_marginal_entropy(t))
            if defined[g]:
                assert (scores[g], keys[g]) == one
            else:
                assert np.isnan(scores[g]) and np.isnan(one[0])
                assert keys[g] == one[1] == -np.inf


@pytest.mark.parametrize("mode", list(DofMode))
def test_score_candidates_equal_per_table(mode, monkeypatch):
    # 120 tables of 11 shapes (two stacks share one) in a seeded shuffle, plus a 2x2
    # table with an empty column (effective dof 0) and a one-cell table (both
    # marginal entropies 0)
    order = np.random.default_rng(20_261_019).permutation(120)
    counts = [c for stack in STACKS[:12] for c in stack[:10]]
    cands = [(f"c{i:03d}", from_counts(counts[i])) for i in order]
    cands += [("empty-col", from_counts([[5, 0], [3, 0]])),
              ("one-cell", from_counts([[7, 0], [0, 0]]))]
    shapes = {t.counts.shape for _, t in cands}
    calls = []
    monkeypatch.setattr(measures, "stack_stats",
                        lambda c, m: calls.append(c.shape) or stack_stats(c, m))
    if mode is DofMode.EFFECTIVE:
        assert sum(dof(t, mode) == 0 for _, t in cands) >= 2
    for kind in MeasureKind:
        calls.clear()
        got = score_candidates(cands, kind, mode)
        assert sorted(shape[1:] for shape in calls) == sorted(shapes)
        for (cid, t), cand in zip(cands, got):
            one = score(kind, mi_plugin(t), dof(t, mode), t.n, mean_marginal_entropy(t))
            assert (cand.id, cand.dof) == (cid, dof(t, mode))
            if np.isnan(one[0]):
                assert np.isnan(cand.score) and cand.key == one[1] == -np.inf
            else:
                assert (cand.score, cand.key) == one


def test_zero_padding_would_change_the_sums():
    # Summed as rows of one zero-padded matrix, the masked terms of the first
    # table lose their last bit; the kernel sums each table's own terms.
    sparse = np.array([[0, 0, 3, 0], [4, 4, 8, 2], [4, 1, 0, 0]])
    stack = np.array([sparse, np.arange(1, 13).reshape(3, 4)])
    mask = sparse > 0
    n = float(sparse.sum())
    outer = sparse.sum(axis=1)[:, None] * sparse.sum(axis=0)[None, :].astype(float)
    terms = np.zeros(sparse.shape)
    terms[mask] = sparse[mask] / n * np.log(sparse[mask] * n / outer[mask])
    assert terms.sum() != reference_mi(sparse)
    assert stack_stats(stack)[0].tolist() == [reference_mi(c) for c in stack]

    # the same holds for the entropy of a marginal with 8 or more states
    wide = np.array([[6, 2, 1, 8, 5, 8, 3, 0, 1], [2, 6, 6, 6, 4, 1, 5, 0, 6]]).T
    stack = np.array([wide, wide + 1])
    p = wide.sum(axis=1) / wide.sum()
    plogp = np.zeros(p.shape)
    plogp[p > 0] = p[p > 0] * np.log(p[p > 0])
    assert -plogp.sum() != reference_entropy(p)
    assert stack_stats(stack)[3].tolist() == [reference_h_bar(c) for c in stack]


def test_stack_of_one_is_the_per_table_path():
    c = np.array([[30, 12, 5], [10, 28, 9]])
    t = from_counts(c)
    mi, d, n, h_bar = stack_stats(c[None], DofMode.NOMINAL)
    assert (mi[0], d[0], n[0], h_bar[0]) \
        == (mi_plugin(t), dof(t, DofMode.NOMINAL), t.n, mean_marginal_entropy(t))
    assert d[0] == 2


@pytest.mark.parametrize("mode", list(DofMode))
@pytest.mark.parametrize("stack, message", [
    ([[[0, 0], [0, 0]], [[1, 2], [3, 4]]], "all zero"),
    ([[[1, 2], [3, 4]], [[0, 0], [0, 0]]], "all zero"),
    ([[[1, -2], [3, 4]]], "nonnegative"),
    ([[[1.5, 2], [3, 4]]], "counts must be integers"),
    ([[[1, 2], [3, 4]], [[0.5, 2], [3, 4]]], "counts must be integers"),
    ([[[1, 2], [3, np.nan]]], "counts must be integers"),
    (np.array([[[2**63, 0], [0, 1]]], dtype=np.uint64), "total is not below 2\\*\\*63"),
    ([[[1, 2], [3, 4]], [[2**62, 2**62], [2**62, 1]]], "total is not below 2\\*\\*63"),
    (np.ones((1, 1, 3), dtype=np.int64), "both cardinalities must be >= 2"),
    ([[1, 2], [3, 4]], "counts must be a 3-D array, got ndim=2"),
    ([[[[1, 2], [3, 4]]]], "counts must be a \\d-D array"),  # from_counts sees ndim 3
])
def test_stack_stats_applies_the_from_counts_rule(mode, stack, message):
    with pytest.raises(ValueError, match=message):
        stack_stats(stack, mode)
    if len(stack) == 1:
        with pytest.raises(ValueError, match=message):
            from_counts(stack[0])


@pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64, float, object])
def test_stack_stats_takes_integer_counts_of_any_dtype(dtype):
    stack = STACKS[0]
    for mode in DofMode:
        assert [s.tolist() for s in stack_stats(stack.astype(dtype), mode)] \
            == [s.tolist() for s in stack_stats(stack, mode)]


def test_stack_stats_checks_the_stack_once(monkeypatch):
    calls = []

    def counting(c):
        calls.append(c)
        return tables._counts(c)

    monkeypatch.setattr(measures, "_counts", counting)
    stack_stats(STACKS[0])
    assert len(calls) == 1


def test_stack_stats_is_the_only_stack_call():
    for module in (depscore, measures, tables):
        for name in ("mi_plugin_stack", "mean_marginal_entropy_stack", "dof_stack"):
            assert not hasattr(module, name)
            assert name not in getattr(module, "__all__", ())
    assert "stack_stats" in depscore.measures.__all__ and depscore.stack_stats is stack_stats


def test_per_table_functions_do_not_check_a_count_table_again(monkeypatch):
    # from_counts checked the table once; the per-table path skips the stack check
    t = from_counts([[3, 1, 0], [2, 5, 4]])
    for module in (tables, measures):
        monkeypatch.setattr(module, "_counts", None)
    assert mi_plugin(t) == reference_mi(t.counts)
    assert mean_marginal_entropy(t) == reference_h_bar(t.counts)
    assert dof(t) == reference_dof(t.counts, DofMode.EFFECTIVE)
    with pytest.raises(TypeError):
        stack_stats(t.counts[None])
