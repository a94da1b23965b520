"""Equivalent-sample-size machinery: the constraint, its root, and the
first-order approximation.

``solve_ess`` and ``constraint_lhs`` both use the closed form of the
constraint's left side. The oracle here is independent of that formula: it
sums the definitional left side, smoothed table times log-ratio field
(``definitional_lhs``), and bisects it against the right side.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from depscore import (
    DofMode,
    NoRootError,
    bisect_root,
    constraint_lhs,
    constraint_rhs,
    dof,
    fig2_distribution,
    from_counts,
    log_ratio_field,
    make_prob_table,
    mi_plugin,
    sample_table,
    solve_ess,
    substream,
    uniform_prob,
)
from conftest import random_count_table

T600 = [[200, 100], [100, 200]]
MI_600 = 0.05663301226513249           # same empirical distribution as [[2,1],[1,2]]
LBAR_UNIFORM = -0.05889151782819173    # (ln(4/3) + ln(2/3)) / 2
APPROX_600 = 8.65617024533378          # 1 / (mi - <L>)
EXACT_600 = 8.782880425682307          # 1 / (mi - 1/600 - <L>)
RHS_600 = 0.05496634559846582          # mi - 1/600


def definitional_lhs(t, n_prime, q=None):
    """sum((c + n' q) / (N + n') * L): the constraint's left side from one smoothed
    table per n', with the uniform prior when ``q`` is None."""
    q = uniform_prob(t.card_a, t.card_b) if q is None else q
    field, _ = log_ratio_field(t)
    g = np.asarray(n_prime, dtype=float)[..., None, None]
    return ((t.counts + g * q.probs) / (t.n + g) * field).sum(axis=(-2, -1))


def bisection_root(t, q=None) -> float:
    """Root of definitional_lhs(t, n', q) - rhs: bracket by doubling, then bisect."""
    rhs = constraint_rhs(t)

    def resid(n_prime):
        return float(definitional_lhs(t, n_prime, q)) - rhs

    hi = 1.0
    while resid(hi) > 0.0:
        hi *= 2.0
    return bisect_root(resid, 0.0, hi, xtol=1e-10 * hi, max_iter=200)


def random_prior(gen, t):
    return make_prob_table(gen.dirichlet(np.ones(t.counts.size)).reshape(t.counts.shape))


def permuted_diagonal(gen, k):
    """A k x k table with one occupied cell per row and column: effective dof 0."""
    counts = np.zeros((k, k), dtype=np.int64)
    counts[np.arange(k), gen.permutation(k)] = gen.integers(1, 50, size=k)
    return from_counts(counts)


# ---------------------------------------------------------------------------
# arguments
# ---------------------------------------------------------------------------

def test_prior_shape_mismatch():
    t = from_counts([[2, 1], [1, 2]])
    for call in (lambda q: constraint_lhs(t, 1.0, q), lambda q: solve_ess(t, q)):
        with pytest.raises(ValueError, match=r"prior shape \(3, 3\) does not match"):
            call(uniform_prob(3, 3))


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_negative_n_prime_error_names_one_value(bad):
    # a bad point in a long grid is named alone, not with the whole grid
    t = from_counts(T600)
    grid = np.append(np.linspace(0.0, 200.0, 101), bad)
    with pytest.raises(ValueError) as exc:
        constraint_lhs(t, grid)
    assert str(exc.value) == f"n_prime must be a finite number >= 0, got {bad}"
    with pytest.raises(ValueError, match="n_prime must be a finite number >= 0"):
        constraint_lhs(t, bad)


# ---------------------------------------------------------------------------
# log-ratio field
# ---------------------------------------------------------------------------

def test_log_ratio_field_no_zeros():
    field, used_safe = log_ratio_field(from_counts([[2, 1], [1, 2]]))
    expect = np.log(np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]]))
    assert np.allclose(field, expect, atol=1e-14)
    assert used_safe is False


def test_log_ratio_field_floors_empty_cells():
    # the empty cell's joint becomes 1/N inside the log; marginals untouched
    field, used_safe = log_ratio_field(from_counts([[3, 1], [1, 0]]))
    assert used_safe is True
    assert field[1, 1] == pytest.approx(math.log((1 / 5) / ((1 / 5) * (1 / 5))), abs=1e-14)
    assert field[0, 0] == pytest.approx(math.log((3 / 5) / ((4 / 5) * (4 / 5))), abs=1e-14)


def test_log_ratio_field_zero_for_independence():
    field, _ = log_ratio_field(from_counts([[2, 2], [2, 2]]))
    assert np.all(field == 0.0)


def test_log_ratio_field_rejects_empty_marginal():
    with pytest.raises(ValueError):
        log_ratio_field(from_counts([[1, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# constraint sides
# ---------------------------------------------------------------------------

def test_constraint_lhs_at_zero_equals_mi():
    gen = np.random.default_rng(26)
    for t in [from_counts(T600)] + [random_count_table(gen) for _ in range(50)]:
        try:
            lhs = constraint_lhs(t, np.zeros(3))
        except ValueError:
            continue  # empty marginal
        assert constraint_lhs(t, 0.0) == mi_plugin(t)
        assert np.all(lhs == mi_plugin(t))


def test_constraint_lhs_finite_up_to_largest_float():
    t = from_counts(T600)
    top = np.finfo(float).max
    assert math.isfinite(constraint_lhs(t, top))
    assert constraint_lhs(t, top) == pytest.approx(LBAR_UNIFORM, abs=1e-15)


def test_constraint_lhs_matches_definitional_sum():
    # both sides round relative to the largest |L|, which bounds every term of
    # the sum: over 14 seeds x 3,000 tables x 22 values of n' in [0, 1e8] the
    # worst difference was 1.9e-14 * max|L| (nearly independent tables, where
    # mi and <L>_q are ~1e-6, differ by ~1e-17)
    gen = np.random.default_rng(31)
    done = 0
    while done < 3000:
        t = random_count_table(gen, max_n=5000)
        try:
            field, _ = log_ratio_field(t)
        except ValueError:
            continue  # empty marginal
        done += 1
        grid = np.concatenate(([0.0], 10.0 ** gen.uniform(-3, 8, size=20), [1e8]))
        scale = float(np.abs(field).max())
        for q in (None, random_prior(gen, t)):
            diff = np.abs(constraint_lhs(t, grid, q) - definitional_lhs(t, grid, q))
            assert diff.max() <= 1e-13 * scale
            assert constraint_lhs(t, float(grid[-1]), q) == constraint_lhs(t, grid, q)[-1]


def test_constraint_lhs_memory_does_not_grow_with_cells():
    # one smoothed table per point would take 10,000 x 900 x 16 bytes, 144 MB
    t = from_counts(np.random.default_rng(27).poisson(20, (30, 30)) + 1)
    grid = np.linspace(0.0, 500.0, 10_000)
    tracemalloc.start()
    try:
        constraint_lhs(t, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_constraint_curve_crossing_matches_solver():
    t = from_counts([[210, 90], [95, 205]])
    grid = np.linspace(0.0, 60.0, 1201)
    lhs, rhs = constraint_lhs(t, grid), constraint_rhs(t)
    assert lhs[0] == mi_plugin(t)
    crossings = np.where(np.diff(np.sign(lhs - rhs)) != 0)[0]
    assert len(crossings) == 1
    root = solve_ess(t).n_prime_exact
    assert grid[crossings[0]] <= root <= grid[crossings[0] + 1]


def test_constraint_lhs_decreasing_for_uniform_prior():
    t = from_counts(T600)
    vals = [constraint_lhs(t, float(v)) for v in range(0, 101)]
    assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))


def test_constraint_lhs_limit_nonpositive():
    t = from_counts(T600)
    assert constraint_lhs(t, 1e12) == pytest.approx(LBAR_UNIFORM, abs=1e-9)
    assert constraint_lhs(t, 1e12) <= 0.0


def test_constraint_lhs_monotone_random_tables():
    # the left side is a weighted average of lhs(0) and <L>_q, hence always
    # monotone; it is non-increasing exactly when lhs(0) >= <L>_q (strongly
    # skewed marginals can flip the sign of <L>_q for a uniform prior)
    gen = np.random.default_rng(21)
    grid = np.linspace(0.0, 1e6, 40)
    for _ in range(1000):
        t = random_count_table(gen, max_n=500)
        try:
            vals = [constraint_lhs(t, float(v)) for v in grid]
            field, _ = log_ratio_field(t)
        except ValueError:
            continue  # empty marginal
        l_bar = float(field.mean())
        if vals[0] >= l_bar:
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        else:
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_constraint_rhs():
    assert constraint_rhs(from_counts([[2, 2], [2, 2]])) == pytest.approx(-0.125, abs=1e-15)
    assert constraint_rhs(from_counts(T600)) == pytest.approx(RHS_600, abs=1e-12)


def test_constraint_rhs_approaches_mi_with_scale():
    base = np.array(T600)
    gap1 = mi_plugin(from_counts(base)) - constraint_rhs(from_counts(base))
    gap10 = mi_plugin(from_counts(base * 10)) - constraint_rhs(from_counts(base * 10))
    assert 0 < gap10 < gap1


# ---------------------------------------------------------------------------
# closed-form approximation
# ---------------------------------------------------------------------------

def test_approx_ess_value():
    assert solve_ess(from_counts(T600)).n_prime_approx == pytest.approx(APPROX_600, rel=1e-10)


def test_approx_ess_is_sample_size_free():
    # depends only on the empirical distribution, not on N ([[2, 1], [1, 2]]
    # itself has no exact root: its rhs lies below <L>_q)
    assert solve_ess(from_counts([[20, 10], [10, 20]])).n_prime_approx == pytest.approx(
        solve_ess(from_counts(T600)).n_prime_approx, rel=1e-12)


def test_approx_ess_positive_for_uniform_prior():
    gen = np.random.default_rng(22)
    for _ in range(200):
        t = random_count_table(gen, max_n=1000, require_dof=True)
        try:
            assert solve_ess(t).n_prime_approx > 0.0
        except ValueError:
            continue  # no root, or an empty row or column: contractually raised


def test_approx_ess_denominator_error():
    # a prior concentrated on the over-represented cell makes <L>_q exceed mi
    t = from_counts(T600)
    q = make_prob_table([[0.97, 0.01], [0.01, 0.01]])
    with pytest.raises(NoRootError):
        solve_ess(t, q)


# ---------------------------------------------------------------------------
# exact solve
# ---------------------------------------------------------------------------

def test_solve_ess_residual_certificate():
    t = from_counts(T600)
    res = solve_ess(t)
    assert abs(definitional_lhs(t, res.n_prime_exact) - res.rhs) <= 1e-12
    assert res.n_prime_exact > 0
    assert res.used_safe_joint is False
    assert res.n_prime_approx == pytest.approx(APPROX_600, rel=1e-10)


def test_solve_ess_matches_closed_form_and_grid_scan():
    t = from_counts(T600)
    res = solve_ess(t)
    assert res.n_prime_exact == pytest.approx(EXACT_600, rel=1e-12)
    assert res.n_prime_exact == pytest.approx(bisection_root(t), rel=1e-6)
    # grid-scan oracle: the sign change of lhs - rhs brackets the root
    grid = np.linspace(0.0, 40.0, 4001)
    resid = definitional_lhs(t, grid) - res.rhs
    sign_change = np.where(np.diff(np.sign(resid)) != 0)[0]
    assert len(sign_change) == 1
    lo, hi = grid[sign_change[0]], grid[sign_change[0] + 1]
    assert lo <= res.n_prime_exact <= hi


def test_solve_ess_no_root_on_independence():
    with pytest.raises(NoRootError):
        solve_ess(from_counts([[2, 2], [2, 2]]))


def test_solve_ess_scale_invariance():
    base = np.array(T600)
    r1 = solve_ess(from_counts(base)).n_prime_exact
    r10 = solve_ess(from_counts(base * 10)).n_prime_exact
    assert abs(r10 - r1) / r1 <= 0.02


def test_solve_ess_random_tables_match_closed_form():
    # the closed-form root against bisection on the definitional left side,
    # under uniform and random Dirichlet priors
    gen = np.random.default_rng(23)
    done = {"uniform": 0, "random": 0}
    while min(done.values()) < 100:
        t = random_count_table(gen, min_n=200, max_n=5000)
        for kind, q in (("uniform", None), ("random", random_prior(gen, t))):
            try:
                res = solve_ess(t, q)
            except (NoRootError, ValueError):
                continue
            assert res.n_prime_exact == pytest.approx(bisection_root(t, q), rel=1e-6)
            done[kind] += 1


def test_solve_ess_residual_and_no_root_condition():
    # a root exactly when d >= 1 and rhs > <L>_q; where one exists it meets
    # the definitional constraint to 1e-12
    gen = np.random.default_rng(24)
    roots = {"uniform": 0, "random": 0}
    for _ in range(1000):
        t = random_count_table(gen, max_n=5000)
        try:
            field, _ = log_ratio_field(t)
        except ValueError:
            continue  # empty marginal
        d = dof(t, DofMode.EFFECTIVE)
        rhs = constraint_rhs(t)
        for kind, q in (("uniform", uniform_prob(t.card_a, t.card_b)),
                        ("random", random_prior(gen, t))):
            has_root = d >= 1 and rhs > float((q.probs * field).sum())
            try:
                res = solve_ess(t, q)
            except NoRootError:
                assert not has_root
                continue
            assert has_root
            assert abs(definitional_lhs(t, res.n_prime_exact, q) - res.rhs) <= 1e-12
            roots[kind] += 1
    assert min(roots.values()) >= 100


def test_solve_ess_no_root_at_zero_dof():
    # a permuted diagonal table has effective dof 0, so rhs = mi and the
    # only crossing is n' = 0; rounding must not turn that into a root
    gen = np.random.default_rng(25)
    for _ in range(300):
        t = permuted_diagonal(gen, int(gen.integers(2, 5)))
        assert dof(t, DofMode.EFFECTIVE) == 0
        with pytest.raises(NoRootError):
            solve_ess(t)


def test_stronger_dependence_gives_smaller_ess():
    # block-family tables: more dependence, fewer virtual counts
    n = 100_000
    t_strong = sample_table(fig2_distribution(0.10), n, substream(9, 0))
    t_weak = sample_table(fig2_distribution(0.04), n, substream(9, 1))
    strong = solve_ess(t_strong).n_prime_exact
    weak = solve_ess(t_weak).n_prime_exact
    assert strong < weak
