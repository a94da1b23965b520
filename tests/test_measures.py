"""Dependence measures against frozen oracle values and distributional checks.

Frozen constants were computed with 40-digit arithmetic from the defining
formulas (entropy decomposition for mutual information, erfc for the
chi-square-1 tail).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from depscore import (
    DofMode,
    MeasureKind,
    compare_discretizations,
    conditional_entropy,
    dof,
    entropy,
    from_counts,
    mean_marginal_entropy,
    merge_states,
    mi_plugin,
    normalized_mi,
    p_value,
    r_score,
    report,
    run_discretization_experiment,
    sample_table,
    score,
    score_candidates,
    standardized_information,
    substream,
)
from depscore.tables import make_prob_table
from conftest import random_count_table

MI_2112 = 0.05663301226513249        # mi_plugin of [[2,1],[1,2]]
T2112 = [[2, 1], [1, 2]]


def entropy_oracle(vec) -> float:
    return -sum(p * math.log(p) for p in vec if p > 0)


def mi_entropy_decomposition(counts) -> float:
    """Independent oracle: H(A) + H(B) - H(A, B) on relative frequencies."""
    c = np.asarray(counts, dtype=float)
    n = c.sum()
    return (entropy_oracle(c.sum(1) / n) + entropy_oracle(c.sum(0) / n)
            - entropy_oracle((c / n).ravel()))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_values():
    assert entropy([1.0, 0.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert entropy([0.45, 0.55]) == pytest.approx(0.6881388137135884, abs=1e-14)


def test_entropy_rejects_bad_distributions():
    with pytest.raises(ValueError):
        entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy([-0.1, 1.1])
    with pytest.raises(ValueError, match="nonempty 1-D"):
        entropy([[0.5, 0.5]])
    with pytest.raises(ValueError, match="target must be 'a' or 'b'"):
        conditional_entropy(from_counts(T2112), "c")


# ---------------------------------------------------------------------------
# plug-in MI and bias correction
# ---------------------------------------------------------------------------

def test_mi_plugin_independence_and_diagonal():
    assert mi_plugin(from_counts([[2, 2], [2, 2]])) == 0.0
    assert mi_plugin(from_counts([[5, 0], [0, 5]])) == pytest.approx(math.log(2.0), abs=1e-14)


def test_mi_plugin_against_entropy_decomposition():
    assert mi_plugin(from_counts(T2112)) == pytest.approx(
        mi_entropy_decomposition(T2112), abs=1e-14)
    assert mi_plugin(from_counts(T2112)) == pytest.approx(MI_2112, abs=1e-14)
    gen = np.random.default_rng(3)
    for _ in range(200):
        t = random_count_table(gen, max_n=500)
        assert mi_plugin(t) == pytest.approx(
            mi_entropy_decomposition(t.counts), abs=1e-11)


def test_mi_plugin_bounds():
    gen = np.random.default_rng(4)
    for _ in range(200):
        t = random_count_table(gen, max_n=2000)
        mi = mi_plugin(t)
        assert 0.0 <= mi <= math.log(min(t.counts.shape)) + 1e-12


def test_mi_bias_corrected():
    t = from_counts([[2, 2], [2, 2]])
    assert report(t).mi_bc == pytest.approx(-1 / 16, abs=1e-15)
    t2 = from_counts(T2112)
    assert report(t2).mi_bc == pytest.approx(MI_2112 - 1 / 12, abs=1e-14)


def test_mi_bias_correction_vanishes_with_n():
    # same empirical distribution, growing N: correction shrinks toward zero
    base = np.array(T2112)
    gaps = [mi_plugin(from_counts(base * k)) - report(from_counts(base * k)).mi_bc
            for k in (1, 10, 100, 1000)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize("n", [1e3, 1e6, 1e9])
def test_g_statistic_accurate_up_to_1e9(n):
    # G = 2N·mi of near-independent 4x4 tables (G about 4-23 on 9 dof) against
    # mpmath at 80 digits. Its terms cancel, so the error grows with N: about
    # 1e-5 at N = 1e12 and 0.5 at 1e16 (see the tables module docstring).
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(round(math.log10(n)))
    for _ in range(10):
        p = np.outer(rng.dirichlet(np.full(4, 5.0)), rng.dirichlet(np.full(4, 5.0)))
        noisy = np.floor(p * n + rng.normal(size=(4, 4)) * np.sqrt(p * n))
        t = from_counts(np.maximum(noisy, 1).astype(np.int64))
        c = t.counts.tolist()
        rows, cols = [sum(r) for r in c], [sum(col) for col in zip(*c)]
        with mpmath.workdps(80):
            g = 2 * mpmath.fsum(v * mpmath.log(mpmath.mpf(v * t.n) / (rows[i] * cols[j]))
                                for i, r in enumerate(c) for j, v in enumerate(r))
        assert abs(2 * t.n * mi_plugin(t) - g) <= 1e-7 * g


# ---------------------------------------------------------------------------
# null standard deviation and r score
# ---------------------------------------------------------------------------

def test_independence_std_arithmetic():
    t9 = from_counts(np.full((4, 4), 7))   # d = 9, N = 112
    assert report(t9).indep_std == pytest.approx(3.0 / (math.sqrt(2.0) * 112), abs=1e-15)
    t1 = from_counts([[250, 250], [250, 250]])
    assert report(t1).indep_std == pytest.approx(7.0710678e-4, abs=1e-9)


def test_independence_std_requires_dof():
    # effective dof 0: every dof-based field is nan, and so is ni, since both
    # marginal entropies are 0
    rep = report(from_counts([[5, 0], [0, 0]]))
    assert (rep.n, rep.dof, rep.mi_plugin) == (5, 0, 0.0)
    for name in ("mi_bc", "indep_std", "r_score", "si", "si_fisher", "ni", "p_naive", "log_p"):
        assert math.isnan(getattr(rep, name)), name


def test_r_score_value():
    t = from_counts(T2112)
    two_n_mi = 2 * 6 * MI_2112
    assert r_score(t) == pytest.approx((two_n_mi - 1) / math.sqrt(2.0), abs=1e-12)
    assert r_score(t) == pytest.approx(-0.22655973704619429, abs=1e-12)


def test_si_r_identity_random_tables():
    # r = sqrt(2) * si * (1 + si / (2 sqrt(d))) exactly, for any table
    gen = np.random.default_rng(5)
    for _ in range(500):
        t = random_count_table(gen, require_dof=True)
        d = dof(t, DofMode.EFFECTIVE)
        si = standardized_information(t)
        r = r_score(t)
        assert abs(r - math.sqrt(2.0) * si * (1.0 + si / (2.0 * math.sqrt(d)))) <= 1e-10


# ---------------------------------------------------------------------------
# standardized information
# ---------------------------------------------------------------------------

def test_si_values():
    # the perfect-dependence diagonal leaves no occupied off-diagonal cells,
    # so its effective dof is 0; the d = 1 readings are nominal-mode
    t = from_counts([[5, 0], [0, 5]])
    si = standardized_information(t, DofMode.NOMINAL)
    assert si == pytest.approx(math.sqrt(20 * math.log(2.0)) - 1.0, abs=1e-12)
    assert si == pytest.approx(2.723297411059034, abs=1e-12)
    assert standardized_information(from_counts([[2, 2], [2, 2]])) == pytest.approx(-1.0, abs=1e-12)


def test_si_fisher_variant():
    t = from_counts([[5, 0], [0, 5]])
    assert report(t, DofMode.NOMINAL).si_fisher == pytest.approx(
        math.sqrt(20 * math.log(2.0)) - math.sqrt(0.5), abs=1e-12)


def test_si_lower_bound():
    gen = np.random.default_rng(6)
    for _ in range(300):
        t = random_count_table(gen, require_dof=True)
        d = dof(t, DofMode.EFFECTIVE)
        assert standardized_information(t) >= -math.sqrt(d)


def test_si_requires_dof():
    t = from_counts([[5, 0], [0, 5]])   # effective dof 0, nominal dof 1
    assert math.isnan(standardized_information(t))
    assert math.isnan(report(t).si_fisher)
    assert math.isnan(r_score(t))
    assert all(map(math.isnan, p_value(t)))
    assert standardized_information(t, DofMode.NOMINAL) == math.sqrt(20.0 * math.log(2.0)) - 1.0


# ---------------------------------------------------------------------------
# normalized MI and conditional entropy
# ---------------------------------------------------------------------------

def test_normalized_mi_values():
    assert normalized_mi(from_counts([[5, 0], [0, 5]])) == pytest.approx(1.0, abs=1e-12)
    assert normalized_mi(from_counts([[2, 2], [2, 2]])) == 0.0
    assert normalized_mi(from_counts(T2112)) == pytest.approx(
        MI_2112 / math.log(2.0), abs=1e-12)
    assert normalized_mi(from_counts(T2112)) == pytest.approx(0.08170416594551049, abs=1e-12)


def test_normalized_mi_degenerate():
    assert math.isnan(normalized_mi(from_counts([[5, 0], [0, 0]])))
    assert normalized_mi(from_counts([[5, 5], [0, 0]])) == 0.0   # one marginal has entropy


def test_score_rejects_missing_h_bar_and_unknown_kinds():
    for mi, d, n in ((0.1, 1, 40), (np.array([0.1, 0.2]), np.array([1, 1]), np.array([40, 50]))):
        with pytest.raises(ValueError, match="h_bar"):
            score(MeasureKind.NI, mi, d, n)
        # a measure's name is not a MeasureKind: no rule is guessed for it
        for kind in ("ni", "si", "mi_bc", "p_value", "mi_plugin", None):
            with pytest.raises(ValueError, match="unknown measure kind"):
                score(kind, mi, d, n, 0.5 if np.ndim(mi) == 0 else np.array([0.5, 0.5]))
    table = from_counts([[15, 9, 12, 11], [12, 17, 18, 7], [12, 12, 11, 13], [19, 12, 7, 13]])
    with pytest.raises(ValueError, match="unknown measure kind"):
        compare_discretizations(table, ([[0, 1], [2, 3]],) * 2, "si")
    with pytest.raises(ValueError, match="unknown measure kind"):
        score_candidates([("x", table)], "mi_bc")
    with pytest.raises(ValueError, match="unknown measure kind"):
        run_discretization_experiment(replicates=1, n_values=[25], measure_kinds=["si"])


def test_normalized_mi_in_unit_interval():
    gen = np.random.default_rng(7)
    for _ in range(300):
        t = random_count_table(gen)
        ni = normalized_mi(t)
        assert 0.0 <= ni <= 1.0 or math.isnan(ni) and mean_marginal_entropy(t) == 0.0


def test_conditional_entropy_values():
    assert conditional_entropy(from_counts([[5, 0], [0, 5]]), "a") == pytest.approx(0.0, abs=1e-12)
    assert conditional_entropy(from_counts([[2, 2], [2, 2]]), "a") == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_conditional_entropy_identity():
    # H(A) - H(A|B) = mi_plugin to 1e-12 on random tables
    gen = np.random.default_rng(8)
    for _ in range(300):
        t = random_count_table(gen)
        h_a = entropy(t.counts.sum(axis=1) / t.n)
        assert abs(h_a - conditional_entropy(t, "a") - mi_plugin(t)) <= 1e-12


# ---------------------------------------------------------------------------
# p-values
# ---------------------------------------------------------------------------

def test_p_value_at_zero_statistic():
    p, lp = p_value(from_counts([[2, 2], [2, 2]]))
    assert p == 1.0 and lp == 0.0


def test_p_value_against_erfc_oracle():
    # d = 1: survival of chi2_1 at x equals erfc(sqrt(x/2))
    t = from_counts(T2112)
    stat = 2 * 6 * mi_plugin(t)
    p, lp = p_value(t)
    assert p == pytest.approx(math.erfc(math.sqrt(stat / 2.0)), rel=1e-10)
    assert math.exp(lp) == pytest.approx(p, rel=1e-9)


def test_p_value_underflow_exhibit():
    # d = 9 with a huge statistic: the naive path hits exactly 0.0 while the
    # log path stays finite and far below -100
    c = np.full((4, 4), 1, dtype=int)
    np.fill_diagonal(c, 100)
    t = from_counts(c)
    assert dof(t, DofMode.EFFECTIVE) == 9
    stat = 2 * t.n * mi_plugin(t)
    assert stat >= 300.0
    p, lp = p_value(t)
    assert p == 0.0
    assert math.isfinite(lp) and lp < -100.0


def test_p_value_orientation_bounds():
    gen = np.random.default_rng(9)
    for _ in range(200):
        t = random_count_table(gen, require_dof=True)
        p, lp = p_value(t)
        assert 0.0 <= p <= 1.0
        assert lp <= 0.0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_independence():
    rep = report(from_counts([[2, 2], [2, 2]]))
    assert rep.mi_plugin == 0.0
    assert rep.si == pytest.approx(-1.0, abs=1e-12)
    assert rep.ni == 0.0
    assert rep.p_naive == 1.0
    assert rep.log_p == 0.0
    assert rep.n == 8 and rep.dof == 1


def test_report_matches_components():
    t = from_counts(T2112)
    rep = report(t)
    assert rep.mi_plugin == mi_plugin(t)
    assert rep.mi_bc == mi_plugin(t) - dof(t) / (2.0 * t.n)
    assert rep.indep_std == math.sqrt(dof(t)) / (math.sqrt(2.0) * t.n)
    assert rep.r_score == r_score(t)
    assert rep.si == standardized_information(t)
    assert rep.si_fisher == math.sqrt(2.0 * t.n * mi_plugin(t)) - math.sqrt(dof(t) - 0.5)
    assert rep.ni == normalized_mi(t)
    assert (rep.p_naive, rep.log_p) == p_value(t)


def test_report_internal_consistency_random():
    gen = np.random.default_rng(10)
    for _ in range(200):
        t = random_count_table(gen, require_dof=True)
        rep = report(t)
        assert rep.si == math.sqrt(2.0 * rep.n * rep.mi_plugin) - math.sqrt(rep.dof)
        assert rep.mi_bc == rep.mi_plugin - rep.dof / (2.0 * rep.n)
        if rep.p_naive >= 1e-6:
            assert math.exp(rep.log_p) == pytest.approx(rep.p_naive, rel=1e-9)


# ---------------------------------------------------------------------------
# distributional behavior
# ---------------------------------------------------------------------------

def test_chi2_null_moments(chi2_null_replicates):
    # uniform independent 4x4 at N=1000: 2N*mi has mean ~d and variance ~2d
    mis, _ = chi2_null_replicates
    stats = 2.0 * 1000 * mis
    assert abs(stats.mean() - 9.0) <= 0.45
    assert abs(stats.var() - 18.0) <= 1.8
    assert abs(mis.mean() - 0.0045) <= 0.1 * 0.0045
    assert abs(mis.std() - 0.0021213) <= 0.1 * 0.0021213


def test_si_fisher_normality(chi2_null_replicates):
    # sqrt(2N*mi) - sqrt(d) is approximately N(0, 1/2) under independence
    _, sis = chi2_null_replicates
    assert abs(sis.mean()) <= 0.1
    assert 0.60 <= sis.std() <= 0.81


def test_condition_2_limit():
    # under true dependence, si / sqrt(2N) approaches sqrt(true mi)
    probs = make_prob_table(np.array([
        [0.10, 0.05, 0.05, 0.05],
        [0.05, 0.10, 0.05, 0.05],
        [0.05, 0.05, 0.10, 0.05],
        [0.05, 0.05, 0.05, 0.10],
    ]))
    p = probs.probs
    pa = p.sum(1, keepdims=True)
    pb = p.sum(0, keepdims=True)
    true_mi = float((p * np.log(p / (pa * pb))).sum())
    n = 1_000_000
    vals = []
    for r in range(50):
        t = sample_table(probs, n, substream(314, r))
        vals.append(standardized_information(t) / math.sqrt(2.0 * n))
    ratio = float(np.median(vals)) / math.sqrt(true_mi)
    assert abs(ratio - 1.0) <= 0.01


def test_merging_never_increases_mi():
    # coarsening is data processing: plug-in MI cannot grow
    gen = np.random.default_rng(12)
    for _ in range(1000):
        t = random_count_table(gen, min_card=4, max_card=4, max_n=2000)
        merged = merge_states(t, ((0, 1), (2, 3)), ((0, 1), (2, 3)))
        assert mi_plugin(merged) <= mi_plugin(t) + 1e-12


def test_report_evaluates_each_statistic_once(monkeypatch):
    import depscore.measures as measures

    calls = {"mi_plugin": 0, "dof": 0, "mean_marginal_entropy": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(measures, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(measures, name, counted)
    report(from_counts([[30, 12, 5], [10, 28, 9]]))
    assert calls == {"mi_plugin": 1, "dof": 1, "mean_marginal_entropy": 1}
