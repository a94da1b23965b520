"""Generative families, harness determinism, and curve serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from depscore import (
    MeasureKind,
    NaiveBayesModel,
    fig2_distribution,
    format_curve,
    from_counts,
    nb_equal_mi_z,
    nb_true_mi,
    run_discretization_experiment,
    run_feature_selection_experiment,
    sample_nb_dataset,
    substream,
)
from depscore.experiments import FIG2_PARTITIONS
from depscore.tables import merge_states


def prob_mi_oracle(p: np.ndarray) -> float:
    """Plug-in formula evaluated directly on an exact distribution."""
    pa = p.sum(1, keepdims=True)
    pb = p.sum(0, keepdims=True)
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / (pa * pb)[mask])).sum())


# ---------------------------------------------------------------------------
# block family
# ---------------------------------------------------------------------------

def test_fig2_distribution_z0_uniform_independent():
    p = fig2_distribution(0.0)
    assert np.all(p.probs == 1 / 16)
    assert prob_mi_oracle(p.probs) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("z", [0.0, 0.02, 0.05, 0.1, 0.125])
def test_fig2_distribution_properties(z):
    p = fig2_distribution(z)
    assert p.probs.shape == (4, 4)
    assert np.all(p.probs >= 0.0)
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-14)
    ra, cb = p.probs.sum(axis=1), p.probs.sum(axis=0)
    assert np.allclose(ra, 0.25, atol=1e-14)
    assert np.allclose(cb, 0.25, atol=1e-14)
    assert np.all(np.abs(np.abs(p.probs - 1 / 16) - z / 2) < 1e-14)
    # merging the 2x2 blocks always yields the uniform independent table
    block = p.probs.reshape(2, 2, 2, 2).sum(axis=(1, 3))
    assert np.allclose(block, 0.25, atol=1e-14)


def test_fig2_distribution_true_mi_at_z_01():
    assert prob_mi_oracle(fig2_distribution(0.1).probs) == pytest.approx(
        0.3680642071684971, abs=1e-12)


@pytest.mark.parametrize("z", [-0.01, 0.13, 1.0])
def test_fig2_distribution_domain(z):
    with pytest.raises(ValueError):
        fig2_distribution(z)


# ---------------------------------------------------------------------------
# naive Bayes model
# ---------------------------------------------------------------------------

def test_nb_true_mi_binary_entropy_decomposition_oracle():
    # exact 2x4 joint: rows X, columns Y, p(x=1, y) = p_cond / 4
    cond = np.array([0.6, 0.8, 0.3, 0.1])
    joint = np.vstack([(1 - cond) / 4, cond / 4])
    got = nb_true_mi(NaiveBayesModel(0.0), "binary")
    assert got == pytest.approx(prob_mi_oracle(joint), abs=1e-14)
    assert got == pytest.approx(0.16079847221514197, abs=1e-12)
    # independent of z by construction
    assert nb_true_mi(NaiveBayesModel(0.2), "binary") == got


def test_nb_true_mi_four_state():
    assert nb_true_mi(NaiveBayesModel(0.0), "four_state") == pytest.approx(0.0, abs=1e-15)
    assert nb_true_mi(NaiveBayesModel(0.10), "four_state") == pytest.approx(
        0.20378001750565279, abs=1e-12)
    assert nb_true_mi(NaiveBayesModel(0.25), "four_state") == pytest.approx(
        math.log(4.0), abs=1e-12)


def test_nb_conditionals_normalize():
    for z in (0.0, 0.05, 0.0881, 0.2, 0.25):
        m = NaiveBayesModel(z)
        assert m.p_same + 3 * m.p_other == pytest.approx(1.0, abs=1e-14)
        assert m.p_other >= 0.0


def test_nb_equal_mi_z_bracket():
    z_star = nb_equal_mi_z()
    assert 0.085 <= z_star <= 0.092
    gap = (nb_true_mi(NaiveBayesModel(z_star), "four_state")
           - nb_true_mi(NaiveBayesModel(z_star), "binary"))
    assert abs(gap) < 1e-10


def test_sample_nb_dataset_shapes_and_totals():
    tabs = sample_nb_dataset(NaiveBayesModel(0.1), 500, substream(1, 0))
    assert [cid for cid, _ in tabs] == [f"x{i:02d}" for i in range(1, 21)]
    for cid, t in tabs:
        assert t.n == 500
        assert t.card_b == 4
        assert t.card_a == (2 if int(cid[1:]) <= 10 else 4)


def test_sample_nb_dataset_deterministic_copy_at_z_max():
    # z = 1/4: four-state features equal the class in every sample
    tabs = sample_nb_dataset(NaiveBayesModel(0.25), 200, substream(2, 0))
    for cid, t in tabs[10:]:
        off_diag = t.counts.sum() - np.trace(t.counts)
        assert off_diag == 0


def test_sample_nb_dataset_binary_rate():
    # empirical P(X = 1) ~ 0.45 within 4 sigma at n = 1e5
    n = 100_000
    tabs = sample_nb_dataset(NaiveBayesModel(0.1), n, substream(3, 0))
    sigma = math.sqrt(0.45 * 0.55 / n)
    for _, t in tabs[:10]:
        rate = t.counts[1, :].sum() / n
        assert abs(rate - 0.45) <= 4 * sigma


def test_sample_nb_dataset_determinism():
    a = sample_nb_dataset(NaiveBayesModel(0.08), 300, substream(77, 5))
    b = sample_nb_dataset(NaiveBayesModel(0.08), 300, substream(77, 5))
    for (_, ta), (_, tb) in zip(a, b):
        assert np.array_equal(ta.counts, tb.counts)


# ---------------------------------------------------------------------------
# discretization harness
# ---------------------------------------------------------------------------

def test_discretization_experiment_deterministic_and_bounded():
    kw = dict(z_grid=(0.0, 0.05), n_values=(25, 100), replicates=5,
              master_seed=99)
    curves_a = run_discretization_experiment(**kw)
    curves_b = run_discretization_experiment(**kw)
    assert set(curves_a) == {25, 100}
    for n in curves_a:
        assert format_curve(curves_a[n]) == format_curve(curves_b[n])
        for m, fr in curves_a[n].fractions.items():
            assert all(0.0 <= f <= 1.0 for f in fr)


def test_discretization_experiment_records_p_underflow():
    # at n = 500 and strong dependence the naive p-value dies for both the
    # 4-state-dependence and 2-states-suffice hypotheses
    curves = run_discretization_experiment(
        z_grid=(0.08,), n_values=(500,), replicates=20, master_seed=5)
    under = curves[500].p_underflow
    assert under is not None and under[0] >= 1
    # the broken naive path plots as favoring 2 states (the wrong answer here)
    assert curves[500].fractions["p_value"][0] == 1.0


def test_discretization_experiment_strong_dependence_prefers_fine():
    curves = run_discretization_experiment(
        z_grid=(0.1,), n_values=(500,), replicates=20, master_seed=6,
        measure_kinds=(MeasureKind.SI, MeasureKind.MI_BC))
    assert curves[500].fractions["si"][0] <= 0.1
    assert curves[500].fractions["mi_bc"][0] <= 0.1


# ---------------------------------------------------------------------------
# feature-selection harness
# ---------------------------------------------------------------------------

def test_feature_selection_deterministic_and_bounded():
    kw = dict(z=0.10, n_values=(32, 128), replicates=6, master_seed=123)
    a = run_feature_selection_experiment(**kw)
    b = run_feature_selection_experiment(**kw)
    assert format_curve(a) == format_curve(b)
    for m, fr in a.fractions.items():
        assert all(0.0 <= f <= 1.0 for f in fr)
    assert a.x_values == (32.0, 128.0)


def test_feature_selection_z_max_prefers_four_state():
    # at z = 1/4 the four-state features reproduce the class exactly
    curve = run_feature_selection_experiment(
        z=0.25, n_values=(256,), replicates=10, master_seed=11,
        measure_kinds=(MeasureKind.SI,))
    assert curve.fractions["si"][0] == 0.0


# ---------------------------------------------------------------------------
# curve serialization
# ---------------------------------------------------------------------------

def test_format_curve_layout():
    curve = run_feature_selection_experiment(
        z=0.10, n_values=(32, 64), replicates=3, master_seed=1,
        measure_kinds=(MeasureKind.SI, MeasureKind.P_VALUE))
    text = format_curve(curve)
    lines = text.strip().split("\n")
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("master_seed: 1" in c for c in comments)
    assert any("replicates: 3" in c for c in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split("\t") == ["n", "si", "p_value", "p_underflow"]
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 2
    first = rows[0].split("\t")
    assert first[0] == "32"
    assert 0.0 <= float(first[1]) <= 1.0


def test_fig2_partition_merges_to_uniform():
    t = from_counts(np.full((4, 4), 3))
    m = merge_states(t, *FIG2_PARTITIONS)
    assert np.all(m.counts == 12)
