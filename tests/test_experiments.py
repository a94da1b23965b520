"""Generative families, harness determinism, and curve serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from depscore import (
    MeasureKind,
    NaiveBayesModel,
    compare_discretizations,
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
from depscore import experiments
from depscore.cli import main
from depscore.experiments import FIG2_PARTITIONS, FIG3_MAX_N, _sample_nb_stacks
from depscore.measures import score, stack_stats
from depscore.ranking import refinement_margin, selection_margin
from depscore.tables import DofMode, merge_states


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
        assert t.counts.shape == (2 if int(cid[1:]) <= 10 else 4, 4)


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


@pytest.mark.parametrize("n", [FIG3_MAX_N + 1, 10**15, 2**63])
def test_sample_nb_dataset_caps_n_as_fig3_does(n):
    # rejected before anything is drawn: the generator is left untouched
    gen = substream(1, 0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match=f"n must be an integer from 1 to FIG3_MAX_N = "
                                         f"{FIG3_MAX_N} for feature selection, got {n}$"):
        sample_nb_dataset(NaiveBayesModel(0.1), n, gen)
    assert gen.bit_generator.state == state


def test_sample_nb_dataset_determinism():
    a = sample_nb_dataset(NaiveBayesModel(0.08), 300, substream(77, 5))
    b = sample_nb_dataset(NaiveBayesModel(0.08), 300, substream(77, 5))
    for (_, ta), (_, tb) in zip(a, b):
        assert np.array_equal(ta.counts, tb.counts)


@pytest.mark.parametrize("call, message", [
    # a non-integer size is an error, not truncated to one replicate at n = 32
    pytest.param(lambda: run_feature_selection_experiment(n_values=[32.7], replicates=1),
                 "n must be an integer", id="fig3-n"),
    pytest.param(lambda: run_feature_selection_experiment(n_values=[32], replicates=1.9),
                 "replicates must be an integer", id="fig3-replicates"),
    pytest.param(lambda: run_discretization_experiment(n_values=[25.5], replicates=1),
                 "n must be an integer", id="fig2-n"),
    pytest.param(lambda: run_discretization_experiment(replicates=0),
                 "replicates must be an integer >= 1, got 0", id="fig2-no-replicates"),
    pytest.param(lambda: run_discretization_experiment(n_values=[0], replicates=1),
                 "n must be an integer >= 1", id="fig2-n-zero"),
    pytest.param(lambda: run_discretization_experiment(
        replicates=1, measure_kinds=[MeasureKind.SI, MeasureKind.SI]),
                 "measures must be distinct", id="fig2-repeated-measure"),
    pytest.param(lambda: sample_nb_dataset(NaiveBayesModel(0.1), 32.7, substream(1, 0)),
                 "n must be an integer", id="nb-dataset-n"),
    pytest.param(lambda: sample_nb_dataset(NaiveBayesModel(0.1), 0, substream(1, 0)),
                 "n must be an integer from 1 to FIG3_MAX_N", id="nb-dataset-n-zero"),
    pytest.param(lambda: run_discretization_experiment(master_seed=1.5, replicates=1),
                 "seed must be an unsigned 64-bit integer", id="fig2-seed"),
    # with no sample sizes no replicate draws, so only a check up front sees the seed
    pytest.param(lambda: run_feature_selection_experiment(master_seed=1.5, n_values=(),
                                                          replicates=1),
                 "seed must be an unsigned 64-bit integer", id="fig3-seed-no-n"),
    pytest.param(lambda: run_discretization_experiment(master_seed=2**70, n_values=()),
                 "seed must be an unsigned 64-bit integer", id="fig2-seed-no-n"),
    pytest.param(lambda: run_feature_selection_experiment(master_seed=-1, replicates=0),
                 "seed must be an unsigned 64-bit integer", id="fig3-seed-first"),
    pytest.param(lambda: nb_true_mi(NaiveBayesModel(0.1), "other"),
                 "which must be 'binary' or 'four_state'", id="nb-true-mi-which"),
    # alpha is checked under every measure, not only where a margin uses it
    *(pytest.param(lambda run=run, a=a, k=k: run(replicates=1, alpha=a, measure_kinds=[k]),
                   r"alpha must be in \(0, 1\)", id=f"{name}-alpha-{a}-{k.value}")
      for name, run in (("fig2", run_discretization_experiment),
                        ("fig3", run_feature_selection_experiment))
      for a in (0.0, 1.0, 2.0, math.nan)
      for k in (MeasureKind.MI_PLUGIN, MeasureKind.MI_BC, MeasureKind.NI, MeasureKind.P_VALUE)),
    pytest.param(lambda: compare_discretizations(from_counts(np.ones((4, 4), dtype=int)),
                                                 FIG2_PARTITIONS, MeasureKind.P_VALUE, alpha=3.0),
                 r"alpha must be in \(0, 1\)", id="compare-alpha"),
])
def test_bad_study_inputs_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
# blocks of replicates
# ---------------------------------------------------------------------------

ALL_MEASURES = tuple(MeasureKind)


def _reference_fig2(z_grid, n_values, replicates, seed, mode, alpha=0.05):
    """Replicate by replicate and table by table: favor-2 counts per (measure,
    z, n), underflow counts per (z, n), and which replicates underflowed."""
    favor2 = np.zeros((len(ALL_MEASURES), len(z_grid), len(n_values)), dtype=int)
    underflow = np.zeros((len(z_grid), len(n_values)), dtype=int)
    dead_replicates = []
    for r in range(replicates):
        gen = substream(seed, r)
        counts = np.array([gen.multinomial(n, fig2_distribution(z).probs.ravel())
                           for z in z_grid for n in n_values]).reshape(-1, 4, 4)
        coarse = np.array([merge_states(from_counts(c), *FIG2_PARTITIONS).counts
                           for c in counts])
        fine, (mi_coarse, d_coarse, _, _) = stack_stats(counts, mode), stack_stats(coarse, mode)
        within = np.maximum(fine[0] - mi_coarse, 0.0), fine[1] - d_coarse, *fine[2:]
        dead = np.zeros(len(counts), dtype=bool)
        for j, k in enumerate(ALL_MEASURES):
            scores, keys = score(k, *within)
            favors_fine = keys > refinement_margin(k, alpha)
            if k is MeasureKind.P_VALUE:
                dead = (scores == 0.0) & (score(k, *fine)[0] == 0.0)
                favors_fine &= ~dead
            favor2[j] += (~favors_fine).reshape(len(z_grid), len(n_values))
        underflow += dead.reshape(len(z_grid), len(n_values))
        dead_replicates.append(bool(dead.any()))
    return favor2, underflow, dead_replicates


def _reference_fig3(z, n_values, replicates, seed, mode, alpha=0.05):
    """The same for feature selection, counts per (measure, n) and n."""
    model = NaiveBayesModel(z)
    four_truly_better = nb_true_mi(model, "four_state") > nb_true_mi(model, "binary")
    favor2 = np.zeros((len(ALL_MEASURES), len(n_values)), dtype=int)
    underflow = np.zeros(len(n_values), dtype=int)
    dead_replicates = []
    for r in range(replicates):
        gen = substream(seed, r)
        any_dead = False
        for i, n in enumerate(n_values):
            stats = [stack_stats(c, mode) for c in _sample_nb_stacks(model, n, gen)]
            for j, k in enumerate(ALL_MEASURES):
                (s2, k2), (s4, k4) = ((s[np.argmax(keys)], keys[np.argmax(keys)])
                                      for s, keys in (score(k, *st) for st in stats))
                favors_two = not (k4 > k2 + selection_margin(k, alpha))
                if k is MeasureKind.P_VALUE and s2 == 0.0 and s4 == 0.0:
                    underflow[i] += 1
                    any_dead = True
                    favors_two = four_truly_better
                favor2[j, i] += favors_two
        dead_replicates.append(any_dead)
    return favor2, underflow, dead_replicates


def _assert_curve(curve, favor2, underflow, replicates):
    for j, k in enumerate(ALL_MEASURES):
        assert curve.fractions[k.value] == tuple(c / replicates for c in favor2[j])
    assert curve.p_underflow == tuple(underflow)


# Blocks of B = 3 replicates on small grids: fig2 6 tables a replicate, fig3
# 40. The naive p-value underflows at z 0.08 and n 500 in fig2, at n 512 in fig3.
SEAM_BLOCK = 3
SEAM_FIG2 = ((0.0, 0.06, 0.08), (25, 500))
SEAM_FIG3 = (0.1, (32, 512))


@pytest.mark.parametrize("mode", [DofMode.NOMINAL, DofMode.EFFECTIVE])
@pytest.mark.parametrize("replicates", [1, SEAM_BLOCK - 1, SEAM_BLOCK, SEAM_BLOCK + 1,
                                        2 * SEAM_BLOCK + 1])
@pytest.mark.parametrize("study", ["fig2", "fig3"])
def test_block_seams_change_nothing(monkeypatch, study, replicates, mode):
    """Scoring whole blocks of replicates equals scoring replicate by replicate,
    at replicate counts around the block size, underflow column included."""
    if study == "fig2":
        z_grid, n_values = SEAM_FIG2
        monkeypatch.setattr(experiments, "_BLOCK_TABLES", SEAM_BLOCK * 6)
        curves = run_discretization_experiment(z_grid, n_values, replicates, ALL_MEASURES,
                                               master_seed=8, mode=mode)
        favor2, underflow, dead = _reference_fig2(z_grid, n_values, replicates, 8, mode)
        for i, n in enumerate(n_values):
            _assert_curve(curves[n], favor2[:, :, i], underflow[:, i], replicates)
    else:
        z, n_values = SEAM_FIG3
        monkeypatch.setattr(experiments, "_BLOCK_TABLES", SEAM_BLOCK * 40)
        curve = run_feature_selection_experiment(z, n_values, replicates, ALL_MEASURES,
                                                 master_seed=8, mode=mode)
        favor2, underflow, dead = _reference_fig3(z, n_values, replicates, 8, mode)
        _assert_curve(curve, favor2, underflow, replicates)
    assert len(list(experiments._blocks(replicates, 6 if study == "fig2" else 40))) == \
        -(-replicates // SEAM_BLOCK)
    if replicates > SEAM_BLOCK:
        # the naive p-value underflows in replicates on both sides of a seam
        assert any(dead[:SEAM_BLOCK]) and any(dead[SEAM_BLOCK:])


DEFAULT_HEADER = "mi_bc\tsi\tni\tp_value\tp_underflow"


@pytest.mark.parametrize("run, header, rows", [
    (lambda: run_discretization_experiment(z_grid=(), replicates=3)[25],
     f"z\t{DEFAULT_HEADER}", []),
    (lambda: run_feature_selection_experiment(n_values=(), replicates=3),
     f"n\t{DEFAULT_HEADER}", []),
    (lambda: run_discretization_experiment((0.0,), (25,), 3, measure_kinds=())[25], "z", ["0"]),
    (lambda: run_feature_selection_experiment(n_values=(32,), replicates=3, measure_kinds=()),
     "n", ["32"]),
])
def test_empty_grids_and_measures(run, header, rows):
    """An empty grid gives a header-only curve, no measures a curve of x values only."""
    lines = [ln for ln in format_curve(run()).splitlines() if not ln.startswith("#")]
    assert lines == [header, *rows]


def test_empty_n_values_give_no_fig2_curves():
    assert run_discretization_experiment(n_values=(), replicates=3) == {}
    assert set(run_discretization_experiment(z_grid=(), n_values=(25, 100))) == {25, 100}


def test_each_block_scored_once(monkeypatch):
    """Two ``stack_stats`` calls per block of replicates: the fine and coarse
    stacks of fig2, the binary and four-state stacks of fig3."""
    calls = []

    def counting(c, mode):
        calls.append(len(c))
        return stack_stats(c, mode)

    monkeypatch.setattr(experiments.meas, "stack_stats", counting)
    for run, replicates, blocks in ((run_discretization_experiment, 10, 1),
                                    (run_feature_selection_experiment, 4, 1),
                                    (run_feature_selection_experiment, 100, 5)):
        calls.clear()
        run(replicates=replicates)
        assert len(calls) == 2 * blocks
    # the default fig3 grid takes 200 tables a replicate, in blocks of 20 replicates
    assert calls == [20 * 10 * 10] * 10
    assert len(list(experiments._blocks(100, 200))) == 5


@pytest.mark.parametrize("replicates", [10**12, 2**63 - 1])
def test_blocks_are_made_one_at_a_time(replicates):
    # a list of every block would hold about 8e9 ranges at 10**12 replicates
    assert next(iter(experiments._blocks(replicates, 33))) == range(0, 124)


def test_a_huge_replicate_count_starts_drawing_at_once(monkeypatch, tmp_path):
    """A valid count of replicates runs as long as asked; the first draw ends this one."""
    class Drawn(Exception):
        pass

    def first_draw(seed, r):
        raise Drawn(seed, r)

    monkeypatch.setattr(experiments, "substream", first_draw)
    with pytest.raises(Drawn) as drawn:
        main(["experiment", "fig2", "--replicates", str(10**400), "--n-values", "25",
              "--out", str(tmp_path / "c.tsv")])
    assert drawn.value.args == (0, 0) and not (tmp_path / "c.tsv").exists()


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
