"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8's last clause reproduces published equivalent-sample-size
anchors for the social-aspirations cross-tabulation; that dataset is not
bundled. Point DEPSCORE_SEWELL_FILE at a count-table file to enable it;
otherwise the clause is skipped and the criterion is judged on the
synthetic parts.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depscore import (
    DofMode,
    MeasureKind,
    conditional_entropy,
    dof,
    entropy,
    from_counts,
    fig2_distribution,
    mi_plugin,
    nb_equal_mi_z,
    p_value,
    r_score,
    rank,
    run_discretization_experiment,
    run_feature_selection_experiment,
    sample_table,
    score_candidates,
    solve_ess,
    standardized_information,
    substream,
)
from depscore.cli import read_count_table
from conftest import random_count_table


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{extra}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def crossing_z(fractions, z_grid) -> float:
    """First grid z where the favor-2 fraction drops below 0.5; +inf if never."""
    for z, f in zip(z_grid, fractions):
        if f < 0.5:
            return z
    return math.inf


# ---------------------------------------------------------------------------

def test_criterion_01_si_r_identity():
    # |r - sqrt(2) si (1 + si / (2 sqrt(d)))| <= 1e-10 on 1e4 random tables
    gen = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(10_000):
        t = random_count_table(gen, require_dof=True)
        d = dof(t, DofMode.EFFECTIVE)
        si = standardized_information(t)
        gap = abs(r_score(t) - math.sqrt(2.0) * si * (1.0 + si / (2.0 * math.sqrt(d))))
        worst = max(worst, gap)
    verdict(1, "si-r exact identity", worst <= 1e-10, f"worst gap {worst:.3g}")


def test_criterion_02_chi2_calibration(chi2_null_replicates):
    mis, _ = chi2_null_replicates
    stats = 2.0 * 1000 * mis
    mean_ok = 8.55 <= stats.mean() <= 9.45
    var_ok = 16.2 <= stats.var() <= 19.8
    bias_ok = abs(mis.mean() - 0.0045) <= 0.1 * 0.0045
    std_ok = abs(mis.std() - 0.0021213) <= 0.1 * 0.0021213
    verdict(2, "chi-square null calibration", mean_ok and var_ok and bias_ok and std_ok,
            f"mean {stats.mean():.4f} var {stats.var():.3f} "
            f"mi mean {mis.mean():.6f} mi std {mis.std():.7f}")


def test_criterion_03_fisher_normality(chi2_null_replicates):
    _, sis = chi2_null_replicates
    ok = abs(sis.mean()) <= 0.1 and 0.60 <= sis.std() <= 0.81
    verdict(3, "fisher normal transform", ok,
            f"si mean {sis.mean():.4f} std {sis.std():.4f} (target 0, 0.707)")


def test_criterion_04_entropy_difference_identity():
    gen = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1000):
        t = random_count_table(gen)
        h_a = entropy(t.counts.sum(axis=1) / t.n)
        gap = abs(h_a - conditional_entropy(t, "a") - mi_plugin(t))
        worst = max(worst, gap)
    verdict(4, "mi as entropy difference", worst <= 1e-12, f"worst gap {worst:.3g}")


def test_criterion_05_feature_selection_study():
    kinds = (MeasureKind.MI_BC, MeasureKind.SI, MeasureKind.NI)
    z10 = run_feature_selection_experiment(
        z=0.10, replicates=100, measure_kinds=kinds, master_seed=20_240_806)
    z08 = run_feature_selection_experiment(
        z=0.08, n_values=(16384,), replicates=100, measure_kinds=kinds,
        master_seed=20_240_807)
    ns = z10.x_values
    si10 = z10.fractions["si"]
    bc10 = z10.fractions["mi_bc"]
    ni10 = z10.fractions["ni"]
    checks = {
        "si small at n=16384": si10[-1] <= 0.05,
        "si large at n=32": si10[0] >= 0.7,
        "mi_bc 0.2 below si at n=32": bc10[0] <= si10[0] - 0.2,
        "si and mi_bc >= 0.9 at z=0.08 n=16384":
            z08.fractions["si"][0] >= 0.9 and z08.fractions["mi_bc"][0] >= 0.9,
        "ni non-decreasing over top three n":
            ni10[-3] <= ni10[-2] <= ni10[-1],
    }
    detail = (f"si@32 {si10[0]:.2f} si@16384 {si10[-1]:.2f} bc@32 {bc10[0]:.2f} "
              f"ni top3 {ni10[-3]:.2f},{ni10[-2]:.2f},{ni10[-1]:.2f} "
              f"z08 si {z08.fractions['si'][0]:.2f} bc {z08.fractions['mi_bc'][0]:.2f}")
    failed = [k for k, v in checks.items() if not v]
    verdict(5, "feature-selection study", not failed,
            detail + (f" FAILED: {failed}" if failed else ""))
    assert ns[0] == 32.0 and ns[-1] == 16384.0


def test_criterion_06_discretization_study():
    z_grid = tuple(round(0.01 * i, 10) for i in range(11))
    curves = run_discretization_experiment(
        z_grid=z_grid, n_values=(25, 100, 500), replicates=200,
        measure_kinds=(MeasureKind.SI, MeasureKind.NI), master_seed=20_240_808)
    si500 = curves[500].fractions["si"]
    ni500 = curves[500].fractions["ni"]
    cross_si = {n: crossing_z(curves[n].fractions["si"], z_grid) for n in (25, 100, 500)}
    cross_ni500 = crossing_z(ni500, z_grid)
    si_z005 = [curves[n].fractions["si"][z_grid.index(0.05)] for n in (25, 100, 500)]
    checks = {
        "si favors 2 states at z=0, n=500": si500[0] >= 0.9,
        "si favors 4 states at z=0.1, n=500": si500[-1] <= 0.1,
        "si crossing non-increasing in n":
            cross_si[25] >= cross_si[100] >= cross_si[500],
        "ni crossing after si crossing at n=500": cross_ni500 > cross_si[500],
        "ni stagnation: ni - si >= 0.2 at z=0.1, n=500":
            ni500[-1] - si500[-1] >= 0.2,
        "occam transition at z=0.05 non-increasing in n (0.1 slack)":
            si_z005[0] >= si_z005[1] - 0.1 and si_z005[1] >= si_z005[2] - 0.1,
    }
    detail = (f"si500(z=0) {si500[0]:.2f} si500(z=.1) {si500[-1]:.2f} "
              f"crossings {cross_si[25]:.2f}/{cross_si[100]:.2f}/{cross_si[500]:.2f} "
              f"ni500 crossing {cross_ni500} ni500(z=.1) {ni500[-1]:.2f}")
    failed = [k for k, v in checks.items() if not v]
    verdict(6, "discretization study", not failed,
            detail + (f" FAILED: {failed}" if failed else ""))


def test_criterion_07_equal_information_point():
    z_star = nb_equal_mi_z()
    ok = 0.085 <= z_star <= 0.092   # interval contains the nominal 0.0882
    verdict(7, "equal-information z bracket", ok, f"z* {z_star:.5f}")


def test_criterion_08_ess_consistency():
    probs = fig2_distribution(0.06)
    rel_gaps = []
    all_observed = True
    for r in range(50):
        t = sample_table(probs, 10_000, substream(20_240_809, r))
        all_observed &= bool(np.all(t.counts > 0))
        res = solve_ess(t)
        rel_gaps.append(abs(res.n_prime_approx - res.n_prime_exact) / res.n_prime_exact)
    worst = max(rel_gaps)
    med_small = float(np.median(
        [solve_ess(sample_table(probs, 5_000, substream(20_240_810, r))).n_prime_exact
         for r in range(50)]))
    med_large = float(np.median(
        [solve_ess(sample_table(probs, 20_000, substream(20_240_811, r))).n_prime_exact
         for r in range(50)]))
    size_gap = abs(med_small - med_large) / min(med_small, med_large)

    detail = f"worst approx gap {worst:.3%}, medians {med_small:.2f} vs {med_large:.2f}"
    sewell = os.environ.get("DEPSCORE_SEWELL_FILE", "")
    if sewell and os.path.exists(sewell):
        res = solve_ess(read_count_table(sewell))
        anchors_ok = (60.0 <= res.n_prime_exact <= 75.0
                      and 60.0 <= res.n_prime_approx <= 75.0
                      and abs(res.n_prime_approx - res.n_prime_exact) <= 3.0)
        detail += f", external exact {res.n_prime_exact:.1f} approx {res.n_prime_approx:.1f}"
    else:
        anchors_ok = True
        detail += ", external anchors skipped (no data file)"
    ok = all_observed and worst <= 0.15 and size_gap <= 0.20 and anchors_ok
    verdict(8, "equivalent-sample-size consistency", ok, detail)


def test_criterion_09_p_value_instability_exhibit():
    tables = []
    for i, diag in enumerate((40, 60, 80, 100, 120)):
        c = np.full((4, 4), 1, dtype=int)
        np.fill_diagonal(c, diag)
        tables.append((f"cand{i}", from_counts(c)))
    stat_ok, naive_ok, log_ok = True, True, True
    for _, t in tables:
        stat = 2.0 * t.n * mi_plugin(t)
        stat_ok &= stat >= 300.0 and dof(t, DofMode.EFFECTIVE) == 9
        p_naive, log_p = p_value(t)
        naive_ok &= p_naive == 0.0
        log_ok &= math.isfinite(log_p) and log_p < -100.0
    scored = score_candidates(tables, MeasureKind.P_VALUE)
    keys = [c.key for c in scored]
    order_ok = len(set(keys)) == 5
    ranked = [c.id for c in rank(scored)]
    order_ok &= ranked == ["cand4", "cand3", "cand2", "cand1", "cand0"]
    verdict(9, "p-value instability exhibit",
            stat_ok and naive_ok and log_ok and order_ok,
            f"naive all 0.0, log_p finite, ranked {ranked}")


def test_criterion_10_experiment_determinism(tmp_path):
    out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    cmd = [sys.executable, "-m", "depscore", "experiment", "fig3",
           "--seed", "11", "--replicates", "100"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    ra = subprocess.run(cmd + ["--out", str(out_a)], capture_output=True, text=True, env=env)
    rb = subprocess.run(cmd + ["--out", str(out_b)], capture_output=True, text=True, env=env)
    same = out_a.read_bytes() == out_b.read_bytes()
    verdict(10, "experiment rerun byte-identical",
            ra.returncode == 0 and rb.returncode == 0 and same,
            f"{len(out_a.read_bytes())} bytes")
