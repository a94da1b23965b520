"""Scoring, ranking, notability thresholds, and discretization decisions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from depscore import (
    DofMode,
    MeasureKind,
    ScoredCandidate,
    compare_discretizations,
    dof,
    entropy,
    fig2_distribution,
    from_counts,
    merge_states,
    mi_plugin,
    normalized_mi,
    p_value,
    r_score,
    rank,
    reg_gamma_upper,
    report,
    sample_table,
    score_candidates,
    si_threshold,
    standardized_information,
    substream,
)
from depscore.ranking import NI_REFINEMENT_SHARE, first_best
from conftest import random_count_table

BLOCK_PARTS = (((0, 1), (2, 3)), ((0, 1), (2, 3)))


# ---------------------------------------------------------------------------
# threshold and notability
# ---------------------------------------------------------------------------

def test_si_threshold_values():
    assert si_threshold(0.5) == pytest.approx(0.0, abs=1e-12)
    assert si_threshold(0.05) == pytest.approx(1.6448536269514727 / math.sqrt(2.0), abs=1e-9)
    assert si_threshold(0.05) == pytest.approx(1.1630871536766741, abs=1e-9)


def test_si_threshold_monotone():
    alphas = [0.01, 0.05, 0.1, 0.3, 0.5, 0.8]
    vals = [si_threshold(a) for a in alphas]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_si_threshold_domain():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            si_threshold(bad)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_candidates_singleton_and_equality():
    t = from_counts([[3, 1], [1, 3]])
    single = score_candidates([("only", t)], MeasureKind.SI)
    assert len(single) == 1 and single[0].id == "only"
    two = score_candidates([("a", t), ("b", t)], MeasureKind.SI)
    assert two[0].score == two[1].score == standardized_information(t)


def test_score_candidates_orientation():
    diag = from_counts([[5, 0], [0, 5]])
    flat = from_counts([[2, 2], [2, 2]])
    scored = score_candidates([("diag", diag), ("flat", flat)],
                              MeasureKind.SI, DofMode.NOMINAL)
    by_id = {c.id: c for c in scored}
    assert by_id["diag"].key > by_id["flat"].key


def test_score_candidates_surfaces_id_on_error():
    # effective dof 0 under a dof-based measure: the candidate keeps its id,
    # scores nan and ranks last (mi_bc of the diagonal table is no longer its MI)
    bad, diag = from_counts([[5, 0], [0, 0]]), from_counts([[5, 0], [0, 5]])
    good = from_counts([[30, 5], [5, 30]])
    for kind in (MeasureKind.MI_BC, MeasureKind.SI, MeasureKind.SI_FISHER, MeasureKind.P_VALUE):
        ranking = rank(score_candidates([("badcand", bad), ("diag", diag), ("good", good)], kind))
        assert [c.id for c in ranking.candidates] == ["good", "badcand", "diag"]
        for c in ranking.candidates[1:]:
            assert math.isnan(c.score) and c.key == -math.inf and c.dof == 0


def test_score_candidates_p_value_key_is_neg_log_p():
    t = from_counts([[30, 5], [5, 30]])
    (cand,) = score_candidates([("x", t)], MeasureKind.P_VALUE)
    from depscore import p_value
    p_naive, log_p = p_value(t)
    assert cand.score == p_naive
    assert cand.key == -log_p


def test_mi_plugin_and_ni_tolerate_zero_dof():
    bad = from_counts([[5, 0], [0, 0]])
    (c,) = score_candidates([("z", bad)], MeasureKind.MI_PLUGIN)
    assert c.dof == 0 and c.score == 0.0


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def _cand(cid, key, d=1, n=10):
    return ScoredCandidate(id=cid, score=key, key=key, dof=d, n=n)


def test_rank_orders_by_key_descending():
    r = rank([_cand("a", 3.0), _cand("b", 1.0), _cand("c", 2.0)])
    assert [c.id for c in r.candidates] == ["a", "c", "b"]


def test_rank_breaks_ties_by_dof_then_id():
    r = rank([_cand("big", 1.0, d=9), _cand("small", 1.0, d=1)])
    assert [c.id for c in r.candidates] == ["small", "big"]
    r2 = rank([_cand("beta", 1.0, d=3), _cand("alpha", 1.0, d=3)])
    assert [c.id for c in r2.candidates] == ["alpha", "beta"]


def test_rank_empty():
    assert rank([]).candidates == ()


def test_first_best_takes_the_first_highest_key_of_each_row():
    scores = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [np.nan, 0.7, np.nan]])
    keys = np.array([[1.0, 3.0, 3.0], [-np.inf, -np.inf, -np.inf], [-np.inf, 2.0, -np.inf]])
    best_scores, best_keys = first_best(scores, keys)
    assert best_scores.tolist() == [0.2, 0.4, 0.7]
    assert best_keys.tolist() == [3.0, -np.inf, 2.0]
    assert [a.shape for a in first_best(scores[:0], keys[:0])] == [(0,), (0,)]


def test_rank_invariant_under_monotone_transform():
    gen = np.random.default_rng(31)
    keys = gen.normal(size=12)
    cands = [_cand(f"c{i:02d}", float(k)) for i, k in enumerate(keys)]
    base = [c.id for c in rank(cands).candidates]
    for f in (lambda x: 3.0 * x + 7.0, math.exp, lambda x: x ** 3):
        transformed = [_cand(c.id, f(c.key)) for c in cands]
        assert [c.id for c in rank(transformed).candidates] == base


def test_p_value_ranking_survives_underflow():
    # five candidates whose naive p-values all round to exactly zero still
    # get a strict order from the log path
    tables = []
    for i, scale in enumerate((40, 60, 80, 100, 120)):
        c = np.full((4, 4), 1, dtype=int)
        np.fill_diagonal(c, scale)
        tables.append((f"t{i}", from_counts(c)))
    scored = score_candidates(tables, MeasureKind.P_VALUE)
    assert all(c.score == 0.0 for c in scored)       # naive path is useless
    keys = [c.key for c in scored]
    assert len(set(keys)) == len(keys)               # log path fully orders
    ordered = rank(scored)
    assert [c.id for c in ordered.candidates] == ["t4", "t3", "t2", "t1", "t0"]


def test_fixed_dof_rankings_concordant():
    # same shape, same N, no empty cells: every measure is then a strictly
    # monotone transform of plug-in mi, so mi, mi_bc, si order alike
    gen = np.random.default_rng(32)
    tables = []
    while len(tables) < 8:
        t = random_count_table(gen, min_card=3, max_card=3, min_n=360, max_n=360)
        if np.all(t.counts > 0):
            tables.append((f"r{len(tables)}", t))
    orders = []
    for kind in (MeasureKind.MI_PLUGIN, MeasureKind.MI_BC, MeasureKind.SI):
        r = rank(score_candidates(tables, kind))
        orders.append(tuple(c.id for c in r.candidates))
    assert orders[0] == orders[1] == orders[2]
    # r_score is also monotone in mi at fixed dof
    rs = sorted(tables, key=lambda it: -r_score(it[1]))
    assert tuple(cid for cid, _ in rs) == orders[0]


# ---------------------------------------------------------------------------
# feature selection
# ---------------------------------------------------------------------------

def select_best_feature(tables, kind, mode=DofMode.EFFECTIVE):
    return rank(score_candidates(tables, kind, mode)).candidates[0].id


def test_select_best_feature_single():
    t = from_counts([[3, 1], [1, 3]])
    assert select_best_feature([("solo", t)], MeasureKind.SI) == "solo"


def test_select_best_feature_prefers_predictor():
    predictor = from_counts([[20, 0], [0, 20]])
    noise = from_counts([[10, 10], [10, 10]])
    got = select_best_feature([("noise", noise), ("pred", predictor)],
                              MeasureKind.SI, DofMode.NOMINAL)
    assert got == "pred"


# ---------------------------------------------------------------------------
# discretization comparison
# ---------------------------------------------------------------------------

def test_compare_uniform_refinement_is_tie_to_coarse():
    # a fine table that is exactly the uniform refinement of its coarsening
    # adds zero information: every measure must answer coarse
    block = np.array([[12, 4], [4, 12]])
    fine = from_counts(np.kron(block, np.ones((2, 2), dtype=int)))
    for kind in MeasureKind:
        assert compare_discretizations(fine, BLOCK_PARTS, kind,
                                       DofMode.NOMINAL) == "coarse"


def test_compare_within_block_structure_wins_fine():
    block = np.array([[9, 1, 0, 0], [1, 9, 0, 0], [0, 0, 9, 1], [0, 0, 1, 9]]) * 5
    fine = from_counts(block)
    assert compare_discretizations(fine, BLOCK_PARTS, MeasureKind.MI_PLUGIN,
                                   DofMode.NOMINAL) == "fine"
    assert compare_discretizations(fine, BLOCK_PARTS, MeasureKind.SI,
                                   DofMode.NOMINAL) == "fine"


def test_compare_si_independent_tables_favor_coarse():
    # sampled at z = 0: the refinement is pure noise and si keeps 2 states
    # in the large majority of seeds
    p = fig2_distribution(0.0)
    wins = 0
    for r in range(100):
        t = sample_table(p, 500, substream(404, r))
        if compare_discretizations(t, BLOCK_PARTS, MeasureKind.SI,
                                   DofMode.NOMINAL) == "coarse":
            wins += 1
    assert wins >= 85


def test_compare_degenerate_refinement_goes_coarse():
    # two lone diagonal cells: effective dof is 0 at both resolutions, so
    # the refinement has no estimable structure and coarse wins by default
    c = np.zeros((4, 4), dtype=int)
    c[0, 0] = 7
    c[2, 2] = 5
    t = from_counts(c)
    assert compare_discretizations(t, BLOCK_PARTS, MeasureKind.SI,
                                   DofMode.EFFECTIVE) == "coarse"


# ---------------------------------------------------------------------------
# one scoring kernel: parity with the per-measure functions and the old rule
# ---------------------------------------------------------------------------

def _public_score(t, kind, mode):
    """(score, key) from the public per-measure functions."""
    if kind is MeasureKind.MI_PLUGIN:
        v = mi_plugin(t)
    elif kind is MeasureKind.MI_BC:
        v = report(t, mode).mi_bc
    elif kind is MeasureKind.SI:
        v = standardized_information(t, mode)
    elif kind is MeasureKind.SI_FISHER:
        v = standardized_information(t, mode, fisher_corrected=True)
    elif kind is MeasureKind.NI:
        v = normalized_mi(t)
    else:
        p_naive, log_p = p_value(t, mode)
        return p_naive, -log_p
    return v, v


def test_score_candidates_equal_public_functions():
    gen = np.random.default_rng(8080)
    tables = [(f"c{i}", random_count_table(gen, max_card=5, max_n=5000, require_dof=True))
              for i in range(60)]
    for mode in DofMode:
        usable = [(cid, t) for cid, t in tables if dof(t, mode) >= 1]
        for kind in MeasureKind:
            for cand, (cid, t) in zip(score_candidates(usable, kind, mode), usable):
                assert cand.id == cid and cand.dof == dof(t, mode) and cand.n == t.n
                assert (cand.score, cand.key) == _public_score(t, kind, mode)


def _reference_choice(t_fine, partitions, kind, mode, alpha):
    """The refinement rule as one ladder over the measures, written out in full."""
    t_coarse = merge_states(t_fine, *partitions)
    n = t_fine.n
    i_within = max(mi_plugin(t_fine) - mi_plugin(t_coarse), 0.0)
    d_within = dof(t_fine, mode) - dof(t_coarse, mode)
    if kind is MeasureKind.MI_PLUGIN:
        return "fine" if i_within > 0.0 else "coarse"
    if kind is MeasureKind.NI:
        p = t_fine.counts / n
        h_bar = 0.5 * (entropy(p.sum(axis=1)) + entropy(p.sum(axis=0)))
        if h_bar <= 0.0:
            return "coarse"
        return "fine" if i_within / h_bar > NI_REFINEMENT_SHARE else "coarse"
    if d_within < 1:
        return "coarse"
    if kind is MeasureKind.MI_BC:
        return "fine" if i_within - d_within / (2.0 * n) > 0.0 else "coarse"
    if kind in (MeasureKind.SI, MeasureKind.SI_FISHER):
        shift = 0.5 if kind is MeasureKind.SI_FISHER else 0.0
        si = math.sqrt(2.0 * n * i_within) - math.sqrt(d_within - shift)
        return "fine" if si > si_threshold(alpha) else "coarse"
    _, log_q = reg_gamma_upper(d_within / 2.0, n * i_within)
    return "fine" if log_q < math.log(alpha) else "coarse"


def test_compare_discretizations_matches_reference_rule():
    gen = np.random.default_rng(5150)
    # the uniform refinement of its coarsening adds exactly zero information
    cases = [(from_counts(np.kron([[12, 4], [4, 12]], np.ones((2, 2), dtype=int))), BLOCK_PARTS)]
    for i in range(150):
        if i % 3 == 0:
            t = sample_table(fig2_distribution(float(gen.uniform(0.0, 0.125))),
                             int(gen.integers(20, 800)), substream(5150, i))
            cases.append((t, BLOCK_PARTS))
        else:
            t = random_count_table(gen, min_card=3, max_card=6, max_n=3000)
            cases.append((t, tuple(
                (tuple(range(cut)), tuple(range(cut, card)))
                for card, cut in ((t.card_a, int(gen.integers(1, t.card_a))),
                                  (t.card_b, int(gen.integers(1, t.card_b)))))))
    seen = set()
    for t, parts in cases:
        for kind in MeasureKind:
            for mode in DofMode:
                for alpha in (0.01, 0.05, 0.3):
                    got = compare_discretizations(t, parts, kind, mode, alpha)
                    assert got == _reference_choice(t, parts, kind, mode, alpha)
                    seen.add((kind, got))
    # both answers occur under every measure, so the rule is exercised
    assert len(seen) == 2 * len(MeasureKind)
