"""Score, rank, threshold, and select among candidate variable pairs.

Candidates are ranked on an orientation-normalized key: higher key means
more dependent for every measure, with p-value candidates keyed on the
negated log survival probability so the ordering survives far past the
point where the naive p-value rounds to zero. Exact key ties break toward
the candidate with fewer degrees of freedom (the simpler hypothesis), then
lexicographically by id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import measures
from .measures import MeasureKind
from .tables import CountTable, DofMode, dof, merge_states

__all__ = [
    "ScoredCandidate",
    "Ranking",
    "score_candidates",
    "rank",
    "si_threshold",
    "compare_discretizations",
]

# A refinement must claim at least this share of the mean marginal entropy
# before the normalized-MI rule accepts the finer discretization. The share
# is deliberately independent of N: normalized MI carries no sample-size-
# dependent regularization, and this rule inherits exactly that property.
NI_REFINEMENT_SHARE = 1.0 / 3.0


@dataclass(frozen=True)
class ScoredCandidate:
    """One candidate with its raw score and orientation-normalized key."""

    id: str
    score: float
    key: float
    dof: int
    n: int


@dataclass(frozen=True)
class Ranking:
    """Candidates in non-increasing key order, ties broken as the module docstring says."""

    candidates: tuple[ScoredCandidate, ...]


def score_candidates(tables, kind: MeasureKind,
                     mode: DofMode = DofMode.EFFECTIVE) -> list[ScoredCandidate]:
    """Score each (id, CountTable) candidate under one measure, in one
    :func:`measures.score` call: a candidate the measure is undefined on
    scores nan with key ``-inf``, so :func:`rank` puts it last."""
    tables = [(str(cid), t) for cid, t in tables]
    mi = np.array([measures.mi_plugin(t) for _, t in tables], dtype=float)
    d = np.array([dof(t, mode) for _, t in tables], dtype=np.int64)
    n = np.array([t.n for _, t in tables], dtype=np.int64)
    h_bar = np.array([measures.mean_marginal_entropy(t) for _, t in tables], dtype=float) \
        if kind is MeasureKind.NI else None
    scores, keys = measures.score(kind, mi, d, n, h_bar)
    return [ScoredCandidate(id=cid, score=float(s), key=float(k), dof=int(dd), n=t.n)
            for (cid, t), s, k, dd in zip(tables, scores, keys, d)]


def rank(candidates) -> Ranking:
    """Stable ordering by key descending with the documented tie break."""
    ordered = sorted(candidates, key=lambda c: (-c.key, c.dof, c.id))
    return Ranking(candidates=tuple(ordered))


def si_threshold(alpha: float) -> float:
    """Notability threshold c with Phi(sqrt(2) c) = 1 - alpha, i.e. -Phi^-1(alpha) / sqrt(2)."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return -NormalDist().inv_cdf(alpha) / math.sqrt(2.0)  # 1 - alpha may round to 1


def selection_margin(kind: MeasureKind, alpha: float) -> float:
    """How far a richer candidate's key must clear the simpler one's; raises for an
    alpha outside (0, 1) under every measure."""
    threshold = si_threshold(alpha)
    if kind in (MeasureKind.SI, MeasureKind.SI_FISHER):
        return threshold
    if kind is MeasureKind.P_VALUE:
        return -math.log(alpha)
    return 0.0


def refinement_margin(kind: MeasureKind, alpha: float) -> float:
    """What a refinement increment's key must exceed; see :func:`compare_discretizations`."""
    margin = selection_margin(kind, alpha)  # checks alpha under ni too
    return NI_REFINEMENT_SHARE if kind is MeasureKind.NI else margin


def refinement_increment(fine, coarse) -> tuple:
    """The :func:`measures.score` arguments of what finer states add beyond a merging of
    them: the MI and dof increments of two ``stack_stats``, with the fine n and h_bar."""
    (mi_fine, d_fine, n, h_bar), (mi_coarse, d_coarse, _, _) = fine, coarse
    return np.maximum(mi_fine - mi_coarse, 0.0), d_fine - d_coarse, n, h_bar


def first_best(scores, keys) -> tuple[np.ndarray, np.ndarray]:
    """(score, key) of the first candidate with the highest key in each row of
    ``(groups, candidates)`` arrays, as two arrays of one entry per group."""
    i = np.argmax(keys, axis=1)[:, None]
    return np.take_along_axis(scores, i, 1)[:, 0], np.take_along_axis(keys, i, 1)[:, 0]


def compare_discretizations(t_fine: CountTable, partitions, kind: MeasureKind,
                            mode: DofMode = DofMode.EFFECTIVE,
                            alpha: float = 0.05) -> str:
    """Decide between a table's own resolution and a coarser merging.

    Returns ``"fine"`` or ``"coarse"``. The merged table is nested inside the
    fine one, so the comparison puts the *increment* (the information the
    finer states add beyond the coarse dependence, with the corresponding
    extra degrees of freedom) on the measure's own scale, and the increment's
    key must clear a per-measure margin:

    - ``mi_plugin``: any increment at all favors fine (margin 0).
    - ``mi_bc``: increment must exceed its bias d_extra / (2N) (margin 0).
    - ``si`` / ``si_fisher``: the standardized increment must clear the
      notability threshold for ``alpha``.
    - ``p_value``: the increment's chi-square survival (robust log path)
      must fall below ``alpha``, i.e. its key must exceed ``-log(alpha)``.
    - ``ni``: the increment's share of the mean marginal entropy must exceed
      the fixed ``NI_REFINEMENT_SHARE`` (a sample-size-independent rule, in
      keeping with how normalized MI regularizes).

    Exact ties and degenerate cases (no extra estimable structure) go to
    coarse, the simpler hypothesis.
    """
    fine, coarse = (measures.stack_stats(t.counts[None], mode)
                    for t in (t_fine, merge_states(t_fine, *partitions)))
    _, keys = measures.score(kind, *refinement_increment(fine, coarse))
    return "fine" if keys[0] > refinement_margin(kind, alpha) else "coarse"
