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
from .tables import CountTable, DofMode, _fold

__all__ = [
    "ScoredCandidate",
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


def score_candidates(tables, kind: MeasureKind,
                     mode: DofMode = DofMode.EFFECTIVE) -> list[ScoredCandidate]:
    """Score each (id, CountTable) candidate under one measure, in one
    :func:`measures.score` call: a candidate the measure is undefined on
    scores nan with key ``-inf``, so :func:`rank` puts it last. The tables of
    each shape get their statistics from one :func:`measures.stack_stats` call."""
    tables = [(str(cid), t) for cid, t in tables]
    by_shape: dict = {}
    for i, (_, t) in enumerate(tables):
        by_shape.setdefault(t.counts.shape, []).append(i)
    mi, h_bar = np.empty(len(tables)), np.empty(len(tables))
    d, n = np.empty(len(tables), dtype=np.int64), np.empty(len(tables), dtype=np.int64)
    for at in by_shape.values():
        mi[at], d[at], n[at], h_bar[at] = measures.stack_stats(
            np.stack([tables[i][1].counts for i in at]), mode)
    scores, keys = measures.score(kind, mi, d, n, h_bar)
    return [ScoredCandidate(id=cid, score=float(s), key=float(k), dof=int(dd))
            for (cid, _), s, k, dd in zip(tables, scores, keys, d)]


def rank(candidates) -> tuple[ScoredCandidate, ...]:
    """The candidates in non-increasing key order, ties broken as the module docstring says."""
    return tuple(sorted(candidates, key=lambda c: (-c.key, c.dof, c.id)))


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


def refinement_increment(c: np.ndarray, partitions, mode: DofMode) -> tuple:
    """``(within, fine)``: the :func:`measures.score` arguments of what each table of the stack
    ``c`` gains over its merging by ``partitions`` (the MI and dof increments, with the fine n
    and h_bar), and the ``stack_stats`` of ``c``."""
    fine = mi, d, n, h_bar = measures.stack_stats(c, mode)
    mi_coarse, d_coarse, _, _ = measures.stack_stats(_fold(c, *partitions), mode)
    return (np.maximum(mi - mi_coarse, 0.0), d - d_coarse, n, h_bar), fine


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
    coarse, the simpler hypothesis. ``partitions`` is ``merge_states``' ``(part_a, part_b)``,
    and the increment is :func:`refinement_increment` of a stack of one, as in the fig2 study.
    """
    _, keys = measures.score(kind, *refinement_increment(t_fine.counts[None], partitions, mode)[0])
    return "fine" if keys[0] > refinement_margin(kind, alpha) else "coarse"
