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
from typing import NamedTuple

from . import measures
from .measures import MeasureKind
from .numerics import inv_std_normal_cdf
from .tables import CountTable, DofMode, dof, merge_states

__all__ = [
    "ScoredCandidate",
    "Ranking",
    "score_candidates",
    "rank",
    "si_threshold",
    "is_notable",
    "compare_discretizations",
    "select_best_feature",
]

TIE_POLICY = "key descending; ties: smaller dof first, then lexicographic id"

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
    """Candidates in non-increasing key order, with the tie policy recorded."""

    candidates: tuple[ScoredCandidate, ...]
    tie_policy: str = TIE_POLICY


def score_candidates(tables, kind: MeasureKind,
                     mode: DofMode = DofMode.EFFECTIVE) -> list[ScoredCandidate]:
    """Score each (id, CountTable) candidate under one measure.

    A failure on one candidate (e.g. zero effective dof for a dof-based
    measure) is re-raised with that candidate's id attached.
    """
    out = []
    for cid, t in tables:
        try:
            d = dof(t, mode)
            h_bar = measures.mean_marginal_entropy(t) if kind is MeasureKind.NI else None
            score, key = measures.score(kind, measures.mi_plugin(t), d, t.n, h_bar)
        except ValueError as exc:
            raise ValueError(f"candidate {cid!r}: {exc}") from exc
        out.append(ScoredCandidate(id=str(cid), score=float(score), key=float(key), dof=d, n=t.n))
    return out


def rank(candidates) -> Ranking:
    """Stable ordering by key descending with the documented tie break."""
    ordered = sorted(candidates, key=lambda c: (-c.key, c.dof, c.id))
    return Ranking(candidates=tuple(ordered))


def si_threshold(alpha: float) -> float:
    """Notability threshold c with Phi(sqrt(2) c) = 1 - alpha."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return inv_std_normal_cdf(1.0 - alpha) / math.sqrt(2.0)


def is_notable(si: float, alpha: float) -> bool:
    """Whether a standardized-information value clears the alpha threshold."""
    return float(si) > si_threshold(alpha)


def select_best_feature(tables, kind: MeasureKind,
                        mode: DofMode = DofMode.EFFECTIVE) -> str:
    """Id of the top-ranked candidate (plain argmax with the rank tie policy)."""
    scored = score_candidates(tables, kind, mode)
    if not scored:
        raise ValueError("no candidates supplied")
    return rank(scored).candidates[0].id


def _margin(kind: MeasureKind, alpha: float) -> float:
    """How far a richer candidate's key must clear the simpler one's."""
    if kind in (MeasureKind.SI, MeasureKind.SI_FISHER):
        return si_threshold(alpha)
    if kind is MeasureKind.P_VALUE:
        return -math.log(alpha)
    return 0.0


def _refinement_margin(kind: MeasureKind, alpha: float) -> float:
    return NI_REFINEMENT_SHARE if kind is MeasureKind.NI else _margin(kind, alpha)


class _Refinement(NamedTuple):
    """A table's statistics and what its finer states add beyond a merging."""

    n: int
    mi_fine: float
    d_fine: int
    mi_within: float
    d_within: int
    h_bar: float


def _refinement(t_fine: CountTable, partitions, mode: DofMode) -> _Refinement:
    part_a, part_b = partitions
    t_coarse = merge_states(t_fine, part_a, part_b)
    mi_fine = measures.mi_plugin(t_fine)
    d_fine = dof(t_fine, mode)
    return _Refinement(t_fine.n, mi_fine, d_fine, max(mi_fine - measures.mi_plugin(t_coarse), 0.0),
                       d_fine - dof(t_coarse, mode), measures.mean_marginal_entropy(t_fine))


def _increment_score(ref: _Refinement, kind: MeasureKind) -> tuple[float, float] | None:
    """(score, key) of the increment; None when it has no estimable structure."""
    if (kind.needs_dof and ref.d_within < 1) or (kind is MeasureKind.NI and ref.h_bar <= 0.0):
        return None
    return measures.score(kind, ref.mi_within, ref.d_within, ref.n, ref.h_bar)


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
    scored = _increment_score(_refinement(t_fine, partitions, mode), kind)
    return "fine" if scored is not None and scored[1] > _refinement_margin(kind, alpha) \
        else "coarse"
