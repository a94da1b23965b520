"""Dependence measures and entropies over a contingency table.

All quantities share one natural-log scale, so twice the sample size times
the plug-in mutual information is the usual likelihood-ratio statistic that
is asymptotically chi-square under independence. Zero cells contribute zero
to every entropy/information sum (the x*log(x) -> 0 limit); no smoothing
happens here; smoothing is the job of :mod:`depscore.ess`.

Each measure is a function of the plug-in MI, the dof d and N (normalized
MI also needs the mean marginal entropy); :func:`score` holds each formula
once, and the per-table functions are thin calls to it (the
:class:`DependenceReport` of :func:`report` holds every one):

- ``mi_plugin``: plug-in MI of the empirical joint, in nats;
- ``mi_bc``: mi - d/(2N), its leading-order independence bias removed;
- ``indep_std``: sqrt(d) / (sqrt(2) N), the null standard deviation of mi;
- ``r_score``: (2N mi - d) / sqrt(2d), bias-corrected mi in null standard deviations;
- ``standardized_information``: sqrt(2N mi) - sqrt(d), the bias correction inside
  square roots, so weak dependence is counted in null standard deviations while
  strong dependence stays monotone in mi, and candidates with different numbers
  of states rank on one scale; the Fisher variant subtracts sqrt(d - 1/2);
- ``normalized_mi``: mi over the mean marginal entropy, in [0, 1], a
  regularization that does not shrink with N;
- ``p_value``: chi-square survival of 2N mi at d dof; the naive value is
  1 - CDF in double precision and rounds to 0.0 below ~1e-16, while the log
  path stays finite and ordered.

One rule, in :func:`score`, says when a measure is undefined: every
dof-based quantity (all of the above but ``mi_plugin`` and ``normalized_mi``)
when d < 1, since the independence test then has no residual dof, and
``normalized_mi`` when both marginal entropies are 0. An undefined value is
nan, never an error, and an undefined candidate ranks last.

A stack of G tables of one shape, a (G, a, b) integer array, gets the
arguments of :func:`score` from one call, :func:`stack_stats`. It rejects what
``from_counts`` rejects, shape included, and each entry equals, bit for bit,
the per-table function, which runs the same unchecked kernel on a stack of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .numerics import reg_gamma_upper
from .tables import CountTable, DofMode, _counts, _dof, dof

__all__ = [
    "MeasureKind",
    "DependenceReport",
    "entropy",
    "mi_plugin",
    "r_score",
    "standardized_information",
    "normalized_mi",
    "mean_marginal_entropy",
    "stack_stats",
    "score",
    "conditional_entropy",
    "p_value",
    "report",
]


class MeasureKind(enum.Enum):
    """Selectable dependence measures, each with a fixed orientation."""

    MI_PLUGIN = "mi_plugin"
    MI_BC = "mi_bc"
    SI = "si"
    SI_FISHER = "si_fisher"
    NI = "ni"
    P_VALUE = "p_value"


@dataclass(frozen=True)
class DependenceReport:
    """Every measure for one variable pair, plus the dof and N they used.

    Invariants (by construction): ``si = sqrt(2*n*mi_plugin) - sqrt(dof)``
    and ``mi_bc = mi_plugin - dof/(2n)`` exactly; ``exp(log_p)`` matches
    ``p_naive`` up to the naive path's 1-minus-CDF rounding floor.
    """

    n: int
    dof: int
    mi_plugin: float
    mi_bc: float
    indep_std: float
    r_score: float
    si: float
    si_fisher: float
    ni: float
    p_naive: float
    log_p: float


def _run_sums(terms: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Sums of the consecutive runs of ``terms``, the i-th ``k[i]`` long, each
    summed as numpy sums it alone: runs of one length become the rows of one
    matrix. Zero-padding them to one length would change numpy's pairwise
    summation order, and so the last bit of some sums."""
    if k.size == 1 or k.size and (k == k[0]).all():
        return terms.reshape(k.size, -1).sum(axis=1)
    out, run = np.empty(k.size), np.repeat(k, k)
    for length in np.unique(k):
        rows = k == length
        out[rows] = terms[run == length].reshape(np.count_nonzero(rows), length).sum(axis=1)
    return out


def _entropies(p: np.ndarray) -> np.ndarray:
    """Entropy of each row of a (G, K) stack of probability vectors; 0*log(0) := 0."""
    mask = p > 0.0
    pos = p[mask]
    return np.maximum(-_run_sums(pos * np.log(pos), mask.sum(axis=1)), 0.0)


def entropy(p) -> float:
    """Shannon entropy of a probability vector, in nats; 0*log(0) := 0."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("entropy expects a nonempty 1-D probability vector")
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(v.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {v.sum()!r}")
    return float(_entropies(v[None])[0])


def _mi_plugin(c: np.ndarray) -> np.ndarray:
    mask = c > 0
    k = mask.sum(axis=(1, 2))
    cf = c[mask].astype(float)
    ra, cb = c.sum(axis=2), c.sum(axis=1)
    n = ra.sum(axis=1).astype(float).repeat(k)
    # marginal products go through float64: N_a * N_b overflows int64 for N ~ 1e10+
    ratio = (cf * n) / (ra.astype(float)[:, :, None] * cb.astype(float)[:, None, :])[mask]
    return np.maximum(_run_sums(cf / n * np.log(ratio), k), 0.0)


def mi_plugin(t: CountTable) -> float:
    """Plug-in mutual information of the empirical joint, in nats.

    Always >= 0 and <= min(log|A|, log|B|); cells with zero count
    contribute nothing.
    """
    return float(_mi_plugin(t.counts[None])[0])


def _mean_marginal_entropy(c: np.ndarray) -> np.ndarray:
    p = c / c.sum(axis=(1, 2))[:, None, None]
    return 0.5 * (_entropies(p.sum(axis=2)) + _entropies(p.sum(axis=1)))


def mean_marginal_entropy(t: CountTable) -> float:
    """Mean of the two marginal entropies (H(A) + H(B)) / 2, in nats."""
    return float(_mean_marginal_entropy(t.counts[None])[0])


def stack_stats(c, mode: DofMode = DofMode.EFFECTIVE) -> tuple:
    """``(mi, d, n, h_bar)`` of each table of a (G, a, b) count stack, as arrays
    for :func:`score`: :func:`mi_plugin`, :func:`dof`, the total and
    :func:`mean_marginal_entropy`, bit for bit, once the rule of ``from_counts``
    holds for every table (checked once for the stack)."""
    c = _counts(c)
    return _mi_plugin(c), _dof(c, mode), c.sum(axis=(1, 2)), _mean_marginal_entropy(c)


_NEEDS_DOF = frozenset((MeasureKind.MI_BC, MeasureKind.SI, MeasureKind.SI_FISHER,
                        MeasureKind.P_VALUE))


def score(kind: MeasureKind, mi, d, n, h_bar=None) -> tuple:
    """One measure from a table's statistics, as ``(score, key)``.

    ``mi`` is the plug-in MI, ``d`` the dof, ``n`` the sample size and ``h_bar``
    the mean marginal entropy, which only ``ni`` reads (a ``ValueError`` when
    missing). The key orders candidates, higher meaning more dependent: it is
    the score itself, except that the p-value is keyed on ``-log p``, which
    stays finite and ordered after the naive value rounds to 0.

    This is the one place that decides whether a measure is defined:
    ``mi_bc``, ``si``, ``si_fisher`` and ``p_value`` are undefined when
    ``d < 1`` (no residual dof to test), and ``ni`` when ``h_bar <= 0``. An
    undefined entry scores ``nan`` with key ``-inf``, so it ranks after every
    defined one. The statistics may be equal-length arrays, one entry per
    table; each entry is then scored exactly as it would be alone. No other
    function holds a :class:`MeasureKind` formula.
    """
    if kind is MeasureKind.MI_PLUGIN:
        return mi, mi
    if kind is MeasureKind.NI and h_bar is None:
        raise ValueError("ni needs h_bar, the mean marginal entropy")
    ok = d >= 1 if kind in _NEEDS_DOF else h_bar > 0.0
    if type(ok) is not np.ndarray:
        return _formula(kind, mi, d, n, h_bar) if ok else (math.nan, -math.inf)
    scores, keys = np.full(ok.shape, math.nan), np.full(ok.shape, -math.inf)
    if kind is MeasureKind.P_VALUE:
        for i in np.flatnonzero(ok):
            scores[i], keys[i] = _formula(kind, float(mi[i]), int(d[i]), int(n[i]), None)
    else:
        scores[ok] = keys[ok] = _formula(kind, mi[ok], d[ok], n[ok],
                                         None if h_bar is None else h_bar[ok])[0]
    return scores, keys


def _formula(kind: MeasureKind, mi, d, n, h_bar) -> tuple:
    """(score, key) of a defined entry, or of equal-length arrays of them."""
    if kind is MeasureKind.P_VALUE:
        q, log_q = reg_gamma_upper(d / 2.0, n * mi)
        # 1 minus the double-precision CDF: rounds to exactly 0.0 once q < ~1e-16
        return 1.0 - (1.0 - q), -log_q
    if kind is MeasureKind.MI_BC:
        v = mi - d / (2.0 * n)
    elif kind is MeasureKind.NI:
        v = np.minimum(mi / h_bar, 1.0)
    else:
        v = np.sqrt(2.0 * n * mi) - np.sqrt(d - (0.5 if kind is MeasureKind.SI_FISHER else 0.0))
    return v, v


def _log_p(p_naive: float, neg_log_p: float) -> float:
    """ln p from a p-value's (score, key): nan, not inf, where the p-value is undefined."""
    return math.nan if math.isnan(p_naive) else -neg_log_p


def r_score(t: CountTable, mode: DofMode = DofMode.EFFECTIVE) -> float:
    """Bias-corrected MI in units of the null standard deviation: (2N*mi - d)/sqrt(2d);
    nan when d < 1."""
    return report(t, mode).r_score


def standardized_information(
    t: CountTable,
    mode: DofMode = DofMode.EFFECTIVE,
    fisher_corrected: bool = False,
) -> float:
    """sqrt(2N*mi) - sqrt(d), or sqrt(2N*mi) - sqrt(d - 1/2) with the Fisher refinement.

    The plain variant is bounded below by -sqrt(d); both are nan when d < 1.
    """
    kind = MeasureKind.SI_FISHER if fisher_corrected else MeasureKind.SI
    return float(score(kind, mi_plugin(t), dof(t, mode), t.n)[0])


def normalized_mi(t: CountTable) -> float:
    """Plug-in MI over the mean marginal entropy; dimensionless in [0, 1], nan when both
    marginal entropies are 0."""
    return float(score(MeasureKind.NI, mi_plugin(t), 0, t.n, mean_marginal_entropy(t))[0])


def conditional_entropy(t: CountTable, target: str = "a") -> float:
    """Empirical conditional entropy of one axis given the other, in nats.

    ``target='a'`` gives H(A | B) = H(A, B) - H(B); the identity
    H(A) - H(A | B) = mi_plugin(t) holds to roundoff.
    """
    if target not in ("a", "b"):
        raise ValueError(f"target must be 'a' or 'b', got {target!r}")
    p = t.counts / t.n
    h_joint = entropy(p.ravel())
    other = p.sum(axis=0) if target == "a" else p.sum(axis=1)
    return float(max(h_joint - entropy(other), 0.0))


def p_value(t: CountTable, mode: DofMode = DofMode.EFFECTIVE) -> tuple[float, float]:
    """Chi-square survival probability of the statistic 2N*mi at d dof.

    Returns ``(p_naive, log_p)``. The naive value reproduces the classic
    instability: it is 1 minus the double-precision CDF, so it hits exactly
    0.0 once the tail is below machine epsilon near 1. ``log_p`` comes from
    the log-space upper incomplete gamma and remains finite and strictly
    ordered far beyond that point. Both are nan when d < 1.
    """
    p_naive, neg_log_p = score(MeasureKind.P_VALUE, mi_plugin(t), dof(t, mode), t.n)
    return p_naive, _log_p(p_naive, neg_log_p)


def report(t: CountTable, mode: DofMode = DofMode.EFFECTIVE) -> DependenceReport:
    """All measures for one table, from one evaluation each of mi, dof and h_bar.

    Under the rule of :func:`score`, every field that depends on the dof
    (``mi_bc``, ``indep_std``, ``r_score``, ``si``, ``si_fisher``, ``p_naive``
    and ``log_p``) is nan when d < 1, and ``ni`` is nan when h_bar <= 0.
    """
    d, n = dof(t, mode), t.n
    mi, h_bar = mi_plugin(t), mean_marginal_entropy(t)
    scored = {kind: tuple(map(float, score(kind, mi, d, n, h_bar))) for kind in MeasureKind}
    mi_bc = scored[MeasureKind.MI_BC][0]
    tested = math.nan if math.isnan(mi_bc) else d  # score leaves mi_bc nan when d < 1
    p_naive, neg_log_p = scored[MeasureKind.P_VALUE]
    return DependenceReport(
        n=n,
        dof=d,
        mi_plugin=mi,
        mi_bc=mi_bc,
        indep_std=math.sqrt(tested) / (math.sqrt(2.0) * n),
        r_score=(2.0 * n * mi - tested) / math.sqrt(2.0 * tested),
        si=scored[MeasureKind.SI][0],
        si_fisher=scored[MeasureKind.SI_FISHER][0],
        ni=scored[MeasureKind.NI][0],
        p_naive=p_naive,
        log_p=_log_p(p_naive, neg_log_p),
    )
