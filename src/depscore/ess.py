"""Equivalent sample size for smoothing multinomial parameter estimates.

Smoothed cell probabilities take the form

    p_tilde[a, b] = (N_ab + n' * q[a, b]) / (N + n'),

virtual counts n' spread over the cells according to a prior distribution q
(uniform unless there is background knowledge). The total virtual weight n'
is fixed by a moment-matching constraint: the q-smoothed expectation of the
empirical log-ratio field L must equal the bias-adjusted information
``rhs = mi - d/N``. Since sum N_ab L_ab = N * mi (empty cells carry no
weight, so the safe-joint floor below does not enter), the left side
sum p_tilde * L is

    (1 - w) * mi + w * <L>_q,   w = n' / (N + n'),

a weighted average of mi and the prior expectation <L>_q, which
``constraint_lhs`` evaluates in that form without building a smoothed
table. It is monotone in n' for any prior, and the constraint has the exact
root ``n' = d / (rhs - <L>_q)``, which is positive exactly when d >= 1 and
rhs > <L>_q. Dropping the d/N term from the right side gives the
first-order approximation ``n' = d / (mi - <L>_q)``, which needs only the
empirical distribution and not N.

Empty cells would put a -inf into the log-ratio field, so the joint (and
only the joint) inside the log is floored at one count: max(N_ab, 1)/N.
The marginals stay exactly empirical. ``used_safe_joint`` on the results
records when that floor was active.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import mi_plugin
from .tables import CountTable, DofMode, ProbTable, dof

__all__ = [
    "EssResult",
    "NoRootError",
    "log_ratio_field",
    "constraint_lhs",
    "constraint_rhs",
    "solve_ess",
]

class NoRootError(ValueError):
    """The constraint has no positive root (dependence too weak)."""


@dataclass(frozen=True)
class EssResult:
    """Equivalent sample size from the exact constraint and its approximation.

    ``n_prime_exact`` is the exact root d / (rhs - <L>_q) of the constraint;
    ``n_prime_approx`` is the first-order approximation d / (mi - <L>_q);
    ``rhs`` is the constraint's right side mi - d/N; ``used_safe_joint``
    records whether the log-ratio field floored an empty cell.
    """

    n_prime_exact: float
    n_prime_approx: float
    rhs: float
    used_safe_joint: bool


def log_ratio_field(t: CountTable) -> tuple[np.ndarray, bool]:
    """Cellwise log[ joint / (marginal * marginal) ] of the empirical distribution.

    Returns ``(field, used_safe_joint)``. If any cell is empty, the joint in
    the log argument is replaced by max(N_ab, 1)/N so the field stays finite;
    marginals are never modified. Raises if a whole row or column is empty
    (strip degenerate states first).
    """
    c = t.counts
    n = float(t.n)
    ra = c.sum(axis=1)
    cb = c.sum(axis=0)
    if (ra == 0).any() or (cb == 0).any():
        raise ValueError("table has an empty row or column; strip degenerate states first")
    used_safe = bool((c == 0).any())
    joint = np.maximum(c, 1) / n if used_safe else c / n
    marg = (ra.astype(float)[:, None] * cb.astype(float)[None, :]) / (n * n)
    field = np.log(joint / marg)
    field.setflags(write=False)
    return field, used_safe


def _prior_mean(t: CountTable, q: ProbTable | None) -> tuple[float, bool]:
    """``(<L>_q, used_safe_joint)``: the prior mean of the log-ratio field, with the
    uniform prior (``q`` None) as the scalar weight 1 / cells."""
    if q is not None and q.probs.shape != t.counts.shape:
        raise ValueError(
            f"prior shape {q.probs.shape} does not match table shape {t.counts.shape}"
        )
    field, used_safe = log_ratio_field(t)
    weight = 1.0 / (t.card_a * t.card_b) if q is None else q.probs
    return float((weight * field).sum()), used_safe


def constraint_lhs(t: CountTable, n_prime, q: ProbTable | None = None):
    """Left side of the matching constraint, sum p_tilde * L, as (1 - w) mi + w <L>_q.

    A float for one ``n_prime``; for an array, an array of its shape. Every
    n' must be finite and >= 0; the first that is not is named in the error.
    """
    l_bar, _ = _prior_mean(t, q)
    g = np.asarray(n_prime, dtype=float)
    bad = g[~((g >= 0.0) & (g < np.inf))]
    if bad.size:
        raise ValueError(f"n_prime must be a finite number >= 0, got {bad[0]}")
    w = g / (t.n + g)
    lhs = (1.0 - w) * mi_plugin(t) + w * l_bar
    return float(lhs) if lhs.ndim == 0 else lhs


def constraint_rhs(t: CountTable, mode: DofMode = DofMode.EFFECTIVE) -> float:
    """Right side of the matching constraint: mi - d/N."""
    return mi_plugin(t) - dof(t, mode) / float(t.n)


def solve_ess(t: CountTable, q: ProbTable | None = None,
              mode: DofMode = DofMode.EFFECTIVE) -> EssResult:
    """Equivalent sample size: the exact root of the constraint, in closed form.

    Raises :class:`NoRootError` when the constraint has no positive root:
    when d < 1 (the right side is then mi itself, met only at n' = 0) or
    when rhs <= <L>_q (the left side never falls that low).
    """
    l_bar, used_safe = _prior_mean(t, q)
    mi = mi_plugin(t)
    d = dof(t, mode)
    if d < 1:
        raise NoRootError(
            f"no positive root: {mode.value} dof is {d}, so rhs equals mi; "
            "dependence too weak for a positive equivalent sample size"
        )
    rhs = mi - d / float(t.n)
    if rhs <= l_bar:
        raise NoRootError(
            f"no positive root: rhs {rhs:.6g} <= limiting value <L>_q {l_bar:.6g}"
        )
    return EssResult(
        n_prime_exact=d / (rhs - l_bar),
        n_prime_approx=d / (mi - l_bar),
        rhs=rhs,
        used_safe_joint=used_safe,
    )
