"""Special functions and seeded random streams used by the rest of the library.

Everything here is deterministic double-precision numerics: the
regularized upper incomplete gamma function (carried in log space so that
chi-square survival probabilities stay meaningful far past the point where
the linear value underflows) and a bracketed bisection root finder.

All functions are pure. The generators that :func:`substream` returns are
the only stateful objects.
"""

from __future__ import annotations

import math

import numpy as np

from .tables import _whole

__all__ = [
    "substream",
    "reg_gamma_upper",
    "bisect_root",
]

_MAX_ITER = 500
_EPS = 1e-15


# ---------------------------------------------------------------------------
# seeded random streams
# ---------------------------------------------------------------------------

def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent PCG64 stream number ``index`` derived from ``master_seed``.

    Deterministic in ``(master_seed, index)``; substreams with distinct
    indices are statistically independent, which is what lets replicates of
    an experiment run in any order (or in parallel) without changing output.
    A generator is single-owner: derive one per consumer, never share one.
    """
    master_seed = _seed(master_seed)
    index = _whole(index, "substream index must be a nonnegative integer", 0)
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def _seed(master_seed) -> int:
    """``master_seed`` as an int, once it is an unsigned 64-bit integer."""
    return _whole(master_seed, "seed must be an unsigned 64-bit integer", 0, 2**64)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _max_iter(s: float) -> int:
    """Iteration cap: both expansions need O(sqrt(s)) steps when x is near s."""
    return _MAX_ITER + int(20.0 * math.sqrt(s))


def _lower_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) by series; needs x < s + 1."""
    term = 1.0 / s
    total = term
    a = s
    for _ in range(_max_iter(s)):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:  # pragma: no cover - the cap grows with sqrt(s), which the series needs
        raise RuntimeError("incomplete gamma series failed to converge")
    log_p = s * math.log(x) - x - math.lgamma(s) + math.log(total)
    return math.exp(log_p) if log_p < 0.0 else 1.0


def _upper_cf_log(s: float, x: float) -> float:
    """ln Q(s, x) via the continued fraction (modified Lentz); needs x >= s + 1."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _max_iter(s)):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:  # pragma: no cover
        raise RuntimeError("incomplete gamma continued fraction failed to converge")
    return s * math.log(x) - x - math.lgamma(s) + math.log(h)


def reg_gamma_upper(s: float, x: float) -> tuple[float, float]:
    """Regularized upper incomplete gamma Q(s, x) together with ln Q(s, x).

    The linear value is accurate wherever it is representable; the log value
    stays finite and accurate long after ``Q`` itself underflows, which is
    what makes tail probabilities of large chi-square statistics usable.

    Parameters
    ----------
    s : float
        Shape, finite and > 0.
    x : float
        Lower integration limit, >= 0; at ``inf`` the result is ``(0.0, -inf)``.

    Returns
    -------
    (q, log_q) : tuple of float
    """
    s = float(s)
    x = float(x)
    if not 0.0 < s < math.inf:
        raise ValueError(f"reg_gamma_upper requires a finite s > 0, got {s}")
    if not x >= 0.0:
        raise ValueError(f"reg_gamma_upper requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0, 0.0
    if x == math.inf:
        return 0.0, -math.inf
    if x < s + 1.0:
        p = _lower_series(s, x)
        q = 1.0 - p
        # p < 1 in this regime, so log1p keeps full precision for the log.
        return q, math.log1p(-p)
    log_q = _upper_cf_log(s, x)
    q = math.exp(log_q) if log_q > -745.0 else 0.0
    return q, log_q


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def bisect_root(f, lo: float, hi: float, *, xtol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of a continuous f on [lo, hi] by bisection; f(lo), f(hi) must differ in sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < xtol:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
