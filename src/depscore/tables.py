"""Two-way contingency tables: construction, marginals, degrees of freedom,
state merging, and sampling.

States are dense 0-based integer indices; mapping from external labels is an
ingestion concern (see :mod:`depscore.cli`). Counts are 64-bit integers, so
totals up to 2**63 - 1 are accepted; probabilities are double precision.
Both table types are immutable after construction and safe to share across
threads.

``G = 2 * n * mi`` loses digits as the total grows: the plug-in MI sums terms
of order 1/sqrt(n) that cancel to order 1/n. Against mpmath at 80 digits, on
10 seeded near-independent 4x4 tables per total, its worst relative error
was about 1e-11 at n = 1e6, 1e-8 at 1e9, 1e-5 at 1e12, 1e-2 at 1e15 and
0.5 at 1e16. ``test_g_statistic_accurate_up_to_1e9`` pins 1e-7 up to
n = 1e9; a cancellation-free G is the ROADMAP item "Exact G = 2N·MI over
every total the library accepts".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CountTable",
    "ProbTable",
    "DofMode",
    "from_counts",
    "from_samples",
    "make_prob_table",
    "dof",
    "merge_states",
    "sample_table",
]

_SAMPLE_SIZE = "n must be an integer >= 1 and below 2**63"  # also the studies' rule for n


class DofMode(enum.Enum):
    """How degrees of freedom are counted.

    NOMINAL is the full-table count (|A|-1)(|B|-1). EFFECTIVE discounts
    unobserved cells: observed cells minus independently estimable marginal
    parameters, max(0, n_nonzero - rows_positive - cols_positive + 1): the
    standard quasi-independence count on a connected support, k - 1 below it
    on one that splits into k blocks ([[3,4,0],[5,6,0],[0,0,7]] gets 0, not 1).
    The two modes agree when no cell is empty.
    """

    NOMINAL = "nominal"
    EFFECTIVE = "effective"


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CountTable:
    """|A| x |B| table of nonnegative integer counts."""

    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ProbTable:
    """Joint probability matrix over two discrete variables; entries sum to 1."""

    probs: np.ndarray


def from_counts(counts) -> CountTable:
    """Build a CountTable from a matrix of nonnegative integers.

    Rejects tables smaller than 2x2 (a one-state variable carries no
    dependence), non-integer or negative entries, all-zero tables, and totals
    beyond int64.
    """
    return CountTable(_freeze(np.array(_counts(counts, ndim=2))))


def _array(a, message: str) -> np.ndarray:
    """``a`` as an array, or the error ``message`` where numpy makes none."""
    try:
        return np.asarray(a)
    except (TypeError, ValueError):  # numpy's own "inhomogeneous shape"
        raise ValueError(message) from None


def _integers(a, message: str) -> np.ndarray:
    """``a`` as an array, once every entry is an integer (a float must be whole;
    text, complex numbers, other objects and ragged nestings never are)."""
    a = _array(a, message)
    kind = a.dtype.kind
    try:  # objects exactly, never through float; int() of text, nan, inf or others raises
        whole = kind in "iu" or kind == "O" and all(int(v) == v for v in a.ravel().tolist()) \
            or kind in "bf" and np.isfinite(f := a.astype(float)).all() and (f == np.round(f)).all()
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(message)
    return a


def _whole(x, rule: str, low: int, below: float = math.inf) -> int:
    """``x`` as an int, once it is one integer as :func:`_integers` reads it, at
    least ``low`` and less than ``below``; ``rule`` says so in the error."""
    message = f"{rule}, got {x!r}"
    a = _integers(x, message)
    if a.ndim or not low <= (value := int(a)) < below:
        raise ValueError(message)
    return value


def _counts(c, ndim: int = 3) -> np.ndarray:
    """``c`` as int64 counts (not converted if int64), once it has ``ndim`` axes
    and each table, over the last two, meets the rule of :func:`from_counts`:
    both cardinalities >= 2, integer counts, none negative, a total above 0
    and below 2**63 (summed exactly where entries are Python objects)."""
    c = _array(c, f"counts must be a {ndim}-D array, got sequences of unequal length")
    if c.ndim != ndim:
        raise ValueError(f"counts must be a {ndim}-D array, got ndim={c.ndim}")
    if min(c.shape[-2:]) < 2:
        raise ValueError(f"both cardinalities must be >= 2, got shape {c.shape}")
    c = _integers(c, "counts must be integers")
    if c.min(initial=0) < 0:
        raise ValueError("counts must be nonnegative")
    total = np.asarray(c.sum(axis=(-2, -1), dtype=object if c.dtype == object else float))
    if not total.all():
        raise ValueError("table is all zero")
    # summed exactly only near 2**63: float rounding cannot lift a sum below 2**62 to 2**63
    if total.max(initial=0.0) >= 2.0**62 and \
            any(sum(map(int, t.ravel().tolist())) >= 2**63 for t in c[total >= 2.0**62]):
        raise ValueError("counts too large for int64: their total is not below 2**63")
    return c.astype(np.int64, copy=False)


def from_samples(pairs, card_a: int, card_b: int) -> CountTable:
    """Count occurrences of (a, b) state pairs into a card_a x card_b table."""
    card_a = _whole(card_a, "card_a must be an integer >= 2", 2)
    card_b = _whole(card_b, "card_b must be an integer >= 2", 2)
    if card_a * card_b >= 2**63:
        raise ValueError(f"card_a * card_b must be below 2**63, got {card_a * card_b}")
    idx = _integers(_array(pairs, "pairs must be a sequence of (a, b) index pairs"),
                    "state indices must be integers")
    try:  # an index beyond int64 overflows the cast; one in range never does
        idx = idx.astype(np.int64, copy=False)
    except OverflowError:
        raise ValueError("state index out of range") from None
    if not idx.size:
        raise ValueError("empty sample produces an all-zero table")
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (a, b) index pairs")
    if np.any(idx < 0) or np.any(idx[:, 0] >= card_a) or np.any(idx[:, 1] >= card_b):
        raise ValueError("state index out of range")
    return _tabulate(idx[:, 0], idx[:, 1], card_a, card_b)


def _tabulate(a: np.ndarray, b: np.ndarray, card_a: int, card_b: int) -> CountTable:
    """The card_a x card_b table of the state pairs ``(a[i], b[i])``, none of them checked."""
    flat = np.bincount(a.astype(np.int64) * card_b + b, minlength=card_a * card_b)
    return CountTable(_freeze(flat.reshape(card_a, card_b).astype(np.int64, copy=False)))


def make_prob_table(probs) -> ProbTable:
    """Validate and wrap a probability matrix (entries >= 0, sum within 1e-12 of 1)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2 or p.shape[1] < 2:
        raise ValueError(f"probability matrix must be at least 2x2, got shape {p.shape}")
    if (p < 0.0).any() or not np.isfinite(p).all():
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1 within 1e-12, got {p.sum()!r}")
    return ProbTable(_freeze(p.copy()))


def _dof(c: np.ndarray, mode: DofMode) -> np.ndarray:
    g, a, b = c.shape
    if mode is DofMode.NOMINAL:
        return np.full(g, (a - 1) * (b - 1), dtype=np.int64)
    if mode is DofMode.EFFECTIVE:
        pos = c > 0
        d = pos.sum(axis=(1, 2)) - pos.any(axis=2).sum(axis=1) - pos.any(axis=1).sum(axis=1) + 1
        return np.maximum(d, 0)
    raise ValueError(f"unknown dof mode {mode!r}")


def dof(t: CountTable, mode: DofMode = DofMode.EFFECTIVE) -> int:
    """Degrees of freedom of the independence test on this table."""
    return int(_dof(t.counts[None], mode)[0])


def _group_matrix(part, card: int) -> np.ndarray:
    """The 0/1 ``(groups, card)`` matrix of ``part``, a partition of the states 0..card-1 into
    nonempty flat groups, read as :func:`from_samples` reads indices (``True`` is state 1)."""
    try:
        part = list(part)
    except TypeError:
        raise ValueError(f"a partition must be a sequence of groups, got {part!r}") from None
    groups = [_integers(g, "state indices must be integers") for g in part]
    if len(groups) < 2:
        raise ValueError("a partition must have at least 2 groups")
    for i, g in enumerate(groups):
        if g.ndim != 1 or not g.size:
            raise ValueError(f"partition group {i} " + ("is empty" if g.ndim == 1 else
                             f"must be a flat sequence of states, got shape {g.shape}"))
    states = np.concatenate(groups)
    if len(states) != card or (np.sort(states) != np.arange(card)).any():
        raise ValueError(f"partition must cover every state of 0..{card - 1} exactly once")
    return np.stack([np.bincount(g.astype(np.int64), minlength=card) for g in groups])


def _fold(c: np.ndarray, part_a, part_b) -> np.ndarray:
    """The ``(..., a, b)`` int64 count stack ``c`` with states summed within the groups
    of ``part_a`` (rows) and ``part_b`` (columns): ``P_a @ c @ P_b.T``, exact in int64."""
    return _group_matrix(part_a, c.shape[-2]) @ c @ _group_matrix(part_b, c.shape[-1]).T


def merge_states(t: CountTable, part_a, part_b) -> CountTable:
    """Merge states by summing cells within partition groups; the total is unchanged."""
    return CountTable(_freeze(_fold(t.counts, part_a, part_b)))


def sample_table(p: ProbTable, n: int, gen: np.random.Generator) -> CountTable:
    """n i.i.d. draws from the joint p with ``gen``, accumulated into counts."""
    n = _whole(n, _SAMPLE_SIZE, 1, 2**63)
    flat = gen.multinomial(n, p.probs.ravel())
    return CountTable(_freeze(flat.reshape(p.probs.shape).astype(np.int64)))
