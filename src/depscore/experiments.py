"""Seeded synthetic studies: discretization and feature selection.

Every run is a pure function of its configuration including the master
seed; replicate ``r`` draws from ``substream(master_seed, r)``, so
replicates are independent and may be evaluated in any order without
changing the output.

Two generative setups are provided.

Block family (discretization study)
    A 4x4 joint with uniform marginals, cells ``1/16 +- z/2`` arranged so
    that merging states {0,1} and {2,3} on both axes always yields the
    uniform independent 2x2. All dependence therefore lives strictly below
    the 2-state resolution, and the study asks each measure whether a
    sampled table justifies 4 states over 2.

Naive Bayes model (feature selection study)
    A 4-state class with ten conditionally independent binary features
    (P(X=1 | class) = .6, .8, .3, .1) and ten 4-state features that copy the
    class with probability 1/4 + 3z and land on each other state with
    probability 1/4 - z. The two arities have equal true mutual information
    with the class near z ~ 0.088; the study tracks how often each measure
    prefers a binary feature as the sample grows.

Blocks. Replicates are drawn one by one and scored a block at a time, of
about ``_BLOCK_TABLES`` count tables: discretization one (G, 4, 4) stack,
replicate-major, then z, then n; feature selection a binary (G, 2, 4) and a
four-state (G, 4, 4) stack, ten tables per (replicate, n). Blocks are made one
at a time, so any count of replicates starts drawing at once. A discretization
block is merged by the fold of ``merge_states`` and every block is scored by
``measures.stack_stats``, both bit for bit as per table, so each curve is the
one a table-by-table run gives.

Decision protocols (:mod:`depscore.ranking`). For discretization, each
table is judged by the refinement-increment rule of ``compare_discretizations``,
from statistics computed once for every measure. For feature selection, the
first best binary and best 4-state candidate are compared on the measure's
key, and the 4-state winner is accepted only if it clears the simpler winner
by the measure's own significance margin (the notability threshold for
standardized information, ``alpha`` on the log scale for the p-value,
nothing for the additive and normalized measures). A candidate the measure
is undefined on (the rule of ``measures.score``: dof below 1 under a
dof-based measure, both marginal entropies 0 under ``ni``) scores nan with
key -inf, so it ranks last and never favors the finer discretization. Both
protocols run on nominal degrees of freedom by default: the null calibration
of the incremental statistic is what the decision thresholds assume.

The naive p-value is additionally evaluated for both hypotheses of each
decision. When it rounds to exactly zero for both, the event is counted in
the curve's underflow column and the plotted decision deliberately flips to
the wrong hypothesis, making the breakdown visible as a jump in the curve;
the robust log-space path is unaffected and keeps ordering candidates.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import measures as meas
from .measures import MeasureKind
from .numerics import _seed, bisect_root, substream
from .ranking import first_best, refinement_increment, refinement_margin, selection_margin
from .tables import (_SAMPLE_SIZE, CountTable, DofMode, ProbTable, _whole, from_counts,
                     make_prob_table)

__all__ = [
    "fig2_distribution",
    "NaiveBayesModel",
    "nb_true_mi",
    "nb_equal_mi_z",
    "sample_nb_dataset",
    "ExperimentCurve",
    "run_discretization_experiment",
    "run_feature_selection_experiment",
    "format_curve",
]

DEFAULT_MEASURES = (MeasureKind.MI_BC, MeasureKind.SI, MeasureKind.NI, MeasureKind.P_VALUE)

# Merging 4 states to 2 on both axes: {0,1} and {2,3}.
FIG2_PARTITIONS = (((0, 1), (2, 3)), ((0, 1), (2, 3)))

_SIGN_BLOCK = np.array([[1.0, -1.0], [-1.0, 1.0]])
_SIGN_PATTERN = np.kron(_SIGN_BLOCK, _SIGN_BLOCK)

P_BINARY_GIVEN_CLASS = (0.6, 0.8, 0.3, 0.1)
N_CLASSES = 4
N_BINARY_FEATURES = 10
N_FOUR_STATE_FEATURES = 10

# Tables per block of whole replicates: memory stays flat as replicates grow.
_BLOCK_TABLES = 4096

# Largest feature-selection sample size: a draw peaks near 138 bytes per sample
# (tracemalloc at n = 1e5 and 1e6), about 0.6 GB at this n.
FIG3_MAX_N = 2**22
_NB_SAMPLE_SIZE = f"n must be an integer from 1 to FIG3_MAX_N = {FIG3_MAX_N} for feature selection"


# ---------------------------------------------------------------------------
# generative families
# ---------------------------------------------------------------------------

def fig2_distribution(z: float) -> ProbTable:
    """4x4 block-family joint: cells 1/16 + (z/2) * sign pattern.

    Marginals are uniform for every z, the 2x2 block merging is uniform
    independent for every z, and z = 0 is full independence. Valid for
    z in [0, 0.125].
    """
    z = float(z)
    if not (0.0 <= z <= 0.125):
        raise ValueError(f"z must be in [0, 0.125], got {z}")
    return make_prob_table(1.0 / 16.0 + (z / 2.0) * _SIGN_PATTERN)


@dataclass(frozen=True)
class NaiveBayesModel:
    """Class variable with 10 binary and 10 four-state conditionally
    independent features; ``z`` in [0, 1/4] sets the four-state dependence."""

    z: float

    def __post_init__(self) -> None:
        if not (0.0 <= float(self.z) <= 0.25):
            raise ValueError(f"z must be in [0, 0.25], got {self.z}")

    @property
    def p_same(self) -> float:
        return 0.25 + 3.0 * float(self.z)

    @property
    def p_other(self) -> float:
        return 0.25 - float(self.z)


def nb_true_mi(model: NaiveBayesModel, which: str) -> float:
    """Exact mutual information between the class and one feature."""
    if which == "binary":
        p1 = sum(P_BINARY_GIVEN_CLASS) / N_CLASSES
        h_marginal = meas.entropy([p1, 1.0 - p1])
        h_conditional = sum(meas.entropy([p, 1.0 - p]) for p in P_BINARY_GIVEN_CLASS) / N_CLASSES
        return h_marginal - h_conditional
    if which == "four_state":
        # feature marginal is uniform by symmetry
        return math.log(4.0) - meas.entropy([model.p_same, *([model.p_other] * 3)])
    raise ValueError(f"which must be 'binary' or 'four_state', got {which!r}")


def nb_equal_mi_z() -> float:
    """The z at which binary and four-state features carry equal true MI."""
    target = nb_true_mi(NaiveBayesModel(0.0), "binary")
    return bisect_root(lambda z: nb_true_mi(NaiveBayesModel(z), "four_state") - target,
                       0.0, 0.25, xtol=1e-12)


# Sampled cells are counted at 16*j + 4*x + y for feature j, feature state x
# and class y: below 256 for 10 features, so the codes fit in uint8.
_FEATURE_BASE = (N_CLASSES**2 * np.arange(N_FOUR_STATE_FEATURES)).astype(np.uint8)
# A four-state feature lands on (y + 1 + code) % 4, where code is 3 when it
# copies the class and the drawn shift (0..2) otherwise: the code of (x, y).
_FOUR_STATE_CODE = (np.arange(N_CLASSES)[:, None] - np.arange(N_CLASSES) - 1) % N_CLASSES


def _sample_nb_stacks(model: NaiveBayesModel, n: int,
                      gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n joint draws of (class, all 20 features), as a (10, 2, 4) binary and a
    (10, 4, 4) four-state stack of feature-by-class count tables."""
    y = gen.integers(0, N_CLASSES, size=n)
    x_bin = gen.random((n, N_BINARY_FEATURES)) < np.asarray(P_BINARY_GIVEN_CLASS)[y][:, None]
    same = gen.random((n, N_FOUR_STATE_FEATURES)) < model.p_same
    code = gen.integers(0, N_CLASSES - 1, size=(n, N_FOUR_STATE_FEATURES)).astype(np.uint8)
    code |= 3 * same.astype(np.uint8)
    base = y.astype(np.uint8)[:, None] + _FEATURE_BASE
    cells = N_CLASSES**2 * N_FOUR_STATE_FEATURES
    binary = np.bincount((base + 4 * x_bin.astype(np.uint8)).ravel(), minlength=cells)
    by_code = np.bincount((base + 4 * code).ravel(), minlength=cells).reshape(-1, 4, 4)
    return (binary.reshape(-1, 4, 4)[:, :2],
            by_code[:, _FOUR_STATE_CODE, np.arange(N_CLASSES)])


def sample_nb_dataset(model: NaiveBayesModel, n: int,
                      gen: np.random.Generator) -> list[tuple[str, CountTable]]:
    """n joint draws of (class, all 20 features), as per-feature tables vs class.

    Feature ids are ``x01``..``x10`` (binary) and ``x11``..``x20``
    (four-state); each table has the feature on rows and the class on
    columns. Draw order is fixed (class block, binary block, four-state
    block) so a given generator state always yields the same dataset. No n may
    exceed :data:`FIG3_MAX_N`.
    """
    n = _whole(n, _NB_SAMPLE_SIZE, 1, FIG3_MAX_N + 1)
    binary, four = _sample_nb_stacks(model, n, gen)
    return [(f"x{j + 1:02d}", from_counts(c)) for j, c in enumerate((*binary, *four))]


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentCurve:
    """Fractions favoring the 2-state hypothesis along an x grid.

    ``fractions[measure][i]`` is favor-count / replicates at ``x_values[i]``, with
    the measures in the order they ran.
    ``p_underflow``, present when the p-value measure ran, counts replicates
    per x where the naive p-value was exactly 0 for both hypotheses.
    """

    x_label: str
    x_values: tuple[float, ...]
    fractions: dict = field(default_factory=dict)
    replicates: int = 0
    master_seed: int = 0
    config: dict = field(default_factory=dict)
    p_underflow: tuple[int, ...] | None = None


def _study(replicates: int, measure_kinds, n_values,
           master_seed) -> tuple[int, tuple, tuple, int]:
    """The study's arguments, checked before anything is drawn; the seed is
    checked even when no replicate would draw from it."""
    master_seed = _seed(master_seed)
    replicates = _whole(replicates, "replicates must be an integer >= 1", 1)
    kinds = tuple(measure_kinds)
    n_values = tuple(_whole(n, _SAMPLE_SIZE, 1, 2**63) for n in n_values)
    if len(set(kinds)) < len(kinds):
        raise ValueError("measures must be distinct")
    return replicates, kinds, n_values, master_seed


def _blocks(replicates: int, tables: int) -> Iterator[range]:
    """Consecutive runs of whole replicates, made one at a time, of at most ``_BLOCK_TABLES``
    tables each unless one replicate has more; none when a replicate has no tables."""
    step = max(1, _BLOCK_TABLES // max(tables, 1))
    return (range(r, min(r + step, replicates)) for r in range(0, replicates * (tables > 0), step))


def _curve(x_label: str, x_values, kinds, counts, underflow, replicates: int, master_seed: int,
           alpha: float, mode: DofMode, **config) -> ExperimentCurve:
    """The curve of favor-2 counts ``counts[j][i]`` of ``kinds[j]`` at ``x_values[i]``."""
    return ExperimentCurve(
        x_label=x_label,
        x_values=tuple(x_values),
        fractions={k.value: tuple(c / replicates for c in row) for k, row in zip(kinds, counts)},
        replicates=replicates,
        master_seed=master_seed,
        config={**config, "alpha": repr(float(alpha)), "dof_mode": mode.value},
        p_underflow=tuple(underflow) if MeasureKind.P_VALUE in kinds else None,
    )


def run_discretization_experiment(
    z_grid=None,
    n_values=(25, 100, 500),
    replicates: int = 100,
    measure_kinds=DEFAULT_MEASURES,
    master_seed: int = 0,
    alpha: float = 0.05,
    mode: DofMode = DofMode.NOMINAL,
) -> dict[int, ExperimentCurve]:
    """Fractions favoring 2 states over 4 on the block family, per (n, z).

    For each replicate, one table per (z, n) is sampled from
    :func:`fig2_distribution` with one ``multinomial`` call, and each table of
    a block of replicates is judged by the refinement rule of
    ``compare_discretizations`` under each measure. Returns one curve per n
    with z on the x axis.
    """
    if z_grid is None:
        z_grid = tuple(round(0.01 * i, 10) for i in range(11))
    z_grid = tuple(float(z) for z in z_grid)
    replicates, kinds, n_values, master_seed = _study(replicates, measure_kinds, n_values,
                                                      master_seed)
    if len(set(n_values)) < len(n_values):
        raise ValueError("n_values must be distinct: each gets its own curve")
    # one replicate's tables, in draw order: z-major, then n
    pvals = np.array([fig2_distribution(z).probs.ravel() for z in z_grid for _ in n_values])
    ns = np.tile(np.array(n_values, dtype=np.int64), len(z_grid))
    favor2 = np.zeros((len(kinds), len(ns)), dtype=np.int64)
    underflow = np.zeros(len(ns), dtype=np.int64)
    margins = [refinement_margin(k, alpha) for k in kinds]

    for block in _blocks(replicates, len(ns)):
        counts = np.concatenate([substream(master_seed, r).multinomial(ns, pvals)
                                 for r in block]).reshape(-1, 4, 4)
        within, fine = refinement_increment(counts, FIG2_PARTITIONS, mode)
        for j, k in enumerate(kinds):
            scores, keys = meas.score(k, *within)
            favors_fine = keys > margins[j]
            if k is MeasureKind.P_VALUE:
                dead = scores == 0.0  # naive p-value 0 for the increment and the fine table
                dead[dead] = meas.score(k, *(v[dead] for v in fine[:3]))[0] == 0.0
                favors_fine &= ~dead  # deliberately wrong, to expose the failure
                underflow += dead.reshape(len(block), -1).sum(axis=0)
            favor2[j] += (~favors_fine).reshape(len(block), -1).sum(axis=0)

    favor2 = favor2.reshape(len(kinds), len(z_grid), len(n_values))
    underflow = underflow.reshape(len(z_grid), len(n_values))
    return {n: _curve("z", z_grid, kinds, favor2[:, :, i].tolist(), underflow[:, i].tolist(),
                      replicates, master_seed, alpha, mode, experiment="discretization", n=str(n))
            for i, n in enumerate(n_values)}


def run_feature_selection_experiment(
    z: float = 0.10,
    n_values=(32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384),
    replicates: int = 100,
    measure_kinds=DEFAULT_MEASURES,
    master_seed: int = 0,
    alpha: float = 0.05,
    mode: DofMode = DofMode.NOMINAL,
) -> ExperimentCurve:
    """Fraction of replicates where each measure prefers a binary feature.

    Per replicate and sample size, a dataset is drawn from the naive Bayes
    model as a (10, 2, 4) binary and a (10, 4, 4) four-state stack. Over a
    block of replicates, each dataset's best binary and best four-state
    candidate are found on the measure's key, and the four-state winner is
    taken only when it beats the binary winner by the measure's
    significance margin. No n may exceed :data:`FIG3_MAX_N`.
    """
    model = NaiveBayesModel(float(z))
    replicates, kinds, n_values, master_seed = _study(replicates, measure_kinds, n_values,
                                                      master_seed)
    _whole(max(n_values, default=1), _NB_SAMPLE_SIZE, 1, FIG3_MAX_N + 1)
    # footnote convention: when the naive p-value dies for both winners, the
    # plotted choice is the arity the true model does NOT favor at this z
    four_truly_better = nb_true_mi(model, "four_state") > nb_true_mi(model, "binary")
    favor2 = np.zeros((len(kinds), len(n_values)), dtype=np.int64)
    underflow = np.zeros(len(n_values), dtype=np.int64)
    margins = [selection_margin(k, alpha) for k in kinds]

    for block in _blocks(replicates, (N_BINARY_FEATURES + N_FOUR_STATE_FEATURES) * len(n_values)):
        # groups of ten candidates per arity, replicate-major, then n
        draws = [_sample_nb_stacks(model, n, gen)
                 for gen in (substream(master_seed, r) for r in block) for n in n_values]
        stats2, stats4 = (meas.stack_stats(np.concatenate(c), mode) for c in zip(*draws))
        for j, k in enumerate(kinds):
            (s2, k2), (s4, k4) = (first_best(*(v.reshape(len(draws), -1)
                                               for v in meas.score(k, *st)))
                                  for st in (stats2, stats4))
            favors_two = ~(k4 > k2 + margins[j])
            if k is MeasureKind.P_VALUE:
                dead = (s2 == 0.0) & (s4 == 0.0)
                favors_two = np.where(dead, four_truly_better, favors_two)  # deliberately wrong
                underflow += dead.reshape(len(block), -1).sum(axis=0)
            favor2[j] += favors_two.reshape(len(block), -1).sum(axis=0)

    return _curve("n", (float(n) for n in n_values), kinds, favor2.tolist(), underflow.tolist(),
                  replicates, master_seed, alpha, mode, experiment="feature_selection",
                  z=repr(float(z)))


# ---------------------------------------------------------------------------
# curve serialization
# ---------------------------------------------------------------------------

def format_curve(curve: ExperimentCurve) -> str:
    """Tab-separated text: '#' config comments, header row, one row per x."""
    lines = ["# depscore experiment curve", f"# master_seed: {curve.master_seed}",
             f"# replicates: {curve.replicates}"]
    lines += [f"# {key}: {curve.config[key]}" for key in sorted(curve.config)]
    header = [curve.x_label] + list(curve.fractions)
    if curve.p_underflow is not None:
        header.append("p_underflow")
    lines.append("\t".join(header))
    for i, x in enumerate(curve.x_values):
        row = [f"{x:g}"]
        row += [f"{fr[i]:.6f}" for fr in curve.fractions.values()]
        if curve.p_underflow is not None:
            row.append(str(curve.p_underflow[i]))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
