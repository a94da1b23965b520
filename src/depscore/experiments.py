"""Seeded synthetic studies: discretization, feature selection, and the
equivalent-sample-size constraint curve.

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

Decision protocols. For discretization, each sampled table is judged by
the refinement-increment rule of
:func:`depscore.ranking.compare_discretizations`, from statistics computed
once for every measure. For feature selection, the best binary and best
4-state candidate are compared on the measure's key, and the 4-state
winner is accepted only if it clears the simpler winner by the measure's
own significance margin (the notability threshold for standardized
information, ``alpha`` on the log scale for the p-value, nothing for the
additive and normalized measures). Both protocols run on nominal degrees
of freedom: the null calibration of the incremental statistic is what the
decision thresholds assume.

The naive p-value is additionally evaluated for both hypotheses of each
decision. When it rounds to exactly zero for both, the event is counted in
the curve's underflow column and the plotted decision deliberately flips to
the wrong hypothesis, making the breakdown visible as a jump in the curve;
the robust log-space path is unaffected and keeps ordering candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures as meas
from .measures import MeasureKind
from .numerics import RandomStream, bisect_root, substream
from .ranking import _increment_score, _margin, _refinement, _refinement_margin
from .tables import (
    CountTable,
    DofMode,
    ProbTable,
    dof,
    from_counts,
    make_prob_table,
    sample_table,
)

__all__ = [
    "FIG2_PARTITIONS",
    "fig2_distribution",
    "NaiveBayesModel",
    "nb_true_mi",
    "nb_equal_mi_z",
    "sample_nb_dataset",
    "ExperimentCurve",
    "run_discretization_experiment",
    "run_feature_selection_experiment",
    "ess_constraint_curve",
    "format_curve",
    "write_curve",
    "DEFAULT_MEASURES",
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


def _entropy_terms(*ps: float) -> float:
    return -sum(p * math.log(p) for p in ps if p > 0.0)


def nb_true_mi(model: NaiveBayesModel, which: str) -> float:
    """Exact mutual information between the class and one feature."""
    if which == "binary":
        p1 = sum(P_BINARY_GIVEN_CLASS) / N_CLASSES
        h_marginal = _entropy_terms(p1, 1.0 - p1)
        h_conditional = sum(_entropy_terms(p, 1.0 - p) for p in P_BINARY_GIVEN_CLASS) / N_CLASSES
        return h_marginal - h_conditional
    if which == "four_state":
        # feature marginal is uniform by symmetry
        return math.log(4.0) - _entropy_terms(model.p_same, *([model.p_other] * 3))
    raise ValueError(f"which must be 'binary' or 'four_state', got {which!r}")


def nb_equal_mi_z() -> float:
    """The z at which binary and four-state features carry equal true MI."""
    target = nb_true_mi(NaiveBayesModel(0.0), "binary")

    def gap(z: float) -> float:
        return nb_true_mi(NaiveBayesModel(z), "four_state") - target

    return bisect_root(gap, 0.0, 0.25, xtol=1e-12)


def sample_nb_dataset(model: NaiveBayesModel, n: int,
                      stream: RandomStream) -> list[tuple[str, CountTable]]:
    """n joint draws of (class, all 20 features), as per-feature tables vs class.

    Feature ids are ``x01``..``x10`` (binary) and ``x11``..``x20``
    (four-state); each table has the feature on rows and the class on
    columns. Draw order is fixed (class block, binary block, four-state
    block) so a given stream always yields the same dataset.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = stream.generator
    y = gen.integers(0, N_CLASSES, size=n)
    p1 = np.asarray(P_BINARY_GIVEN_CLASS)
    x_bin = (gen.random((n, N_BINARY_FEATURES)) < p1[y][:, None]).astype(np.int64)
    same = gen.random((n, N_FOUR_STATE_FEATURES)) < model.p_same
    shift = gen.integers(0, N_CLASSES - 1, size=(n, N_FOUR_STATE_FEATURES))
    x_four = np.where(same, y[:, None], (y[:, None] + 1 + shift) % N_CLASSES)
    out: list[tuple[str, CountTable]] = []
    for j in range(N_BINARY_FEATURES):
        flat = np.bincount(x_bin[:, j] * N_CLASSES + y, minlength=2 * N_CLASSES)
        out.append((f"x{j + 1:02d}", from_counts(flat.reshape(2, N_CLASSES))))
    for j in range(N_FOUR_STATE_FEATURES):
        flat = np.bincount(x_four[:, j] * N_CLASSES + y, minlength=N_CLASSES * N_CLASSES)
        out.append((f"x{j + 11:02d}", from_counts(flat.reshape(N_CLASSES, N_CLASSES))))
    return out


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentCurve:
    """Fractions favoring the 2-state hypothesis along an x grid.

    ``fractions[measure][i]`` is favor-count / replicates at ``x_values[i]``.
    ``p_underflow``, present when the p-value measure ran, counts replicates
    per x where the naive p-value was exactly 0 for both hypotheses.
    """

    x_label: str
    x_values: tuple[float, ...]
    measure_names: tuple[str, ...]
    fractions: dict = field(default_factory=dict)
    replicates: int = 0
    master_seed: int = 0
    config: dict = field(default_factory=dict)
    p_underflow: tuple[int, ...] | None = None


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

    For each (z, n, replicate) a table is sampled from
    :func:`fig2_distribution` and judged by ``compare_discretizations``
    under each measure. Returns one curve per n with z on the x axis.
    """
    if z_grid is None:
        z_grid = tuple(round(0.01 * i, 10) for i in range(11))
    z_grid = tuple(float(z) for z in z_grid)
    n_values = tuple(int(n) for n in n_values)
    replicates = int(replicates)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    kinds = tuple(measure_kinds)
    dists = {z: fig2_distribution(z) for z in z_grid}

    favor2 = {n: {k: [0] * len(z_grid) for k in kinds} for n in n_values}
    underflow = {n: [0] * len(z_grid) for n in n_values}
    want_p = MeasureKind.P_VALUE in kinds
    margins = {k: _refinement_margin(k, alpha) for k in kinds}

    for r in range(replicates):
        stream = substream(master_seed, r)
        for zi, z in enumerate(z_grid):
            for n in n_values:
                ref = _refinement(sample_table(dists[z], n, stream), FIG2_PARTITIONS, mode)
                for k in kinds:
                    scored = _increment_score(ref, k)
                    fine = scored is not None and scored[1] > margins[k]
                    if k is MeasureKind.P_VALUE and scored is not None and scored[0] == 0.0 \
                            and meas.score(k, ref.mi_fine, ref.d_fine, ref.n)[0] == 0.0:
                        underflow[n][zi] += 1
                        fine = False  # deliberately wrong, to expose the failure
                    if not fine:
                        favor2[n][k][zi] += 1

    out: dict[int, ExperimentCurve] = {}
    for n in n_values:
        out[n] = ExperimentCurve(
            x_label="z",
            x_values=z_grid,
            measure_names=tuple(k.value for k in kinds),
            fractions={k.value: tuple(c / replicates for c in favor2[n][k]) for k in kinds},
            replicates=replicates,
            master_seed=int(master_seed),
            config={
                "experiment": "discretization",
                "n": str(n),
                "alpha": repr(float(alpha)),
                "dof_mode": mode.value,
            },
            p_underflow=tuple(underflow[n]) if want_p else None,
        )
    return out


# A candidate with zero dof carries no estimable dependence under a
# dof-based measure: it ranks last, with p = 1, rather than aborting the study.
_NO_SCORE = (1.0, -math.inf)


def _best(stats, kind: MeasureKind) -> tuple[float, float]:
    """(score, key) of the first candidate with the highest key."""
    return max((_NO_SCORE if kind.needs_dof and st[1] < 1 else meas.score(kind, *st)
                for st in stats), key=lambda scored: scored[1])


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
    model, the best binary and best four-state candidate are found on the
    measure's key, and the four-state winner is taken only when it beats
    the binary winner by the measure's significance margin.
    """
    model = NaiveBayesModel(float(z))
    n_values = tuple(int(n) for n in n_values)
    replicates = int(replicates)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    kinds = tuple(measure_kinds)
    want_p = MeasureKind.P_VALUE in kinds
    # footnote convention: when the naive p-value dies for both winners, the
    # plotted choice is the arity the true model does NOT favor at this z
    four_truly_better = nb_true_mi(model, "four_state") > nb_true_mi(model, "binary")

    favor2 = {k: [0] * len(n_values) for k in kinds}
    underflow = [0] * len(n_values)
    margins = {k: _margin(k, alpha) for k in kinds}
    want_h_bar = MeasureKind.NI in kinds

    for r in range(replicates):
        stream = substream(master_seed, r)
        for ni_, n in enumerate(n_values):
            stats2, stats4 = [], []
            for _, t in sample_nb_dataset(model, n, stream):
                h_bar = meas.mean_marginal_entropy(t) if want_h_bar else None
                (stats2 if t.card_a == 2 else stats4).append(
                    (meas.mi_plugin(t), dof(t, mode), t.n, h_bar))
            for k in kinds:
                best2, best4 = _best(stats2, k), _best(stats4, k)
                favors_two = not (best4[1] > best2[1] + margins[k])
                if k is MeasureKind.P_VALUE and best2[0] == 0.0 and best4[0] == 0.0:
                    underflow[ni_] += 1
                    favors_two = four_truly_better  # deliberately wrong
                if favors_two:
                    favor2[k][ni_] += 1

    return ExperimentCurve(
        x_label="n",
        x_values=tuple(float(n) for n in n_values),
        measure_names=tuple(k.value for k in kinds),
        fractions={k.value: tuple(c / replicates for c in favor2[k]) for k in kinds},
        replicates=replicates,
        master_seed=int(master_seed),
        config={
            "experiment": "feature_selection",
            "z": repr(float(z)),
            "alpha": repr(float(alpha)),
            "dof_mode": mode.value,
        },
        p_underflow=tuple(underflow) if want_p else None,
    )


def ess_constraint_curve(t: CountTable, q: ProbTable | None = None,
                         n_prime_grid=None,
                         mode: DofMode = DofMode.EFFECTIVE) -> tuple[np.ndarray, float]:
    """Constraint left side tabulated over an n' grid, plus the constant right side."""
    from .ess import constraint_lhs, constraint_rhs

    if n_prime_grid is None:
        n_prime_grid = np.linspace(0.0, 200.0, 101)
    grid = np.asarray(list(n_prime_grid), dtype=float)
    if grid.size == 0 or np.any(grid < 0.0):
        raise ValueError("n_prime_grid must be nonempty and nonnegative")
    return constraint_lhs(t, grid, q), constraint_rhs(t, mode)


# ---------------------------------------------------------------------------
# curve serialization
# ---------------------------------------------------------------------------

def format_curve(curve: ExperimentCurve) -> str:
    """Tab-separated text: '#' config comments, header row, one row per x."""
    lines = []
    lines.append("# depscore experiment curve")
    lines.append(f"# master_seed: {curve.master_seed}")
    lines.append(f"# replicates: {curve.replicates}")
    for key in sorted(curve.config):
        lines.append(f"# {key}: {curve.config[key]}")
    header = [curve.x_label] + list(curve.measure_names)
    if curve.p_underflow is not None:
        header.append("p_underflow")
    lines.append("\t".join(header))
    for i, x in enumerate(curve.x_values):
        row = [f"{x:g}"]
        row += [f"{curve.fractions[m][i]:.6f}" for m in curve.measure_names]
        if curve.p_underflow is not None:
            row.append(str(curve.p_underflow[i]))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def write_curve(curve: ExperimentCurve, path) -> None:
    """Write :func:`format_curve` output to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_curve(curve))
