"""depscore: dependence measures, fair ranking, and equivalent-sample-size
estimation for pairs of discrete random variables.

The core quantity is the standardized information sqrt(2*N*MI) - sqrt(dof),
which puts weak dependence on the scale of its own null standard deviation
while staying monotone in mutual information, so variables with different
numbers of states rank fairly. Reference measures (plug-in and
bias-corrected mutual information, normalized mutual information,
chi-square p-values with a robust log path) ride along, plus a frequentist
equivalent-sample-size solver for multinomial smoothing and seeded
experiment harnesses for discretization and feature-selection studies.
"""

from .ess import (
    EssResult,
    NoRootError,
    constraint_lhs,
    constraint_rhs,
    log_ratio_field,
    solve_ess,
)
from .experiments import (
    ExperimentCurve,
    NaiveBayesModel,
    fig2_distribution,
    format_curve,
    nb_equal_mi_z,
    nb_true_mi,
    run_discretization_experiment,
    run_feature_selection_experiment,
    sample_nb_dataset,
)
from .measures import (
    DependenceReport,
    MeasureKind,
    conditional_entropy,
    entropy,
    mean_marginal_entropy,
    mi_plugin,
    normalized_mi,
    p_value,
    r_score,
    report,
    score,
    stack_stats,
    standardized_information,
)
from .numerics import (
    bisect_root,
    reg_gamma_upper,
    substream,
)
from .ranking import (
    Ranking,
    ScoredCandidate,
    compare_discretizations,
    is_notable,
    rank,
    score_candidates,
    si_threshold,
)
from .tables import (
    CountTable,
    DofMode,
    ProbTable,
    dof,
    empirical_joint,
    from_counts,
    from_samples,
    make_prob_table,
    merge_states,
    sample_table,
    uniform_prob,
)

__version__ = "0.1.0"
