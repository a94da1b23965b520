"""The package's public names: each module's ``__all__``, re-exported once."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import depscore

MODULES = ("ess", "experiments", "measures", "numerics", "ranking", "tables")

# the union of the six modules' __all__ lists; editing it is editing the public API
PUBLIC = frozenset("""
    CountTable DependenceReport DofMode EssResult ExperimentCurve MeasureKind
    NaiveBayesModel NoRootError ProbTable Ranking ScoredCandidate bisect_root
    compare_discretizations conditional_entropy constraint_lhs constraint_rhs dof
    entropy fig2_distribution format_curve from_counts from_samples
    log_ratio_field make_prob_table mean_marginal_entropy merge_states
    mi_plugin nb_equal_mi_z nb_true_mi normalized_mi p_value r_score rank
    reg_gamma_upper report run_discretization_experiment
    run_feature_selection_experiment sample_nb_dataset sample_table score
    score_candidates si_threshold solve_ess stack_stats standardized_information
    substream
""".split())


def declared() -> dict[str, list[str]]:
    return {m: list(importlib.import_module(f"depscore.{m}").__all__) for m in MODULES}


def test_the_declared_names_are_the_public_api():
    names = [n for listed in declared().values() for n in listed]
    assert len(names) == len(set(names)), "a name is declared public twice"
    assert set(names) == PUBLIC


def test_the_package_exports_exactly_the_declared_names():
    # a fresh interpreter: importing depscore.cli elsewhere in the run binds depscore.cli
    code = "import depscore; print(*(n for n in vars(depscore) if not n.startswith('_')))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert len(out) == len(set(out))
    assert set(out) == PUBLIC | set(MODULES)


def test_each_export_is_its_module_object():
    for module, names in declared().items():
        for name in names:
            assert getattr(depscore, name) is getattr(getattr(depscore, module), name), name
