"""One rule for integer inputs: a seed, a substream index, a replicate count,
a sample size or a cardinality is one integer in its range, or a ValueError
that names the argument and the rejected value."""

from __future__ import annotations

import re

import numpy as np
import pytest

from depscore import (DofMode, MeasureKind, NaiveBayesModel, format_curve, from_counts,
                      from_samples, make_prob_table, merge_states, run_discretization_experiment,
                      run_feature_selection_experiment, sample_nb_dataset, sample_table,
                      stack_stats, substream)
from depscore import experiments
from depscore.experiments import FIG3_MAX_N

P = make_prob_table(np.full((2, 3), 1 / 6))


def _fig3(replicates):
    return format_curve(run_feature_selection_experiment(
        n_values=(32,), replicates=replicates, measure_kinds=[MeasureKind.SI]))


def _fig2(n):
    curves = run_discretization_experiment(z_grid=(0.05,), n_values=(n,), replicates=1)
    return [(repr(key), format_curve(curve)) for key, curve in curves.items()]


# argument, a call that returns a comparable result, the rule's text, its range [low, below)
ARGUMENTS = [
    ("seed", lambda v: substream(v, 0).integers(2**62), "seed must be an unsigned 64-bit integer",
     0, 2**64),
    ("index", lambda v: substream(0, v).integers(2**62),
     "substream index must be a nonnegative integer", 0, None),
    ("replicates", _fig3, "replicates must be an integer >= 1", 1, None),
    ("study-n", _fig2, "n must be an integer >= 1 and below 2**63", 1, 2**63),
    ("nb-n", lambda v: [t.counts.tolist() for _, t in sample_nb_dataset(
        NaiveBayesModel(0.1), v, substream(0, 0))],
     f"n must be an integer from 1 to FIG3_MAX_N = {FIG3_MAX_N} for feature selection",
     1, FIG3_MAX_N + 1),
    ("table-n", lambda v: sample_table(P, v, substream(0, 0)).counts.tolist(),
     "n must be an integer >= 1 and below 2**63", 1, 2**63),
    ("card_a", lambda v: from_samples([(0, 1), (1, 0)], v, 2).counts.tolist(),
     "card_a must be an integer >= 2", 2, None),
    ("card_b", lambda v: from_samples([(0, 1), (1, 0)], 2, v).counts.tolist(),
     "card_b must be an integer >= 2", 2, None),
]


# past float's range: float(HUGE) overflows
HUGE = 10**400


def _rejected(low, below):
    return [1.5, "3", [3], low - 1] + ([] if below is None else [below, HUGE])


@pytest.mark.parametrize("call, rule, value", [
    pytest.param(call, rule, value, id=f"{name}-{'10**400' if value == HUGE else repr(value)}")
    for name, call, rule, low, below in ARGUMENTS
    for value in _rejected(low, below) + ([True] if low > 1 else [])
])
def test_rejected_value_is_named(call, rule, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{rule}, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("call, low", [pytest.param(call, low, id=name)
                                       for name, call, _, low, _ in ARGUMENTS])
def test_whole_numbers_are_accepted_as_ints(call, low):
    expected = call(3)
    assert call(3.0) == expected
    assert call(np.int32(3)) == expected
    if low <= 1:
        assert call(True) == call(1)


@pytest.mark.parametrize("draw", [
    pytest.param(lambda n, gen: sample_table(P, n, gen), id="sample_table"),
    pytest.param(lambda n, gen: sample_nb_dataset(NaiveBayesModel(0.1), n, gen),
                 id="sample_nb_dataset"),
])
@pytest.mark.parametrize("n", [1.5, "3", [3], 0, 2**63])
def test_rejected_sample_size_draws_nothing(draw, n):
    gen = substream(1, 0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(f", got {n!r}")):
        draw(n, gen)
    assert gen.bit_generator.state == state


def test_integers_past_the_float_range_are_read_exactly():
    # float(HUGE) raised an OverflowError before any rule was checked
    assert isinstance(substream(0, HUGE), np.random.Generator)
    assert experiments._study(HUGE, (), (25,), 0)[0] == HUGE
    assert run_discretization_experiment(z_grid=(), replicates=HUGE)[25].replicates == HUGE


@pytest.mark.parametrize("call", [
    pytest.param(lambda: from_counts([[HUGE, 1], [1, 1]]), id="from_counts"),
    pytest.param(lambda: stack_stats([[[1, 1], [1, 1]], [[1, HUGE], [1, 1]]]), id="stack_stats"),
])
def test_counts_past_the_float_range_are_too_large(call):
    with pytest.raises(ValueError, match=r"^counts too large for int64: their total is not "
                                         r"below 2\*\*63$"):
        call()


TEXT_COUNTS = [["1", "2"], ["3", "4"]]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: from_counts(TEXT_COUNTS), "counts must be integers", id="from_counts"),
    pytest.param(lambda: stack_stats(np.array([TEXT_COUNTS]), DofMode.NOMINAL),
                 "counts must be integers", id="stack_stats"),
    pytest.param(lambda: from_samples([("0", "1")], 2, 2), "state indices must be integers",
                 id="from_samples"),
    pytest.param(lambda: merge_states(from_counts([[1, 2], [3, 4]]), [["0"], ["1"]],
                                      [[0], [1]]),
                 "state indices must be integers", id="merge_states"),
])
def test_text_arrays_are_not_integers(call, message):
    # text was cast to numbers, or ended in numpy's own error
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class NotANumber:
    """An object numpy holds as dtype object and ``float()`` refuses."""

    def __repr__(self) -> str:
        return "NotANumber()"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: substream(0, NotANumber()),
                 "substream index must be a nonnegative integer, got NotANumber()", id="substream"),
    pytest.param(lambda: substream(NotANumber(), 0),
                 "seed must be an unsigned 64-bit integer, got NotANumber()", id="seed"),
    pytest.param(lambda: merge_states(from_counts([[1, 2], [3, 4]]), [[0], [NotANumber()]],
                                      [[0], [1]]),
                 "state indices must be integers", id="merge_states"),
    pytest.param(lambda: from_samples([(0, NotANumber())], 2, 2), "state indices must be integers",
                 id="from_samples"),
    pytest.param(lambda: from_counts([[1, NotANumber()], [3, 4]]), "counts must be integers",
                 id="from_counts"),
])
def test_objects_that_are_not_numbers_are_not_integers(call, message):
    # float() raised a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: from_samples([(0, 1), (1,)], 2, 2),
                 "pairs must be a sequence of (a, b) index pairs", id="from_samples"),
    pytest.param(lambda: from_counts([[1, 2], [3]]),
                 "counts must be a 2-D array, got sequences of unequal length", id="from_counts"),
    pytest.param(lambda: stack_stats([[[1, 2], [3]]], DofMode.NOMINAL),
                 "counts must be a 3-D array, got sequences of unequal length", id="stack_stats"),
    pytest.param(lambda: merge_states(from_counts([[1, 2], [3, 4]]), [[0], [1, [1]]], [[0], [1]]),
                 "state indices must be integers", id="merge_states"),
    pytest.param(lambda: substream(0, [[1], [2, 3]]),
                 "substream index must be a nonnegative integer, got [[1], [2, 3]]",
                 id="substream"),
])
def test_ragged_nestings_are_rejected_in_the_callers_words(call, message):
    # numpy's own "setting an array element with a sequence" escaped
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
