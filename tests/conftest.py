"""Shared fixtures and table generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from depscore import (
    DofMode,
    dof,
    from_counts,
    make_prob_table,
    mi_plugin,
    sample_table,
    standardized_information,
    substream,
)


def random_count_table(gen: np.random.Generator, min_card: int = 2, max_card: int = 6,
                       min_n: int = 10, max_n: int = 10_000, require_dof: bool = False):
    """One random table: random shape, Dirichlet cell probabilities, multinomial counts."""
    while True:
        a = int(gen.integers(min_card, max_card + 1))
        b = int(gen.integers(min_card, max_card + 1))
        conc = float(gen.choice([0.3, 1.0, 3.0]))
        p = gen.dirichlet(np.full(a * b, conc))
        n = int(gen.integers(min_n, max_n + 1))
        counts = gen.multinomial(n, p).reshape(a, b)
        if not counts.any():
            continue
        t = from_counts(counts)
        if require_dof and dof(t, DofMode.EFFECTIVE) < 1:
            continue
        return t


@pytest.fixture(scope="session")
def chi2_null_replicates():
    """10^4 seeded samples of the uniform independent 4x4 at N=1000.

    Returns (mi values, si values) as arrays; every cell is occupied at this
    N, so effective and nominal dof agree at 9.
    """
    p = make_prob_table(np.full((4, 4), 1 / 16))
    n = 1000
    mis = np.empty(10_000)
    sis = np.empty(10_000)
    for r in range(10_000):
        t = sample_table(p, n, substream(20_240_501, r))
        mis[r] = mi_plugin(t)
        sis[r] = standardized_information(t)
    return mis, sis
