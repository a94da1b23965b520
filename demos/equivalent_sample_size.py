"""Choosing the equivalent sample size for multinomial smoothing.

Smoothed cell estimates (N_ab + n' q_ab) / (N + n') need a value for n',
the total virtual count. The constraint solved here matches the smoothed
expectation of the empirical log-ratio field to the bias-adjusted
information, which pins n' down without cross-validation. The constraint's
left side is a weighted average of MI and the prior mean of the log-ratio
field, so its root has a closed form; the first-order approximation is
compared against that exact root, and the two sides of the constraint are
tabulated so the crossing is visible.
"""

import numpy as np

from depscore import (
    constraint_lhs,
    constraint_rhs,
    from_counts,
    mi_plugin,
    sample_table,
    fig2_distribution,
    solve_ess,
    substream,
)

# a moderately dependent 2x2 table
t = from_counts([[200, 100], [100, 200]])
res = solve_ess(t)
print("table:")
print(t.counts)
print(f"plug-in MI        {mi_plugin(t):.6f}")
print(f"constraint rhs    {res.rhs:.6f}")
print(f"exact n'          {res.n_prime_exact:.4f}")
print(f"first-order n'    {res.n_prime_approx:.4f}")

# the two sides of the constraint around the root
grid = np.linspace(0.0, 25.0, 6)
lhs, rhs = constraint_lhs(t, grid), constraint_rhs(t)
print("\n  n'      lhs        rhs")
for g, v in zip(grid, lhs):
    marker = " <- crossing below" if v < rhs and g > 0 else ""
    print(f"{g:5.1f}  {v:.6f}  {rhs:.6f}{marker}")

# n' is a property of the distribution, not of the data volume:
# resampling the same joint at different N moves the root very little
print("\nsample-size independence (block family, z = 0.06):")
probs = fig2_distribution(0.06)
for n in (2_000, 10_000, 50_000):
    roots = [solve_ess(sample_table(probs, n, substream(5, r))).n_prime_exact
             for r in range(20)]
    print(f"N = {n:>6}: median exact n' = {float(np.median(roots)):.2f}")

# stronger dependence needs fewer virtual counts
print("\ndependence strength vs n' (single resample at N = 100000):")
for z in (0.04, 0.07, 0.10):
    t_z = sample_table(fig2_distribution(z), 100_000, substream(6, int(z * 100)))
    print(f"z = {z:.2f}: exact n' = {solve_ess(t_z).n_prime_exact:8.2f}")

# the constraint's left side at n' = 0 is exactly the plug-in MI
assert abs(constraint_lhs(t, 0.0) - mi_plugin(t)) < 1e-12
