"""A first tour: exact transport distances and a small free-support barycenter.

Run as a script; prints everything it computes.
"""

import numpy as np

from baryreduce import (
    SolverOptions,
    make_distribution,
    pool_batch,
    solve_barycenter,
    solve_ot,
    wasserstein_p,
)

rng = np.random.default_rng(0)

# --- two tiny distributions on the line -----------------------------------
mu = make_distribution([[0.0], [1.0]], [0.7, 0.3])
nu = make_distribution([[0.0], [2.0]], [0.4, 0.6])

plan = solve_ot(mu, nu, p=1.0)
print("optimal flow:\n", plan.flow)
print("W_1 cost:", plan.cost)          # 0.9 on this instance
print("W_2 distance:", wasserstein_p(mu, nu, 2.0))

# --- a barycenter of three point clouds -----------------------------------
# three noisy rings of 12 points each, rotated copies of one another
angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
clouds = []
for shift in (0.0, 0.4, 0.8):
    pts = np.c_[np.cos(angles + shift), np.sin(angles + shift)]
    pts += 0.05 * rng.standard_normal(pts.shape)
    clouds.append(make_distribution(pts, np.full(12, 1 / 12)))

# the solver takes the inputs pooled into one array of all their atoms
opts = SolverOptions(support_size=12, p=2.0, seed=1)
center, solution, report = solve_barycenter(pool_batch(clouds), opts)

print("\nbarycenter of 3 rings:")
print("  objective:", report.total_cost)
print("  iterations:", report.iterations, "converged:", report.converged)
print("  objective trace:", np.round(report.trace, 5))

# the trace never increases: each half-step of the alternation is an exact
# minimization, so the objective is monotone
assert all(b <= a + 1e-9 for a, b in zip(report.trace, report.trace[1:]))

# the barycenter's atoms should again lie near the unit circle
radii = np.linalg.norm(center.atoms, axis=1)
print("  atom radii:", np.round(radii, 3))
