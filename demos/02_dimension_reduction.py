"""Project high-dimensional inputs, solve small, lift the plans back.

The transport plans found after a random projection are dimension-free:
they can be re-priced in the original space, and for distance-preserving
maps the lifted cost stays within (1+eps)^2 of the full-dimensional one.
"""

import numpy as np

from baryreduce import (
    SolverOptions,
    cost_ratio_sweep,
    jl_dimension,
    make_distribution,
    make_gaussian_map,
    make_srht_map,
    pool_batch,
    reduce_solve_reconstruct,
    solve_barycenter,
)

rng = np.random.default_rng(3)

# ten classes of 64-dimensional points, one distribution per class
d, k, per_class = 64, 10, 30
centers = rng.standard_normal((k, d))
mus = []
for c in centers:
    pts = c + 0.3 * rng.standard_normal((per_class, d))
    mus.append(make_distribution(pts, np.full(per_class, 1 / per_class)))

opts = SolverOptions(support_size=8, p=2.0, seed=5)

# how low can the dimension go?  The three selection policies disagree:
n_pooled = sum(mu.size for mu in mus)
for policy in ("p2", "kirszbraun", "optimal"):
    m = jl_dimension(n_pooled, eps=0.4, delta=0.1, p=2.0, policy=policy, k=k)
    print(f"policy {policy:>10}: m = {m}")

# full-dimensional reference, on the inputs pooled once for every solve below
batch = pool_batch(mus)
_, _, full = solve_barycenter(batch, opts)
print("\nfull-dimension cost:", round(full.total_cost, 4))

# Gaussian and Hadamard-based maps at a fixed small m
for maker, name in ((make_gaussian_map, "gaussian"), (make_srht_map, "srht")):
    res = reduce_solve_reconstruct(batch, maker(d, 16, seed=7), opts)
    print(f"{name:>9} m=16: low-dim cost {res.cost_low:.4f}, "
          f"lifted cost {res.cost_high:.4f} "
          f"(ratio {res.cost_high / full.total_cost:.3f})")

# a sweep over target dimensions shows the ratio melting toward 1
sweep = cost_ratio_sweep(batch, [4, 8, 16, 32], opts, trials=3, master_seed=1)
print("\n  m   mean ratio   max ratio   mean seconds")
for row in sweep["rows"]:
    print(f"{row['m']:>3}   {row['mean_ratio']:.4f}      "
          f"{row['max_ratio']:.4f}      {row['mean_time']:.3f}")
