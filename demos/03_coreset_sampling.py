"""Why importance sampling beats uniform sampling on skewed inputs.

One distribution in fifty thousand carries almost all of the objective.
Uniform subsampling nearly always misses it; sampling proportionally to
transport-cost-based importance scores nearly always catches it, and the
weights keep the estimate unbiased either way.
"""

import numpy as np

from baryreduce import (
    build_coreset,
    evaluate_coreset,
    make_distribution,
    sensitivity_upper_bounds,
    transport_costs,
)
from baryreduce.instances import gen_coreset_synthetic

k = 50000
mus = gen_coreset_synthetic(k)      # k-1 masses at 0, one lone mass at x=k

# importance scores against the pilot delta_0 (the crowd's barycenter);
# build_coreset draws with the probabilities it is given
scores = sensitivity_upper_bounds(mus, p=2.0, alpha=1.0, pilot=mus[0])
importance = scores / scores.sum()
print("sampling probability of the outlier:", round(importance[-1], 4))
print("sampling probability of a crowd member:", importance[0])

uniform = np.full(k, 1 / k)

# every input's transport cost to each query, computed once per query
queries = [0.0, 10.0, 100.0]
costs = {x: transport_costs(mus, make_distribution([[x]], [1.0]), 2.0)
         for x in queries}

print("\nquery   uniform(1000 samples)   importance(10 samples)")
for x in queries:
    u = evaluate_coreset(build_coreset(uniform, 1000, seed=50), costs[x])
    s = evaluate_coreset(build_coreset(importance, 10, seed=50), costs[x])
    print(f"{x:>5}   {u['rel_error']:>18.4%}   {s['rel_error']:>20.4%}")

# unbiasedness: averaged over many seeds the estimate converges to the truth
estimates = []
for seed in range(2000):
    core = build_coreset(importance, 10, seed=seed)
    out = evaluate_coreset(core, costs[10.0])
    estimates.append(out["coreset_cost"])
print("\ntrue objective at x=10:", out["full_cost"])
print("mean of 2000 estimates:", round(float(np.mean(estimates)), 2))
