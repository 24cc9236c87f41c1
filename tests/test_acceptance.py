"""End-to-end acceptance checks: one test per headline guarantee.

Each test pins its tolerances explicitly; randomized checks fix their seeds
so reruns are deterministic.
"""

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from baryreduce.core import make_distribution, pool_batch, validate_solution
from baryreduce.transport import solve_ot, transport_costs
from baryreduce.barycenter import (
    SolverOptions,
    pairwise_cost_p2,
    solution_cost,
    solve_barycenter,
)
from baryreduce.projection import (
    jl_dimension,
    make_gaussian_map,
    project_instance,
    reduce_solve_reconstruct,
)
from baryreduce.coreset import (
    build_coreset,
    evaluate_coreset,
    sensitivity_upper_bounds,
)
from baryreduce.instances import (
    empirical_matching_distortion,
    gen_blob_classes,
    gen_coreset_synthetic,
    gen_lb_barycenter,
    gen_ot_pair,
    group_by_label,
    lb_merge_cost,
    lb_projected_merge,
    verify_low_rank_equivalence,
)
from baryreduce.projection import cost_ratio_sweep
from conftest import solution_of
from oracle import solve_ot_oracle


def _random_rational(rng, T, d):
    num = rng.integers(1, 9, size=T)
    return make_distribution(rng.normal(size=(T, d)), num / num.sum())


def _random_valid_solution(rng, mus, n):
    """Feasible random plans via iterative proportional fitting."""
    b = rng.dirichlet(np.ones(n) * 5.0)
    plans = []
    for mu in mus:
        M = rng.random((mu.size, n)) + 0.1
        for _ in range(2000):
            M *= (mu.weights / M.sum(axis=1))[:, None]
            M *= b / M.sum(axis=0)
            if (np.abs(M.sum(axis=1) - mu.weights).max() < 1e-13
                    and np.abs(M.sum(axis=0) - b).max() < 1e-13):
                break
        plans.append(M)
    return solution_of(plans, b)


def test_01_exact_solver_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    for trial in range(500):
        T1, T2 = rng.integers(1, 5, size=2)
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        mu = _random_rational(rng, T1, d)
        nu = _random_rational(rng, T2, d)
        fast = solve_ot(mu, nu, p).cost
        exact = solve_ot_oracle(mu, nu, p).cost
        assert abs(fast - exact) <= 1e-9 * (1 + exact), f"trial {trial}"


def test_02_pairwise_distance_form_equals_reconstruction_cost():
    rng = np.random.default_rng(2)
    for trial in range(200):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 9))
        mus = [_random_rational(rng, int(rng.integers(1, 5)), d)
               for _ in range(k)]
        sol, batch = _random_valid_solution(rng, mus, n), pool_batch(mus)
        assert validate_solution(sol, batch)
        a = pairwise_cost_p2(sol, batch)
        b = solution_cost(sol, batch, 2.0)
        assert abs(a - b) <= 1e-9 * (1 + b), f"trial {trial}"


def test_03_distance_preserving_map_bounds_every_solution_cost():
    eps = 0.3
    rng = np.random.default_rng(21)
    mus = [make_distribution(rng.normal(size=(5, 40)), np.full(5, 0.2))
           for _ in range(8)]
    pooled = np.concatenate([m.atoms for m in mus])
    base = pdist(pooled)
    pmap = None
    for seed in range(50):
        cand = make_gaussian_map(40, 400, seed)
        ratio = pdist(cand(pooled)) / base
        if ratio.min() >= 1 - eps and ratio.max() <= 1 + eps:
            pmap = cand
            break
    assert pmap is not None, "no distance-preserving map found in 50 seeds"
    batch = pool_batch(mus)
    low = pool_batch(project_instance(batch, pmap))
    for trial in range(100):
        sol = _random_valid_solution(rng, mus, 4)
        full = pairwise_cost_p2(sol, batch)
        proj = pairwise_cost_p2(sol, low)
        r = proj / full
        assert (1 - eps) ** 2 <= r <= (1 + eps) ** 2, f"trial {trial}: {r}"


def test_04_reduced_pipeline_tracks_full_dimension_solver():
    rng = np.random.default_rng(99)
    mus = []
    for _ in range(20):
        w = rng.random(12)
        mus.append(make_distribution(rng.normal(size=(12, 64)), w / w.sum()))
    m = jl_dimension(8, 0.25, 0.1, 2.0, "optimal")
    assert m == 1477
    hits = 0
    for seed in range(20):
        opts = SolverOptions(support_size=8, p=2.0, seed=seed)
        _, _, full = solve_barycenter(mus, opts)
        res = reduce_solve_reconstruct(
            mus, make_gaussian_map(64, m, seed + 1000), opts)
        if res.cost_high / full.total_cost <= 1.25:
            hits += 1
    assert hits >= 18, f"only {hits}/20 seeds within 1.25x"


def test_05_cost_ratio_curve_on_classed_dataset():
    pts, labels = gen_blob_classes(10, 40, 64, seed=7)
    mus = group_by_label(pts, labels)
    opts = SolverOptions(support_size=8, p=2.0, seed=3)
    sweep = cost_ratio_sweep(mus, [5, 10, 20, 30], opts, trials=5,
                             master_seed=11)
    means = [row["mean_ratio"] for row in sweep["rows"]]
    assert means[-1] <= 1.10, f"ratio at m=30 is {means[-1]}"
    for lo, hi in zip(means[1:], means[:-1]):
        assert lo <= hi + 0.05, f"ratio increased beyond noise: {means}"


def test_06_near_tied_pairs_instance_and_projection_failure_mode():
    mus, expected, n = gen_lb_barycenter(2, 10, 1, 0.1, p=2.0)
    assert n == 3
    merged = lb_merge_cost(mus, 1, p=2.0)
    assert abs(merged - 0.81) <= 1e-9
    assert abs(merged - expected) <= 1e-9
    flipped = 0
    for seed in range(50):
        pmap = make_gaussian_map(2, 3, seed)
        _, _, pullback = lb_projected_merge(mus, pmap, p=2.0)
        if pullback >= 1.0 - 1e-6:
            flipped += 1
    assert flipped >= 1, "no seed exhibited the predicted pullback failure"


def test_07_projected_matching_cost_shrinks_with_dimension():
    m = 5
    seeds = range(15)
    means = {}
    for d in (256, 1024, 4096):
        A, B, M = gen_ot_pair(d)
        lows = []
        for seed in seeds:
            low, _, _ = empirical_matching_distortion(
                A, B, make_gaussian_map(d, m, seed), 1.0, high_cost=M)
            lows.append(low / M)
        means[d] = float(np.mean(lows))
        if d == 4096:
            below = sum(1 for r in lows if r < 0.5)
            assert below >= 10, f"only {below}/15 seeds below 0.5*M"
    assert means[256] > means[1024] > means[4096], means


def test_08_importance_sampling_error_table():
    k = 50000
    mus = gen_coreset_synthetic(k)
    scores = sensitivity_upper_bounds(mus, p=2.0, alpha=1.0, pilot=mus[0])
    importance, uniform = scores / scores.sum(), np.full(k, 1 / k)
    costs = {x: transport_costs(mus, make_distribution([[float(x)]], [1.0]), 2.0)
             for x in (0, 10, 100)}
    for x, c in costs.items():
        # closed form of the average objective: ((k-1)x^2 + (k-x)^2) / k
        assert c.mean() == pytest.approx(((k - 1) * x**2 + (k - x) ** 2) / k,
                                         rel=1e-12, abs=0.0)

    def errors(q, size, seed):
        core = build_coreset(q, size, seed=seed)
        return {x: evaluate_coreset(core, c)["rel_error"] for x, c in costs.items()}

    seeds = range(50, 60)
    sens = [errors(importance, 10, s) for s in seeds]
    unif = [errors(uniform, 1000, s) for s in seeds]

    # (a) a 10-sample importance coreset reaches 0.01% at x in {10, 100}
    assert sens[0][10] <= 1e-4 and sens[0][100] <= 1e-4, sens[0]
    # (b) 1000 uniform samples that miss the outlier: 100% at x=0, >=0.5%
    # at x=100
    assert unif[0][0] == pytest.approx(1.0, abs=1e-12)
    assert unif[0][100] >= 0.005
    # (c) averaged over the 10 seeds, importance sampling wins by >= 10x
    # at every query
    for x in costs:
        mean_s = np.mean([e[x] for e in sens])
        mean_u = np.mean([e[x] for e in unif])
        assert mean_u >= 10 * mean_s, (x, mean_s, mean_u)


def test_09_sampling_estimate_is_unbiased():
    atoms = [0.0, 1.0, 2.0, 3.0, 10.0]
    mus = [make_distribution([[a]], [1.0]) for a in atoms]
    scores = sensitivity_upper_bounds(mus, p=2.0, alpha=1.0)
    probabilities = scores / scores.sum()
    queries = [0.5, 4.0, 8.0]
    cost = np.array([[ (a - q) ** 2 for a in atoms] for q in queries])
    full = cost.mean(axis=1)
    totals = np.zeros(3)
    n_seeds = 100000
    for seed in range(n_seeds):
        core = build_coreset(probabilities, 3, seed=seed)
        totals += cost[:, core.inputs] @ core.lam
    means = totals / n_seeds
    for q, m, f in zip(queries, means, full):
        assert abs(m - f) <= 0.01 * f, (q, m, f)


def test_10_quadratic_objective_equals_frobenius_form():
    rng = np.random.default_rng(10)
    N = 4
    for trial in range(50):
        k = int(rng.integers(1, 4))
        T = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        # integer unit-mass routing: same column counts for every plan
        col_units = np.bincount(rng.integers(0, n, size=N), minlength=n)
        plans, mus = [], []
        for _ in range(k):
            units = []
            for j, c in enumerate(col_units):
                units.extend([j] * c)
            rows = rng.integers(0, T, size=N)
            flow = np.zeros((T, n))
            for r, j in zip(rows, rng.permutation(units)):
                flow[r, j] += 1.0 / N
            plans.append(flow)
            w = flow.sum(axis=1)
            mus.append(make_distribution(rng.normal(size=(T, d)), w))
        sol, batch = solution_of(plans, col_units / N), pool_batch(mus)
        assert validate_solution(sol, batch)
        frob, bary, match = verify_low_rank_equivalence(batch, sol, N)
        assert match, f"trial {trial}: {frob} vs {bary}"
