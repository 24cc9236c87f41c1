import math

import numpy as np
import pytest
from scipy.linalg import hadamard

from baryreduce import projection
from baryreduce.core import BadParams, DimensionMismatch, make_distribution, pool_batch
from baryreduce.barycenter import (
    SolverOptions,
    solution_cost,
    solve_barycenter,
    support_cost,
)
from baryreduce.projection import (
    cost_ratio_sweep,
    identity_map,
    jl_dimension,
    make_gaussian_map,
    make_srht_map,
    project_instance,
    reduce_solve_reconstruct,
)
from baryreduce.core import solution_violations
from conftest import random_distribution


class TestJlDimension:
    def test_optimal_anchor(self):
        # ceil(2^4 * ln(16/(0.5*0.1)) / 0.5^2) = ceil(16*ln(320)*4)
        assert jl_dimension(16, 0.5, 0.1, 2.0, "optimal") == 370

    def test_policy_monotonicity(self):
        n = k = 32
        opt = jl_dimension(n, 0.3, 0.1, 1.0, "optimal")
        kir = jl_dimension(n, 0.3, 0.1, 1.0, "kirszbraun", k=k)
        assert opt <= kir

    def test_eps_quadratic_scaling(self):
        big = jl_dimension(64, 0.2, 0.1, 2.0, "kirszbraun", k=4)
        # halving eps quadruples the pre-ceiling value; compare raw formula
        f = 4 * math.log(64 * 4 / 0.1)
        assert big == math.ceil(f / 0.2**2)
        assert jl_dimension(64, 0.1, 0.1, 2.0, "kirszbraun", k=4) == math.ceil(f / 0.1**2)

    def test_p2_policy_requires_p2(self):
        with pytest.raises(BadParams):
            jl_dimension(16, 0.5, 0.1, 3.0, "p2", k=2)

    def test_k_required(self):
        with pytest.raises(BadParams):
            jl_dimension(16, 0.5, 0.1, 2.0, "p2")

    def test_bad_policy(self):
        with pytest.raises(BadParams):
            jl_dimension(16, 0.5, 0.1, 2.0, "bogus")

    def test_bad_ranges(self):
        with pytest.raises(BadParams):
            jl_dimension(16, 1.5, 0.1, 2.0, "optimal")
        with pytest.raises(BadParams):
            jl_dimension(1, 0.5, 0.1, 2.0, "optimal")

    @pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
    def test_exponent_finite_and_at_least_one(self, p):
        with pytest.raises(BadParams, match="exponent"):
            jl_dimension(16, 0.5, 0.1, p, "optimal")

    @pytest.mark.parametrize("policy, eps, delta, p", [
        ("optimal", 1e-200, 0.1, 2.0),    # eps**2 underflows to 0
        ("optimal", 1e-160, 0.1, 2.0),    # eps**2 is subnormal, the quotient inf
        ("optimal", 0.25, 1e-320, 2.0),   # n / (eps delta) overflows
        ("optimal", 0.25, 0.1, 1e80),     # p**4 overflows
        ("kirszbraun", 0.25, 0.1, 1e160),  # p**2 overflows
        ("p2", 1e-200, 0.1, 2.0),
        ("p2", 0.25, 1e-320, 2.0),
    ])
    def test_formula_not_finite(self, policy, eps, delta, p):
        with pytest.raises(BadParams, match="not finite"):
            jl_dimension(4, eps, delta, p, policy, k=2)


class TestSrhtMatrix:
    """The SRHT map is stored as the kept columns of the Hadamard matrix;
    check them against scipy's Sylvester construction of the whole matrix."""

    @pytest.mark.parametrize("d, m", [(1, 1), (2, 2), (5, 3), (8, 8), (13, 7), (16, 16), (40, 9)])
    def test_matches_scipy_hadamard(self, d, m):
        d_pad = 1 << (d - 1).bit_length()
        rng = np.random.default_rng(4)  # the draws make_srht_map makes
        signs = rng.choice([-1.0, 1.0], size=d_pad)
        idx = np.sort(rng.choice(d_pad, size=m, replace=False))
        H = hadamard(d_pad) / math.sqrt(d_pad)
        expected = (signs[:d, None] * H[:d, idx] * math.sqrt(d_pad / m)).T
        np.testing.assert_allclose(make_srht_map(d, m, seed=4).matrix, expected,
                                   rtol=0, atol=1e-15)

    def test_orthogonal(self):
        M = make_srht_map(8, 8, seed=1).matrix
        np.testing.assert_allclose(M @ M.T, np.eye(8), atol=1e-12)

    def test_norm_preserving(self, rng):
        x = rng.normal(size=(3, 784))
        y = make_srht_map(784, 1024, seed=2)(x)  # every padded coordinate kept
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), rtol=1e-9)

    def test_two_point_map(self):
        pm = make_srht_map(2, 2, seed=0)
        y = pm(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(np.abs(y), np.full((2, 2), 1 / math.sqrt(2)))
        assert y[0] @ y[1] == pytest.approx(0.0, abs=1e-15)


class TestMaps:
    def test_gaussian_deterministic(self):
        a = make_gaussian_map(8, 4, seed=9)
        b = make_gaussian_map(8, 4, seed=9)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_gaussian_zero_maps_to_zero(self):
        pm = make_gaussian_map(8, 4, seed=0)
        np.testing.assert_array_equal(pm(np.zeros((1, 8))), np.zeros((1, 4)))

    def test_gaussian_norm_concentration(self):
        u = np.zeros((1, 10))
        u[0, 0] = 1.0
        hits = 0
        for seed in range(1000):
            y = make_gaussian_map(10, 1000, seed=seed)(u)
            if 0.8 <= float(np.sum(y * y)) <= 1.2:
                hits += 1
        assert hits >= 990

    @pytest.mark.parametrize("maker", [make_gaussian_map, make_srht_map])
    def test_linearity(self, maker, rng):
        pm = maker(10, 8, seed=3)
        x, y = rng.normal(size=(2, 10))
        lhs = pm((2.0 * x - 3.0 * y)[None])
        rhs = 2.0 * pm(x[None]) - 3.0 * pm(y[None])
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_srht_full_dimension_is_isometry(self, rng):
        pm = make_srht_map(10, 16, seed=3)  # m = d_pad
        x = rng.normal(size=(5, 10))
        np.testing.assert_allclose(
            np.linalg.norm(pm(x), axis=1), np.linalg.norm(x, axis=1), rtol=1e-9)

    def test_srht_unbiased_norm(self):
        u = np.zeros((1, 16))
        u[0, 3] = 1.0
        sq = [float(np.sum(make_srht_map(16, 4, seed=s)(u) ** 2))
              for s in range(10000)]
        assert abs(np.mean(sq) - 1.0) < 0.05

    def test_srht_m_exceeds_pad(self):
        with pytest.raises(BadParams):
            make_srht_map(10, 17, seed=0)

    def test_dimension_mismatch(self):
        pm = make_gaussian_map(8, 4, seed=0)
        with pytest.raises(DimensionMismatch):
            pm(np.zeros((1, 9)))


class TestPipeline:
    def _family(self, rng, k=3, T=4, d=12):
        return [random_distribution(rng, T, d) for _ in range(k)]

    def test_project_instance_keeps_weights(self, rng):
        # the projected batch shares every array but the points
        batch = pool_batch(self._family(rng))
        low = project_instance(batch, make_gaussian_map(12, 5, seed=1))
        assert low.points.shape == (len(batch.points), 5)
        for name in ("origins", "starts", "mass", "massive"):
            assert getattr(low, name) is getattr(batch, name)

    @pytest.mark.parametrize("make_map", [
        identity_map,
        lambda d: make_gaussian_map(d, 5, seed=1),
        lambda d: make_srht_map(d, 5, seed=1),
    ], ids=["identity", "gaussian", "srht"])
    def test_project_instance_maps_each_input(self, rng, make_map):
        mus = [random_distribution(rng, T, 12) for T in (1, 4, 7)]
        pmap = make_map(12)
        low = project_instance(pool_batch(mus), pmap)
        np.testing.assert_array_equal(low.points, pmap(np.concatenate([mu.atoms for mu in mus])))
        assert not low.points.flags.writeable

    def test_identity_matches_plain_solver(self, rng):
        mus = self._family(rng)
        opts = SolverOptions(support_size=2, p=2.0, seed=4)
        batch = pool_batch(mus)
        res = reduce_solve_reconstruct(batch, identity_map(12), opts)
        _, _, rep = solve_barycenter(batch, opts)
        assert res.cost_low == pytest.approx(rep.total_cost, rel=1e-9)
        assert res.cost_high == pytest.approx(rep.total_cost, rel=1e-9)

    def test_low_dim_plans_valid_in_high_dim(self, rng):
        mus = self._family(rng)
        opts = SolverOptions(support_size=2, p=2.0, seed=4)
        batch = pool_batch(mus)
        res = reduce_solve_reconstruct(batch, make_gaussian_map(12, 6, 2), opts)
        assert solution_violations(res.solution, batch) == []
        assert res.cost_high == solution_cost(res.solution, batch, opts.p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_cost_low_is_the_pricing_of_the_projected_plans(self, rng, p):
        mus = self._family(rng)
        opts = SolverOptions(support_size=2, p=p, seed=4)
        pmap = make_gaussian_map(12, 6, 2)
        batch = pool_batch(mus)
        res = reduce_solve_reconstruct(batch, pmap, opts)
        low = project_instance(batch, pmap)
        assert res.cost_low == support_cost(res.solution, low, res.nu_low, p)

    def test_n1_unique_solution_insensitive_to_map(self):
        mus = [make_distribution([[0.0]], [1.0]), make_distribution([[2.0]], [1.0])]
        opts = SolverOptions(support_size=1, p=2.0)
        res = reduce_solve_reconstruct(pool_batch(mus), make_gaussian_map(1, 3, 0), opts)
        assert res.cost_high == pytest.approx(1.0, abs=1e-9)

    def test_sweep_identity_dimension(self, rng):
        mus = self._family(rng)
        opts = SolverOptions(support_size=2, p=2.0, seed=4)
        out = cost_ratio_sweep(pool_batch(mus), [12], opts, trials=3, master_seed=1)
        assert out["rows"][0]["mean_ratio"] >= 0.95
        assert sorted(out["rows"][0]) == ["m", "max_ratio", "mean_ratio", "mean_time", "ratios"]

    def test_sweep_deterministic(self, rng):
        mus = self._family(rng)
        opts = SolverOptions(support_size=2, p=2.0, seed=4)
        a = cost_ratio_sweep(pool_batch(mus), [4, 8], opts, trials=2, master_seed=5)
        b = cost_ratio_sweep(pool_batch(mus), [4, 8], opts, trials=2, master_seed=5)
        for ra, rb in zip(a["rows"], b["rows"]):
            assert ra["ratios"] == rb["ratios"]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_sweep_needs_a_trial(self, rng, trials, monkeypatch):
        # refused before the reference solve, which would run for nothing
        def no_solve(*args):
            raise AssertionError("reference solved before the trials were checked")

        monkeypatch.setattr(projection, "solve_barycenter", no_solve)
        opts = SolverOptions(support_size=2, p=2.0, seed=4)
        with pytest.raises(BadParams, match="trials"):
            cost_ratio_sweep(pool_batch(self._family(rng)), [4], opts, trials=trials)
