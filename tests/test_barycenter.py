import numpy as np
import pytest

from baryreduce.core import (
    EmptyInput,
    InvalidSolution,
    NumericalFailure,
    Solution,
    ZeroWeight,
    make_distribution,
    validate_solution,
)
from baryreduce.barycenter import (
    SolverOptions,
    pairwise_cost_p2,
    reconstruct_barycenter,
    solution_cost,
    solve_barycenter,
    update_support_atom,
)
from conftest import random_distribution


def delta(x):
    return make_distribution(np.atleast_2d(np.asarray(x, dtype=float)), [1.0])


def random_family(rng, k=3, T=4, d=3):
    return [random_distribution(rng, T, d) for _ in range(k)]


def random_valid_solution(rng, mus, n):
    """Random feasible plans via iterative proportional fitting."""
    b = rng.dirichlet(np.ones(n) * 5.0)
    plans = []
    for mu in mus:
        M = rng.random((mu.size, n)) + 0.1
        for _ in range(400):
            M *= (mu.weights / M.sum(axis=1))[:, None]
            M *= b / M.sum(axis=0)
        plans.append(M)
    return Solution(tuple(plans), b)


class TestUpdateSupportAtom:
    def test_mean_p2(self):
        y = update_support_atom([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0], 2.0)
        np.testing.assert_allclose(y, [1.0, 0.0])

    def test_weighted_mean(self):
        y = update_support_atom([[0.0], [1.0]], [1.0, 3.0], 2.0)
        np.testing.assert_allclose(y, [0.75])

    def test_median_objective(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        w = np.ones(3)
        y = update_support_atom(pts, w, 1.0)
        obj = (w * np.abs(pts.ravel() - y[0])).sum()
        assert obj == pytest.approx(10.0, abs=1e-7)

    def test_median_at_heavy_point(self):
        y = update_support_atom([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]],
                                [0.9, 0.05, 0.05], 1.0)
        np.testing.assert_allclose(y, [0.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_general_p_against_grid(self, p):
        pts = np.array([[0.0], [1.0], [4.0]])
        w = np.array([1.0, 2.0, 1.0])
        y = update_support_atom(pts, w, p)
        grid = np.linspace(-1, 5, 60001)
        vals = (w[:, None] * np.abs(pts - grid[None, :]) ** p).sum(axis=0)
        best = vals.min()
        mine = (w * np.abs(pts.ravel() - y[0]) ** p).sum()
        assert mine <= best + 1e-6 * (1 + best)

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            update_support_atom([[0.0]], [0.0], 2.0)

    def test_mean_first_order_optimality(self, rng):
        pts = rng.normal(size=(6, 3))
        w = rng.random(6)
        y = update_support_atom(pts, w, 2.0)
        for _ in range(5):
            u = rng.normal(size=3)
            u *= 1e-3 / np.linalg.norm(u)
            f0 = (w * np.linalg.norm(pts - y, axis=1) ** 2).sum()
            f1 = (w * np.linalg.norm(pts - (y + u), axis=1) ** 2).sum()
            assert f1 >= f0 - 1e-12


class TestReconstruct:
    def test_two_deltas_midpoint(self):
        mus = [delta([0.0]), delta([2.0])]
        sol = Solution((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        nu = reconstruct_barycenter(sol, mus, 2.0)
        np.testing.assert_allclose(nu.atoms, [[1.0]])

    def test_identity_plan_reproduces_input(self):
        mu = make_distribution([[0.0], [2.0]], [0.5, 0.5])
        sol = Solution((np.eye(2) * 0.5,), np.array([0.5, 0.5]))
        nu = reconstruct_barycenter(sol, [mu], 2.0)
        np.testing.assert_allclose(nu.atoms, mu.atoms)

    def test_invalid_solution_rejected(self):
        mus = [delta([0.0]), delta([2.0])]
        sol = Solution((np.array([[0.5]]), np.array([[1.0]])), np.array([1.0]))
        with pytest.raises(InvalidSolution):
            reconstruct_barycenter(sol, mus, 2.0)


class TestSolutionCost:
    def test_midpoint_cost(self):
        mus = [delta([0.0]), delta([2.0])]
        sol = Solution((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        assert solution_cost(sol, mus, 2.0).total_cost == pytest.approx(1.0)

    def test_identity_cost_zero(self):
        mu = make_distribution([[0.0], [2.0]], [0.5, 0.5])
        sol = Solution((np.eye(2) * 0.5,), np.array([0.5, 0.5]))
        assert solution_cost(sol, [mu], 2.0).total_cost == pytest.approx(0.0, abs=1e-12)

    def test_p1_median_cost(self):
        mus = [delta([0.0]), delta([3.0])]
        sol = Solution((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        assert solution_cost(sol, mus, 1.0).total_cost == pytest.approx(1.5)


class TestPairwiseIdentity:
    def test_two_deltas(self):
        mus = [delta([0.0]), delta([2.0])]
        sol = Solution((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        assert pairwise_cost_p2(sol, mus) == pytest.approx(1.0)

    def test_singleton_columns_zero(self):
        mu = make_distribution([[0.0], [2.0]], [0.5, 0.5])
        sol = Solution((np.eye(2) * 0.5,), np.array([0.5, 0.5]))
        assert pairwise_cost_p2(sol, [mu]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_solution_cost(self, rng):
        mus = random_family(rng)
        sol = random_valid_solution(rng, mus, 3)
        assert validate_solution(sol, mus)
        a = pairwise_cost_p2(sol, mus)
        b = solution_cost(sol, mus, 2.0).total_cost
        assert abs(a - b) <= 1e-9 * (1 + b)


class TestSolveBarycenter:
    def test_single_distribution_zero_cost(self, rng):
        # matching the input exactly needs the atom weights re-estimated,
        # since the default keeps them fixed at 1/n
        mu = random_distribution(rng, 4, 2)
        nu, sol, rep = solve_barycenter(
            [mu], SolverOptions(support_size=4, p=2.0, reestimate_weights=True))
        assert rep.total_cost == pytest.approx(0.0, abs=1e-10)

    def test_two_deltas(self):
        mus = [delta([0.0]), delta([2.0])]
        nu, sol, rep = solve_barycenter(mus, SolverOptions(support_size=1, p=2.0))
        assert rep.total_cost == pytest.approx(1.0)
        np.testing.assert_allclose(nu.atoms, [[1.0]], atol=1e-9)

    def test_monotone_trace(self, rng):
        mus = random_family(rng, k=4, T=5, d=3)
        _, _, rep = solve_barycenter(mus, SolverOptions(support_size=3, p=2.0))
        for a, b in zip(rep.trace, rep.trace[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))

    @pytest.mark.usefixtures("rising_transport_costs")
    def test_rising_objective_raises(self):
        mus = [delta([0.0]), delta([2.0])]
        with pytest.raises(NumericalFailure, match=r"iteration 2: 1\.0 -> 2\.0"):
            solve_barycenter(mus, SolverOptions(support_size=1, p=2.0))

    def test_returns_valid_solution(self, rng):
        mus = random_family(rng)
        _, sol, _ = solve_barycenter(mus, SolverOptions(support_size=2, p=2.0))
        assert validate_solution(sol, mus)

    def test_reestimated_weights_stay_valid(self, rng):
        mus = random_family(rng)
        _, sol, _ = solve_barycenter(
            mus, SolverOptions(support_size=2, p=2.0, reestimate_weights=True))
        assert validate_solution(sol, mus)

    def test_support_above_pool_is_allowed(self):
        mus = [delta([0.0]), delta([2.0])]
        nu, _, rep = solve_barycenter(mus, SolverOptions(support_size=5, p=2.0))
        assert nu.atoms.shape == (5, 1)
        assert rep.total_cost <= 1.0 + 1e-9

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            solve_barycenter([], SolverOptions())

    def test_deterministic_under_seed(self, rng):
        mus = random_family(rng)
        opts = SolverOptions(support_size=2, p=2.0, seed=7)
        nu1, _, rep1 = solve_barycenter(mus, opts)
        nu2, _, rep2 = solve_barycenter(mus, opts)
        np.testing.assert_array_equal(nu1.atoms, nu2.atoms)
        assert rep1.total_cost == rep2.total_cost

    def test_p1_one_atom_is_median(self):
        mus = [delta([0.0]), delta([1.0]), delta([10.0])]
        nu, _, rep = solve_barycenter(mus, SolverOptions(support_size=1, p=1.0))
        assert 3 * rep.total_cost == pytest.approx(10.0, abs=1e-6)
