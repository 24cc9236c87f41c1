import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from baryreduce import barycenter, transport
from baryreduce.core import (
    WEIGHT_TOL,
    BadParams,
    BadWeights,
    EmptyInput,
    InvalidSolution,
    NumericalFailure,
    make_distribution,
    pool_batch,
    solution_violations,
)
from baryreduce.barycenter import (
    SolverOptions,
    reconstruct_barycenter,
    solution_cost,
    solve_barycenter,
    support_cost,
    update_support_atom,
)
from baryreduce.instances import gen_blob_classes, group_by_label
from baryreduce.transport import TransportModel
from conftest import random_distribution, solution_of, use_model, weights_with_zeros
from paper_checks import pairwise_cost_p2


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
    return solution_of(plans, b)


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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_flow_rows_match_all_rows(self, rng, p):
        # zero-weight rows: one exactly at the weighted-mean start (Weiszfeld's
        # point-hit branch) and one far outside, which would widen a radius
        pts = rng.normal(size=(7, 5))
        w = rng.random(7)
        mean = pts.T @ w / w.sum()
        all_pts = np.concatenate([pts[:3], [mean], pts[3:], [100.0 * np.ones(5)]])
        all_w = np.concatenate([w[:3], [0.0], w[3:], [0.0]])
        y = update_support_atom(pts, w, p)
        y_all = update_support_atom(all_pts, all_w, p)
        np.testing.assert_allclose(y_all, y, rtol=0.0, atol=1e-12 * np.abs(y).max())

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("pts", [[[0.0, 0.0]], [[0.1, 0.7]], [[0.1, 0.7]] * 3],
                             ids=["origin", "one", "three_copies"])
    def test_coincident_points_return_their_point(self, pts, p):
        # the start may round off the point: the descent then reaches it exactly
        y = update_support_atom(pts, [0.3, 0.2, 0.1][:len(pts)], p)
        np.testing.assert_allclose(y, pts[0], rtol=1e-15, atol=0.0)

    def test_huge_exponent_returns_a_finite_point(self):
        # the step cap and the Armijo term overflowed here; the points'
        # minimax centre is the start, 1
        y = update_support_atom([[0.0], [2.0], [1.5]], [0.4, 0.2, 0.4], 1e308)
        assert np.isfinite(y).all() and 0.0 <= y[0] <= 2.0

    def test_zero_weight_rejected(self):
        with pytest.raises(BadWeights, match="^support update needs positive total weight$"):
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


def _median_point_sets(rng, d, trials):
    """Weighted point sets in R^d whose weighted mean, the start of the p=1
    update, is their first point, of a weight from light to heavy."""
    for _ in range(trials):
        x = rng.normal(size=(int(rng.integers(2, 9)), d))
        w = rng.random(len(x) + 1) + 0.01
        w[0] = rng.choice([1e-3, 0.1, 1.0, 10.0])
        yield np.vstack([x.T @ w[1:] / w[1:].sum(), x]), w


def _median_objective(pts, w, y):
    return float(w @ np.linalg.norm(pts - y, axis=1))


class TestMedianFromDataPoint:
    def test_line_repro(self):
        # the weighted mean 0 is the light point; the median is the heavy 1
        y = update_support_atom([[0.0], [1.0], [-2.0]], [0.01, 1.0, 0.5], 1.0)
        assert y.tolist() == [1.0]

    def test_plane_repro(self):
        # the weighted mean (0, 0) is the light point; (1, 0) passes the test
        pts = [[0.0, 0.0], [1.0, 0.0], [-2.0, 1.0], [0.0, -1.0]]
        y = update_support_atom(pts, [0.01, 1.0, 0.5, 0.5], 1.0)
        assert y.tolist() == [1.0, 0.0]

    def test_exact_weighted_median_on_a_line(self):
        rng = np.random.default_rng(15)
        for pts, w in _median_point_sets(rng, 1, 300):
            order = np.argsort(pts[:, 0])
            cum = np.cumsum(w[order])
            median = pts[order[np.searchsorted(cum, cum[-1] / 2)]]
            assert update_support_atom(pts, w, 1.0).tolist() == median.tolist()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_first_order_certificate(self, d):
        # a returned data point must pass the Vardi-Zhang test r <= eta;
        # any other point must cost no more than an independent optimum:
        # the cheapest data point, or a trust-region Newton solve
        rng = np.random.default_rng(d)
        for pts, w in _median_point_sets(rng, d, 100):
            y = update_support_atom(pts, w, 1.0)
            diff = pts - y
            dist = np.linalg.norm(diff, axis=1)
            at = dist == 0
            if at.any():
                r = np.linalg.norm((w[~at] / dist[~at]) @ diff[~at])
                assert r <= w[at].sum()
                continue

            def grad(z):
                dz = z - pts
                return (w / np.linalg.norm(dz, axis=1)) @ dz

            def hess(z):
                dz = z - pts
                dist = np.linalg.norm(dz, axis=1)
                u = dz / dist[:, None]
                return ((w / dist).sum() * np.eye(d) - (u.T * (w / dist)) @ u)

            newton = minimize(lambda z: _median_objective(pts, w, z), pts.mean(axis=0),
                              jac=grad, hess=hess, method="trust-exact",
                              options={"gtol": 1e-13})
            best = min(newton.fun, *(_median_objective(pts, w, x) for x in pts))
            assert _median_objective(pts, w, y) <= best * (1 + 1e-8)


class TestReconstruct:
    def test_two_deltas_midpoint(self):
        mus = [delta([0.0]), delta([2.0])]
        sol = solution_of((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        nu = reconstruct_barycenter(sol, pool_batch(mus), 2.0)
        np.testing.assert_allclose(nu.atoms, [[1.0]])

    def test_identity_plan_reproduces_input(self):
        mu = make_distribution([[0.0], [2.0]], [0.5, 0.5])
        sol = solution_of((np.eye(2) * 0.5,), np.array([0.5, 0.5]))
        nu = reconstruct_barycenter(sol, pool_batch([mu]), 2.0)
        np.testing.assert_allclose(nu.atoms, mu.atoms)

    def test_invalid_solution_rejected(self):
        mus = [delta([0.0]), delta([2.0])]
        sol = solution_of((np.array([[0.5]]), np.array([[1.0]])), np.array([1.0]))
        with pytest.raises(InvalidSolution):
            reconstruct_barycenter(sol, pool_batch(mus), 2.0)


class TestSolutionCost:
    def test_midpoint_cost(self):
        mus = [delta([0.0]), delta([2.0])]
        sol = solution_of((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        assert solution_cost(sol, pool_batch(mus), 2.0) == pytest.approx(1.0)

    def test_identity_cost_zero(self):
        mu = make_distribution([[0.0], [2.0]], [0.5, 0.5])
        sol = solution_of((np.eye(2) * 0.5,), np.array([0.5, 0.5]))
        assert solution_cost(sol, pool_batch([mu]), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_p1_median_cost(self):
        mus = [delta([0.0]), delta([3.0])]
        sol = solution_of((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        assert solution_cost(sol, pool_batch(mus), 1.0) == pytest.approx(1.5)


class TestSupportCost:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_prices_the_solver_output_as_the_solver_does(self, rng, p):
        mus = random_family(rng, k=4, T=5, d=3)
        nu, sol, rep = solve_barycenter(pool_batch(mus),
                                        SolverOptions(support_size=3, p=p, seed=2))
        assert support_cost(sol, pool_batch(mus), nu, p) == rep.total_cost

    def test_cell_without_flow_adds_zero_where_its_cost_overflows(self):
        # the off-diagonal cells cost (1e200)^2 = inf but carry no flow
        mu = make_distribution([[0.0], [1e200]], [0.5, 0.5])
        b = np.array([0.5, 0.5])
        sol, batch = solution_of((np.eye(2) * 0.5, np.eye(2) * 0.5), b), pool_batch([mu, mu])
        assert solution_violations(sol, batch) == []
        nu = make_distribution([[0.0], [1e200]], b)
        assert support_cost(sol, batch, nu, 2.0) == 0.0
        assert solution_cost(sol, batch, 2.0) == 0.0


class TestPairwiseIdentity:
    def test_two_deltas(self):
        mus = [delta([0.0]), delta([2.0])]
        sol = solution_of((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        assert pairwise_cost_p2(sol, pool_batch(mus)) == pytest.approx(1.0)

    def test_singleton_columns_zero(self):
        mu = make_distribution([[0.0], [2.0]], [0.5, 0.5])
        sol = solution_of((np.eye(2) * 0.5,), np.array([0.5, 0.5]))
        assert pairwise_cost_p2(sol, pool_batch([mu])) == pytest.approx(0.0, abs=1e-12)

    def test_matches_solution_cost(self, rng):
        mus = random_family(rng)
        sol = random_valid_solution(rng, mus, 3)
        batch = pool_batch(mus)
        assert solution_violations(sol, batch) == []
        a = pairwise_cost_p2(sol, batch)
        b = solution_cost(sol, batch, 2.0)
        assert abs(a - b) <= 1e-9 * (1 + b)

    def test_memory_bounded_by_column_support(self):
        # 4,000 atoms, each sending all its mass to one of 8 columns: an
        # N x N Gram matrix alone would take 128 MB
        N, n = 4000, 8
        rng = np.random.default_rng(5)
        mu = make_distribution(rng.random((N, 5)), np.full(N, 1.0 / N))
        plan = np.zeros((N, n))
        plan[np.arange(N), np.arange(N) % n] = 1.0 / N
        sol, batch = solution_of((plan,), np.full(n, 1.0 / n)), pool_batch([mu])
        tracemalloc.start()
        try:
            value = pairwise_cost_p2(sol, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert value == pytest.approx(solution_cost(sol, batch, 2.0),
                                      rel=1e-12, abs=0.0)


class TestSolveBarycenter:
    def test_single_distribution_zero_cost(self, rng):
        # a uniform input of 4 atoms is matched exactly by 4 atoms of mass 1/4
        mu = make_distribution(rng.normal(size=(4, 2)), np.full(4, 0.25))
        nu, sol, rep = solve_barycenter(pool_batch([mu]), SolverOptions(support_size=4, p=2.0))
        assert rep.total_cost == pytest.approx(0.0, abs=1e-10)

    def test_two_deltas(self):
        mus = [delta([0.0]), delta([2.0])]
        nu, sol, rep = solve_barycenter(pool_batch(mus), SolverOptions(support_size=1, p=2.0))
        assert rep.total_cost == pytest.approx(1.0)
        np.testing.assert_allclose(nu.atoms, [[1.0]], atol=1e-9)

    def test_stops_when_no_atom_moves(self, monkeypatch):
        # the mean of the two deltas is the atom's second place and its last:
        # a third transport step would price the same support again
        calls = []

        class Counting(TransportModel):
            def solve(self, C):
                calls.append(1)
                return super().solve(C)

        use_model(monkeypatch, Counting)
        mus = [delta([0.0]), delta([2.0])]
        nu, _, rep = solve_barycenter(pool_batch(mus), SolverOptions(support_size=1, p=2.0))
        assert rep.converged and rep.iterations == len(calls) == 2
        assert rep.trace == [2.0, 1.0]
        assert nu.atoms.tolist() == [[1.0]]

    @pytest.mark.parametrize("family, max_outer_iters", [("deltas", 200), ("blobs", 2)])
    def test_one_distance_matrix_per_support(self, family, max_outer_iters, monkeypatch):
        # each fitted support's distances price it and feed the next transport
        # step; the solver stops on the price rule or at the iteration cap
        distances, calls = transport._distances, []

        def counting(*args):
            calls.append(1)
            return distances(*args)

        monkeypatch.setattr(barycenter, "_distances", counting)
        monkeypatch.setattr(transport, "_distances", counting)
        if family == "deltas":
            mus = [delta([0.0]), delta([2.0])]
        else:
            points, labels = gen_blob_classes(4, 10, 16, seed=7)
            mus = group_by_label(points, labels)
        opts = SolverOptions(support_size=3, p=2.0, max_outer_iters=max_outer_iters)
        _, _, rep = solve_barycenter(pool_batch(mus), opts)
        assert rep.iterations == 2
        assert len(calls) == rep.iterations + 1

    @pytest.mark.parametrize("max_outer_iters", [0, -1])
    def test_no_outer_iteration_is_rejected(self, max_outer_iters):
        with pytest.raises(BadParams, match="max_outer_iters"):
            SolverOptions(max_outer_iters=max_outer_iters)

    def test_monotone_trace(self, rng):
        mus = random_family(rng, k=4, T=5, d=3)
        _, _, rep = solve_barycenter(pool_batch(mus), SolverOptions(support_size=3, p=2.0))
        for a, b in zip(rep.trace, rep.trace[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))

    @pytest.mark.usefixtures("rising_transport_costs")
    def test_rising_objective_raises(self):
        mus = [delta([0.0]), delta([2.0])]
        with pytest.raises(NumericalFailure, match=r"iteration 2: 1\.0 -> 2\.0"):
            solve_barycenter(pool_batch(mus), SolverOptions(support_size=1, p=2.0))

    def test_rounding_rise_keeps_the_last_flows(self, monkeypatch):
        # the second transport step prices its plans a rounding above the
        # moved support's price on the first plans: that price is kept
        calls = []

        class Nudged(TransportModel):
            def solve(self, C):
                flow, costs = super().solve(C)
                calls.append(1)
                return flow, (costs * (1.0 + 1e-12) if len(calls) == 2 else costs)

        use_model(monkeypatch, Nudged)
        batch = pool_batch([delta([0.0]), delta([2.0])])
        nu, sol, rep = solve_barycenter(batch, SolverOptions(support_size=1, p=2.0))
        assert rep.converged and rep.trace == [2.0, 1.0]
        assert support_cost(sol, batch, nu, 2.0) == rep.total_cost

    def test_returns_valid_solution(self, rng):
        mus = random_family(rng)
        _, sol, _ = solve_barycenter(pool_batch(mus), SolverOptions(support_size=2, p=2.0))
        assert solution_violations(sol, pool_batch(mus)) == []

    def test_support_above_pool_is_allowed(self):
        mus = [delta([0.0]), delta([2.0])]
        nu, _, rep = solve_barycenter(pool_batch(mus), SolverOptions(support_size=5, p=2.0))
        assert nu.atoms.shape == (5, 1)
        assert rep.total_cost <= 1.0 + 1e-9

    def test_support_above_pool_is_pinned(self):
        # 13 atoms from 5 pooled points: a draw without replacement of all
        # 5, then 8 weighted duplicates; the values predate the one-call draw
        points = np.arange(5.0)[:, None]
        weights = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        support = barycenter._init_support(points, weights, 13, np.random.default_rng(0))
        assert support.ravel().tolist() == [3.0, 1.0, 0.0, 4.0, 2.0, 2.0, 4.0,
                                            3.0, 0.0, 4.0, 0.0, 3.0, 1.0]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            solve_barycenter(pool_batch([]), SolverOptions())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           extra=st.integers(0, 1_000), p=st.sampled_from([1.0, 1.5, 2.0]))
    # a flat set of medians: a fit priced below its atom column by column
    # once rose the pooled objective by one ulp
    @example(seed=81065, sizes=[3, 2], extra=557, p=1.0)
    def test_massless_atoms_never_start_the_support(self, seed, sizes, extra, p):
        # some atoms weigh exactly 0 or less than ZERO_MASS; the support size
        # runs from 1 to two past the pooled count, past the atoms with mass
        r = np.random.default_rng(seed)
        mus = [make_distribution(r.normal(size=(T, 2)), weights_with_zeros(r, T))
               for T in sizes]
        batch = pool_batch(mus)
        n = 1 + extra % (len(batch.points) + 2)
        rows = barycenter._init_support(np.arange(len(batch.points))[:, None], batch.mass,
                                        n, np.random.default_rng(seed))
        assert rows.shape == (n, 1) and (batch.mass[rows.ravel().astype(int)] > 0).all()
        _, sol, rep = solve_barycenter(batch, SolverOptions(support_size=n, p=p, seed=seed))
        assert solution_violations(sol, batch) == []
        assert all(b <= a for a, b in zip(rep.trace, rep.trace[1:]))

    def test_deterministic_under_seed(self, rng):
        mus = random_family(rng)
        opts = SolverOptions(support_size=2, p=2.0, seed=7)
        nu1, _, rep1 = solve_barycenter(pool_batch(mus), opts)
        nu2, _, rep2 = solve_barycenter(pool_batch(mus), opts)
        np.testing.assert_array_equal(nu1.atoms, nu2.atoms)
        assert rep1.total_cost == rep2.total_cost

    def test_p1_one_atom_is_median(self):
        mus = [delta([0.0]), delta([1.0]), delta([10.0])]
        nu, _, rep = solve_barycenter(pool_batch(mus), SolverOptions(support_size=1, p=1.0))
        assert 3 * rep.total_cost == pytest.approx(10.0, abs=1e-6)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("c", [1e-6, 1e4])
    def test_stop_rules_are_scale_free(self, p, c):
        rng = np.random.default_rng(99)
        mus = [random_distribution(rng, 12, 6) for _ in range(20)]
        opts = SolverOptions(support_size=8, p=p, seed=3)
        _, _, base = solve_barycenter(pool_batch(mus), opts)
        scaled = [make_distribution(c * mu.atoms, mu.weights) for mu in mus]
        _, _, rep = solve_barycenter(pool_batch(scaled), opts)
        assert rep.iterations == base.iterations
        assert rep.total_cost / c**p == pytest.approx(base.total_cost, rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("p, n", [(1.0, 2), (2.0, 3)])
    @pytest.mark.parametrize("c", [1.0, 1e4])
    def test_objective_never_rises(self, p, n, c):
        # p=2, n=3: the support starts on the atoms at cost 0, and the mean of
        # one atom rounds off it; p=1, n=2: Weiszfeld stops short of a median
        # at a data point, above the cost of the atom it started from
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mu = make_distribution(c * rng.random((3, 2)), np.full(3, 1 / 3))
            _, _, rep = solve_barycenter(pool_batch([mu]),
                                         SolverOptions(support_size=n, p=p, seed=seed))
            assert all(b <= a for a, b in zip(rep.trace, rep.trace[1:]))
            if n == 3:
                assert rep.total_cost == 0.0


class TestWarmStart:
    @pytest.fixture
    def blobs(self):
        rng = np.random.default_rng(21)
        centers = rng.normal(size=(3, 4))
        return [make_distribution(c + 0.5 * rng.normal(size=(15, 4)), np.full(15, 1 / 15))
                for c in centers for _ in range(2)]

    def test_warm_solves_match_cold_in_fewer_pivots(self, blobs, monkeypatch):
        warm_models, cold_models = [], []

        class WarmAndCold(TransportModel):
            def __init__(self, batch, b):
                super().__init__(batch, b)
                self.masses = batch, b

            def solve(self, C):
                warm_models.append(self)
                flow, costs = super().solve(C)
                cold_models.append(TransportModel(*self.masses))
                _, cold = cold_models[-1].solve(C)
                for cost, cold_cost in zip(costs, cold):
                    assert cost == pytest.approx(cold_cost, rel=1e-12, abs=0.0)
                return flow, costs

        use_model(monkeypatch, WarmAndCold)
        _, _, rep = solve_barycenter(pool_batch(blobs),
                                     SolverOptions(support_size=5, p=2.0, seed=1))
        assert rep.iterations >= 3
        model = warm_models[0]
        assert all(m is model for m in warm_models)
        assert model.pivots < sum(m.pivots for m in cold_models)

    def test_warm_solves_that_add_cells_match_cold(self, blobs, monkeypatch):
        # 15 x 12 blocks: the LP holds part of each block and warm solves
        # price the rest, adding the cells that the new costs make cheap
        held = []

        class WarmAndCold(TransportModel):
            def __init__(self, batch, b):
                super().__init__(batch, b)
                self.masses = batch, b

            def solve(self, C):
                flow, costs = super().solve(C)
                held.append(self._highs.getNumCol())
                _, cold = TransportModel(*self.masses).solve(C)
                for cost, cold_cost in zip(costs, cold):
                    assert cost == pytest.approx(cold_cost, rel=1e-12, abs=0.0)
                return flow, costs

        use_model(monkeypatch, WarmAndCold)
        _, _, rep = solve_barycenter(pool_batch(blobs),
                                     SolverOptions(support_size=12, p=2.0, seed=1))
        assert rep.iterations >= 3
        assert held[0] < held[-1] < len(blobs) * 15 * 12

    def test_warm_plans_are_basic(self, blobs):
        rng = np.random.default_rng(4)
        b = np.array([0.3, 0.1, 0.2, 0.25, 0.15])
        batch = pool_batch(blobs)
        model = TransportModel(batch, b)
        for _ in range(4):
            nu = make_distribution(rng.normal(size=(5, 4)), b)
            flow, _ = model.solve(cdist(batch.points, nu.atoms, "sqeuclidean"))
            for mu, plan in zip(blobs, np.split(flow, batch.starts[1:])):
                assert (plan > 0).sum() <= mu.size + nu.size - 1
                np.testing.assert_allclose(plan.sum(axis=1), mu.weights,
                                           rtol=0, atol=WEIGHT_TOL)
                np.testing.assert_allclose(plan.sum(axis=0), nu.weights,
                                           rtol=0, atol=WEIGHT_TOL)
