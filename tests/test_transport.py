import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import eye, kron, vstack
from scipy.spatial.distance import cdist

from baryreduce.barycenter import SolverOptions, solve_barycenter
from baryreduce.core import (
    WEIGHT_TOL,
    BadParams,
    BadWeights,
    DimensionMismatch,
    EmptyInput,
    NumericalFailure,
    make_distribution,
    pool_batch,
    solution_violations,
)
from baryreduce import transport
from baryreduce.transport import (
    TransportModel,
    TransportPlan,
    barycenter_objective,
    cost_matrix,
    solve_ot,
    solve_pooled,
    wasserstein_p,
)
from baryreduce.instances import gen_coreset_synthetic
from conftest import input_costs, random_distribution, use_model, weights_with_zeros
from oracle import TooLarge, solve_ot_oracle


def delta(x):
    return make_distribution(np.atleast_2d(np.asarray(x, dtype=float)), [1.0])


def pooled_plans(mus, nu, p):
    """Every input's plan from one :func:`solve_pooled` call, split at the
    batch's input starts."""
    batch = pool_batch(mus)
    flow, costs = solve_pooled(batch, nu, p)
    return [TransportPlan(part, cost)
            for part, cost in zip(np.split(flow, batch.starts[1:]), costs.tolist())]


def objective(mus, nu, p):
    """:func:`barycenter_objective` with the arguments of :func:`input_costs`."""
    return barycenter_objective(nu, mus, p)


def recording(monkeypatch):
    """Record every block that reaches the LP as ``(a, b, C)``, in LP order."""
    seen = []

    class Recording(TransportModel):
        def _solve_lp(self, C):
            ends = self._firsts[1:]
            seen.extend((a, self._b, c)
                        for a, c in zip(np.split(self._a, ends), np.split(C, ends)))
            return super()._solve_lp(C)

    use_model(monkeypatch, Recording)
    return seen


class TestCostMatrix:
    def test_pythagoras(self):
        C = cost_matrix(delta([0.0, 0.0]), delta([3.0, 4.0]), 2.0)
        np.testing.assert_allclose(C, [[25.0]])

    def test_same_point(self):
        C = cost_matrix(delta([0.0]), delta([0.0]), 3.0)
        np.testing.assert_allclose(C, [[0.0]])

    def test_absolute_differences(self):
        mu = make_distribution([[0.0], [1.0]], [0.5, 0.5])
        nu = make_distribution([[0.0], [2.0]], [0.5, 0.5])
        np.testing.assert_allclose(cost_matrix(mu, nu, 1.0), [[0, 2], [1, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cost_matrix(delta([0.0]), delta([0.0, 0.0]), 2.0)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(BadParams, match=r"^exponent p must be finite and >= 1, got 0\.5$"):
            cost_matrix(delta([0.0]), delta([1.0]), 0.5)


class TestSolveOt:
    def test_single_coupling(self):
        plan = solve_ot(delta([0.0, 0.0]), delta([3.0, 4.0]), 1.0)
        assert plan.cost == pytest.approx(5.0)
        np.testing.assert_allclose(plan.flow, [[1.0]])

    def test_identical_distributions(self):
        mu = make_distribution([[0.0], [1.0]], [0.5, 0.5])
        plan = solve_ot(mu, mu, 2.0)
        assert plan.cost == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_derived(self):
        # one free variable f = flow(0->0) in [0, 0.4]; cost 0.9 at f=0.4
        mu = make_distribution([[0.0], [1.0]], [0.7, 0.3])
        nu = make_distribution([[0.0], [2.0]], [0.4, 0.6])
        assert solve_ot(mu, nu, 1.0).cost == pytest.approx(0.9)
        assert solve_ot_oracle(mu, nu, 1.0).cost == pytest.approx(0.9)

    def test_zero_weight_atom_dropped(self):
        mu = make_distribution([[0.0], [50.0]], [1.0, 0.0])
        nu = delta([1.0])
        plan = solve_ot(mu, nu, 2.0)
        assert plan.cost == pytest.approx(1.0)
        assert plan.flow.shape == (2, 1)
        assert plan.flow[1, 0] == 0.0

    def test_plan_is_basic(self, rng):
        mu = random_distribution(rng, 5, 3)
        nu = random_distribution(rng, 4, 3)
        plan = solve_ot(mu, nu, 2.0)
        assert (plan.flow > 1e-12).sum() <= 5 + 4 - 1
        np.testing.assert_allclose(plan.flow.sum(axis=1), mu.weights, atol=1e-9)
        np.testing.assert_allclose(plan.flow.sum(axis=0), nu.weights, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4])
    def test_matches_assignment(self, scale):
        r = np.random.default_rng(64)
        X, Y = r.normal(size=(64, 3)), r.normal(size=(64, 3))
        u = np.full(64, 1.0 / 64)
        mu = make_distribution(scale * X, u)
        nu = make_distribution(scale * Y, u)
        C = cost_matrix(mu, nu, 2.0)
        rows, cols = linear_sum_assignment(C)
        optimum = C[rows, cols].sum() / 64
        cost = solve_ot(mu, nu, 2.0).cost
        assert cost == pytest.approx(optimum, rel=1e-9, abs=0.0)
        # the engine solves this pair with the same routine: check it
        # against the full LP as well, solved at unit scale
        lp_optimum = full_lp_optimum(u, u, cdist(X, Y, "sqeuclidean")) * scale**2
        assert cost == pytest.approx(lp_optimum, rel=1e-9, abs=0.0)

    def test_batch_matches_single_solves(self, rng):
        # a zero-weight atom in nu gets no flow
        nu = make_distribution(rng.normal(size=(4, 2)), [0.3, 0.0, 0.45, 0.25])
        mus = [random_distribution(rng, T, 2) for T in (1, 3, 5, 7)]
        plans = pooled_plans(mus, nu, 2.0)
        for mu, plan in zip(mus, plans):
            single = solve_ot(mu, nu, 2.0).cost
            assert plan.cost == pytest.approx(single, rel=1e-12, abs=0.0)
            assert (plan.flow > 1e-12).sum() <= mu.size + nu.size - 1
            assert np.all(plan.flow[:, 1] == 0.0)
            np.testing.assert_allclose(plan.flow.sum(axis=1), mu.weights, atol=1e-9)
            np.testing.assert_allclose(plan.flow.sum(axis=0), nu.weights, atol=1e-9)

    def test_one_massive_atom_skips_the_lp(self, rng, monkeypatch):
        def no_lp():
            raise AssertionError("forced plan sent to the LP")

        monkeypatch.setattr(transport, "_Highs", no_lp)
        mu = make_distribution(rng.normal(size=(3, 2)), [0.25, 0.5, 0.25])
        pairs = [(mu, make_distribution(rng.normal(size=(2, 2)), [1.0, 0.0])),
                 (delta([0.5, -1.0]), mu)]
        for a, b in pairs:
            plan = solve_ot(a, b, 2.0)
            np.testing.assert_array_equal(plan.flow, np.outer(a.weights, b.weights))
            assert plan.cost == pytest.approx(
                a.weights @ cost_matrix(a, b, 2.0) @ b.weights, rel=1e-12, abs=0.0)


    def test_non_finite_costs_raise(self, rng, monkeypatch):
        mu, nu = random_distribution(rng, 3, 2), random_distribution(rng, 2, 2)
        batch = pool_batch([mu])
        for bad in (np.inf, np.nan):
            def spoiled(*args, **kwargs):
                D = cdist(*args, **kwargs)
                D[1, 0] = bad
                return D

            model = TransportModel(batch, nu.weights)
            model.solve(cost_matrix(mu, nu, 2.0))
            with pytest.raises(NumericalFailure, match="not finite"):  # warm: new costs only
                model.solve(spoiled(mu.atoms, nu.atoms, "sqeuclidean"))
            with monkeypatch.context() as patch:
                patch.setattr(transport, "cdist", spoiled)
                with pytest.raises(NumericalFailure, match="not finite"):
                    transport.solve_pooled(batch, nu, 2.0)
        # ||x - y||**2 overflows to inf at coordinates near 1e200, on an
        # assignment, on a forced plan and on a zero-mass atom alike
        mu = make_distribution([[0.0], [1e200]], [0.5, 0.5])
        nu = make_distribution([[-1e200], [2e200]], [0.5, 0.5])
        light = make_distribution([[0.0], [1e200]], [1.0, 0.0])
        for a, b in ((mu, nu), (mu, delta([-1e200])), (light, delta([-1e200]))):
            with pytest.raises(NumericalFailure, match="not finite"):
                solve_ot(a, b, 2.0)


def full_lp_optimum(a, b, C) -> float:
    """The transportation LP on every cell, solved by ``linprog``."""
    m, n = C.shape
    A = vstack([kron(eye(m), np.ones((1, n))), kron(np.ones((1, m)), eye(n))])
    res = linprog(C.ravel(), A_eq=A.tocsr(), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def check_optimal_plan(mu, nu, plan, optimum):
    np.testing.assert_allclose(plan.flow.sum(axis=1), mu.weights, rtol=0, atol=WEIGHT_TOL)
    np.testing.assert_allclose(plan.flow.sum(axis=0), nu.weights, rtol=0, atol=WEIGHT_TOL)
    assert np.count_nonzero(plan.flow) <= mu.size + nu.size - 1  # basic
    assert plan.cost == pytest.approx(optimum, rel=1e-9, abs=0.0)


class TestHeldCells:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("T", [64, 128])
    def test_random_weights_match_the_full_lp(self, T, p):
        r = np.random.default_rng(T + int(p))
        X, Y = r.normal(size=(T, 8)), r.normal(size=(T, 8))
        a, b = r.uniform(0.1, 1.0, T), r.uniform(0.1, 1.0, T)
        a, b = a / a.sum(), b / b.sum()
        optimum = full_lp_optimum(a, b, cdist(X, Y) ** p)
        for scale in (1e-6, 1.0, 1e4):
            mu, nu = make_distribution(scale * X, a), make_distribution(scale * Y, b)
            check_optimal_plan(mu, nu, solve_ot(mu, nu, p), optimum * scale**p)

    def test_basic_flow_not_clipped_off_the_marginals(self):
        # case 69 of the benchmark's ot_pairs cases at seed 417 (T=128, random
        # weights): at HiGHS's default primal feasibility tolerance a basic
        # flow came back at -5.3e-9, and clipping it left the marginals off
        rng = np.random.default_rng([417, *b"ot_pairs"])
        for _ in range(2):  # the draws of two passes, up to this case
            for T in (32, 64, 128):
                for weights in ("uniform", "random"):
                    X, Y = rng.standard_normal((T, 8)), rng.standard_normal((T, 8))
                    if weights == "random":
                        a, b = rng.uniform(0.1, 1.0, T), rng.uniform(0.1, 1.0, T)
        a, b = a / a.sum(), b / b.sum()
        optimum = full_lp_optimum(a, b, cdist(X, Y, "sqeuclidean"))
        for scale in (1e-6, 1.0, 1e4):
            mu, nu = make_distribution(scale * X, a), make_distribution(scale * Y, b)
            check_optimal_plan(mu, nu, solve_ot(mu, nu, 2.0), optimum * scale**2)

    def test_optimum_outside_the_shortlist(self):
        # Row 0 carries half the mass and is the dearest row of every column,
        # cheapest in the columns on the right.  It must fill columns 15-29;
        # its 8 cheapest are 22-29 and its north-west-corner cells 0-14 (15
        # too, as the cumulative sums round), so cells 16-21 are in no
        # shortlist and only pricing can add them.
        n = 30
        r = np.random.default_rng(3)
        C = 1e-3 * r.random((n, n))
        C[0] = 10.0 - 0.01 * np.arange(n)
        a = np.full(n, 0.5 / (n - 1))
        a[0] = 0.5
        b = np.full(n, 1.0 / n)
        assert not transport._shortlist(a, b, C / C.max())[0, 16:22].any()
        flow, _ = TransportModel(pool_batch([make_distribution(np.zeros((n, 1)), a)]), b).solve(C)
        assert np.all(flow[0, 15:] > 0)
        assert (flow * C).sum() == pytest.approx(full_lp_optimum(a, b, C), rel=1e-9, abs=0.0)
        np.testing.assert_allclose(flow.sum(axis=1), a, rtol=0, atol=WEIGHT_TOL)
        np.testing.assert_allclose(flow.sum(axis=0), b, rtol=0, atol=WEIGHT_TOL)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4])
    def test_multi_block_batch_matches_the_full_lp(self, scale):
        # Blocks of 3 to 40 rows against a 12-atom target, so every block of
        # more than _HELD rows is shortlisted.  The middle block is built
        # like the one above: its row 0 carries half the mass far out along
        # the first axis, the dearest row of every column and cheapest in
        # the columns furthest out, which it must fill.  The target's first
        # three atoms carry more than half the mass, so row 0's
        # north-west-corner cells end by column 2 and its 8 cheapest are
        # columns 4-11; cell (0, 3) is in no shortlist and only pricing can
        # add it.
        n = 12
        r = np.random.default_rng(12)
        Y = r.normal(size=(n, 2)) * [1.0, 0.1]
        Y = Y[np.argsort(Y[:, 0])]
        b = r.uniform(0.1, 1.0, n) * np.repeat([6.0, 1.0], [3, n - 3])
        b /= b.sum()
        far = r.normal(size=(16, 2))
        far[0] = [20.0, 0.0]
        weights = np.full(16, 0.5 / 15)
        weights[0] = 0.5
        inputs = [(r.normal(size=(T, 2)), r.uniform(0.1, 1.0, T)) for T in (3, 9, 20, 40)]
        inputs.insert(2, (far, weights))
        mus = [make_distribution(scale * X, a / a.sum()) for X, a in inputs]
        batch = pool_batch(mus)
        model = TransportModel(batch, b)
        held = []
        for atoms in (Y, Y + 0.05 * r.normal(size=Y.shape)):  # cold, then warm
            nu = make_distribution(scale * atoms, b)
            C = cdist(far, atoms, "sqeuclidean")
            assert not transport._shortlist(weights, b, C / C.max())[0, 3]
            flow, costs = model.solve(cdist(batch.points, nu.atoms, "sqeuclidean"))
            held.append(model._held.copy())
            plans = np.split(flow, batch.starts[1:])
            assert plans[2][0, 3] > 0
            for (X, _), mu, plan, cost in zip(inputs, mus, plans, costs.tolist()):
                optimum = full_lp_optimum(mu.weights, b, cdist(X, atoms, "sqeuclidean"))
                check_optimal_plan(mu, nu, TransportPlan(plan, cost), optimum * scale**2)
        # the warm solve kept the model: the cold solve's cells lead its columns
        np.testing.assert_array_equal(held[1][:held[0].size], held[0])

    def test_cold_solve_holds_a_subset_of_the_cells(self, rng):
        mu, nu = random_distribution(rng, 128, 8), random_distribution(rng, 128, 8)
        model = TransportModel(pool_batch([mu]), nu.weights)
        model.solve(cost_matrix(mu, nu, 2.0))
        assert model._highs.getNumCol() < 128 * 128


class TestAssignment:
    """Equal counts of equal masses on both sides are solved as assignments;
    every plan is checked against the full LP, not against the same routine."""

    @staticmethod
    def no_lp():
        raise AssertionError("assignment pair sent to the LP")

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("T", [2, 8, 64, 128])
    def test_uniform_pairs_match_the_full_lp(self, T, p, monkeypatch):
        monkeypatch.setattr(transport, "_Highs", self.no_lp)
        r = np.random.default_rng(10 * T + int(2 * p))
        X, Y = r.normal(size=(T, 8)), r.normal(size=(T, 8))
        u = np.full(T, 1.0 / T)
        optimum = full_lp_optimum(u, u, cdist(X, Y) ** p)
        for scale in (1e-6, 1.0, 1e4):
            mu, nu = make_distribution(scale * X, u), make_distribution(scale * Y, u)
            check_optimal_plan(mu, nu, solve_ot(mu, nu, p), optimum * scale**p)

    def test_zero_mass_atoms_leave_an_assignment(self, rng, monkeypatch):
        monkeypatch.setattr(transport, "_Highs", self.no_lp)
        X, Y = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        cases = [([0.25, 0.0, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.0, 0.25]),
                 ([0.2] * 5, [0.2] * 5),
                 ([1 / 3, 1 / 3, 0.0, 1 / 3], [1 / 3, 1 / 3, 1 / 3])]
        for a, b in cases:
            mu = make_distribution(X[:len(a)], a)
            nu = make_distribution(Y[:len(b)], b)
            C = cdist(mu.atoms, nu.atoms, "sqeuclidean")
            plan = solve_ot(mu, nu, 2.0)
            check_optimal_plan(mu, nu, plan, full_lp_optimum(mu.weights, nu.weights, C))
            assert np.all(plan.flow[mu.weights == 0] == 0.0)
            assert np.all(plan.flow[:, nu.weights == 0] == 0.0)

    def test_unequal_counts_or_masses_reach_highs(self, rng, monkeypatch):
        seen = recording(monkeypatch)
        X, Y = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        quarter = np.full(4, 0.25)
        nudged = quarter.copy()
        nudged[3] = np.nextafter(0.25, 1.0)  # one ulp heavier
        cases = [(quarter, np.full(5, 0.2)), (nudged, quarter), (quarter, nudged)]
        for a, b in cases:
            mu, nu = make_distribution(X[:len(a)], a), make_distribution(Y[:len(b)], b)
            seen.clear()
            plan = solve_ot(mu, nu, 2.0)
            assert len(seen) == 1
            (ma, mb, _), = seen
            assert len(ma) != len(mb) or ma.min() < ma.max() or mb.min() < mb.max()
            C = cdist(mu.atoms, nu.atoms, "sqeuclidean")
            check_optimal_plan(mu, nu, plan, full_lp_optimum(mu.weights, nu.weights, C))

    def test_mixed_batch_matches_pair_solves(self, rng, monkeypatch):
        seen = recording(monkeypatch)
        nu = make_distribution(rng.normal(size=(6, 3)), np.full(6, 1 / 6))
        uniform = [make_distribution(rng.normal(size=(T, 3)), np.full(T, 1 / T))
                   for T in (6, 4, 6)]
        mus = [uniform[0], random_distribution(rng, 6, 3), uniform[1], delta([0.0] * 3),
               uniform[2], random_distribution(rng, 9, 3)]
        plans = pooled_plans(mus, nu, 2.0)
        assert [len(a) for a, _, _ in seen] == [6, 4, 9]  # the assignments skip HiGHS
        for mu, plan in zip(mus, plans):
            single = solve_ot(mu, nu, 2.0)
            assert plan.cost == pytest.approx(single.cost, rel=1e-12, abs=0.0)
            C = cdist(mu.atoms, nu.atoms, "sqeuclidean")
            check_optimal_plan(mu, nu, plan, full_lp_optimum(mu.weights, nu.weights, C))
        for i in 0, 4:  # uniform 6-atom inputs: a permutation, mass 1/6 per cell
            assert np.count_nonzero(plans[i].flow) == 6

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_barycenter_of_equal_sizes(self, p, monkeypatch):
        seen = recording(monkeypatch)
        r = np.random.default_rng(8)
        mus = [make_distribution(r.normal(size=(8, 3)) + i % 3, np.full(8, 1 / 8))
               for i in range(12)]
        nu, sol, report = solve_barycenter(pool_batch(mus),
                                           SolverOptions(support_size=8, p=p, seed=1))
        assert not seen  # every block is an assignment
        assert all(b <= a for a, b in zip(report.trace, report.trace[1:]))
        assert solution_violations(sol, pool_batch(mus)) == []
        full = np.mean([full_lp_optimum(mu.weights, nu.weights, cdist(mu.atoms, nu.atoms) ** p)
                        for mu in mus])
        assert report.total_cost == pytest.approx(full, rel=1e-9, abs=0.0)


class TestHighsBinding:
    def test_private_api_has_what_the_model_uses(self):
        # TransportModel drives scipy's private HiGHS binding; name what moved
        from scipy.optimize._highspy import _core

        wanted = {
            "_Highs": ["setOptionValue", "getOptionValue", "addRows", "addCols",
                       "changeColsCost", "run", "getModelStatus", "getNumCol",
                       "modelStatusToString", "getInfo", "getSolution"],
            "HighsInfo": ["simplex_iteration_count"],
            "HighsSolution": ["col_value", "row_dual"],
            "HighsModelStatus": ["kOptimal"],
            "HighsStatus": ["kOk", "kError"],
        }
        missing = [f"{owner}.{name}" for owner, names in wanted.items()
                   for name in names
                   if not hasattr(getattr(_core, owner, None), name)]
        assert not missing, f"scipy's HiGHS binding lacks {missing}"
        highs = _core._Highs()
        unknown = [name for name, _ in transport._HIGHS_OPTIONS
                   if highs.getOptionValue(name)[0] != _core.HighsStatus.kOk]
        assert not unknown, f"HiGHS does not know the options {unknown}"

    def test_rows_then_one_cell(self):
        # as the model passes an LP: min 2 x s.t. x = 1 (two rows), x >= 0,
        # rows first, then the cell
        from scipy.optimize._highspy import _core

        highs = _core._Highs()
        highs.setOptionValue("output_flag", False)
        status = highs.addRows(2, np.ones(2), np.ones(2), 0, np.zeros(2, dtype=np.int32),
                               np.zeros(0, dtype=np.int32), np.zeros(0))
        assert status == _core.HighsStatus.kOk
        status = highs.addCols(1, np.full(1, 2.0), np.zeros(1), np.full(1, np.inf), 2,
                               np.array([0, 2], dtype=np.int32),
                               np.array([0, 1], dtype=np.int32), np.ones(2))
        assert status == _core.HighsStatus.kOk
        assert highs.run() == _core.HighsStatus.kOk
        assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
        assert highs.getSolution().col_value == [1.0]
        assert highs.getNumCol() == 1


class TestTransportCosts:
    def test_matches_single_solves(self, rng):
        nu = make_distribution(rng.normal(size=(4, 2)), [0.3, 0.0, 0.45, 0.25])
        many = random_distribution(rng, 5, 2)
        mus = [many, random_distribution(rng, 3, 2), delta([1.0, 2.0]), many,
               delta([-0.5, 0.0]), many]
        costs = input_costs(mus, nu, 2.0)
        assert costs.shape == (len(mus),)
        for mu, cost in zip(mus, costs):
            assert cost == pytest.approx(solve_ot(mu, nu, 2.0).cost, rel=1e-12, abs=0.0)



class TestBatchContract:
    def test_empty_batch(self):
        nu = delta([0.0, 1.0])
        for price in (input_costs, objective):
            with pytest.raises(EmptyInput):
                price([], nu, 2.0)

    def test_wrong_dimension_in_batch(self, rng):
        nu = random_distribution(rng, 3, 2)
        mus = [random_distribution(rng, 2, 2), random_distribution(rng, 2, 3),
               random_distribution(rng, 4, 2)]
        for price in (input_costs, objective):
            with pytest.raises(DimensionMismatch):
                price(mus, nu, 2.0)
            with pytest.raises(DimensionMismatch):  # every input against nu
                price(mus[2:], random_distribution(rng, 3, 3), 2.0)

    def test_exponent_below_one_rejected(self, rng):
        mus = [random_distribution(rng, 2, 2), delta([0.0, 1.0])]
        nu = random_distribution(rng, 3, 2)
        for price in (input_costs, objective):
            with pytest.raises(BadParams, match=r"^exponent p must be finite and >= 1, got 0\.5$"):
                price(mus, nu, 0.5)

    def test_lp_inputs_in_list_order(self, rng, monkeypatch):
        seen = recording(monkeypatch)
        nu = random_distribution(rng, 3, 2)
        m1, m2, m3 = (random_distribution(rng, T, 2) for T in (2, 3, 4))
        costs = input_costs([m2, m1, m2, delta([0.0, 0.0]), m3, m1], nu, 2.0)
        assert len(seen) == 5  # a repeat is priced again; the one-atom input skips the LP
        for (a, b, C), mu in zip(seen, (m2, m1, m2, m3, m1)):
            np.testing.assert_array_equal(a, mu.weights)
            np.testing.assert_array_equal(b, nu.weights)
            np.testing.assert_array_equal(C, cost_matrix(mu, nu, 2.0))
        assert costs[0] == costs[2] and costs[1] == costs[5]

    def test_one_distance_call_per_batch(self, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return cdist(*args, **kwargs)

        monkeypatch.setattr(transport, "cdist", counting)
        input_costs(gen_coreset_synthetic(50_000), delta([10.0]), 2.0)
        assert len(calls) == 1
        calls.clear()
        mus = [random_distribution(rng, 2 + i % 4, 3) for i in range(10)]
        solve_pooled(pool_batch(mus), random_distribution(rng, 5, 3), 1.5)
        assert calls == [(sum(mu.size for mu in mus), 3)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 6),
       nu_kind=st.sampled_from(["plain", "zero_atom", "one_massive"]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_bulk_pricing_matches_pair_solves(seed, k, nu_kind, p):
    r = np.random.default_rng(seed)
    n = int(r.integers(1, 5))
    if nu_kind == "plain":
        b = r.random(n) + 0.05
    elif nu_kind == "zero_atom":
        n = max(n, 2)
        b = r.random(n) + 0.05
        b[r.integers(n)] = 0.0
    else:
        b = np.zeros(n)
        b[r.integers(n)] = 1.0
    nu = make_distribution(r.normal(size=(n, 2)), b / b.sum())
    mus = []
    for _ in range(k):
        if mus and r.random() < 0.3:
            mus.append(mus[int(r.integers(len(mus)))])  # the same object again
        else:
            T = int(r.integers(1, 5))
            mus.append(make_distribution(r.normal(size=(T, 2)), weights_with_zeros(r, T)))
    costs = input_costs(mus, nu, p)
    plans = pooled_plans(mus, nu, p)
    assert costs.shape == (k,) and len(plans) == k
    for mu, cost, plan in zip(mus, costs, plans):
        single = solve_ot(mu, nu, p).cost
        assert cost == pytest.approx(single, rel=1e-12, abs=0.0)
        assert plan.cost == pytest.approx(single, rel=1e-12, abs=0.0)
        priced = float((plan.flow * cost_matrix(mu, nu, p)).sum())  # one pair alone
        assert plan.cost == pytest.approx(priced, rel=1e-12, abs=0.0)
        assert single == pytest.approx(solve_ot_oracle(mu, nu, p).cost, rel=1e-9, abs=1e-15)
        assert plan.flow.shape == (mu.size, nu.size)
        np.testing.assert_allclose(plan.flow.sum(axis=1), mu.weights, rtol=0, atol=WEIGHT_TOL)
        np.testing.assert_allclose(plan.flow.sum(axis=0), nu.weights, rtol=0, atol=WEIGHT_TOL)
        assert np.count_nonzero(plan.flow) <= mu.size + nu.size - 1


class TestOracle:
    def test_too_large(self, rng):
        mu = random_distribution(rng, 5, 1)
        nu = random_distribution(rng, 4, 1)
        with pytest.raises(TooLarge):
            solve_ot_oracle(mu, nu, 2.0)

    def test_one_by_one(self):
        plan = solve_ot_oracle(delta([1.0]), delta([4.0]), 2.0)
        assert plan.cost == pytest.approx(9.0)

    def test_identical_two_by_two(self):
        mu = make_distribution([[0.0], [1.0]], [0.5, 0.5])
        assert solve_ot_oracle(mu, mu, 2.0).cost == pytest.approx(0.0, abs=1e-12)


class TestWasserstein:
    def test_point_masses(self):
        for p in (1.0, 2.0, 3.5):
            assert wasserstein_p(delta([0.0]), delta([2.0]), p) == pytest.approx(2.0)

    def test_self_distance_zero(self, rng):
        mu = random_distribution(rng, 3, 2)
        assert wasserstein_p(mu, mu, 2.0) == pytest.approx(0.0, abs=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), p=st.sampled_from([1.0, 2.0, 3.0]))
    def test_triangle_inequality(self, seed, p):
        r = np.random.default_rng(seed)
        mu, nu, rho = (random_distribution(r, int(r.integers(1, 4)), 2)
                       for _ in range(3))
        assert wasserstein_p(mu, rho, p) <= (
            wasserstein_p(mu, nu, p) + wasserstein_p(nu, rho, p) + 1e-7
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), log_c=st.floats(-8.0, 8.0),
           p=st.sampled_from([1.0, 2.0, 3.0]))
    def test_scaling(self, seed, log_c, p):
        c = 10.0**log_c
        r = np.random.default_rng(seed)
        mu = random_distribution(r, int(r.integers(1, 6)), 2)
        nu = random_distribution(r, int(r.integers(1, 6)), 2)
        base = solve_ot(mu, nu, p).cost
        scaled = solve_ot(
            make_distribution(c * mu.atoms, mu.weights),
            make_distribution(c * nu.atoms, nu.weights), p).cost
        assert scaled == pytest.approx(c**p * base, rel=1e-9, abs=0.0)


class TestObjective:
    def test_midpoint(self):
        mus = [delta([0.0]), delta([2.0])]
        assert barycenter_objective(delta([1.0]), mus, 2.0) == pytest.approx(1.0)

    def test_zero_at_common_point(self, rng):
        mu = random_distribution(rng, 3, 2)
        assert barycenter_objective(mu, [mu, mu], 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_explicit_lambdas(self):
        mus = [delta([0.0]), delta([2.0])]
        val = barycenter_objective(delta([0.0]), mus, 2.0, lambdas=[0.0, 1.0])
        assert val == pytest.approx(4.0)

    @pytest.mark.parametrize("lambdas", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 1.0],
                                         [-0.5, 1.5], [0.5, 0.6], [1.0]],
                             ids=["nan", "all_nan", "inf", "negative", "sum", "shape"])
    def test_bad_lambdas(self, lambdas):
        mus = [delta([0.0]), delta([2.0])]
        with pytest.raises(BadWeights, match="^lambdas must be nonnegative and sum to 1$"):
            barycenter_objective(delta([1.0]), mus, 2.0, lambdas)

