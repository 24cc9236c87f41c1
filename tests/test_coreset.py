import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from baryreduce.core import (BadParams, BadWeights, NumericalFailure, make_distribution,
                             pool_batch)
from baryreduce.coreset import (
    WeightedCoreset,
    build_coreset,
    coreset_size_bound,
    evaluate_coreset,
    pilot_barycenter,
    practical_size_bound,
    scores_from_costs,
    sensitivity_upper_bounds,
)
from baryreduce.transport import wasserstein_p
from baryreduce.instances import coreset_synthetic_family, gen_coreset_synthetic
from conftest import input_costs


def delta(x):
    return make_distribution(np.atleast_2d(np.asarray(x, dtype=float)), [1.0])


class TestSensitivityScores:
    def test_degenerate_uniform(self):
        mu = delta([0.0])
        scores = sensitivity_upper_bounds(pool_batch([mu] * 5), p=2.0, alpha=1.0, pilot=mu)
        np.testing.assert_allclose(scores, 8.0)
        np.testing.assert_allclose(scores / scores.sum(), 0.2)

    def test_outlier_instance_closed_form(self):
        k = 1000
        mus = gen_coreset_synthetic(k)
        scores = sensitivity_upper_bounds(pool_batch(mus), p=2.0, alpha=1.0, pilot=mus[0])
        # avg W^2 = k^2/k = k; outlier score 2k+8, others 8
        assert scores[-1] == pytest.approx(2 * k + 8)
        assert scores[0] == pytest.approx(8.0)
        assert scores[-1] / scores.sum() == pytest.approx(
            (2 * k + 8) / (8 * (k - 1) + 2 * k + 8))

    def test_p1_formula(self):
        mus = [delta([0.0]), delta([2.0])]
        scores = sensitivity_upper_bounds(pool_batch(mus), p=1.0, alpha=1.0, pilot=delta([0.0]))
        # avg W = 1; scores = W/avg + 2
        np.testing.assert_allclose(scores, [2.0, 4.0])

    def test_probabilities_normalized(self, rng):
        mus = [delta([float(x)]) for x in rng.normal(size=6)]
        scores = sensitivity_upper_bounds(pool_batch(mus), p=2.0)
        q = scores / scores.sum()
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        build_coreset(q, 5, seed=0)  # within rng.choice's normalisation tolerance
        assert np.all(scores >= 4.0 ** (2.0 - 1) - 1e-12)

    @pytest.mark.parametrize("p, alpha", [(1.0, 1.0), (2.0, 2.0), (1.5, 3.0)])
    def test_composition_of_pilot_and_costs(self, rng, p, alpha):
        mus = [make_distribution(rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
               for n in rng.integers(1, 5, size=12)]
        batch = pool_batch(mus)
        pilot = pilot_barycenter(batch, p)
        expected = scores_from_costs(input_costs(mus, pilot, p), p, alpha)
        for given in (pilot, None):  # None solves the same pilot
            np.testing.assert_array_equal(sensitivity_upper_bounds(batch, p, alpha, given),
                                          expected)

    @pytest.mark.parametrize("costs", [[0.0, 0.0], [0.0, 1.0], [1e300, 1e300]])
    @pytest.mark.parametrize("p", [1e6, 600.0])
    def test_non_finite_scores_raise(self, costs, p):
        # 4**(p-1) overflows a float here; no OverflowError, no NaN weights
        with pytest.raises(NumericalFailure, match="not finite"):
            scores_from_costs(np.array(costs), p=p)

    @pytest.mark.parametrize("alpha", [1e-10, 1.0])
    def test_overflowing_mean_raises(self, alpha):
        with pytest.raises(NumericalFailure, match="not finite"):
            scores_from_costs(np.array([1e308, 1e308, 0.0]), alpha=alpha)

    def test_overflowing_total_raises(self):
        # every score is 6e307, finite, and ten of them sum past the float range
        with pytest.raises(NumericalFailure, match="not finite"):
            scores_from_costs(np.ones(10), alpha=1e307)

    def test_dominates_true_sensitivity_on_grid(self):
        # brute-force sup over single-atom candidates on a fine grid
        mus = [delta([0.0]), delta([1.0]), delta([3.0])]
        scores = sensitivity_upper_bounds(pool_batch(mus), p=2.0, alpha=1.0,
                                          pilot=delta([4.0 / 3.0]))
        grid = np.linspace(-2.0, 5.0, 1401)
        atoms = np.array([mu.atoms[0, 0] for mu in mus])
        costs = (atoms[:, None] - grid[None, :]) ** 2
        total = costs.mean(axis=0)
        sigma = (costs / (len(mus) * total)).max(axis=1)
        assert np.all(sigma <= scores + 1e-6)


class TestBuildCoreset:
    def test_uniform_weights(self):
        core = build_coreset(np.full(4, 0.25), 2, seed=0)
        # every draw weighs 0.5, so each input's lam is a whole number of halves
        np.testing.assert_allclose(core.lam, np.round(core.lam * 2) / 2)
        assert core.lam.sum() == pytest.approx(1.0)

    def test_concentrated(self):
        core = build_coreset(np.array([1.0, 0.0, 0.0]), 1, seed=0)
        assert core.inputs.tolist() == [0]  # the inputs never drawn are absent
        np.testing.assert_allclose(core.lam, [1.0 / 3.0])

    def test_bad_size(self):
        with pytest.raises(BadParams, match="^coreset size must be >= 1$"):
            build_coreset(np.full(2, 0.5), 0, seed=0)

    @pytest.mark.parametrize("q, message", [
        ([0.5, np.nan], ""), ([1.5, -0.5], ""), ([0.5, 0.6], ""),
        ([], re.escape("q has shape (0,), not (k,) with k >= 1")),
        ([[0.5, 0.5]], re.escape("q has shape (1, 2), not (k,) with k >= 1")),
    ], ids=["nan", "negative", "not_normalised", "empty", "two_dim"])
    def test_bad_probabilities_raise(self, q, message):
        with pytest.raises(BadWeights, match=f"^sampling probabilities: {message}"):
            build_coreset(np.array(q), 3, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(q=arrays(np.float64, st.integers(0, 8), elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
    def test_any_probabilities_draw_or_name_q(self, q):
        """Every q either draws a coreset or raises a BadWeights message of
        this package, never numpy's wording about its arguments a and p."""
        try:
            core = build_coreset(q, 3, seed=0)
        except BadWeights as exc:
            message = str(exc)
            assert message.startswith("sampling probabilities: ")
            assert "a must" not in message and "p must" not in message
        else:
            assert isinstance(core, WeightedCoreset)

    def test_deterministic(self):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        a = build_coreset(q, 10, seed=3)
        b = build_coreset(q, 10, seed=3)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.lam, b.lam)
        assert a.inputs.dtype == np.int64
        assert np.all(np.diff(a.inputs) > 0)  # distinct, ascending
        counts = a.lam * 10 * 4 * q[a.inputs]  # per-input draw counts
        np.testing.assert_allclose(counts, np.round(counts), rtol=1e-12)
        assert np.round(counts).sum() == 10

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_inputs_and_lam_sum_the_draws(self, seed):
        q = np.array([0.05, 0.3, 0.1, 0.25, 0.2, 0.1])
        core = build_coreset(q, 25, seed=seed)
        draws = np.random.default_rng(seed).choice(6, 25, p=q)
        np.testing.assert_array_equal(core.inputs, np.unique(draws))
        c = np.random.default_rng(seed + 1).uniform(0.5, 2.0, size=6)
        per_draw = sum(c[i] / (25 * 6 * q[i]) for i in draws)
        assert core.lam @ c[core.inputs] == pytest.approx(per_draw, rel=1e-12)


class TestSizeBounds:
    def test_eps_scaling_exact(self):
        raw1, _ = coreset_size_bound(3, 2, 2.0, 0.5, 0.1)
        raw2, _ = coreset_size_bound(3, 2, 2.0, 0.25, 0.1)
        assert raw2 / raw1 == 4.0

    def test_p1_drops_four_factor(self):
        raw1, _ = coreset_size_bound(2, 2, 1.0, 0.5, 0.1, alpha=1.0)
        import math
        assert raw1 == pytest.approx(
            2**8 * 2**4 * math.log(10.0) / 0.25)

    def test_practical_bound_positive(self):
        raw, size = practical_size_bound(np.full(4, 2.0), pseudo_dim=3, eps=0.3, delta=0.1)
        assert size >= 1 and raw > 0

    def test_bad_ranges(self):
        with pytest.raises(BadParams, match=r"^need eps > 0 and delta in \(0, 1\)$"):
            coreset_size_bound(2, 2, 2.0, 0.0, 0.1)


class TestEvaluate:
    def test_exhaustive_coreset_exact(self):
        mus = [delta([0.0]), delta([1.0]), delta([2.0])]
        q = np.full(3, 1 / 3)
        # any uniform sample is unbiased; an exact reproduction needs each
        # index once — search a seed that draws a permutation
        for seed in range(200):
            core = build_coreset(q, 3, seed=seed)
            if core.inputs.tolist() == [0, 1, 2]:
                break
        out = evaluate_coreset(core, input_costs(mus, delta([5.0]), 2.0))
        assert out["rel_error"] == pytest.approx(0.0, abs=1e-12)

    def test_missed_outlier_is_total_error(self):
        k = 200
        mus = gen_coreset_synthetic(k)
        q = np.full(k, 1.0 / k)
        for seed in range(100):
            core = build_coreset(q, 20, seed=seed)
            if k - 1 not in core.inputs:
                break
        out = evaluate_coreset(core, input_costs(mus, delta([0.0]), 2.0))
        assert out["full_cost"] == pytest.approx(k)
        assert out["coreset_cost"] == 0.0
        assert out["rel_error"] == pytest.approx(1.0)

    def test_zero_cost_flag(self):
        mus = [delta([0.0])] * 3
        core = build_coreset(np.full(3, 1 / 3), 2, seed=0)
        out = evaluate_coreset(core, input_costs(mus, delta([0.0]), 2.0))
        assert out["zero_cost"] and out["rel_error"] == pytest.approx(0.0, abs=1e-12)

    def test_full_cost_parameter_consistent(self):
        mus = [delta([0.0]), delta([2.0])]
        core = build_coreset(np.full(2, 0.5), 4, seed=1)
        nu = delta([1.0])
        full = sum(wasserstein_p(m, nu, 2.0) ** 2 for m in mus) / 2
        out = evaluate_coreset(core, input_costs(mus, nu, 2.0))
        assert out["full_cost"] == pytest.approx(full, rel=1e-12)


class TestMultiplicity:
    """Distinct inputs with multiplicities against the k-long list they stand for."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("k", [2, 10, 2000])
    def test_weighted_family_matches_expanded_list(self, k, p):
        distinct, slot = coreset_synthetic_family(k)
        m = np.bincount(slot)
        n = len(distinct)
        costs = {x: input_costs(distinct, delta([x]), p) for x in (0.0, 1.0, 10.0, k / 2)}
        pilot = input_costs(distinct, distinct[0], p)
        s_m = scores_from_costs(pilot, p, multiplicity=m)
        np.testing.assert_array_equal(sensitivity_upper_bounds(
            pool_batch(distinct), p, pilot=distinct[0], multiplicity=m), s_m)
        s_k = scores_from_costs(pilot[slot], p)
        np.testing.assert_allclose(s_k, s_m[slot], rtol=1e-12, atol=0)
        weighted = {"uniform": m / k, "sensitivity": m * s_m / (m * s_m).sum()}
        listed = {"uniform": np.full(k, 1 / k), "sensitivity": s_k / s_k.sum()}
        for seed in range(50):
            for size in (3, 40):
                for method in ("uniform", "sensitivity"):
                    core_m = build_coreset(weighted[method], size, seed, multiplicity=m)
                    core_k = build_coreset(listed[method], size, seed)
                    # per-object draw counts, read back from each draw's weight
                    q_m = weighted[method][core_m.inputs] / m[core_m.inputs]
                    counts_m = np.zeros(n)
                    counts_m[core_m.inputs] = core_m.lam * size * k * q_m
                    counts_k = np.bincount(slot[core_k.inputs], minlength=n, weights=(
                        core_k.lam * size * k * listed[method][core_k.inputs]))
                    np.testing.assert_allclose(counts_m, np.rint(counts_m), rtol=1e-12)
                    np.testing.assert_array_equal(np.rint(counts_m), np.rint(counts_k))
                    for c in costs.values():
                        ev_m = evaluate_coreset(core_m, c, m)
                        ev_k = evaluate_coreset(core_k, c[slot])
                        assert ev_m["zero_cost"] == ev_k["zero_cost"]
                        tol = dict(rel=1e-12, abs=1e-15 if ev_k["zero_cost"] else 0.0)
                        assert ev_m["full_cost"] == pytest.approx(ev_k["full_cost"], **tol)
                        assert ev_m["coreset_cost"] == pytest.approx(ev_k["coreset_cost"],
                                                                     **tol)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_all_ones_is_the_plain_list_bit_for_bit(self, rng, p):
        costs = rng.exponential(size=7) ** p
        ones = np.ones(7, dtype=np.intp)
        scores = scores_from_costs(costs, p)
        assert scores.tobytes() == scores_from_costs(costs, p, multiplicity=ones).tobytes()
        assert scores.tobytes() == (2.0 * 2.0 ** (p - 1) * costs / costs.mean()
                                    + 3.0 * 4.0 ** (p - 1)).tobytes()
        q = scores / scores.sum()
        for seed in range(5):
            core = build_coreset(q, 9, seed)
            inputs, counts = np.unique(np.random.default_rng(seed).choice(7, 9, p=q),
                                       return_counts=True)
            np.testing.assert_array_equal(core.inputs, inputs)
            assert core.lam.tobytes() == (counts / (9 * 7 * q[inputs])).tobytes()
            weighted = build_coreset(q, 9, seed, multiplicity=ones)
            np.testing.assert_array_equal(weighted.inputs, core.inputs)
            assert weighted.lam.tobytes() == core.lam.tobytes()
            ev = evaluate_coreset(core, costs)
            assert ev == evaluate_coreset(core, costs, ones)
            assert ev["full_cost"] == float(costs.mean())

    @pytest.mark.parametrize("multiplicity", [[1, 1], [1, 1, 1, 1], [1, 0, 1], [1, -1, 1],
                                              [1, np.nan, 1], [[1, 1, 1]]],
                             ids=["short", "long", "zero", "negative", "nan", "two_dim"])
    def test_bad_multiplicity_raises(self, multiplicity):
        costs, q = np.array([0.0, 1.0, 2.0]), np.full(3, 1 / 3)
        core = build_coreset(q, 4, seed=0)
        for call in (lambda m: scores_from_costs(costs, multiplicity=m),
                     lambda m: build_coreset(q, 4, seed=0, multiplicity=m),
                     lambda m: evaluate_coreset(core, costs, m)):
            with pytest.raises(BadWeights, match="^multiplicity must be 3 positive finite counts$"):
                call(np.array(multiplicity, dtype=float))
