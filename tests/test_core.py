import numpy as np
import pytest

from baryreduce.core import (
    BadPoints,
    BadWeights,
    DiscreteDistribution,
    EmptyInput,
    Solution,
    make_distribution,
    pooled_atoms,
    solution_violations,
    validate_solution,
)


def test_make_distribution_basic():
    mu = make_distribution([[0.0, 1.0], [2.0, 3.0]], [0.25, 0.75])
    assert mu.size == 2
    assert mu.dim == 2
    assert mu.weights.sum() == 1.0


def test_atoms_are_immutable():
    mu = make_distribution([[0.0]], [1.0])
    with pytest.raises(ValueError):
        mu.atoms[0, 0] = 5.0


def test_weights_must_sum_to_one():
    with pytest.raises(BadWeights):
        make_distribution([[0.0], [1.0]], [0.5, 0.6])


def test_small_normalization_slack_is_fixed():
    mu = make_distribution([[0.0], [1.0]], [0.5, 0.5 + 1e-8])
    assert abs(mu.weights.sum() - 1.0) < 1e-12


def test_negative_weight_rejected():
    with pytest.raises(BadWeights):
        make_distribution([[0.0], [1.0]], [1.5, -0.5])


def test_nonfinite_atoms_rejected():
    with pytest.raises(BadPoints):
        make_distribution([[np.inf]], [1.0])


def test_empty_inputs_rejected():
    with pytest.raises(EmptyInput):
        make_distribution(np.zeros((0, 2)), np.zeros(0))


def test_pooled_atoms_concatenates_with_origins():
    mu1 = make_distribution([[0.0], [1.0]], [0.5, 0.5])
    mu2 = make_distribution([[2.0]], [1.0])
    pts, w, origins = pooled_atoms([mu1, mu2])
    assert pts.shape == (3, 1)
    assert list(origins) == [0, 0, 1]
    np.testing.assert_allclose(w, [0.5, 0.5, 1.0])


def _valid_solution():
    mu1 = make_distribution([[0.0]], [1.0])
    mu2 = make_distribution([[2.0]], [1.0])
    sol = Solution((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
    return sol, [mu1, mu2]


def test_valid_solution_passes():
    sol, mus = _valid_solution()
    assert validate_solution(sol, mus)
    assert solution_violations(sol, mus) == []


def test_bad_row_sum_detected():
    _, mus = _valid_solution()
    sol = Solution((np.array([[0.5]]), np.array([[1.0]])), np.array([1.0]))
    bad = solution_violations(sol, mus)
    assert bad and not validate_solution(sol, mus)


def test_bad_column_sum_detected():
    mus = [make_distribution([[0.0], [1.0]], [0.5, 0.5])] * 2
    plans = (
        np.array([[0.5, 0.0], [0.0, 0.5]]),
        np.array([[0.25, 0.25], [0.25, 0.25]]),
    )
    sol = Solution(plans, np.array([0.5, 0.5]))
    # second plan's column sums match b, first plan's do too: valid
    assert validate_solution(sol, mus)
    sol_bad = Solution(plans, np.array([0.4, 0.6]))
    assert not validate_solution(sol_bad, mus)


def test_negative_flow_detected():
    _, mus = _valid_solution()
    sol = Solution((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
    tampered = Solution(
        (np.array([[2.0]]), np.array([[1.0]])), np.array([1.0])
    )
    assert validate_solution(sol, mus)
    assert not validate_solution(tampered, mus)


def test_weight_sums_print_as_plain_floats():
    with pytest.raises(BadWeights, match=r"^weights sum to 1\.1, not 1$"):
        make_distribution([[0.0], [1.0]], [0.5, 0.6])
    _, mus = _valid_solution()
    sol = Solution((np.array([[0.5]]), np.array([[0.5]])), np.array([0.5]))
    assert "barycenter weights sum to 0.5" in solution_violations(sol, mus)


def test_solution_counts():
    sol, _ = _valid_solution()
    assert sol.n_atoms == 1
    assert sol.n_distributions == 2
