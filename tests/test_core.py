import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from baryreduce.barycenter import (
    SolverOptions,
    reconstruct_barycenter,
    solution_cost,
    support_cost,
    update_support_atom,
)
from baryreduce import cli
from baryreduce.core import (
    BadParams,
    BadPoints,
    BadWeights,
    DimensionMismatch,
    DiscreteDistribution,
    EmptyInput,
    ParseError,
    Solution,
    check_exponent,
    make_distribution,
    pool_batch,
    solution_violations,
)
from baryreduce.coreset import (
    build_coreset,
    coreset_size_bound,
    pilot_barycenter,
    practical_size_bound,
    scores_from_costs,
    sensitivity_upper_bounds,
)
from baryreduce.instances import gen_lb_barycenter, group_by_label, load_csv_distributions
from baryreduce.projection import jl_dimension
from baryreduce.transport import (
    barycenter_objective,
    cost_matrix,
    solve_ot,
    solve_pooled,
    wasserstein_p,
)
from conftest import solution_of


def test_make_distribution_basic():
    mu = make_distribution([[0.0, 1.0], [2.0, 3.0]], [0.25, 0.75])
    assert mu.size == 2
    assert mu.dim == 2
    assert mu.weights.sum() == 1.0


def test_atoms_are_immutable():
    mu = make_distribution([[0.0]], [1.0])
    with pytest.raises(ValueError):
        mu.atoms[0, 0] = 5.0


@pytest.mark.parametrize("build", [make_distribution, DiscreteDistribution])
def test_distribution_neither_freezes_nor_aliases_the_callers_arrays(build):
    pts, w = np.arange(8.0).reshape(4, 2), np.array([0.5, 0.5])
    whole = build(pts[:2].copy(), w)
    view = build(pts[:2], w)
    assert pts.flags.writeable and w.flags.writeable
    pts[0, 0], w[0] = 9.0, 0.0
    for mu in (whole, view):
        assert mu.atoms.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert mu.weights.tolist() == [0.5, 0.5]
        assert not (mu.atoms.flags.writeable or mu.weights.flags.writeable)


def test_read_only_arrays_are_shared_uncopied():
    mu = make_distribution([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteDistribution(mu.atoms[1:], mu.weights[1:] * 2)
    assert nu.atoms.base is mu.atoms
    assert DiscreteDistribution(mu.atoms, mu.weights).weights is mu.weights
    # a read-only view of writeable memory is still copied
    pts = np.zeros((2, 1))
    view = pts[:]
    view.setflags(write=False)
    assert not np.shares_memory(DiscreteDistribution(view, [0.5, 0.5]).atoms, pts)


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
    batch = pool_batch([mu1, mu2])
    assert batch.points.shape == (3, 1)
    assert list(batch.origins) == [0, 0, 1]
    assert list(batch.starts) == [0, 2]
    np.testing.assert_allclose(batch.mass, [0.5, 0.5, 1.0])


def _valid_solution():
    mu1 = make_distribution([[0.0]], [1.0])
    mu2 = make_distribution([[2.0]], [1.0])
    sol = solution_of((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
    return sol, pool_batch([mu1, mu2])


def test_valid_solution_passes():
    sol, batch = _valid_solution()
    assert solution_violations(sol, batch) == []


def test_bad_row_sum_detected():
    _, batch = _valid_solution()
    sol = solution_of((np.array([[0.5]]), np.array([[1.0]])), np.array([1.0]))
    bad = solution_violations(sol, batch)
    assert bad == ["plan 0 row sums off by 5.000e-01", "plan 0 column sums off by 5.000e-01"]


def test_bad_column_sum_detected():
    batch = pool_batch([make_distribution([[0.0], [1.0]], [0.5, 0.5])] * 2)
    plans = (
        np.array([[0.5, 0.0], [0.0, 0.5]]),
        np.array([[0.25, 0.25], [0.25, 0.25]]),
    )
    sol = solution_of(plans, np.array([0.5, 0.5]))
    # second plan's column sums match b, first plan's do too: valid
    assert solution_violations(sol, batch) == []
    sol_bad = solution_of(plans, np.array([0.4, 0.6]))
    assert solution_violations(sol_bad, batch) == [
        "plan 0 column sums off by 1.000e-01", "plan 1 column sums off by 1.000e-01"]


def test_negative_flow_detected():
    _, batch = _valid_solution()
    sol = solution_of((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
    tampered = solution_of(
        (np.array([[2.0]]), np.array([[1.0]])), np.array([1.0])
    )
    assert solution_violations(sol, batch) == []
    assert solution_violations(tampered, batch) == ["plan 0 row sums off by 1.000e+00",
                                                    "plan 0 column sums off by 1.000e+00"]


def test_weight_sums_print_as_plain_floats():
    with pytest.raises(BadWeights, match=r"^weights sum to 1\.1, not 1$"):
        make_distribution([[0.0], [1.0]], [0.5, 0.6])
    _, batch = _valid_solution()
    sol = solution_of((np.array([[0.5]]), np.array([[0.5]])), np.array([0.5]))
    assert "barycenter weights sum to 0.5" in solution_violations(sol, batch)


def test_solution_counts():
    sol, _ = _valid_solution()
    assert sol.n_atoms == 1


class TestPooledValidation:
    """Three inputs of 1, 2 and 3 atoms against b = (0.5, 0.5); plan i is
    the product coupling, and one input at a time is broken."""

    B = np.array([0.5, 0.5])

    def _case(self):
        mus = [make_distribution(np.arange(t, dtype=float)[:, None], np.full(t, 1.0 / t))
               for t in (1, 2, 3)]
        return [np.outer(mu.weights, self.B) for mu in mus], pool_batch(mus)

    def _violations(self, i, break_plan):
        plans, batch = self._case()
        plans[i] = break_plan(plans[i].copy())
        return solution_violations(solution_of(plans, self.B), batch)

    def test_intact_case_is_valid(self):
        plans, batch = self._case()
        assert solution_violations(solution_of(plans, self.B), batch) == []

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_negative_entry_names_its_input(self, i):
        def shift(plan):  # -0.1 moved within its row and column sums
            plan[0] += [-0.6, 0.6]
            if len(plan) > 1:
                plan[1] += [0.6, -0.6]
            return plan
        bad = self._violations(i, shift)
        assert f"plan {i} has negative entries" in bad
        assert all(msg.startswith(f"plan {i} ") for msg in bad)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_row_sum_names_its_input(self, i):
        def swap_rows(plan):  # row 0 gains 0.1; a longer plan keeps its column sums
            plan[0, 0] += 0.1
            if len(plan) > 1:
                plan[-1, 0] -= 0.1
            return plan
        bad = self._violations(i, swap_rows)
        if i == 0:
            assert bad == ["plan 0 row sums off by 1.000e-01",
                           "plan 0 column sums off by 1.000e-01"]
        else:
            assert bad == [f"plan {i} row sums off by 1.000e-01"]

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_column_sum_names_its_input(self, i):
        def swap_columns(plan):  # row sums stay, column 0 gains 0.1
            plan[0] += [0.1, -0.1]
            return plan
        assert self._violations(i, swap_columns) == [f"plan {i} column sums off by 1.000e-01"]

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_nan_entry_names_its_input(self, i):
        def poison(plan):
            plan[-1, 0] = np.nan
            return plan
        assert self._violations(i, poison) == [f"plan {i} has non-finite entries"]

    def test_nan_barycenter_weight_is_a_violation(self):
        plans, batch = self._case()
        bad = solution_violations(solution_of(plans, np.array([0.5, np.nan])), batch)
        assert bad == ["barycenter weights are not finite"]
        mu = make_distribution([[0.0]], [1.0])
        sol = Solution(np.full((1, 2), np.nan), [np.nan, 1.0])
        assert solution_violations(sol, pool_batch([mu])) == [
            "plan 0 has non-finite entries", "barycenter weights are not finite"]

    def test_flow_of_another_layout_is_refused(self):
        # product plans of inputs of 2, 1 and 3 atoms fill the batch's 6 rows
        # of 1, 2 and 3 atoms; the batch's row ranges find the wrong marginals
        _, batch = self._case()
        plans = [np.outer(np.full(t, 1.0 / t), self.B) for t in (2, 1, 3)]
        assert solution_violations(solution_of(plans, self.B), batch) == [
            "plan 0 row sums off by 5.000e-01", "plan 0 column sums off by 2.500e-01",
            "plan 1 row sums off by 5.000e-01", "plan 1 column sums off by 2.500e-01"]

    def test_matches_per_plan_reference(self, rng):
        # the per-plan loop that the pooled check replaced, on random breaks
        def reference(plans, mus, b, tol=1e-9):
            out = []
            for i, (plan, mu) in enumerate(zip(plans, mus)):
                if np.any(plan < -tol):
                    out.append(f"plan {i} has negative entries")
                row_err = np.max(np.abs(plan.sum(axis=1) - mu.weights))
                if row_err > tol:
                    out.append(f"plan {i} row sums off by {row_err:.3e}")
                col_err = np.max(np.abs(plan.sum(axis=0) - b))
                if col_err > tol:
                    out.append(f"plan {i} column sums off by {col_err:.3e}")
            return out

        for _ in range(50):
            mus = [make_distribution(rng.normal(size=(t, 2)), rng.dirichlet(np.ones(t)))
                   for t in rng.integers(1, 6, size=4)]
            b = rng.dirichlet(np.ones(3))
            plans = [np.outer(mu.weights, b) for mu in mus]
            for i in rng.choice(4, size=2, replace=False):
                plans[i] += rng.choice([0.0, 1e-3, -1e-3], size=plans[i].shape)
            assert (solution_violations(solution_of(plans, b), pool_batch(mus))
                    == reference(plans, mus, b))

    @pytest.mark.parametrize("shape", [(5, 2), (7, 2), (6, 3), (6,)])
    def test_mismatched_flow_shape_is_a_violation(self, shape):
        _, batch = self._case()
        bad = solution_violations(Solution(np.zeros(shape), self.B), batch)
        assert bad == [f"flow has shape {shape}, expected (6, 2)"]


# Every atom lies within unit distance of every other, so at p = inf no
# cost overflows and only the exponent rule can refuse the call.
MUS = [make_distribution([[0.0, 0.0], [0.3, 0.1]], [0.5, 0.5]),
       make_distribution([[0.1, 0.2]], [1.0])]
NU = make_distribution([[0.1, 0.0], [0.2, 0.2]], [0.5, 0.5])
BATCH = pool_batch(MUS)
SOLUTION = Solution(np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]), NU.weights)

#: every public function of the package that takes an exponent p, called
#: on small valid inputs at that p
EXPONENT_CALLS = {
    "check_exponent": check_exponent,
    "cost_matrix": lambda p: cost_matrix(MUS[0], NU, p),
    "solve_ot": lambda p: solve_ot(MUS[0], NU, p),
    "wasserstein_p": lambda p: wasserstein_p(MUS[0], NU, p),
    "barycenter_objective": lambda p: barycenter_objective(NU, MUS, p),
    "solve_pooled": lambda p: solve_pooled(BATCH, NU, p),
    "SolverOptions": lambda p: SolverOptions(p=p),
    "update_support_atom": lambda p: update_support_atom(BATCH.points, BATCH.mass, p),
    "reconstruct_barycenter": lambda p: reconstruct_barycenter(SOLUTION, BATCH, p),
    "solution_cost": lambda p: solution_cost(SOLUTION, BATCH, p),
    "support_cost": lambda p: support_cost(SOLUTION, BATCH, NU, p),
    "pilot_barycenter": lambda p: pilot_barycenter(BATCH, p),
    "scores_from_costs": lambda p: scores_from_costs(np.array([0.5, 1.0]), p),
    "sensitivity_upper_bounds": lambda p: sensitivity_upper_bounds(BATCH, p, pilot=NU),
    "coreset_size_bound": lambda p: coreset_size_bound(4, 2, p, 0.5, 0.1),
    "jl_dimension": lambda p: jl_dimension(16, 0.5, 0.1, p),
    "gen_lb_barycenter": lambda p: gen_lb_barycenter(2, 10, 1, 0.1, p),
}
#: the calls that fit a support atom, whose iterations an invalid p may never stop
FITS = ("update_support_atom", "reconstruct_barycenter", "solution_cost")
BAD_EXPONENTS = [0.5, 0.0, -1.0, math.inf, math.nan]
GOOD_EXPONENTS = [1.0, 1.5, 2.0]


def refusal(name: str, p: float):
    """``"<class name>: <message>"`` of the :class:`BadParams` that
    ``EXPONENT_CALLS[name](p)`` raises, or None when it returns."""
    try:
        EXPONENT_CALLS[name](p)
    except BadParams as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.fixture(scope="module")
def fits_refused() -> dict:
    """``{(name, repr(p)): refusal}`` of every call in ``FITS`` at every
    exponent, from one fresh interpreter under a 60-second timeout, so a
    fit that never stops fails its tests instead of hanging the suite.  The
    call the interpreter stopped at reads ``"timed out"`` or the last line
    of its error, and the calls after it are missing."""
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    cases = [(name, repr(p)) for name in FITS for p in BAD_EXPONENTS + GOOD_EXPONENTS]
    script = ("from test_core import refusal\n"
              f"for name, p in {cases!r}:\n"
              "    print(name, p, refusal(name, float(p)), flush=True)\n")
    try:
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        out, stopped = done.stdout, (done.stderr.splitlines() or ["no output"])[-1]
    except subprocess.TimeoutExpired as exc:  # its output is bytes here
        out, stopped = (exc.stdout or b"").decode(), "timed out"
    lines = out.splitlines()
    found = {(name, p): None if got == "None" else got
             for name, p, got in (line.split(maxsplit=2) for line in lines)}
    if len(lines) < len(cases):
        found[cases[len(lines)]] = stopped
    return found


def test_the_exponent_calls_are_every_public_entry_that_takes_p():
    taking_p = set()
    for module in ("core", "transport", "barycenter", "projection", "coreset", "instances",
                   "cli"):
        module = importlib.import_module(f"baryreduce.{module}")
        for name, obj in vars(module).items():
            if (callable(obj) and not name.startswith("_")
                    and getattr(obj, "__module__", None) == module.__name__):
                try:
                    params = inspect.signature(obj).parameters
                except ValueError:  # the exception classes have no signature
                    continue
                if "p" in params:
                    taking_p.add(name)
    assert taking_p == set(EXPONENT_CALLS)


# the ids name the exponent refusal by its former class, BadExponent, so
# that they stay stable
@pytest.mark.parametrize("p, refused", [
    *(pytest.param(p, f"BadParams: exponent p must be finite and >= 1, got {p}",
                   id=f"{p}-BadExponent") for p in BAD_EXPONENTS),
    *((p, None) for p in GOOD_EXPONENTS)])
@pytest.mark.parametrize("name", list(EXPONENT_CALLS))
def test_every_entry_that_takes_p_refuses_the_same_exponents(fits_refused, name, p, refused):
    """One rule: p finite and >= 1.  Any other p raises :class:`BadParams`
    with the exponent rule's own message."""
    got = fits_refused.get((name, repr(p)), "not run") if name in FITS else refusal(name, p)
    assert got == refused


def _loaded(tmp_path, text):
    (tmp_path / "in.csv").write_text(text)
    return load_csv_distributions(tmp_path / "in.csv")


JL_RANGE = r"^eps and delta must lie in \(0, 1\)$"
EPS_DELTA = r"^need eps > 0 and delta in \(0, 1\)$"
#: one call per fault, with the class every call at that fault raises and
#: its message; each call takes a scratch directory
SAME_FAULT = {
    "jl_eps": (lambda tmp: jl_dimension(16, 1.5, 0.1, 2.0), BadParams, JL_RANGE),
    "jl_delta": (lambda tmp: jl_dimension(16, 0.5, 0.0, 2.0), BadParams, JL_RANGE),
    "bound_eps": (lambda tmp: coreset_size_bound(4, 2, 2.0, 0.0, 0.1), BadParams, EPS_DELTA),
    "bound_delta": (lambda tmp: coreset_size_bound(4, 2, 2.0, 0.5, 1.0), BadParams, EPS_DELTA),
    "practical_eps": (lambda tmp: practical_size_bound(np.full(4, 2.0), 3, 0.0, 0.1),
                      BadParams, EPS_DELTA),
    "practical_delta": (lambda tmp: practical_size_bound(np.full(4, 2.0), 3, 0.5, 1.5),
                        BadParams, EPS_DELTA),
    "coreset_size": (lambda tmp: build_coreset(np.full(2, 0.5), 0, seed=0), BadParams,
                     "^coreset size must be >= 1$"),
    "support_size": (lambda tmp: SolverOptions(support_size=0), BadParams,
                     "^support_size must be >= 1$"),
    "cli_sizes": (lambda tmp: cli.cmd_coreset(cli.build_parser().parse_args(
        ["coreset", "--k", "10", "--sizes", "0"])), BadParams, "^need positive --sizes$"),
    "support_weight": (lambda tmp: update_support_atom([[0.0]], [0.0], 2.0), BadWeights,
                       "^support update needs positive total weight$"),
    "lambdas": (lambda tmp: barycenter_objective(NU, MUS, 2.0, lambdas=[0.5, 0.6]),
                BadWeights, "^lambdas must be nonnegative and sum to 1$"),
    "ragged_row": (lambda tmp: _loaded(tmp, "0,0.5,1\n0,0.5,2,3\n"), ParseError,
                   "in.csv:2: 2 coords, expected 1$"),
    "non_numeric_row": (lambda tmp: _loaded(tmp, "0,0.5,1\n0,0.5,x\n"), ParseError,
                        "in.csv:2: non-numeric field$"),
    "label_count": (lambda tmp: group_by_label(np.zeros((3, 4)), [1, 2]), DimensionMismatch,
                    "^3 points vs 2 labels$"),
}


@pytest.mark.parametrize("fault", list(SAME_FAULT))
def test_same_fault_same_class(tmp_path, fault):
    """One class per kind of fault: a parameter out of range is a
    :class:`BadParams` wherever it is checked, a weight fault a
    :class:`BadWeights`, a malformed CSV row a :class:`ParseError` naming its
    line and a count that disagrees with another a :class:`DimensionMismatch`."""
    call, error, message = SAME_FAULT[fault]
    with pytest.raises(error, match=message) as caught:
        call(tmp_path)
    assert type(caught.value) is error
