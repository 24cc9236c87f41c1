"""Exact discrete optimal transport under Euclidean costs raised to a power.

Each coupling is the optimum of the transportation LP, solved by the HiGHS
simplex through the binding that scipy ships.  Several problems that share a
target, such as one outer iteration of the barycenter solver, are stacked
into one block-diagonal LP and solved in a single call.  A
:class:`TransportModel` keeps its HiGHS model between calls: when the next
batch has the same block shapes and marginals, only the costs change, so
the previous optimal basis stays primal-feasible and HiGHS starts from it.
Each block's costs are scaled to a maximum of 1 before every solve, because
HiGHS tolerances are absolute; reported costs use the unscaled matrix.  A
pair with one atom of positive mass on either side has a single feasible
plan, which is built directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy._core import (
    HighsLp,
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    _Highs,
)
from scipy.spatial.distance import cdist

from .core import (
    BadExponent,
    BadLambdas,
    DimensionMismatch,
    DiscreteDistribution,
    NumericalFailure,
    ZERO_MASS,
)

# Presolve about doubles the time of these LPs (measured, T=30-128).  The
# dual simplex (strategy 1) solves cold LPs in about half the pivots of the
# primal simplex (strategy 4); warm solves of barycenter iterations took
# about as long with either.
_HIGHS_OPTIONS = (("output_flag", False), ("presolve", "off"),
                  ("simplex_strategy", 1))


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling between two distributions and its cost."""

    flow: np.ndarray
    cost: float


def _check_pair(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float):
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    if not p >= 1.0:
        raise BadExponent(f"exponent p must be >= 1, got {p}")


def cost_matrix(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> np.ndarray:
    """C[s, t] = ||x_s - y_t||_2 ** p."""
    _check_pair(mu, nu, p)
    if p == 2.0:
        return cdist(mu.atoms, nu.atoms, "sqeuclidean")
    dist = cdist(mu.atoms, nu.atoms)
    return dist if p == 1.0 else dist**p


class TransportModel:
    """One HiGHS model for a batch of transportation problems, kept between solves.

    :meth:`solve` builds the model when the batch's structure (block shapes
    and marginals) differs from the one it holds.  Otherwise it replaces
    only the costs, and HiGHS starts from the previous optimal basis, which
    is still primal-feasible.  ``pivots`` sums the simplex iterations of
    every solve.  The HiGHS object is created on the first solve.
    """

    def __init__(self):
        self._highs = None
        self._shapes = None
        self._rhs = None
        self.pivots = 0

    def _build(self, shapes, rhs, costs) -> None:
        """Pass HiGHS the block-diagonal LP: variable (i, j) of an m x n
        block appears in its row-sum row i and its column-sum row m + j, so
        each column of the constraint matrix holds exactly two ones."""
        if self._highs is None:
            self._highs = _Highs()
            for name, value in _HIGHS_OPTIONS:
                self._highs.setOptionValue(name, value)
        rows, offset = [], 0
        for m, n in shapes:
            rows.append(np.stack([offset + np.repeat(np.arange(m), n),
                                  offset + m + np.tile(np.arange(n), m)], axis=1).ravel())
            offset += m + n
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = costs.size, offset
        lp.col_cost_ = costs
        lp.col_lower_ = np.zeros(costs.size)
        lp.col_upper_ = np.full(costs.size, np.inf)
        lp.row_lower_ = lp.row_upper_ = rhs
        matrix = lp.a_matrix_
        matrix.format_ = MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = costs.size, offset
        matrix.start_ = np.arange(0, 2 * costs.size + 1, 2, dtype=np.int32)
        matrix.index_ = np.concatenate(rows).astype(np.int32)
        matrix.value_ = np.ones(2 * costs.size)
        if self._highs.passModel(lp) == HighsStatus.kError:
            raise NumericalFailure("transport LP rejected by HiGHS")
        self._shapes, self._rhs = shapes, rhs

    def solve(self, problems) -> list:
        """Optimal flows of the transportation problems ``(a, b, C)``.

        The optimum is a vertex of the block-diagonal LP, so every block is
        a basic plan.  Each block's costs are divided by their maximum first;
        a non-finite cost, such as ``||x - y||**p`` overflowing, raises
        :class:`NumericalFailure`, as does any HiGHS error or a model status
        other than optimal.
        """
        if not all(np.isfinite(C).all() for _, _, C in problems):
            raise NumericalFailure("transport costs are not finite")
        shapes = [C.shape for _, _, C in problems]
        rhs = np.concatenate([v for a, b, _ in problems for v in (a, b)])
        costs = np.concatenate([(C / top if (top := C.max()) > 0 else C).ravel()
                                for _, _, C in problems])
        if shapes == self._shapes and np.array_equal(rhs, self._rhs):
            if self._highs.changeColsCost(costs.size, np.arange(costs.size, dtype=np.int32),
                                          costs) == HighsStatus.kError:
                raise NumericalFailure("transport costs rejected by HiGHS")
        else:
            self._build(shapes, rhs, costs)
        if self._highs.run() == HighsStatus.kError:
            raise NumericalFailure("HiGHS failed on the transport LP")
        status = self._highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise NumericalFailure(
                f"transport LP not solved: {self._highs.modelStatusToString(status)}")
        self.pivots += self._highs.getInfo().simplex_iteration_count
        x = np.maximum(np.array(self._highs.getSolution().col_value), 0.0)
        ends = np.cumsum([m * n for m, n in shapes])
        return [part.reshape(shape)
                for part, shape in zip(np.split(x, ends[:-1]), shapes)]


def _mass(dist: DiscreteDistribution) -> np.ndarray:
    """Weights with atoms lighter than ``ZERO_MASS`` zeroed, renormalized."""
    w = np.where(dist.weights > ZERO_MASS, dist.weights, 0.0)
    return w / w.sum()


def solve_ot_batch(mus, nu: DiscreteDistribution, p: float,
                   model: TransportModel | None = None) -> list:
    """Minimum-cost couplings of every distribution in ``mus`` with ``nu``.

    All couplings come from one LP solve on ``model``, or on a fresh
    :class:`TransportModel` when none is given; a caller that solves the
    same inputs against successive supports passes one model to every call
    so that each solve starts from the previous basis.  Atoms lighter than
    ``ZERO_MASS`` get no flow and the rest of each side is renormalized;
    each plan's cost is W_p(mu, nu)**p, priced with the unscaled cost
    matrix.  A pair with a single mass-carrying atom on either side has
    exactly one feasible plan, the product of the marginals, and skips the
    LP.
    """
    b = _mass(nu)
    cols = np.flatnonzero(b)
    plans, lps = [], []
    for mu in mus:
        C = cost_matrix(mu, nu, p)
        a = _mass(mu)
        rows = np.flatnonzero(a)
        if len(rows) == 1 or len(cols) == 1:
            flow = np.outer(a, b)
        else:
            flow = np.zeros_like(C)
            cells = np.ix_(rows, cols)
            lps.append((flow, cells, (a[rows], b[cols], C[cells])))
        plans.append((flow, C))
    if lps:
        if model is None:
            model = TransportModel()
        subs = model.solve([problem for _, _, problem in lps])
        for (flow, cells, _), sub in zip(lps, subs):
            flow[cells] = sub
    return [TransportPlan(flow, float((flow * C).sum())) for flow, C in plans]


def solve_ot(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> TransportPlan:
    """Minimum-cost coupling of mu and nu; cost is W_p(mu, nu)**p."""
    return solve_ot_batch([mu], nu, p)[0]


def transport_costs(mus, nu: DiscreteDistribution, p: float) -> np.ndarray:
    """W_p(mu_i, nu)**p for every distribution in ``mus``, from one LP solve.

    Distributions are immutable, so an input that repeats as the same object
    is solved once.
    """
    distinct = {}
    slot = [distinct.setdefault(id(mu), (len(distinct), mu))[0] for mu in mus]
    plans = solve_ot_batch([mu for _, mu in distinct.values()], nu, p)
    return np.array([plan.cost for plan in plans])[slot]


def wasserstein_p(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> float:
    """The p-Wasserstein distance (p-th root of the optimal flow cost)."""
    return solve_ot(mu, nu, p).cost ** (1.0 / p)


def barycenter_objective(nu: DiscreteDistribution, mus, p: float, lambdas=None) -> float:
    """The barycenter objective: weighted sum of W_p(mu_i, nu)**p."""
    k = len(mus)
    if lambdas is None:
        lam = np.full(k, 1.0 / k)
    else:
        lam = np.asarray(lambdas, dtype=np.float64)
        if lam.shape != (k,) or np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-9:
            raise BadLambdas("lambdas must be nonnegative and sum to 1")
    return float(lam @ transport_costs(mus, nu, p))
