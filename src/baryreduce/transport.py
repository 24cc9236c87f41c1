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
plan, which is built directly.  A batch costs a few numpy calls on its
pooled atoms, one cost matrix for all of them, not a Python pass per input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

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
    pooled_atoms,
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


def _check_exponent(p: float):
    if not p >= 1.0:
        raise BadExponent(f"exponent p must be >= 1, got {p}")


def _distances(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    """D[s, t] = ||X_s - Y_t||_2 ** p, from one ``cdist`` call."""
    if p == 2.0:
        return cdist(X, Y, "sqeuclidean")
    dist = cdist(X, Y)
    return dist if p == 1.0 else dist**p


def cost_matrix(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> np.ndarray:
    """C[s, t] = ||x_s - y_t||_2 ** p."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    _check_exponent(p)
    return _distances(mu.atoms, nu.atoms, p)


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


def _solve_pooled(mus, nu: DiscreteDistribution, p: float,
                  model: TransportModel | None):
    """Optimal flows and costs of every input against ``nu``, pooled.

    Returns ``(flow, costs, starts)``: rows ``starts[i]`` up to
    ``starts[i + 1]`` of the pooled (N, n) ``flow`` are input i's plan, and
    ``costs[i]`` is its price under one cost matrix of all pooled atoms.
    Only inputs with several mass-carrying atoms, against a ``nu`` with
    several, reach the LP; every other plan is the product of its marginals.
    """
    _check_exponent(p)
    points, weights, origins = pooled_atoms(mus)
    if points.shape[1] != nu.dim:
        raise DimensionMismatch(f"dimensions differ: {points.shape[1]} vs {nu.dim}")
    C = _distances(points, nu.atoms, p)
    starts = np.searchsorted(origins, np.arange(len(mus)))  # first row of each input
    a = np.where(weights > ZERO_MASS, weights, 0.0)
    a /= np.add.reduceat(a, starts)[origins]
    massive = np.add.reduceat(a > 0, starts, dtype=np.intp)
    b = _mass(nu)
    cols = np.flatnonzero(b)
    lp = (massive > 1) & (len(cols) > 1)
    on_lp = lp[origins]
    flow = np.zeros_like(C)
    flow[~on_lp] = a[~on_lp, None] * b
    if lp.any():
        rows = np.flatnonzero(on_lp & (a > 0))
        cells = np.ix_(rows, cols)
        ends = np.cumsum(massive[lp])[:-1]
        problems = zip(np.split(a[rows], ends), repeat(b[cols]), np.split(C[cells], ends))
        if model is None:
            model = TransportModel()
        flow[cells] = np.concatenate(model.solve(list(problems)))
    costs = np.add.reduceat((flow * C).sum(axis=1), starts)
    return flow, costs, starts


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
    LP.  The plans' flows are row blocks of one pooled array.
    """
    if not len(mus):
        return []
    flow, costs, starts = _solve_pooled(mus, nu, p, model)
    ends = [*starts[1:].tolist(), len(flow)]
    return [TransportPlan(flow[start:end], cost)
            for start, end, cost in zip(starts.tolist(), ends, costs.tolist())]


def solve_ot(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> TransportPlan:
    """Minimum-cost coupling of mu and nu; cost is W_p(mu, nu)**p."""
    return solve_ot_batch([mu], nu, p)[0]


def transport_costs(mus, nu: DiscreteDistribution, p: float) -> np.ndarray:
    """W_p(mu_i, nu)**p for every distribution in ``mus``, from one LP solve.

    Distributions are immutable, so an input that repeats as the same object
    is solved once; the distinct inputs keep the order they first appear in.
    """
    if not len(mus):
        return np.empty(0)
    ids = np.fromiter(map(id, mus), np.intp, len(mus))
    _, first, slot = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct inputs, first-seen first
    _, costs, _ = _solve_pooled(list(map(mus.__getitem__, first[order].tolist())),
                                nu, p, None)
    return costs[np.argsort(order)[slot]]


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
