"""Exact discrete optimal transport under Euclidean costs raised to a power.

Each coupling is the optimum of the transportation LP.  Between equal
numbers of atoms with equal masses on each side, some optimal plan is a
permutation divided by the count (Birkhoff-von Neumann), so such a pair is an
assignment problem, solved exactly by scipy's ``linear_sum_assignment``.
Every other pair is solved by the HiGHS simplex through the binding that
scipy ships.  A batch of inputs that share a target, such as one outer
iteration of the barycenter solver, stays pooled throughout: one (N, n) cost
array of all its atoms, one block-diagonal LP on consecutive row runs of it,
solved in one call, and one (N, n) flow array, with no per-input arrays.
Each block's costs are scaled to a maximum of 1 before every solve, because
HiGHS tolerances are absolute; reported costs use the unscaled matrix.  A
cost matrix with a non-finite entry raises :class:`NumericalFailure` before
any plan is built.

An optimal plan moves mass only along cells that are cheap for their row or
their column (the shortlist method of Gottschlich and Schuhmacher, 2014), so
the LP holds only some cells as columns: each row's and each column's
``_HELD`` cheapest, plus the north-west-corner cells of the marginals, which
make it feasible.  A block with at most ``_HELD`` rows or columns is held
whole.  After each HiGHS run, the row duals y price every cell of the batch,
c - y[row] - y[col]; every cell not yet held that prices below
``-_PRICE_TOL`` joins the LP in one round, and HiGHS runs again from its
basis.  The rounds end when no cell is added.  The final basis is then
optimal for the held cells and no other cell has a negative reduced cost
beyond ``_PRICE_TOL``, which is the optimality certificate HiGHS applies to
a full LP, with a tighter tolerance.  A :class:`TransportModel` is built
for one batch and one set of target masses and keeps its LP between solves,
so each new cost matrix, such as one per support of the barycenter solver,
starts from the last optimal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs
from scipy.spatial.distance import cdist

from .core import (
    BadWeights,
    DimensionMismatch,
    DiscreteDistribution,
    NumericalFailure,
    PooledBatch,
    ZERO_MASS,
    check_exponent,
    pool_batch,
)

# Presolve about doubles the time of these LPs (measured, T=30-128).  The
# dual simplex (strategy 1) solves cold LPs in about half the pivots of the
# primal simplex (strategy 4).  Warm solves pivot less under HiGHS's choice
# (strategy 0: dual cold, primal from a primal-feasible basis): replaying the
# 669 solves of the reduce_d784 bench op list of seed 1 and 44 s (40 ops, a
# fresh model per op) took 61,869 pivots under strategy 1 and 30,152 under
# strategy 0, and 12-27 % less HiGHS time; no bench workload has yet shown
# that end to end.  At the default primal feasibility tolerance
# (1e-7) a basic flow can come back at -5e-9; clipping it to 0 leaves the
# marginals off by as much, so the tolerance is 1e-10.
_HIGHS_OPTIONS = (("output_flag", False), ("presolve", "off"),
                  ("simplex_strategy", 1), ("primal_feasibility_tolerance", 1e-10))
# Cheapest cells per row and per column that a rebuilt LP holds.  A block
# with at most this many rows or columns is held whole, so the barycenter
# LPs of a support of up to 8 atoms are full LPs.
_HELD = 8
# A cell whose scaled reduced cost is below -_PRICE_TOL joins the LP; HiGHS
# accepts reduced costs down to -1e-7 (its dual feasibility tolerance).
_PRICE_TOL = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling between two distributions and its cost."""

    flow: np.ndarray
    cost: float


def _distances(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    """D[s, t] = ||X_s - Y_t||_2 ** p, from one ``cdist`` call."""
    if p == 2.0:
        return cdist(X, Y, "sqeuclidean")
    dist = cdist(X, Y)
    with np.errstate(over="ignore"):  # an overflow is caught as a non-finite cost
        return dist if p == 1.0 else dist**p


def cost_matrix(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> np.ndarray:
    """C[s, t] = ||x_s - y_t||_2 ** p."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    check_exponent(p)
    return _distances(mu.atoms, nu.atoms, p)


def _shortlist(a: np.ndarray, b: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The held cells of a block of more than ``_HELD`` rows and columns, as
    a mask: each row's and each column's ``_HELD`` cheapest cells and the
    north-west-corner plan of ``(a, b)``, a feasible plan on its own."""
    m, n = C.shape
    held = np.zeros((m, n), dtype=bool)
    np.put_along_axis(held, np.argpartition(C, _HELD - 1, axis=1)[:, :_HELD], True, axis=1)
    np.put_along_axis(held, np.argpartition(C, _HELD - 1, axis=0)[:_HELD], True, axis=0)
    # the corner plan moves mass t along cell (i, j) with A[i-1] <= t < A[i]
    # and B[j-1] <= t < B[j]; each such run of t starts at 0 or a breakpoint
    A, B = np.cumsum(a), np.cumsum(b)
    t = np.concatenate([[0.0], A[:-1], B[:-1]])
    held[np.minimum(np.searchsorted(A, t, "right"), m - 1),
         np.minimum(np.searchsorted(B, t, "right"), n - 1)] = True
    return held


class TransportModel:
    """The exact transport of one pooled batch to the target masses ``b``.

    Everything that depends on the masses alone is decided at construction:
    ``b`` with atoms lighter than ``ZERO_MASS`` zeroed and renormalized, the
    inputs with the product plan (one mass-carrying atom on either side), the
    assignments (as many mass-carrying atoms as ``b``, with equal masses on
    each side) and the other inputs' LP blocks.  Block i is the next run of
    one input's mass-carrying rows; the LP rows, passed to HiGHS with their
    right-hand sides at construction, are each block's row sums, then its
    column sums on the columns with mass; the LP columns are cells in pooled
    row-major order.  The first :meth:`solve` adds the shortlisted cells; a
    later one replaces only the held cells' costs, and HiGHS starts from the
    previous optimal basis, which is still primal-feasible; cells added by
    pricing stay held.  ``pivots`` sums the simplex iterations of every
    HiGHS run.  A batch without LP blocks makes no HiGHS object.
    """

    def __init__(self, batch: PooledBatch, b: np.ndarray):
        a, massive = batch.mass, batch.massive
        b = np.where(b > ZERO_MASS, b, 0.0)
        b /= b.sum()
        self._starts, self._cols, self._b = batch.starts, np.flatnonzero(b), b[b > 0]
        lp = (massive > 1) & (self._cols.size > 1)
        on_lp = lp[batch.origins]
        self._product, self._product_flow = ~on_lp, a[~on_lp, None] * b
        self._assignments, self._highs, self.pivots = [], None, 0
        if not lp.any():
            return
        rows = np.flatnonzero(on_lp & (a > 0))
        sizes = massive[lp]
        starts, a_rows = np.cumsum(sizes) - sizes, a[rows]
        # equal counts of equal masses on each side: a permutation is optimal
        square = ((sizes == self._cols.size) & (self._b.min() == self._b.max())
                  & (np.minimum.reduceat(a_rows, starts) == np.maximum.reduceat(a_rows, starts)))
        for i in np.flatnonzero(square).tolist():
            block = rows[starts[i]:starts[i] + sizes[i]]
            self._assignments.append((block, a[block]))
        if square.all():
            return
        self._rows = rows[np.repeat(~square, sizes)]
        self._a, sizes = a[self._rows], sizes[~square]
        R, n = self._rows.size, self._cols.size
        ends = np.cumsum(sizes)
        self._firsts, self._block = ends - sizes, np.repeat(np.arange(sizes.size), sizes)
        # the rows of the blocks of more than _HELD rows and columns
        self._shortlisted = [slice(ends[i] - sizes[i], ends[i])
                             for i in np.flatnonzero((sizes > _HELD) & (n > _HELD)).tolist()]
        # block i's LP rows: row sum r at r + i n, column sum j at ends[i] + i n + j
        row = np.arange(R) + n * self._block
        col = (ends + n * np.arange(sizes.size))[:, None] + np.arange(n)
        self._row = np.repeat(row, n).astype(np.int32)  # the two LP rows of every cell
        self._col = col[self._block].ravel().astype(np.int32)
        self._highs = _Highs()
        for name, value in _HIGHS_OPTIONS:
            self._highs.setOptionValue(name, value)
        rhs = np.empty(R + col.size)
        rhs[row], rhs[col] = self._a, self._b
        if self._highs.addRows(rhs.size, rhs, rhs, 0, np.zeros(rhs.size, dtype=np.int32),
                               np.zeros(0, dtype=np.int32), np.zeros(0)) == HighsStatus.kError:
            raise NumericalFailure("transport LP rejected by HiGHS")
        self._held = np.zeros(0, dtype=np.intp)  # the cells that are LP columns, in order

    def _add(self, cells, costs) -> None:
        """Hold ``cells`` as LP columns: each is in its row's sum and its
        column's sum, so holds exactly two ones."""
        start = np.arange(0, 2 * cells.size + 1, 2, dtype=np.int32)
        index = np.stack([self._row[cells], self._col[cells]], axis=1).ravel()
        if self._highs.addCols(cells.size, costs[cells], np.zeros(cells.size),
                               np.full(cells.size, np.inf), 2 * cells.size, start, index,
                               np.ones(2 * cells.size)) == HighsStatus.kError:
            raise NumericalFailure("transport cells rejected by HiGHS")
        self._held = np.concatenate([self._held, cells])

    def _run(self):
        """Run HiGHS on the held cells; the solution, once optimal."""
        if self._highs.run() == HighsStatus.kError:
            raise NumericalFailure("HiGHS failed on the transport LP")
        status = self._highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise NumericalFailure(
                f"transport LP not solved: {self._highs.modelStatusToString(status)}")
        self.pivots += self._highs.getInfo().simplex_iteration_count
        return self._highs.getSolution()

    def _solve_lp(self, C) -> np.ndarray:
        """The optimal flows of the LP blocks on their (R, n) costs ``C``.

        Each block's costs are scaled to a maximum of 1.  The optimum is a
        vertex of the block-diagonal LP, so every block is a basic plan.
        """
        top = np.maximum.reduceat(C.max(axis=1), self._firsts)
        C = C / np.where(top > 0, top, 1.0)[self._block][:, None]
        costs = C.ravel()
        if not self._held.size:  # the first solve
            held = np.ones(C.shape, dtype=bool)
            for rows in self._shortlisted:
                held[rows] = _shortlist(self._a[rows], self._b, C[rows])
            self._add(np.flatnonzero(held), costs)
        elif self._highs.changeColsCost(
                self._held.size, np.arange(self._held.size, dtype=np.int32),
                costs[self._held]) == HighsStatus.kError:
            raise NumericalFailure("transport costs rejected by HiGHS")
        solution = self._run()
        while self._held.size < costs.size:
            y = np.array(solution.row_dual)
            priced = costs - y[self._row] - y[self._col]
            priced[self._held] = 0.0
            new = np.flatnonzero(priced < -_PRICE_TOL)
            if not new.size:
                break
            self._add(new, costs)
            solution = self._run()
        x = np.zeros(costs.size)
        x[self._held] = np.maximum(np.array(solution.col_value), 0.0)
        return x.reshape(C.shape)

    def solve(self, C: np.ndarray):
        """``(flow, costs)`` of every input on the (N, n) cost matrix ``C``
        of the batch's rows against the target's atoms: rows
        ``batch.starts[i]`` up to ``batch.starts[i + 1]`` of ``flow`` are
        input i's plan and ``costs[i]`` its price on ``C`` by
        :func:`pooled_costs`.  A non-finite entry of ``C``, any HiGHS error or
        a model status other than optimal raises :class:`NumericalFailure`."""
        if not np.isfinite(C).all():
            raise NumericalFailure("transport costs are not finite")
        flow = np.zeros_like(C)
        flow[self._product] = self._product_flow
        for rows, a in self._assignments:
            r, c = linear_sum_assignment(C[np.ix_(rows, self._cols)])
            flow[rows[r], self._cols[c]] = a[r]
        if self._highs is not None:
            block = np.ix_(self._rows, self._cols)
            flow[block] = self._solve_lp(C[block])
        return flow, pooled_costs(flow, C, self._starts)


def solve_pooled(batch: PooledBatch, nu: DiscreteDistribution, p: float):
    """Optimal flows and costs of every pooled input against ``nu``: the
    one-shot form of :class:`TransportModel`, built for ``batch`` and
    ``nu``'s weights and solved once on the cost matrix of all pooled atoms
    against ``nu``'s, after the exponent and the dimensions are checked."""
    check_exponent(p)
    if batch.points.shape[1] != nu.dim:
        raise DimensionMismatch(f"dimensions differ: {batch.points.shape[1]} vs {nu.dim}")
    return TransportModel(batch, nu.weights).solve(_distances(batch.points, nu.atoms, p))


def pooled_costs(flow: np.ndarray, C: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-input prices of a pooled (N, n) ``flow`` under the cost matrix
    ``C`` of its rows, summed from each of ``starts`` to the next.  A cell
    without flow adds exactly 0, even where its cost is not finite."""
    return np.add.reduceat((flow * np.where(flow != 0, C, 0.0)).sum(axis=1), starts)


def solve_ot(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> TransportPlan:
    """Minimum-cost coupling of mu and nu; cost is W_p(mu, nu)**p."""
    flow, costs = solve_pooled(pool_batch([mu]), nu, p)
    return TransportPlan(flow, float(costs[0]))


def wasserstein_p(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> float:
    """The p-Wasserstein distance (p-th root of the optimal flow cost)."""
    return solve_ot(mu, nu, p).cost ** (1.0 / p)


def barycenter_objective(nu: DiscreteDistribution, mus, p: float, lambdas=None) -> float:
    """The barycenter objective: weighted sum of W_p(mu_i, nu)**p, priced
    from one :func:`solve_pooled` call on the pooled ``mus`` (none raise
    :class:`EmptyInput`)."""
    costs = solve_pooled(pool_batch(mus), nu, p)[1]
    k = len(mus)
    if lambdas is None:
        lam = np.full(k, 1.0 / k)
    else:
        lam = np.asarray(lambdas, dtype=np.float64)
        # a NaN weight fails both comparisons
        if lam.shape != (k,) or not (lam >= 0).all() or not abs(lam.sum() - 1.0) <= 1e-9:
            raise BadWeights("lambdas must be nonnegative and sum to 1")
    return float(lam @ costs)
