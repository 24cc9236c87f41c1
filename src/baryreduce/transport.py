"""Exact discrete optimal transport under Euclidean costs raised to a power.

Each coupling is the optimum of the transportation LP, solved by the HiGHS
dual simplex in scipy (``linprog(method="highs-ds")``).  Several problems
that share a target, such as one outer iteration of the barycenter solver,
are stacked into one block-diagonal LP and solved in a single call, since
each call carries a fixed overhead of a few milliseconds.  Each block's
costs are scaled to a maximum of 1 before the solve, because HiGHS
tolerances are absolute; reported costs use the unscaled matrix.  A pair
with one atom of positive mass on either side has a single feasible plan,
which is built directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array
from scipy.spatial.distance import cdist

from .core import (
    BadExponent,
    BadLambdas,
    DimensionMismatch,
    DiscreteDistribution,
    NumericalFailure,
    TooLarge,
    ZERO_MASS,
)


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


def _solve_transport_lps(problems) -> list:
    """Optimal flows of several transportation problems ``(a, b, C)``.

    The problems become one block-diagonal LP, solved by a single HiGHS dual
    simplex call; its optimum is a vertex, so every block is a basic plan.
    Variable (i, j) of an m x n block appears in its row-sum row i and its
    column-sum row m + j, so each column of the constraint matrix holds
    exactly two ones.  HiGHS tolerances are absolute, so each block's costs
    are divided by their maximum first.
    """
    costs, rows, rhs = [], [], []
    offset = 0
    for a, b, C in problems:
        m, n = C.shape
        top = C.max()
        costs.append((C / top if top > 0 else C).ravel())
        rows.append(np.stack([offset + np.repeat(np.arange(m), n),
                              offset + m + np.tile(np.arange(n), m)], axis=1).ravel())
        rhs += [a, b]
        offset += m + n
    c = np.concatenate(costs)
    A = csc_array((np.ones(2 * c.size), np.concatenate(rows),
                   np.arange(0, 2 * c.size + 1, 2)), shape=(offset, c.size))
    # HiGHS presolve about doubles the time of these LPs (measured, T=30-128)
    res = linprog(c, A_eq=A, b_eq=np.concatenate(rhs), bounds=(0, None),
                  method="highs-ds", options={"presolve": False})
    if res.status != 0:
        raise NumericalFailure(f"transport LP not solved: {res.message}")
    ends = np.cumsum([C.size for _, _, C in problems])
    return [np.maximum(x, 0.0).reshape(C.shape)
            for x, (_, _, C) in zip(np.split(res.x, ends[:-1]), problems)]


def _mass(dist: DiscreteDistribution) -> np.ndarray:
    """Weights with atoms lighter than ``ZERO_MASS`` zeroed, renormalized."""
    w = np.where(dist.weights > ZERO_MASS, dist.weights, 0.0)
    return w / w.sum()


def solve_ot_batch(mus, nu: DiscreteDistribution, p: float) -> list:
    """Minimum-cost couplings of every distribution in ``mus`` with ``nu``.

    All couplings come from one LP solve.  Atoms lighter than ``ZERO_MASS``
    get no flow and the rest of each side is renormalized; each plan's cost
    is W_p(mu, nu)**p, priced with the unscaled cost matrix.  A pair with a
    single mass-carrying atom on either side has exactly one feasible plan,
    the product of the marginals, and skips the LP.
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
        subs = _solve_transport_lps([problem for _, _, problem in lps])
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


@lru_cache(maxsize=64)
def _tree_bases(m: int, n: int):
    """All spanning-tree bases of the m x n transportation polytope.

    Returns the basis cells as an array (B, m+n-1) of flat indices together
    with the stacked inverses of the corresponding constraint submatrices
    (row-sum equations plus all but the last column-sum equation).
    """
    k = m + n - 1
    cand_cells = []
    cand_mats = []
    for cells in combinations(range(m * n), k):
        A = np.zeros((k, k))
        for col, flat in enumerate(cells):
            i, j = divmod(flat, n)
            A[i, col] = 1.0
            if j < n - 1:
                A[m + j, col] = 1.0
        cand_cells.append(cells)
        cand_mats.append(A)
    mats = np.array(cand_mats)
    dets = np.abs(np.linalg.det(mats))
    keep = dets > 0.5  # incidence determinants are 0 or +-1
    inv = np.linalg.inv(mats[keep])
    return np.array(cand_cells)[keep], inv


def solve_ot_oracle(mu: DiscreteDistribution, nu: DiscreteDistribution, p: float) -> TransportPlan:
    """Globally optimal plan by enumerating every basic feasible solution.

    Test oracle only; limited to supports with at most 16 cost-matrix cells.
    """
    _check_pair(mu, nu, p)
    m, n = mu.size, nu.size
    if m * n > 16:
        raise TooLarge(f"oracle limited to 16 cells, got {m}x{n}")
    C = cost_matrix(mu, nu, p)
    cells, inv = _tree_bases(m, n)
    rhs = np.concatenate([mu.weights, nu.weights[:-1]])
    flows = inv @ rhs  # (B, m+n-1)
    feasible = np.all(flows >= -1e-12, axis=1)
    basis_costs = C.ravel()[cells]  # (B, m+n-1)
    totals = np.where(feasible, (flows * basis_costs).sum(axis=1), np.inf)
    best = int(np.argmin(totals))
    flow = np.zeros(m * n)
    np.add.at(flow, cells[best], np.maximum(flows[best], 0.0))
    flow = flow.reshape(m, n)
    return TransportPlan(flow, float((flow * C).sum()))


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
