"""The paper's claims as checks the tests run against the engine.

The lower-bound pairs of :func:`baryreduce.instances.gen_lb_barycenter`
priced before and after a projection, the matching distortion of a
projection, and the two exponent-2 reformulations of the barycenter
objective: pairwise squared distances and a low-rank Frobenius
approximation.  No command of the package calls them.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from baryreduce.barycenter import solution_cost
from baryreduce.core import (
    BadParams,
    BadWeights,
    BaryError,
    DimensionMismatch,
    InvalidSolution,
    PooledBatch,
    Solution,
    solution_violations,
)


class NotMultipleOfN(BaryError):
    pass


# ---------------------------------------------------------------------------
# lower-bound constructions


def lb_pairs(mus):
    """Recover the per-axis point pairs of a leave-one-out instance.

    Returns an array of shape (t, 2, t): for each axis, the near point and
    the far point.
    """
    pts = np.unique(np.concatenate([mu.atoms for mu in mus]), axis=0)
    t = pts.shape[1]
    pairs = np.zeros((t, 2, t))
    for i in range(t):
        on_axis = pts[np.argmax(np.abs(pts), axis=1) == i]
        order = np.argsort(np.linalg.norm(on_axis, axis=1))
        pairs[i] = on_axis[order[:2]]
    return pairs


def lb_merge_cost(mus, pair_index: int, p: float = 2.0) -> float:
    """Cost of the solution that merges one point pair into a single atom.

    Every support point carries total mass 1 across the family, so merging
    pair j moves unit mass across the pair gap: cost = ||p_j - q_j||^p,
    measured in the original space.
    """
    pairs = lb_pairs(mus)
    if not 0 <= pair_index < len(pairs):
        raise BadParams(f"pair index {pair_index} out of range")
    gap = np.linalg.norm(pairs[pair_index, 0] - pairs[pair_index, 1])
    return gap**p


def lb_projected_merge(mus, pmap, p: float = 2.0):
    """Pick the pair that is closest after projection; price it both ways.

    Returns ``(pair_index, low_cost, pullback_cost)`` where ``low_cost``
    uses projected coordinates and ``pullback_cost`` re-prices the same
    merge in the original space.  A map that reorders the pair gaps makes
    the pullback jump from (1-C*eps)^p to 1.
    """
    pairs = lb_pairs(mus)
    t = len(pairs)
    proj_gap = np.array([
        np.linalg.norm(pmap(pairs[i, 0])[0] - pmap(pairs[i, 1])[0])
        for i in range(t)
    ])
    j = int(np.argmin(proj_gap))
    return j, float(proj_gap[j] ** p), lb_merge_cost(mus, j, p)


# ---------------------------------------------------------------------------
# matchings


#: largest matching solved by dense Hungarian assignment
SPARSE_THRESHOLD = 2048


def _matching_cost(X: np.ndarray, Y: np.ndarray, p: float):
    """Min-cost perfect matching between equal-size point sets.

    Dense Hungarian assignment up to ``SPARSE_THRESHOLD`` points.  Above
    that, restrict to k-nearest-neighbor candidate edges and solve the
    sparse assignment, doubling k until a perfect matching exists; the
    result is then an upper bound that is empirically within a fraction of
    a percent of optimal.  Returns ``(cost, row_to_col)``.
    """
    n = len(X)
    if n <= SPARSE_THRESHOLD:
        D = cdist(X, Y) ** p
        r, c = linear_sum_assignment(D)
        return float(D[r, c].sum()), c
    tree = cKDTree(Y)
    k = min(128, n)
    while True:
        dist, idx = tree.query(X, k=k)
        rows = np.repeat(np.arange(n), k)
        # +1 offset keeps true zeros distinct from unstored entries; a
        # perfect matching always has exactly n edges so the offset cancels
        graph = csr_matrix(((dist**p + 1.0).ravel(), (rows, idx.ravel())),
                           shape=(n, n))
        try:
            r, c = min_weight_full_bipartite_matching(graph)
        except ValueError:
            if k >= n:
                raise
            k = min(2 * k, n)
            continue
        cost = float(np.linalg.norm(X[r] - Y[c], axis=1) ** p @ np.ones(n))
        return cost, c[np.argsort(r)]


def empirical_matching_distortion(A, B, pmap=None, p: float = 1.0,
                                  high_cost: float | None = None):
    """Price a matching found after projection against the true optimum.

    Solves the optimal matching on the projected points (``low_cost``),
    re-prices those same edges on the original points (``pullback_cost``),
    and compares with the optimal matching in the original space
    (``high_cost``, computable analytically by the caller for structured
    instances).  ``pmap=None`` means no projection.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if len(A) != len(B):
        raise DimensionMismatch(f"|A|={len(A)} vs |B|={len(B)}")
    Ap, Bp = (A, B) if pmap is None else (pmap(A), pmap(B))
    low, col = _matching_cost(Ap, Bp, p)
    pullback = float(np.sum(np.linalg.norm(A - B[col], axis=1) ** p))
    if high_cost is None:
        high_cost, _ = _matching_cost(A, B, p)
    return low, pullback, float(high_cost)


# ---------------------------------------------------------------------------
# exponent-2 reformulations of the objective


def pairwise_cost_p2(sol: Solution, batch: PooledBatch) -> float:
    """p=2 objective from pairwise squared distances only (no barycenter).

    Evaluates, per column j, the double sum of w(x) w(y) ||x - y||^2 over
    the column's weighted points, scaled by 1/(2 k b_j), then averages the
    columns.  Must agree with :func:`solution_cost` at p=2.
    """
    bad = solution_violations(sol, batch)
    if bad:
        raise InvalidSolution("; ".join(bad))
    b = sol.barycenter_weights
    if np.any(b <= 0):
        raise BadWeights("pairwise form requires every barycenter weight > 0")
    k = len(batch.starts)
    total = 0.0
    for j in range(sol.n_atoms):
        rows = np.flatnonzero(sol.flow[:, j])
        w = sol.flow[rows, j]
        sub = batch.points[rows]
        total += (w @ cdist(sub, sub, "sqeuclidean") @ w) / (2.0 * k * b[j])
    return total / k


def verify_low_rank_equivalence(batch, sol, N: int):
    """Check the exponent-2 objective against its Frobenius-norm form.

    Requires every flow entry to be a multiple of 1/N.  Each pooled atom of
    ``batch`` is duplicated once per 1/N unit of flow into a matrix B with
    one row per mass unit; the cluster-indicator projector X with entries
    1/sqrt(cluster size) then satisfies

        (1/N) * ||B - X X^T B||_F^2  =  k * average transport cost.

    Returns ``(frobenius_cost, barycenter_cost, match)``.
    """
    counts = sol.flow * N
    rounded = np.rint(counts)
    off = np.abs(counts - rounded).max(axis=1) > 1e-9 * N
    if off.any():
        raise NotMultipleOfN(
            f"plan {batch.origins[np.argmax(off)]} entries are not multiples of 1/{N}"
        )
    bary = len(batch.starts) * solution_cost(sol, batch, 2.0)
    # one row per unit of every cell, cells in pooled row-major order
    n = rounded.shape[1]
    cells = np.repeat(np.arange(rounded.size), rounded.ravel().astype(np.intp))
    B, assign = batch.points[cells // n], cells % n
    clusters = np.unique(assign)
    X = np.zeros((len(B), len(clusters)))
    for col, j in enumerate(clusters):
        members = assign == j
        X[members, col] = 1.0 / np.sqrt(members.sum())
    frob = np.sum((B - X @ (X.T @ B)) ** 2) / N
    match = abs(frob - bary) <= 1e-9 * (1.0 + abs(bary))
    return float(frob), float(bary), match
