"""Brute-force optimal transport for tiny instances, the tests' reference.

Enumerates every basic feasible solution of the transportation polytope,
which is C(mn, m+n-1) cell subsets, so it is limited to 16 cells.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from baryreduce.transport import TransportPlan, cost_matrix


class TooLarge(ValueError):
    pass


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


def solve_ot_oracle(mu, nu, p: float) -> TransportPlan:
    """Globally optimal plan by enumerating every basic feasible solution.

    Limited to supports with at most 16 cost-matrix cells.
    """
    C = cost_matrix(mu, nu, p)
    m, n = C.shape
    if m * n > 16:
        raise TooLarge(f"oracle limited to 16 cells, got {m}x{n}")
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
