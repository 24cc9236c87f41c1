"""Free-support barycenter solver with a fixed number of support atoms.

Alternates between (a) exact transport from every input distribution to the
current support and (b) per-atom support updates: weighted mean for p=2,
Weiszfeld's fixed point for p=1, and damped gradient descent with
backtracking for other exponents.  The support moves to the fitted atoms
only when they price below the objective, so the objective never rises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BadParams,
    BadWeights,
    CostReport,
    DiscreteDistribution,
    InvalidSolution,
    NumericalFailure,
    PooledBatch,
    Solution,
    check_exponent,
    solution_violations,
)
from .transport import TransportModel, _distances, pooled_costs

#: the alternation stops once an outer iteration gains at most this fraction
_REL_TOL = 1e-7
#: relative stop rule and iteration cap of the iterative support updates
_INNER_TOL = 1e-9
_INNER_MAX_ITERS = 500


@dataclass(frozen=True)
class SolverOptions:
    support_size: int = 4
    p: float = 2.0
    max_outer_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.support_size < 1:
            raise BadParams("support_size must be >= 1")
        check_exponent(self.p)
        if self.max_outer_iters < 1:
            raise BadParams("max_outer_iters must be >= 1")


def _weiszfeld_step(points, weights, y):
    """``(y_next, done)``: the next Weiszfeld iterate for the weighted
    geometric median, or the median itself with ``done`` set.

    At a data point of weight eta the Weiszfeld map is undefined, and the
    step is the modified one of Vardi and Zhang (PNAS 2000) over the other
    points: with r = |sum w_i (x_i - y) / |x_i - y||, the point is the
    median if r <= eta, and otherwise the step goes to
    (1 - eta/r) T(y) + (eta/r) y, which lowers the objective.
    """
    diff = points - y
    dist = np.linalg.norm(diff, axis=1)
    at = dist < 1e-14
    if not at.any():
        inv = weights / dist
        return points.T @ inv / inv.sum(), False
    rest = ~at
    if not rest.any():
        return points[np.argmax(at)], True
    inv = weights[rest] / dist[rest]
    eta, r = weights[at].sum(), np.linalg.norm(inv @ diff[rest])
    if r <= eta:
        return points[np.argmax(at)], True
    return (1.0 - eta / r) * (points[rest].T @ inv / inv.sum()) + eta / r * y, False


def update_support_atom(points: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """Minimize sum_i w_i ||x_i - y||^p over y.

    p=2 is the weighted mean in closed form; p=1 is the weighted median on
    a line and otherwise runs Weiszfeld iterations for the weighted
    geometric median (see :func:`_weiszfeld_step`), returning a median at a
    data point exactly; other p >= 1 use gradient descent with backtracking
    line search on the convex objective, which no scale and no p makes
    overflow; both stop at ``_INNER_TOL`` relative or after
    ``_INNER_MAX_ITERS`` steps.  Points of zero weight are
    dropped first, so they affect neither the result nor the stop rules;
    callers pass a column's flow rows only.
    """
    check_exponent(p)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64).ravel()
    total = weights.sum()
    if total <= 0:
        raise BadWeights("support update needs positive total weight")
    if not weights.all():
        rows = np.flatnonzero(weights)
        points, weights = points[rows], weights[rows]
    if p == 2.0:
        return points.T @ weights / total

    if p == 1.0 and points.shape[1] == 1:  # on a line: the weighted median
        order = np.argsort(points[:, 0], kind="stable")
        cum = np.cumsum(weights[order])
        return points[order[np.searchsorted(cum, cum[-1] / 2)]]
    y = points.T @ weights / total  # weighted mean start
    if p == 1.0:
        radius = float(np.linalg.norm(points - y, axis=1).max())
        for _ in range(_INNER_MAX_ITERS):
            y_next, done = _weiszfeld_step(points, weights, y)
            if done:
                return y_next
            step, y = np.linalg.norm(y_next - y), y_next
            if step <= _INNER_TOL * radius:
                break
        # Weiszfeld creeps towards a median at a data point, linearly at
        # best: the nearest data point is the exact median if it passes the test
        x = points[np.argmin(np.linalg.norm(points - y, axis=1))]
        x, done = _weiszfeld_step(points, weights, x)
        return x if done else y

    # The descent runs on the points centred on the start over their largest
    # distance to it, weights over their total, in units of the current
    # largest distance ``scale``: objective scale^p f, gradient p scale^(p-1) g
    # with |g| <= 1.  A step of at most ``cap`` scales keeps each distance
    # ratio it raises to p within 1 + cap, so (1 + cap)^p <= 4 bounds each term.
    radius = np.linalg.norm(points - y, axis=1).max()
    u, w = (points - y) / (radius or 1.0), weights / total
    z = np.zeros_like(y)
    cap = 1.0 / max(p - 1.0, 1.0)
    step = np.inf
    for _ in range(_INNER_MAX_ITERS):
        diff = z - u
        dist = np.linalg.norm(diff, axis=1)
        scale = dist.max() or 1.0  # 0 once z sits on every point, where g = 0
        f = w @ (dist / scale) ** p
        g = (w * np.maximum(dist / scale, 1e-14) ** (p - 2.0)) @ diff / scale
        gnorm = np.linalg.norm(g)
        if gnorm <= _INNER_TOL * f / p:
            break
        step = min(step * 2.0, cap)
        while True:
            z_try = z - step * scale * g
            f_try = w @ (np.linalg.norm(u - z_try, axis=1) / scale) ** p
            if f_try <= f - 0.25 * (step * p) * gnorm**2 or step * p < 1e-18:
                break
            step *= 0.5
        z = z_try
        if f - f_try <= _INNER_TOL * f:
            break
    return y + radius * z


def _fit_columns(points, flow, support, p: float) -> np.ndarray:
    """A copy of ``support`` with each atom re-fitted on its column of
    ``flow``; a column without mass keeps its atom."""
    fits = support.copy()
    for j in range(len(support)):
        rows = np.flatnonzero(flow[:, j])  # a basic plan leaves most rows without flow
        w = flow[rows, j]
        if w.sum() > 0:
            fits[j] = update_support_atom(points[rows], w, p)
    return fits


def reconstruct_barycenter(sol: Solution, batch: PooledBatch, p: float) -> DiscreteDistribution:
    """Rebuild the barycenter in the ambient space of ``batch`` from the flows:
    each atom fitted on its column's flow rows, as in the solver's support
    step.  A column carrying no mass degenerates to a zero-weight atom at
    the origin."""
    bad = solution_violations(sol, batch)
    if bad:
        raise InvalidSolution("; ".join(bad))
    origin = np.zeros((sol.n_atoms, batch.points.shape[1]))
    return DiscreteDistribution(_fit_columns(batch.points, sol.flow, origin, p),
                                sol.barycenter_weights)


def solution_cost(sol: Solution, batch: PooledBatch, p: float) -> float:
    """Objective value of a solution after rebuilding its barycenter."""
    return support_cost(sol, batch, reconstruct_barycenter(sol, batch, p), p)


def support_cost(sol: Solution, batch: PooledBatch, nu: DiscreteDistribution,
                 p: float) -> float:
    """Objective value of a solution's plans priced against the atoms of
    ``nu``, by the rule that prices the solver's own plans.  A price that
    is not finite raises :class:`NumericalFailure`."""
    check_exponent(p)
    costs = pooled_costs(sol.flow, _distances(batch.points, nu.atoms, p), batch.starts)
    cost = sum(costs.tolist()) / len(batch.starts)
    if not np.isfinite(cost):
        raise NumericalFailure("support costs are not finite")
    return cost


def _init_support(points, mass, n: int, rng) -> np.ndarray:
    """``n`` rows of ``points`` drawn by ``mass``, distinct while rows with mass last."""
    prob = mass / mass.sum()
    take = min(n, np.count_nonzero(mass))
    idx = rng.choice(len(points), size=take, replace=False, p=prob)
    if n > take:  # more atoms requested than rows with mass: duplicate
        idx = np.concatenate([idx, rng.choice(len(points), size=n - take, p=prob)])
    return points[idx]


def solve_barycenter(batch: PooledBatch, opts: SolverOptions):
    """Alternating minimization for the barycenter objective of the pooled
    inputs of ``batch``, with barycenter weights fixed at 1/n.

    Returns ``(nu, solution, report)``; ``report.trace`` holds the objective
    after each transport step.  A support step fits every column's atom on
    its flow rows, and the solver moves to the fitted support only when its
    price on the current flows, by the rule of the trace and of
    :func:`support_cost`, is below the objective; otherwise, or once an outer
    iteration gains at most ``_REL_TOL``, it has converged.  A transport step
    that prices above that candidate price keeps the previous flows and
    their price if the excess is rounding (1e-9 relative) and raises
    :class:`NumericalFailure` otherwise.  So the trace decreases strictly,
    and ``report.total_cost``, its last entry, prices the solution on ``nu``.
    One :class:`TransportModel` solves every transport step, each from the
    last basis, and each support's distances are computed once: they price
    it as the candidate and feed the transport step that moves to it.
    """
    k = len(batch.starts)
    n = opts.support_size
    rng = np.random.default_rng(opts.seed)
    support = _init_support(batch.points, batch.mass, n, rng)
    b = np.full(n, 1.0 / n)
    b.setflags(write=False)  # shared by the barycenter and the solution, uncopied

    model = TransportModel(batch, b)  # successive iterations start from its last basis
    C = _distances(batch.points, support, opts.p)  # of ``support``
    trace = []
    prev_obj = price = np.inf  # price: of ``support`` on the last flows
    while True:
        stacked, costs = model.solve(C)  # (sum T_i, n) flows
        obj = sum(costs.tolist()) / k  # as support_cost prices it
        if obj <= price:
            flow = stacked
        elif obj <= price + 1e-9 * abs(price):  # rounding: keep the last flows
            obj = price
        else:
            raise NumericalFailure(
                f"alternation objective increased at outer iteration {len(trace) + 1}: "
                f"{price!r} -> {obj!r}")
        trace.append(obj)
        converged = prev_obj - obj <= _REL_TOL * abs(obj)
        if not converged:
            fits = _fit_columns(batch.points, flow, support, opts.p)
            C_fit = _distances(batch.points, fits, opts.p)
            price = sum(pooled_costs(flow, C_fit, batch.starts).tolist()) / k  # priced as obj
            converged = not price < obj  # the fitted support would not lower the objective
        if converged or len(trace) == opts.max_outer_iters:
            break
        support, C, prev_obj = fits, C_fit, obj

    flow.setflags(write=False)  # the solution takes it uncopied
    return (DiscreteDistribution(support, b), Solution(flow, b),
            CostReport(float(obj), len(trace), converged, trace))
