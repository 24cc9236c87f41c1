"""Sensitivity sampling of input distributions for the barycenter objective.

Each input distribution gets an importance score from its transport cost to
a cheap pilot barycenter; distributions are then drawn i.i.d. proportionally
to the scores and reweighted to keep the sampled objective unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BadSize, BadWeights, DiscreteDistribution, NumericalFailure,
                   PooledBatch, pool_batch)
from .barycenter import SolverOptions, solve_barycenter
from .transport import solve_pooled


@dataclass(frozen=True)
class WeightedCoreset:
    inputs: np.ndarray  # distinct sampled positions into the original list, ascending
    lam: np.ndarray     # summed weight of each input's draws (unnormalised)


def pilot_barycenter(batch: PooledBatch, p: float = 2.0) -> DiscreteDistribution:
    """The cheap pilot solution of the pooled inputs that sensitivity scores
    are measured against, on at most as many atoms as the first input has."""
    return solve_barycenter(batch, SolverOptions(support_size=min(
        4, np.count_nonzero(batch.origins == 0)), p=p, max_outer_iters=30, seed=0))[0]


def scores_from_costs(costs: np.ndarray, p: float = 2.0,
                      alpha: float = 2.0) -> np.ndarray:
    """Per-distribution importance bounds s_i from the costs W(mu_i, pilot)^p.

    With ``avg`` the mean cost, the bound for distribution i is

        alpha * 2^(p-1) * W(mu_i, pilot)^p / avg  +  alpha * 4^(p-1)  +  4^(p-1).

    When every pilot cost is zero (all inputs identical to the pilot) the
    family is exchangeable and the scores collapse to a uniform constant.
    A mean cost or a sum of scores that is not finite (a score overflows at
    a large ``p``) raises :class:`NumericalFailure`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        avg = costs.mean()
        four = np.float64(4.0) ** (p - 1)
        additive = alpha * four + four
        if avg <= 0:
            scores = np.full(len(costs), additive)
        else:
            scores = alpha * np.float64(2.0) ** (p - 1) * costs / avg + additive
        total = scores.sum()
    if not np.isfinite([avg, total]).all():  # a NaN or inf score makes total so
        raise NumericalFailure(f"sensitivity scores are not finite at p={p!r}")
    return scores


def sensitivity_upper_bounds(mus, p: float = 2.0, alpha: float = 2.0,
                             pilot: DiscreteDistribution | None = None) -> np.ndarray:
    """:func:`scores_from_costs` of every input's cost to ``pilot``, by
    default :func:`pilot_barycenter` of the inputs, pooled once for both."""
    batch = pool_batch(mus)
    if pilot is None:
        pilot = pilot_barycenter(batch, p)
    return scores_from_costs(solve_pooled(batch, pilot, p)[1], p, alpha)


def build_coreset(probabilities: np.ndarray, size: int,
                  seed: int = 0) -> WeightedCoreset:
    """Draw ``size`` of the k inputs i.i.d. with probabilities q.

    q is ``scores / scores.sum()`` for sensitivity sampling and
    ``np.full(k, 1 / k)`` for uniform sampling.  Each draw landing on index i
    carries weight 1 / (size * k * q_i), so the weighted objective matches
    the full average objective in expectation.  The coreset keeps the
    distinct indices drawn and their summed weights
    lam_i = count_i / (size * k * q_i).  A q that is empty, not
    one-dimensional, negative, NaN or does not sum to 1 raises
    :class:`BadWeights`.
    """
    if size < 1:
        raise BadSize("coreset size must be >= 1")
    shape = np.shape(probabilities)
    if len(shape) != 1 or not shape[0]:  # numpy's own messages name its arguments a and p
        raise BadWeights(f"sampling probabilities: q has shape {shape}, not (k,) with k >= 1")
    k = len(probabilities)
    try:
        draws = np.random.default_rng(seed).choice(k, size=size, p=probabilities)
    except ValueError as exc:
        raise BadWeights(f"sampling probabilities: {exc}") from None
    inputs, counts = np.unique(draws, return_counts=True)
    return WeightedCoreset(inputs, counts / (size * k * probabilities[inputs]))


def coreset_size_bound(n: int, d: int, p: float, eps: float, delta: float,
                       alpha: float = 2.0) -> tuple[float, int]:
    """Worst-case sample size sufficient for a (1 +/- eps) cost estimate.

    Returns the raw value ``alpha * 4^(p-1) * n^8 * d^4 * log(1/delta)
    / eps^2`` and its ceiling, so callers can inspect exact parameter
    scaling before rounding.
    """
    if eps <= 0 or not (0 < delta < 1):
        raise BadSize("need eps > 0 and delta in (0, 1)")
    raw = alpha * 4.0 ** (p - 1) * n**8 * d**4 * math.log(1.0 / delta) / eps**2
    return raw, math.ceil(raw)


def practical_size_bound(scores: np.ndarray, pseudo_dim: int,
                         eps: float, delta: float) -> tuple[float, int]:
    """Data-dependent variant driven by the realized total sensitivity."""
    if eps <= 0 or not (0 < delta < 1):
        raise BadSize("need eps > 0 and delta in (0, 1)")
    S = scores.sum()
    raw = (S / eps**2) * (pseudo_dim * math.log(S) + math.log(1.0 / delta))
    return raw, max(1, math.ceil(raw))


def evaluate_coreset(coreset: WeightedCoreset, costs: np.ndarray):
    """Relative error of the coreset estimate of the average objective.

    ``costs`` holds W_p(mu_i, nu)**p of every input against one query ``nu``
    (see :func:`transport_costs`).  Returns a dict with the full objective,
    the coreset estimate ``lam @ costs[inputs]`` and the relative error
    (absolute difference when the full objective is zero, flagged by
    ``zero_cost``).
    """
    full = costs.mean()
    est = coreset.lam @ costs[coreset.inputs]
    if full > 0:
        rel = abs(est - full) / full
        zero = False
    else:
        rel = abs(est - full)
        zero = True
    return {"full_cost": float(full), "coreset_cost": float(est),
            "rel_error": float(rel), "zero_cost": zero}
