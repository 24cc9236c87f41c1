"""Sensitivity sampling of input distributions for the barycenter objective.

Each input distribution gets an importance score from its transport cost to
a cheap pilot barycenter; distributions are then drawn i.i.d. proportionally
to the scores and reweighted to keep the sampled objective unbiased.

The k inputs may be given as their distinct inputs with a ``multiplicity``
each, the number of the k inputs it stands for (so k is the multiplicities'
sum).  Scores, draws and the full objective are then computed per distinct
input; all-ones multiplicities, the default, are the plain list of k.  A
multiplicity that is not one positive finite count per distinct input
raises :class:`BadWeights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BadParams, BadWeights, DiscreteDistribution, NumericalFailure, PooledBatch,
                   check_exponent)
from .barycenter import SolverOptions, solve_barycenter
from .transport import solve_pooled


@dataclass(frozen=True)
class WeightedCoreset:
    inputs: np.ndarray  # the distinct inputs drawn, ascending positions among them
    lam: np.ndarray     # summed weight of each input's draws (unnormalised)


def pilot_barycenter(batch: PooledBatch, p: float = 2.0) -> DiscreteDistribution:
    """The cheap pilot solution of the pooled inputs that sensitivity scores
    are measured against, on at most as many atoms as the first input has."""
    return solve_barycenter(batch, SolverOptions(support_size=min(
        4, np.count_nonzero(batch.origins == 0)), p=p, max_outer_iters=30, seed=0))[0]


def _multiplicity(multiplicity, n: int) -> np.ndarray:
    """``multiplicity`` of n distinct inputs as floats, or n ones when it is
    None.  One that is not n positive finite counts raises :class:`BadWeights`."""
    if multiplicity is None:
        return np.ones(n)
    m = np.asarray(multiplicity, np.float64)
    if m.shape != (n,) or not np.all((m > 0) & np.isfinite(m)):
        raise BadWeights(f"multiplicity must be {n} positive finite counts")
    return m


def scores_from_costs(costs: np.ndarray, p: float = 2.0, alpha: float = 2.0,
                      multiplicity: np.ndarray | None = None) -> np.ndarray:
    """Per-distribution importance bounds s_i from the costs W(mu_i, pilot)^p.

    With ``avg`` the mean cost over the k inputs, ``(costs * multiplicity).sum()
    / k``, the bound for distribution i is

        alpha * 2^(p-1) * W(mu_i, pilot)^p / avg  +  alpha * 4^(p-1)  +  4^(p-1).

    One score per distinct input is returned; each of its copies has it.
    When every pilot cost is zero (all inputs identical to the pilot) the
    family is exchangeable and the scores collapse to a uniform constant.
    A mean cost or a sum of scores that is not finite (a score overflows at
    a large ``p``) raises :class:`NumericalFailure`.
    """
    check_exponent(p)
    m = _multiplicity(multiplicity, len(costs))
    with np.errstate(over="ignore", invalid="ignore"):
        avg = (costs * m).sum() / m.sum()
        four = np.float64(4.0) ** (p - 1)
        additive = alpha * four + four
        if avg <= 0:
            scores = np.full(len(costs), additive)
        else:
            scores = alpha * np.float64(2.0) ** (p - 1) * costs / avg + additive
        total = (scores * m).sum()
    if not np.isfinite([avg, total]).all():  # a NaN or inf score makes total so
        raise NumericalFailure(f"sensitivity scores are not finite at p={p!r}")
    return scores


def sensitivity_upper_bounds(batch: PooledBatch, p: float = 2.0, alpha: float = 2.0,
                             pilot: DiscreteDistribution | None = None,
                             multiplicity: np.ndarray | None = None) -> np.ndarray:
    """:func:`scores_from_costs` of the cost of every input of ``batch`` to
    ``pilot``, by default :func:`pilot_barycenter` of the batch; each input
    stands for ``multiplicity`` of the k inputs (all ones by default)."""
    if pilot is None:
        pilot = pilot_barycenter(batch, p)
    return scores_from_costs(solve_pooled(batch, pilot, p)[1], p, alpha, multiplicity)


def build_coreset(probabilities: np.ndarray, size: int, seed: int = 0,
                  multiplicity: np.ndarray | None = None) -> WeightedCoreset:
    """Draw ``size`` of the distinct inputs i.i.d. with probabilities q.

    Distinct input i stands for ``multiplicity[i]`` of the k inputs, so q_i
    is multiplicity_i times the probability of each of its copies:
    ``multiplicity * s / (multiplicity * s).sum()`` for sensitivity scores s
    and ``multiplicity / k`` for uniform sampling.  Each draw landing on i
    carries weight multiplicity_i / (size * k * q_i), so the weighted
    objective matches the full average objective in expectation.  The
    coreset keeps the distinct inputs drawn and their summed weights
    lam_i = count_i * multiplicity_i / (size * k * q_i).  With all-ones
    multiplicities, the default, the inputs are the plain list of k.  A q
    that is empty, not one-dimensional, negative, NaN or does not sum to 1
    raises :class:`BadWeights`, as does a multiplicity that is not one
    positive count per input.
    """
    if size < 1:
        raise BadParams("coreset size must be >= 1")
    shape = np.shape(probabilities)
    if len(shape) != 1 or not shape[0]:  # numpy's own messages name its arguments a and p
        raise BadWeights(f"sampling probabilities: q has shape {shape}, not (k,) with k >= 1")
    m = _multiplicity(multiplicity, shape[0])
    try:
        draws = np.random.default_rng(seed).choice(shape[0], size=size, p=probabilities)
    except ValueError as exc:
        raise BadWeights(f"sampling probabilities: {exc}") from None
    inputs, counts = np.unique(draws, return_counts=True)
    return WeightedCoreset(inputs, counts * m[inputs]
                           / (size * m.sum() * probabilities[inputs]))


def coreset_size_bound(n: int, d: int, p: float, eps: float, delta: float,
                       alpha: float = 2.0) -> tuple[float, int]:
    """Worst-case sample size sufficient for a (1 +/- eps) cost estimate.

    Returns the raw value ``alpha * 4^(p-1) * n^8 * d^4 * log(1/delta)
    / eps^2`` and its ceiling, so callers can inspect exact parameter
    scaling before rounding.
    """
    check_exponent(p)
    if eps <= 0 or not (0 < delta < 1):
        raise BadParams("need eps > 0 and delta in (0, 1)")
    raw = alpha * 4.0 ** (p - 1) * n**8 * d**4 * math.log(1.0 / delta) / eps**2
    return raw, math.ceil(raw)


def practical_size_bound(scores: np.ndarray, pseudo_dim: int,
                         eps: float, delta: float) -> tuple[float, int]:
    """Data-dependent variant driven by the realized total sensitivity."""
    if eps <= 0 or not (0 < delta < 1):
        raise BadParams("need eps > 0 and delta in (0, 1)")
    S = scores.sum()
    raw = (S / eps**2) * (pseudo_dim * math.log(S) + math.log(1.0 / delta))
    return raw, max(1, math.ceil(raw))


def evaluate_coreset(coreset: WeightedCoreset, costs: np.ndarray,
                     multiplicity: np.ndarray | None = None):
    """Relative error of the coreset estimate of the average objective.

    ``costs`` holds W_p(mu_i, nu)**p of every distinct input against one
    query ``nu`` (``solve_pooled(batch, nu, p)[1]``), each standing for
    ``multiplicity`` of the k inputs (all ones by default).  Returns a dict
    with the full objective ``(costs * multiplicity).sum() / k``, the
    coreset estimate ``lam @ costs[inputs]`` and the relative error
    (absolute difference when the full objective is zero, flagged by
    ``zero_cost``).
    """
    m = _multiplicity(multiplicity, len(costs))
    full = (costs * m).sum() / m.sum()
    est = coreset.lam @ costs[coreset.inputs]
    if full > 0:
        rel = abs(est - full) / full
        zero = False
    else:
        rel = abs(est - full)
        zero = True
    return {"full_cost": float(full), "coreset_cost": float(est),
            "rel_error": float(rel), "zero_cost": zero}
