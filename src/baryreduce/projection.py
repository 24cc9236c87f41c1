"""Randomized linear maps for dimensionality reduction of transport instances.

Two families: dense Gaussian matrices, and subsampled randomized Hadamard
transforms (sign flip, Hadamard transform, then a uniform sample of
coordinates rescaled to keep distances unbiased), both stored as a matrix
and applied as one product.  The target dimension comes from one of three
policies trading the exponent's influence against the number of pooled
atoms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    BadParams,
    DimensionMismatch,
    DiscreteDistribution,
    PooledBatch,
    make_distribution,
    pool_batch,
)
from .barycenter import (
    SolverOptions,
    reconstruct_barycenter,
    solve_barycenter,
    support_cost,
)

_POLICIES = ("p2", "kirszbraun", "optimal")


def jl_dimension(n: int, eps: float, delta: float, p: float,
                 policy: str = "optimal", k: int | None = None) -> int:
    """Target dimension for the chosen distortion policy.

    ``p2``          ln(nk/delta) / eps^2          (exponent 2 only)
    ``kirszbraun``  p^2 ln(nk/delta) / eps^2
    ``optimal``     p^4 ln(n/(eps delta)) / eps^2

    ``k`` (number of input distributions) is required for the first two.
    Returns ``ceil(f)``, at least 1; an ``f`` that is not finite raises
    :class:`BadParams`.
    """
    if policy not in _POLICIES:
        raise BadParams(f"unknown policy {policy!r}; expected one of {_POLICIES}")
    if not (0 < eps < 1) or not (0 < delta < 1):
        raise BadParams("eps and delta must lie in (0, 1)")
    if n < 2:
        raise BadParams("n must be at least 2")
    if not 1 <= p < math.inf:
        raise BadParams(f"exponent must be finite and >= 1, got {p}")
    if policy == "p2" and p != 2:
        raise BadParams("policy 'p2' only applies to exponent 2")
    if policy != "optimal" and k is None:
        raise BadParams(f"policy {policy!r} needs the number of distributions k")
    try:
        if policy == "p2":
            f = math.log(n * k / delta) / eps**2
        elif policy == "kirszbraun":
            f = p**2 * math.log(n * k / delta) / eps**2
        else:
            f = p**4 * math.log(n / (eps * delta)) / eps**2
    except (OverflowError, ZeroDivisionError):  # p**4 overflows, eps**2 underflows
        f = math.inf
    if not math.isfinite(f):
        raise BadParams(f"dimension not finite at eps={eps}, delta={delta}, p={p}")
    return max(1, math.ceil(f))


@dataclass(frozen=True)
class ProjectionMap:
    """A fixed linear map R^d -> R^m, applied row-wise to point arrays."""

    kind: str
    d: int
    m: int
    matrix: np.ndarray | None = None  # (m, d); None for the identity

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.d:
            raise DimensionMismatch(
                f"map expects dimension {self.d}, got {points.shape[1]}"
            )
        if self.kind == "identity":
            return points.copy()
        return points @ self.matrix.T


def make_gaussian_map(d: int, m: int, seed: int = 0) -> ProjectionMap:
    """Dense map with i.i.d. N(0, 1/m) entries."""
    if m < 1 or d < 1:
        raise BadParams("dimensions must be positive")
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, d)) / math.sqrt(m)
    return ProjectionMap("gaussian", d, m, matrix=mat)


def make_srht_map(d: int, m: int, seed: int = 0) -> ProjectionMap:
    """Subsampled randomized Hadamard map with exactly ``m`` output coords.

    Pads to the next power of two, flips signs, applies the orthonormal
    Hadamard transform, keeps ``m`` distinct coordinates chosen uniformly
    and rescales by sqrt(d_pad / m) so squared norms are unbiased.  The map
    is stored as its (m, d) matrix: only the kept Hadamard columns
    H[i, j] = (-1)^popcount(i & j) of the d unpadded rows, built bit by bit
    in O(d m) memory.
    """
    if m < 1 or d < 1:
        raise BadParams("dimensions must be positive")
    d_pad = 1 << (d - 1).bit_length()
    if m > d_pad:
        raise BadParams(f"m={m} exceeds padded dimension {d_pad}")
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=d_pad)
    both = np.arange(d)[:, None] & np.sort(rng.choice(d_pad, size=m, replace=False))
    parity = np.zeros_like(both)
    for bit in range(d_pad.bit_length()):
        parity ^= both >> bit
    # sqrt(d_pad / m) / sqrt(d_pad): the rescaling times the orthonormal factor
    mat = signs[:d, None] * (1.0 - 2.0 * (parity & 1)) / math.sqrt(m)
    return ProjectionMap("srht", d, m, matrix=mat.T)


def identity_map(d: int) -> ProjectionMap:
    return ProjectionMap("identity", d, d)


def project_instance(batch: PooledBatch, pmap: ProjectionMap):
    """Push every pooled input through the map, keeping its weights.

    The map runs once on the pooled atoms, one matrix product in place of
    one per input, and each input's rows become one distribution.
    """
    low = pmap(batch.points)
    ends = [*batch.starts[1:].tolist(), len(low)]
    return [make_distribution(low[s:e], batch.weights[s:e])
            for s, e in zip(batch.starts.tolist(), ends)]


@dataclass(frozen=True)
class ReductionResult:
    nu_low: DiscreteDistribution
    nu_high: DiscreteDistribution
    solution: object
    cost_low: float
    cost_high: float
    time_project: float
    time_solve: float
    time_reconstruct: float


def reduce_solve_reconstruct(mus, pmap: ProjectionMap,
                             opts: SolverOptions) -> ReductionResult:
    """Project, solve in the low dimension, lift the flows back.

    The reconstructed barycenter reuses the low-dimensional transport plans
    unchanged: each atom is re-fitted in the original space against the
    mass its column received.  ``cost_low`` is the solver's objective in
    R^m; ``cost_high`` re-prices the same plans in R^d.  The inputs are
    pooled once, for the projection, the lift and the pricing.
    """
    t0 = time.perf_counter()
    batch = pool_batch(mus)
    low = project_instance(batch, pmap)
    t1 = time.perf_counter()
    nu_low, sol, rep = solve_barycenter(low, opts)
    t2 = time.perf_counter()
    nu_high = reconstruct_barycenter(sol, batch, opts.p)
    cost_high = support_cost(sol, batch, nu_high, opts.p)
    t3 = time.perf_counter()
    return ReductionResult(nu_low, nu_high, sol, rep.total_cost, cost_high,
                           t1 - t0, t2 - t1, t3 - t2)


MAP_MAKERS = {"gaussian": make_gaussian_map, "srht": make_srht_map}


def cost_ratio_sweep(mus, m_values, opts: SolverOptions, map_kind: str = "gaussian",
                     trials: int = 5, master_seed: int = 0):
    """Quality/runtime profile of the reduction over target dimensions.

    For each ``m`` runs ``trials`` independent maps (seeds mixed from the
    master seed so cells are reproducible in isolation) and records the
    ratio of the lifted cost to the full-dimensional one, which must not be
    0.  Returns per-``m`` dicts with the ratios, lifted costs and wall times.
    """
    if map_kind not in MAP_MAKERS:
        raise BadParams(f"unknown map kind {map_kind!r}")
    if any(m < 1 for m in m_values):  # before m seeds a map
        raise BadParams("dimensions must be positive")
    d = mus[0].dim
    t0 = time.perf_counter()
    _, _, rep = solve_barycenter(mus, opts)
    reference_time = time.perf_counter() - t0
    reference_cost = rep.total_cost
    if reference_cost == 0:
        raise BadParams("full-dimensional cost is 0, so no cost ratio is defined")

    def run_cell(m, trial):
        seed = int(np.random.SeedSequence([master_seed, m, trial])
                   .generate_state(1)[0])
        pmap = MAP_MAKERS[map_kind](d, m, seed)
        return reduce_solve_reconstruct(mus, pmap, opts)

    rows = []
    for m in m_values:
        results = [run_cell(m, t) for t in range(trials)]
        ratios = [r.cost_high / reference_cost for r in results]
        costs = [r.cost_high for r in results]
        times = [r.time_project + r.time_solve + r.time_reconstruct
                 for r in results]
        rows.append({
            "m": int(m),
            "ratios": ratios,
            "mean_ratio": float(np.mean(ratios)),
            "max_ratio": float(np.max(ratios)),
            "costs": costs,
            "mean_time": float(np.mean(times)),
        })
    return {"reference_cost": float(reference_cost),
            "reference_time": reference_time, "rows": rows}
