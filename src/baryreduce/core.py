"""Shared domain types: weighted point sets, flow-based solutions, cost reports.

A discrete distribution is a finite set of atoms in R^d with nonnegative
weights summing to one.  A batch of k distributions is pooled once into one
array of all their atoms, input after input (:class:`PooledBatch`); this
module alone decides that row layout.  A solution holds, on the same rows,
one flow array from every pooled atom to a common set of barycenter atoms;
the barycenter itself is recoverable from those flows alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: absolute tolerance for marginal / simplex-feasibility checks
WEIGHT_TOL = 1e-9
#: tolerance for accepting input weight vectors as normalized
NORMALIZATION_TOL = 1e-6
#: atoms lighter than this are treated as mass-free by the exact solver
ZERO_MASS = 1e-15


class BaryError(ValueError):
    """Base class of the errors raised on bad input, one subclass per kind of fault."""


class DimensionMismatch(BaryError):
    pass


class BadWeights(BaryError):
    pass


class BadPoints(BaryError):
    pass


class EmptyInput(BaryError):
    pass


class BadParams(BaryError):
    pass


class InvalidSolution(BaryError):
    pass


class ParseError(BaryError):
    pass


class NumericalFailure(RuntimeError):
    """Iteration guard tripped; indicates a solver bug, not bad input."""


def check_exponent(p: float) -> None:
    """The one rule for an exponent p: finite and >= 1, else (NaN too) :class:`BadParams`."""
    if not 1.0 <= p < np.inf:
        raise BadParams(f"exponent p must be finite and >= 1, got {p}")


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float64 array that no caller can write through:
    an array read-only down to its memory is taken as it is, any other copied."""
    out = base = np.asarray(a, dtype=np.float64, order="C")
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None and (out is a or out.base is not None):  # asarray made no copy
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DiscreteDistribution:
    """Weighted finite point set in R^d; weights sum to 1.

    ``atoms`` has shape (T, d), ``weights`` shape (T,).  Instances are
    immutable and safe to share: each holds read-only arrays that no caller
    can write through, copying an array given to it that a caller could.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", _frozen(self.atoms))
        object.__setattr__(self, "weights", _frozen(self.weights))

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class PooledBatch:
    """The atoms of k distributions pooled into one array, in input order.

    Rows ``starts[i]`` up to ``starts[i + 1]`` of ``points`` are input i's
    atoms and ``origins[r]`` is the input of row r; ``mass`` is the rows'
    weights with atoms lighter than ``ZERO_MASS`` zeroed and each input
    renormalized, the one weight vector every solver reads, and
    ``massive[i]`` counts input i's atoms with mass.
    """

    points: np.ndarray
    origins: np.ndarray
    starts: np.ndarray
    mass: np.ndarray
    massive: np.ndarray


@dataclass(frozen=True)
class Solution:
    """Pooled flows of k distributions onto n shared barycenter atoms.

    ``flow`` has shape (N, n) on the rows of the inputs' :class:`PooledBatch`,
    which alone says which rows are whose plan; entry [r, j] is the mass of
    pooled atom r sent to barycenter atom j.  ``barycenter_weights`` is the
    common column-sum vector b of length n.
    """

    flow: np.ndarray
    barycenter_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "flow", _frozen(self.flow))
        object.__setattr__(self, "barycenter_weights", _frozen(self.barycenter_weights))

    @property
    def n_atoms(self) -> int:
        return self.barycenter_weights.shape[0]


@dataclass
class CostReport:
    total_cost: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def make_distribution(atoms, weights) -> DiscreteDistribution:
    """Validate and build a distribution; weights are renormalized only when
    their sum is already within ``NORMALIZATION_TOL`` of one."""
    try:
        pts = np.asarray(atoms, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatch(f"atoms are ragged: {exc}") from None
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.dtype == object:
        raise DimensionMismatch("atoms must form a (T, d) array")
    w = np.asarray(weights, dtype=np.float64).ravel()
    if pts.shape[0] == 0:
        raise EmptyInput("a distribution needs at least one atom")
    if w.shape[0] != pts.shape[0]:
        raise BadWeights(
            f"{pts.shape[0]} atoms but {w.shape[0]} weights"
        )
    if not np.all(np.isfinite(pts)):
        raise BadPoints("atom coordinates must be finite")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise BadWeights("weights must be finite and nonnegative")
    total = w.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise BadWeights(f"weights sum to {float(total)!r}, not 1")
    return DiscreteDistribution(pts, w / total)


def pool_batch(distributions) -> PooledBatch:
    """Pool the atoms of ``distributions`` (see :class:`PooledBatch`): the one
    place where input weights become masses, so ``mass`` totals the number of inputs."""
    if not distributions:
        raise EmptyInput("no distributions to pool")
    atoms = [mu.atoms for mu in distributions]
    try:
        points = np.concatenate(atoms, axis=0)
    except ValueError:  # numpy names no input; find the first odd one out
        d = distributions[0].dim
        i = next(i for i, mu in enumerate(distributions) if mu.dim != d)
        raise DimensionMismatch(
            f"distribution {i} has dimension {distributions[i].dim}, expected {d}"
        ) from None
    weights = np.concatenate([mu.weights for mu in distributions])
    sizes = np.fromiter(map(len, atoms), np.intp, len(atoms))
    starts = np.cumsum(sizes) - sizes
    origins = np.repeat(np.arange(len(atoms)), sizes)
    mass = np.where(weights > ZERO_MASS, weights, 0.0)
    mass /= np.add.reduceat(mass, starts)[origins]
    massive = np.add.reduceat(mass > 0, starts, dtype=np.intp)
    return PooledBatch(points, origins, starts, mass, massive)


def solution_violations(sol: Solution, batch: PooledBatch):
    """List every constraint of the solution that fails against the pooled
    masses of ``batch``, checking all plans at once, at tolerance ``WEIGHT_TOL``."""
    flow, b, starts = sol.flow, sol.barycenter_weights, batch.starts
    out = []
    if flow.shape != (len(batch.points), b.shape[0]):
        out.append(f"flow has shape {flow.shape}, expected {(len(batch.points), b.shape[0])}")
    else:
        # comparisons are false on NaN, so non-finite entries get a check of their own
        nonfinite = np.logical_or.reduceat(~np.isfinite(flow).all(axis=1), starts)
        negative = np.minimum.reduceat(flow.min(axis=1, initial=0.0), starts) < -WEIGHT_TOL
        row_err = np.maximum.reduceat(np.abs(flow.sum(axis=1) - batch.mass), starts)
        col_err = np.abs(np.add.reduceat(flow, starts) - b).max(axis=1, initial=0.0)
        bad = nonfinite | negative | (row_err > WEIGHT_TOL) | (col_err > WEIGHT_TOL)
        for i in np.flatnonzero(bad).tolist():
            if nonfinite[i]:
                out.append(f"plan {i} has non-finite entries")
            if negative[i]:
                out.append(f"plan {i} has negative entries")
            if row_err[i] > WEIGHT_TOL:
                out.append(f"plan {i} row sums off by {row_err[i]:.3e}")
            if col_err[i] > WEIGHT_TOL:
                out.append(f"plan {i} column sums off by {col_err[i]:.3e}")
    if not np.isfinite(b).all():
        out.append("barycenter weights are not finite")
    if abs(b.sum() - 1.0) > WEIGHT_TOL:
        out.append(f"barycenter weights sum to {float(b.sum())!r}")
    if np.any(b < -WEIGHT_TOL):
        out.append("negative barycenter weights")
    return out
