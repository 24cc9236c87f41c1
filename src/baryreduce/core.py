"""Shared domain types: weighted point sets, flow-based solutions, cost reports.

A discrete distribution is a finite set of atoms in R^d with nonnegative
weights summing to one.  A solution assigns, for every input distribution,
a flow matrix from its atoms to a common set of barycenter atoms; the
barycenter itself is recoverable from those flows alone.
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
    """Base class for all errors raised by this package."""


class DimensionMismatch(BaryError):
    pass


class BadWeights(BaryError):
    pass


class BadPoints(BaryError):
    pass


class EmptyInput(BaryError):
    pass


class BadExponent(BaryError):
    pass


class BadLambdas(BaryError):
    pass


class BadParams(BaryError):
    pass


class NumericalFailure(RuntimeError):
    """Iteration guard tripped; indicates a solver bug, not bad input."""


class ZeroWeight(BaryError):
    pass


class InvalidSolution(BaryError):
    pass


class BadSize(BaryError):
    pass


class NotMultipleOfN(BaryError):
    pass


class BadMagic(BaryError):
    pass


class TruncatedFile(BaryError):
    pass


class CountMismatch(BaryError):
    pass


class ParseError(BaryError):
    pass


class RaggedRows(BaryError):
    pass


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiscreteDistribution:
    """Weighted finite point set in R^d; weights sum to 1.

    ``atoms`` has shape (T, d), ``weights`` shape (T,).  Instances are
    immutable (the backing arrays are marked read-only) and safe to share.
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
class Solution:
    """Per-distribution flows onto n shared barycenter atoms.

    ``plans[i]`` has shape (T_i, n); entry [t, j] is the mass of atom t of
    distribution i sent to barycenter atom j.  ``barycenter_weights`` is the
    common column-sum vector b of length n.
    """

    plans: tuple
    barycenter_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "plans", tuple(_frozen(p) for p in self.plans))
        object.__setattr__(
            self, "barycenter_weights", _frozen(self.barycenter_weights)
        )

    @property
    def n_atoms(self) -> int:
        return self.barycenter_weights.shape[0]

    @property
    def n_distributions(self) -> int:
        return len(self.plans)


@dataclass
class CostReport:
    total_cost: float
    per_atom_costs: np.ndarray
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


def pooled_atoms(distributions):
    """Concatenate the atoms of all distributions, tagging each with the
    index of its source distribution.  Weights are not renormalized, so the
    pooled weight totals the number of distributions."""
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
    origins = np.repeat(np.arange(len(atoms)), sizes)
    return points, weights, origins


def solution_violations(sol: Solution, distributions, tol: float = WEIGHT_TOL):
    """List every constraint of the solution that fails against the inputs."""
    out = []
    if sol.n_distributions != len(distributions):
        out.append(
            f"{sol.n_distributions} plans for {len(distributions)} distributions"
        )
        return out
    b = sol.barycenter_weights
    for i, (plan, mu) in enumerate(zip(sol.plans, distributions)):
        if plan.shape != (mu.size, b.shape[0]):
            out.append(f"plan {i} has shape {plan.shape}")
            continue
        if np.any(plan < -tol):
            out.append(f"plan {i} has negative entries")
        row_err = np.max(np.abs(plan.sum(axis=1) - mu.weights))
        if row_err > tol:
            out.append(f"plan {i} row sums off by {row_err:.3e}")
        col_err = np.max(np.abs(plan.sum(axis=0) - b))
        if col_err > tol:
            out.append(f"plan {i} column sums off by {col_err:.3e}")
    if abs(b.sum() - 1.0) > tol:
        out.append(f"barycenter weights sum to {float(b.sum())!r}")
    if np.any(b < -tol):
        out.append("negative barycenter weights")
    return out


def validate_solution(sol: Solution, distributions, tol: float = WEIGHT_TOL) -> bool:
    """True iff every flow matrix is a feasible coupling between its
    distribution and the common barycenter weights, at tolerance ``tol``."""
    return not solution_violations(sol, distributions, tol)
