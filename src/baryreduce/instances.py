"""Synthetic instance generators, dataset ingestion, and structural checks.

Includes the hard instances used to probe when projection can fail (near-tied
point pairs, scaled simplex matchings, graded level sets), a one-outlier
family for importance sampling, a CSV loader, and the reformulation of the
exponent-2 objective as a low-rank Frobenius approximation.
"""

from __future__ import annotations

import csv as _csv
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .core import (
    BadParams,
    BadWeights,
    BaryError,
    CountMismatch,
    DiscreteDistribution,
    NotMultipleOfN,
    ParseError,
    RaggedRows,
    make_distribution,
)
from .barycenter import solution_cost


# ---------------------------------------------------------------------------
# lower-bound constructions


def gen_lb_barycenter(t: int, N: float, C: float, eps: float, p: float = 2.0):
    """Family of 2t leave-one-out distributions over t near-tied point pairs.

    The support holds, on each axis i < t, the pair N e_i and (N+1) e_i at
    distance 1, plus on axis t the slightly closer pair N e_t and
    (N+1-C*eps) e_t.  Distribution i is uniform over the support minus its
    i-th point.  Merging the close pair moves unit mass a distance 1-C*eps,
    so the intended optimum costs (1-C*eps)^p; merging any other pair costs
    1.  Returns ``(distributions, expected_opt_cost, n)`` with n = 2t-1.
    """
    if t < 2:
        raise BadParams("need t >= 2")
    if N < 2:
        raise BadParams("need N >= 2 so pairs are far from the origin")
    if not (0 < C * eps < 1):
        raise BadParams("need 0 < C*eps < 1")
    if not p >= 1:
        raise BadParams(f"need p >= 1, got {p}")
    S = np.zeros((2 * t, t))
    for i in range(t):
        S[2 * i, i] = N
        S[2 * i + 1, i] = N + 1 if i < t - 1 else N + 1 - C * eps
    k = 2 * t
    w = np.full(k - 1, 1.0 / (k - 1))
    mus = []
    for drop in range(k):
        keep = np.delete(np.arange(k), drop)
        mus.append(make_distribution(S[keep], w))
    return mus, (1.0 - C * eps) ** p, k - 1


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


def gen_ot_pair(d: int):
    """Two d-point sets mixing unit basis vectors with their half-scalings.

    A and B split {e_i} and {e_i/2} so that e_i's side alternates with the
    parity of i and e_i/2 always sits opposite e_i.  The optimal matching
    in R^d pairs each e_i with e_i/2 for total cost M = d/2 at exponent 1.
    """
    if d < 2 or d % 2:
        raise BadParams("need even d >= 2")
    E = np.eye(d)
    A = np.concatenate([E[0::2], E[1::2] / 2.0])
    B = np.concatenate([E[1::2], E[0::2] / 2.0])
    return A, B, d / 2.0


def gen_pullback(d: int, C: int):
    """Graded level sets e_i * k/C with alternating set membership.

    For each axis there are C points at heights 1/C, 2/C, ..., 1; adjacent
    levels alternate between A and B, and the starting side alternates with
    the axis so each set holds half of the top-level points.  Matching
    adjacent levels costs 1/C per edge, C/2 edges per axis: reported as
    d/2 total.
    """
    if d < 2 or d % 2:
        raise BadParams("need even d >= 2")
    if C < 2 or C % 2:
        raise BadParams("need even C >= 2")
    A, B = [], []
    for i in range(d):
        for level in range(1, C + 1):
            point = np.zeros(d)
            point[i] = level / C
            side = (level + i) % 2
            (A if side == 0 else B).append(point)
    return np.array(A), np.array(B), d / 2.0


def coreset_synthetic_family(k: int):
    """The one-outlier family of :func:`gen_coreset_synthetic` as its two
    distinct inputs and ``slot``: input i is ``distinct[slot[i]]``.  No
    k-long list is built."""
    if k < 2:
        raise BadParams("need k >= 2")
    zero = make_distribution(np.zeros((1, 1)), np.array([1.0]))
    outlier = make_distribution(np.array([[float(k)]]), np.array([1.0]))
    slot = np.zeros(k, dtype=np.intp)
    slot[-1] = 1
    return [zero, outlier], slot


def gen_coreset_synthetic(k: int):
    """k single-atom distributions on the line: k-1 at zero, one at x=k.
    The k-1 zeros are one object."""
    (zero, outlier), _ = coreset_synthetic_family(k)
    return [zero] * (k - 1) + [outlier]


def gen_blob_classes(n_classes: int = 10, per_class: int = 50, dim: int = 64,
                     spread: float = 0.3, seed: int = 0):
    """Gaussian blobs standing in for an image-digit dataset.

    Class centers are random unit-ish vectors; points are center + noise.
    Returns ``(points, labels)`` ready for :func:`group_by_label`.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    pts = np.repeat(centers, per_class, axis=0)
    pts = pts + spread * rng.standard_normal(pts.shape)
    labels = np.repeat(np.arange(n_classes), per_class)
    return pts, labels


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
        raise CountMismatch(f"|A|={len(A)} vs |B|={len(B)}")
    Ap, Bp = (A, B) if pmap is None else (pmap(A), pmap(B))
    low, col = _matching_cost(Ap, Bp, p)
    pullback = float(np.sum(np.linalg.norm(A - B[col], axis=1) ** p))
    if high_cost is None:
        high_cost, _ = _matching_cost(A, B, p)
    return low, pullback, float(high_cost)


# ---------------------------------------------------------------------------
# CSV ingestion


def group_by_label(points, labels):
    """One uniform distribution per distinct label."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if len(points) != len(labels):
        raise CountMismatch(f"{len(points)} points vs {len(labels)} labels")
    out = []
    for lab in np.unique(labels):
        cls = points[labels == lab]
        out.append(make_distribution(cls, np.full(len(cls), 1.0 / len(cls))))
    return out


def _fields(path, lineno, line):
    """The fields of line ``lineno`` of a CSV file.  A line holding a quote is
    split by the ``csv`` module, and its quoted fields must close on that line."""
    if '"' not in line:
        return line.split(",")
    try:
        fields = next(_csv.reader([line if line.endswith("\n") else line + "\n"]))
    except _csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(f"{path}:{lineno}: {exc}") from None
    if fields[-1].endswith("\n"):  # the csv module keeps an open field's newline
        raise ParseError(f"{path}:{lineno}: quoted field spans lines")
    return fields


def _non_numeric(values):
    """Whether some field of ``values`` is not a float."""
    try:
        list(map(float, values))
    except ValueError:
        return True
    return False


def _row_error(path, lineno, line, width):
    """The error for the data row on line ``lineno`` that ``np.loadtxt``
    refused or would skip: a non-numeric field, no coordinates, or a field
    count unlike the first row's ``width`` (fields after the key)."""
    values = _fields(path, lineno, line)[1:]
    if not _non_numeric(values):
        if len(values) < 2:
            return ParseError(f"{path}:{lineno}: need dist_id, w, coords")
        if len(values) != width:
            return RaggedRows(
                f"{path}:{lineno}: {len(values) - 1} coords, expected {width - 1}")
    # loadtxt refuses some fields float() takes, such as 1_000
    return ParseError(f"{path}:{lineno}: non-numeric field")


def _csv_rows(path):
    """Keys and numeric block of a CSV file, parsed by one ``np.loadtxt`` call.

    The file's lines stream into ``np.loadtxt`` one at a time, each with its
    key split off, so the text is never held whole.  A first line with a
    non-numeric field after its key is a header; blank lines are skipped.
    ``np.loadtxt`` pulls one line at a time, so the row it refuses is the
    last line handed to it, and only that line is read again to name the
    error.  Universal newlines end the lines.
    """
    keys, last = [], [0, ""]  # the number and text of the last line handed on

    def rests(lines):
        for lineno, line in enumerate(lines, start=1):
            if lineno == 1 and _non_numeric(_fields(path, 1, line)[1:]):
                continue  # a header
            if '"' in line:
                key, *values = _fields(path, lineno, line)
                if not values and not key.strip():
                    continue  # a blank line in quotes
                rest = ",".join(values)
                if rest.count(",") >= len(values):  # no value, or one holding a comma
                    raise _row_error(path, lineno, line, None)
            elif line.isspace():
                continue
            else:
                key, _, rest = line.partition(",")
            if rest in ("", "\n"):  # loadtxt skips an empty row
                raise _row_error(path, lineno, line, None)
            last[:] = lineno, line
            keys.append(key.strip())
            yield rest

    with open(path, encoding="utf-8-sig") as fh:
        try:
            rows = rests(fh)
            first = next(rows, None)
            if first is None:  # loadtxt warns on a stream without rows
                return [], None
            width = first.count(",") + 1
            if width < 2:  # no coordinates in the first row
                raise _row_error(path, *last, width)
            block = np.loadtxt(chain([first], rows), delimiter=",", comments=None, ndmin=2)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except BaryError:
            raise
        except ValueError:  # loadtxt refused the last line handed to it
            raise _row_error(path, *last, width) from None
    return keys, block


def load_csv_distributions(path):
    """Rows ``dist_id, weight, x_1, ..., x_d`` grouped into distributions.

    An optional non-numeric first row is treated as a header.  Weights of
    each group must sum to 1 within 1e-6 (then renormalized exactly).
    Groups come in the order their ids first appear.  A leading UTF-8
    byte-order mark is dropped.  The file streams line by line into one
    numpy call, so a load holds about its numeric block, never the text; a
    line holding a quote is split by the ``csv`` module, and a malformed row
    is named by its line.  Coordinates and weights are checked for the whole
    block at once; the first group at fault, in order, raises what
    :func:`make_distribution` would.
    """
    keys, block = _csv_rows(path)
    if not keys:
        return []
    first_seen: dict[str, int] = {}
    group = np.fromiter((first_seen.setdefault(key, len(first_seen)) for key in keys),
                        np.intp, len(keys))
    order = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[order], np.arange(len(first_seen)))
    weights, atoms = block[order, 0], block[order, 1:]  # rows of a group adjacent
    malformed = np.logical_or.reduceat(
        ~np.isfinite(atoms).all(axis=1) | ~np.isfinite(weights) | (weights < 0), starts)
    out = []
    for key, start, end, bad in zip(first_seen, starts.tolist(),
                                    [*starts[1:].tolist(), len(keys)], malformed.tolist()):
        w = weights[start:end]
        total = w.sum()
        if abs(total - 1.0) > 1e-6:
            raise BadWeights(f"{path}: distribution {key!r} weights sum to {float(total)!r}")
        w = w / total
        out.append(make_distribution(atoms[start:end], w) if bad  # raises what is wrong
                   else DiscreteDistribution(atoms[start:end], w / w.sum()))
    return out


# ---------------------------------------------------------------------------
# low-rank reformulation of the exponent-2 objective


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
