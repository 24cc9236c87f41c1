"""The benchmark's workloads: inputs made from a seed, the ops, their checks.

Every op calls the library through a module attribute (``transport.solve_ot``,
``cli.main``), looked up at call time, so the traced run's wrappers see it.
Checks run outside the op's timing and use the original functions.

The number of ops in a run follows ``--seconds`` through a fixed op list per
workload: ``*_SECONDS`` below is the time one pass of that list took on the
2-vCPU x86 VM (Intel Xeon) where the benchmark was written, so a run lasts about
``--seconds`` there and every commit runs exactly the same ops.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import functools
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import Callable

import jsonschema
import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import eye, kron, vstack
from scipy.spatial.distance import cdist

from baryreduce import cli, transport
from baryreduce.core import WEIGHT_TOL, make_distribution
from baryreduce.instances import (
    gen_blob_classes,
    group_by_label,
    load_csv_distributions,
)
from baryreduce.transport import barycenter_objective

#: relative slack on every cost comparison against a reference
REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One timed call into the library and the check of its output.

    ``check(result)`` returns ``(problems, facts)``: what is wrong with the
    output, and the figures the workload's summary reads from it.
    """

    kind: str
    p: float
    seed: int
    #: what the op is called with: the argv of a CLI op, the case of a solve
    args: object
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Setup:
    ops: list
    #: the traced run traces the first ``trace_ops`` ops, one pass of the mix
    trace_ops: int


def _passes(seconds: float, pass_seconds: float) -> int:
    return max(1, round(seconds / pass_seconds))


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, *workload.encode()])


# ---------------------------------------------------------------------------
# ot_pairs: cold solve_ot calls against an independent optimum

OT_SIZES = (32, 64, 128)
OT_WEIGHTS = ("uniform", "random")
OT_EXPONENTS = (1.0, 2.0)
OT_SCALES = (1e-6, 1.0, 1e4)
OT_DIM = 8
OT_PASS_SECONDS = 7.5


@dataclass
class OTCase:
    mu: object
    nu: object
    weights: str
    p: float
    scale: float
    optimum: float


def cost_matrix(X, Y, p: float) -> np.ndarray:
    return cdist(X, Y, "sqeuclidean") if p == 2.0 else cdist(X, Y) ** p


def unit_optimum(X, Y, a, b, p: float, uniform: bool) -> float:
    """Optimal transport cost by scipy: an assignment for uniform weights,
    HiGHS on the transportation LP otherwise.  Call at unit coordinate
    scale; HiGHS's absolute tolerances make it wrong at scale 1e-6."""
    C = cost_matrix(X, Y, p)
    if uniform:
        rows, cols = linear_sum_assignment(C)
        return float(C[rows, cols].sum()) / len(X)
    m, n = C.shape
    A = vstack([kron(eye(m), np.ones((1, n))), kron(np.ones((1, m)), eye(n))])
    res = linprog(C.ravel(), A_eq=A.tocsr(), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def check_transport(case: OTCase, flow, cost) -> list:
    """Problems with a plan for ``case``: marginals off by more than
    WEIGHT_TOL, a reported cost that is not the plan's cost, or a cost off
    the optimum by more than REL_TOL relative."""
    a, b = case.mu.weights, case.nu.weights
    flow = np.asarray(flow, dtype=np.float64)
    if flow.shape != (len(a), len(b)):
        return [f"plan shape {flow.shape}"]
    problems = []
    if flow.min() < -WEIGHT_TOL:
        problems.append(f"negative flow {flow.min():.3e}")
    row_err = np.abs(flow.sum(axis=1) - a).max()
    col_err = np.abs(flow.sum(axis=0) - b).max()
    if max(row_err, col_err) > WEIGHT_TOL:
        problems.append(f"marginals off by {max(row_err, col_err):.3e}")
    plan_cost = float((flow * cost_matrix(case.mu.atoms, case.nu.atoms,
                                          case.p)).sum())
    if abs(plan_cost - cost) > REL_TOL * abs(plan_cost):
        problems.append(f"reported cost {cost!r} but plan costs {plan_cost!r}")
    if abs(cost - case.optimum) > REL_TOL * case.optimum:
        problems.append(f"cost {cost / case.optimum:.12g} x optimum "
                        f"(scale {case.scale:g}, p={case.p:g})")
    return problems


def ot_cases(seed: int, passes: int) -> list:
    """36 cases per pass, fresh points each pass.  The optimum is computed
    once per point set at unit scale and multiplied by scale**p."""
    rng = _rng(seed, "ot_pairs")
    cases = []
    for _ in range(passes):
        for T in OT_SIZES:
            for weights in OT_WEIGHTS:
                X = rng.standard_normal((T, OT_DIM))
                Y = rng.standard_normal((T, OT_DIM))
                if weights == "uniform":
                    a = b = np.full(T, 1.0 / T)
                else:
                    a = rng.uniform(0.1, 1.0, T)
                    b = rng.uniform(0.1, 1.0, T)
                    a, b = a / a.sum(), b / b.sum()
                for p in OT_EXPONENTS:
                    opt = unit_optimum(X, Y, a, b, p, weights == "uniform")
                    for s in OT_SCALES:
                        cases.append(OTCase(make_distribution(X * s, a),
                                            make_distribution(Y * s, b),
                                            weights, p, s, opt * s**p))
    return cases


def _ot_op(case: OTCase, seed: int) -> Op:
    def run():
        return transport.solve_ot(case.mu, case.nu, case.p)

    def check(plan):
        return check_transport(case, plan.flow, plan.cost), {}

    args = {"T": case.mu.size, "weights": case.weights, "p": case.p, "scale": case.scale}
    return Op("solve_ot", case.p, seed, args, run, check)


def setup_ot_pairs(seed: int, seconds: float, root: Path, workdir: Path) -> Setup:
    cases = ot_cases(seed, _passes(seconds, OT_PASS_SECONDS))
    ops = [_ot_op(case, seed) for case in cases]
    ops[0].run()  # warm-up
    per_pass = len(OT_SIZES) * len(OT_WEIGHTS) * len(OT_EXPONENTS) * len(OT_SCALES)
    return Setup(ops, per_pass)


# ---------------------------------------------------------------------------
# CLI ops shared by reduce_d784 and coreset_k50000

def run_cli(argv) -> tuple:
    """``cli.main(argv)`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def schema_validator(root: Path):
    path = root / "src" / "baryreduce" / "schemas" / "output.schema.json"
    schema = json.loads(path.read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def parse_cli(result, validator) -> tuple:
    """The payload of a CLI call and the problems with it: a nonzero exit
    code, stdout that is not JSON, or JSON outside the output schema."""
    code, out, err = result
    if code != 0:
        return None, [f"exit code {code}: {err.strip()}"]
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    errors = list(validator.iter_errors(payload))
    if errors:
        return payload, [f"schema: {errors[0].message[:200]}"]
    return payload, []


# ---------------------------------------------------------------------------
# reduce_d784: full barycenter vs reduce -> solve -> lift, through the CLI

REDUCE_SHAPE = (10, 30, 784)  # classes, points per class, dimension
REDUCE_DIMS = (30, 100)
REDUCE_MAPS = ("gaussian", "srht")
REDUCE_EXPONENTS = (1, 2)
SUPPORT_SIZE = 8
#: two rounds, one at each p; a round is one barycenter and four reduce calls
REDUCE_PASS_SECONDS = 11.0


def write_csv(path: Path, mus) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, mu in enumerate(mus):
            for w, atom in zip(mu.weights.tolist(), mu.atoms.tolist()):
                writer.writerow([i, repr(w), *map(repr, atom)])


def _cli_op(kind: str, argv: list, p: float, seed: int, validator,
            check_payload) -> Op:
    """An in-process CLI call; ``check_payload(payload, stdout)`` checks
    output that passed :func:`parse_cli`."""
    def check(result):
        payload, problems = parse_cli(result, validator)
        return (problems, {}) if problems else check_payload(payload, result[1])

    return Op(kind, p, seed, argv, lambda: run_cli(argv), check)


def _warm_up(argvs, validator) -> None:
    for argv in argvs:
        _, problems = parse_cli(run_cli(argv), validator)
        if problems:
            raise RuntimeError(f"warm-up {argv} failed: {problems}")


def setup_reduce_d784(seed: int, seconds: float, root: Path, workdir: Path) -> Setup:
    rng = _rng(seed, "reduce_d784")
    classes, per_class, dim = REDUCE_SHAPE
    points, labels = gen_blob_classes(classes, per_class, dim,
                                      seed=int(rng.integers(2**31)))
    path = workdir / f"reduce_d784-{seed}.csv"
    write_csv(path, group_by_label(points, labels))
    mus = load_csv_distributions(path)  # the inputs exactly as the CLI reads them
    validator = schema_validator(root)

    def check_barycenter(p, payload, stdout):
        nu = make_distribution(payload["support"], payload["weights"])
        objective = barycenter_objective(nu, mus, p)
        if abs(payload["cost"] - objective) > REL_TOL * objective:
            return [f"cost {payload['cost']!r} but its support costs {objective!r}"], {}
        return [], {"cost": payload["cost"]}

    def check_reduce(p, payload, stdout):
        nu = make_distribution(payload["support"], payload["weights"])
        objective = barycenter_objective(nu, mus, p)
        if payload["cost_high"] < objective * (1.0 - REL_TOL):
            return [f"cost_high {payload['cost_high']!r} below the optimal "
                    f"transport cost {objective!r} of its own support"], {}
        return [], {"cost_high": payload["cost_high"]}

    ops = []
    rounds = len(REDUCE_EXPONENTS) * _passes(seconds, REDUCE_PASS_SECONDS)
    for r, run_seed in enumerate(rng.integers(1_000_000, size=rounds).tolist()):
        p = REDUCE_EXPONENTS[r % len(REDUCE_EXPONENTS)]
        common = ["--input", str(path), "--support-size", str(SUPPORT_SIZE),
                  "--no-timing", "--seed", str(run_seed), "--p", str(p)]
        ops.append(_cli_op("barycenter", ["barycenter", *common], p, run_seed,
                           validator, functools.partial(check_barycenter, p)))
        for m in REDUCE_DIMS:
            for kind in REDUCE_MAPS:
                argv = ["reduce", *common, "--dim", str(m), "--map", kind]
                ops.append(_cli_op("reduce", argv, p, run_seed, validator,
                                   functools.partial(check_reduce, p)))
    points, labels = gen_blob_classes(3, 6, 16, seed=0)
    warm_up = workdir / "warm-up.csv"
    write_csv(warm_up, group_by_label(points, labels))
    _warm_up([["barycenter", "--input", str(warm_up), "--no-timing"],
              ["reduce", "--input", str(warm_up), "--no-timing", "--dim", "4"]],
             validator)
    return Setup(ops, len(REDUCE_EXPONENTS) * (1 + len(REDUCE_DIMS) * len(REDUCE_MAPS)))


def summary_reduce_d784(records) -> list:
    """Speedup of reduce over a full solve, and the lifted cost ratio."""
    rows = []
    for p in REDUCE_EXPONENTS:
        full = [r.seconds for r in records if r.op.kind == "barycenter" and r.op.p == p]
        reduced = [r.seconds for r in records if r.op.kind == "reduce" and r.op.p == p]
        if full and reduced:
            rows.append((f"reduce_speedup.p{p}", median(full) / median(reduced), "x",
                         "median barycenter op / median reduce op"))
    full_cost = {(r.op.seed, r.op.p): r.facts["cost"] for r in records
                 if "cost" in r.facts}
    ratios = [r.facts["cost_high"] / full_cost[r.op.seed, r.op.p] for r in records
              if "cost_high" in r.facts and (r.op.seed, r.op.p) in full_cost]
    if ratios:
        rows.append(("lifted_cost_ratio", mean(ratios), "ratio",
                     f"mean cost_high / full cost over {len(ratios)} reduce ops"))
    return rows


# ---------------------------------------------------------------------------
# coreset_k50000: the sensitivity-coreset table; every solve is 1x1

CORESET_ARGV = ["coreset", "--k", "50000", "--sizes", "10", "1000",
                "--queries", "0", "10", "100", "--no-timing"]
CORESET_PASS_SECONDS = 4.2  # one op


def setup_coreset_k50000(seed: int, seconds: float, root: Path,
                         workdir: Path) -> Setup:
    rng = _rng(seed, "coreset_k50000")
    n_ops = max(2, _passes(seconds, CORESET_PASS_SECONDS))
    # cycle through half as many seeds as ops, so every argv runs twice
    seeds = [int(s) for s in rng.integers(1_000_000, size=max(1, n_ops // 2))]
    validator = schema_validator(root)
    first_output: dict = {}

    def check_coreset(run_seed, payload, stdout):
        problems = []
        if len(payload["rows"]) != 12:
            problems.append(f"{len(payload['rows'])} rows, expected 12")
        if first_output.setdefault(run_seed, stdout) != stdout:
            problems.append("output differs from an earlier run of the same argv")
        return problems, {"rel_errors": [row["rel_error"] for row in payload["rows"]
                                         if row["method"] == "sensitivity"]}

    ops = [_cli_op("coreset", [*CORESET_ARGV, "--seed", str(s)], 2.0, s, validator,
                   functools.partial(check_coreset, s))
           for s in (seeds[i % len(seeds)] for i in range(n_ops))]
    _warm_up([["coreset", "--k", "5000", *CORESET_ARGV[3:]]], validator)
    return Setup(ops, 1)


def summary_coreset_k50000(records) -> list:
    errors = [e for r in records for e in r.facts.get("rel_errors", [])]
    if not errors:
        return []
    return [("coreset_rel_error", mean(errors), "ratio",
             f"mean rel_error of {len(errors)} sensitivity rows")]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    summary: Callable = lambda records: []


WORKLOADS = {w.name: w for w in (
    Workload("ot_pairs", setup_ot_pairs),
    Workload("reduce_d784", setup_reduce_d784, summary_reduce_d784),
    Workload("coreset_k50000", setup_coreset_k50000, summary_coreset_k50000),
)}
