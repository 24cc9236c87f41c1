"""Command-line entry point: solve, reduce, coreset, gen, sweep.

All output is machine-readable (JSON by default, CSV on request) and fully
determined by ``--seed``; wall-clock fields are suppressed by
``--no-timing`` so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import json
import sys

import numpy as np

from .core import (
    BadParams,
    BaryError,
    EmptyInput,
    NumericalFailure,
    make_distribution,
    pool_batch,
)
from .barycenter import SolverOptions, solve_barycenter
from .coreset import (
    build_coreset,
    evaluate_coreset,
    pilot_barycenter,
    scores_from_costs,
)
from .instances import (
    coreset_synthetic_family,
    gen_coreset_synthetic,
    gen_lb_barycenter,
    gen_ot_pair,
    gen_pullback,
    load_csv_distributions,
)
from .projection import (
    MAP_MAKERS,
    cost_ratio_sweep,
    identity_map,
    jl_dimension,
    reduce_solve_reconstruct,
)
from .transport import solve_pooled

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _emit(payload: dict, args) -> None:
    if getattr(args, "no_timing", False):
        payload = {k: v for k, v in payload.items() if not k.startswith("time")}
        if "rows" in payload and isinstance(payload["rows"], list):
            payload["rows"] = [
                {k: v for k, v in row.items() if "time" not in k}
                for row in payload["rows"]
            ]
        payload.pop("reference_time", None)
    if args.format == "csv" and "rows" in payload:
        rows = payload["rows"]
        out = sys.stdout if args.output is None else open(args.output, "w", newline="")
        try:
            writer = _csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: (json.dumps(v) if isinstance(v, list) else v)
                                 for k, v in row.items()})
        finally:
            if out is not sys.stdout:
                out.close()
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output is None:
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")


def _solver_options(args) -> SolverOptions:
    return SolverOptions(support_size=args.support_size, p=args.p, seed=args.seed)


def _load(path):
    mus = load_csv_distributions(path)
    if not mus:
        raise EmptyInput(f"{path}: no distributions")
    return mus


def cmd_barycenter(args) -> int:
    mus = _load(args.input)
    nu, sol, report = solve_barycenter(mus, _solver_options(args))
    _emit({
        "cost": report.total_cost,
        "iterations": report.iterations,
        "support": nu.atoms.tolist(),
        "weights": nu.weights.tolist(),
        "trace": list(report.trace),
    }, args)
    return EXIT_OK


def _resolve_map(args, mus):
    d = mus[0].dim
    n_pooled = sum(mu.size for mu in mus)
    if args.dim is not None:
        m = args.dim
    else:
        m = jl_dimension(n_pooled, args.eps, args.delta, args.p,
                         policy=args.policy, k=len(mus))
    if m >= d:  # a map never raises the dimension
        return identity_map(d)
    return MAP_MAKERS[args.map](d, m, args.seed)


def cmd_reduce(args) -> int:
    mus = _load(args.input)
    pmap = _resolve_map(args, mus)
    res = reduce_solve_reconstruct(mus, pmap, _solver_options(args))
    _emit({
        "cost_low": res.cost_low,
        "cost_high": res.cost_high,
        "m": pmap.m,
        "map": pmap.kind,
        "support": res.nu_high.atoms.tolist(),
        "weights": res.nu_high.weights.tolist(),
        "time_project": res.time_project,
        "time_solve": res.time_solve,
        "time_reconstruct": res.time_reconstruct,
    }, args)
    return EXIT_OK


def cmd_coreset(args) -> int:
    if args.input is not None:
        distinct = _load(args.input)  # CSV groups are distinct objects
        slot = np.arange(len(distinct))
    else:
        distinct, slot = coreset_synthetic_family(args.k)
    if min(args.sizes) < 1:
        raise BaryError("need positive --sizes")
    d = distinct[0].dim
    batch = pool_batch(distinct)  # every query and the pilot are priced on it

    def costs_to(nu):
        return solve_pooled(batch, nu, args.p)[1][slot]

    costs = [costs_to(make_distribution(np.full((1, d), float(x)), np.array([1.0])))
             for x in args.queries]
    pilot = distinct[0] if args.input is None else pilot_barycenter(distinct, args.p)
    scores = scores_from_costs(costs_to(pilot), p=args.p)
    k = len(slot)
    q = {"uniform": np.full(k, 1.0 / k), "sensitivity": scores / scores.sum()}
    rows = []
    for size in args.sizes:
        for method in ("uniform", "sensitivity"):
            core = build_coreset(q[method], size, seed=args.seed)
            for x, query_costs in zip(args.queries, costs):
                ev = evaluate_coreset(core, query_costs)
                rows.append({
                    "method": method, "size": int(size),
                    "query": float(x),
                    "rel_error": ev["rel_error"],
                    "zero_cost": ev["zero_cost"],
                })
    _emit({"k": k, "rows": rows}, args)
    return EXIT_OK


def cmd_gen(args) -> int:
    rows = []
    if args.kind == "ot_pair":
        A, B, M = gen_ot_pair(args.d)
        for side, pts in (("A", A), ("B", B)):
            for pt in pts:
                rows.append({"set": side, "coords": pt.tolist()})
        meta = {"kind": "ot_pair", "d": args.d, "M": M}
    elif args.kind == "pullback":
        A, B, M = gen_pullback(args.d, args.C)
        for side, pts in (("A", A), ("B", B)):
            for pt in pts:
                rows.append({"set": side, "coords": pt.tolist()})
        meta = {"kind": "pullback", "d": args.d, "C": args.C, "M": M}
    elif args.kind == "lb_barycenter":
        mus, opt, n = gen_lb_barycenter(args.t, args.N, args.C, args.eps, args.p)
        for i, mu in enumerate(mus):
            for w, atom in zip(mu.weights, mu.atoms):
                rows.append({"set": str(i), "weight": float(w),
                             "coords": atom.tolist()})
        meta = {"kind": "lb_barycenter", "expected_opt_cost": opt, "n": n}
    else:  # coreset_synthetic
        mus = gen_coreset_synthetic(args.k)
        for i, mu in enumerate(mus):
            rows.append({"set": str(i), "coords": mu.atoms[0].tolist()})
        meta = {"kind": "coreset_synthetic", "k": args.k}
    _emit({**meta, "rows": rows}, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.trials < 1:
        raise BaryError("need --trials >= 1")
    mus = _load(args.input)
    opts = _solver_options(args)
    result = cost_ratio_sweep(mus, args.m_values, opts, map_kind=args.map,
                              trials=args.trials, master_seed=args.seed)
    rows = [{
        "m": row["m"],
        "mean_ratio": row["mean_ratio"],
        "max_ratio": row["max_ratio"],
        "stddev": float(np.std(row["ratios"])),
        "mean_time": row["mean_time"],
    } for row in result["rows"]]
    _emit({"reference_cost": result["reference_cost"],
           "reference_time": result["reference_time"], "rows": rows}, args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It holds no functions: ``main``
    looks up ``cmd_<command>`` when it runs, so a replaced handler is seen."""
    top = argparse.ArgumentParser(prog="baryreduce")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None)
        p.add_argument("--no-timing", action="store_true", dest="no_timing")

    b = sub.add_parser("barycenter", help="solve for a fixed-size barycenter")
    b.add_argument("--input", required=True)
    b.add_argument("--support-size", type=int, default=4)
    common(b)

    r = sub.add_parser("reduce", help="project, solve low-dim, lift back")
    r.add_argument("--input", required=True)
    r.add_argument("--support-size", type=int, default=4)
    r.add_argument("--eps", type=float, default=0.25)
    r.add_argument("--delta", type=float, default=0.1)
    group = r.add_mutually_exclusive_group()
    group.add_argument("--dim", type=int, default=None)
    group.add_argument("--policy", choices=("p2", "kirszbraun", "optimal"),
                       default="optimal")
    r.add_argument("--map", choices=tuple(MAP_MAKERS), default="gaussian")
    common(r)

    c = sub.add_parser("coreset", help="importance-sampling error table")
    c.add_argument("--input", default=None)
    c.add_argument("--k", type=int, default=1000)
    c.add_argument("--sizes", type=int, nargs="+", default=[10, 100])
    c.add_argument("--queries", type=float, nargs="+", default=[0.0, 10.0])
    common(c)

    g = sub.add_parser("gen", help="write a synthetic instance")
    g.add_argument("kind", choices=("ot_pair", "pullback", "lb_barycenter",
                                    "coreset_synthetic"))
    g.add_argument("--d", type=int, default=4)
    g.add_argument("--C", type=int, default=2)
    g.add_argument("--t", type=int, default=2)
    g.add_argument("--N", type=float, default=10.0)
    g.add_argument("--eps", type=float, default=0.1)
    g.add_argument("--k", type=int, default=10)
    common(g)

    s = sub.add_parser("sweep", help="cost-ratio curve over target dimensions")
    s.add_argument("--input", required=True)
    s.add_argument("--support-size", type=int, default=4)
    s.add_argument("--m-values", type=int, nargs="+", required=True)
    s.add_argument("--trials", type=int, default=5)
    s.add_argument("--map", choices=tuple(MAP_MAKERS), default="gaussian")
    common(s)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.seed < 0:  # numpy's generators take non-negative seeds only
            raise BadParams(f"--seed must be >= 0, got {args.seed}")
        return globals()[f"cmd_{args.command}"](args)
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (BaryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
