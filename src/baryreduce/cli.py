"""Command-line entry point: solve, reduce, coreset, gen, sweep.

All output is machine-readable (JSON by default, CSV of the rows on
request) and, but for the wall-clock fields, fully determined by ``--seed``.
Those fields are ``time_project``, ``time_solve`` and ``time_reconstruct``
of ``reduce`` and ``reference_time`` and each row's ``mean_time`` of
``sweep``; ``--no-timing`` leaves them out, so reruns are byte-identical.
``--output FILE`` writes exactly the bytes that stdout would get.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
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
    sensitivity_upper_bounds,
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
    POLICIES,
    cost_ratio_sweep,
    jl_dimension,
    reduce_solve_reconstruct,
    reduction_map,
)
from .transport import solve_pooled

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

#: the model options of each ``gen`` kind, as (flag, type, default)
GEN_OPTIONS = {
    "ot_pair": [("--d", int, 4)],
    "pullback": [("--d", int, 4), ("--C", int, 2)],
    "lb_barycenter": [("--t", int, 2), ("--N", float, 10.0), ("--C", float, 2.0),
                      ("--eps", float, 0.1), ("--p", float, 2.0)],
    "coreset_synthetic": [("--k", int, 10)],
}


def _emit(payload: dict, args) -> None:
    """Render ``payload`` once (CSV rows or JSON) and write it once, to
    ``--output`` or stdout: the file holds exactly what stdout would."""
    if args.format == "csv" and "rows" in payload:
        buf = io.StringIO()
        writer = _csv.DictWriter(buf, fieldnames=list(payload["rows"][0]))
        writer.writeheader()
        writer.writerows({k: (json.dumps(v) if isinstance(v, list) else v)
                          for k, v in row.items()} for row in payload["rows"])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)


def _timing(args, **seconds) -> dict:
    """The wall-clock fields ``seconds``, or none under ``--no-timing``."""
    return {} if args.no_timing else seconds


def _solver_options(args) -> SolverOptions:
    return SolverOptions(support_size=args.support_size, p=args.p, seed=args.seed)


def _load(path):
    mus = load_csv_distributions(path)
    if not mus:
        raise EmptyInput(f"{path}: no distributions")
    return mus


def cmd_barycenter(args) -> int:
    nu, sol, report = solve_barycenter(pool_batch(_load(args.input)), _solver_options(args))
    _emit({
        "cost": report.total_cost,
        "iterations": report.iterations,
        "support": nu.atoms.tolist(),
        "weights": nu.weights.tolist(),
        "trace": list(report.trace),
    }, args)
    return EXIT_OK


def _resolve_map(args, batch):
    n_pooled, d = batch.points.shape
    if args.dim is not None and (args.eps, args.delta) != (None, None):
        raise BadParams("--eps and --delta choose m by the policy; give them or --dim, not both")
    if args.dim is None and n_pooled < 2:  # jl_dimension's own message names its n
        raise BadParams(f"the input has {n_pooled} pooled atom, too few to choose the "
                        "target dimension m; set m with --dim")
    m = args.dim if args.dim is not None else jl_dimension(
        n_pooled, 0.25 if args.eps is None else args.eps,
        0.1 if args.delta is None else args.delta, args.p, policy=args.policy, k=len(batch.starts))
    return reduction_map(args.map, d, m, args.seed)


def cmd_reduce(args) -> int:
    batch = pool_batch(_load(args.input))
    pmap = _resolve_map(args, batch)
    res = reduce_solve_reconstruct(batch, pmap, _solver_options(args))
    _emit({
        "cost_low": res.cost_low,
        "cost_high": res.cost_high,
        "m": pmap.m,
        "map": pmap.kind,
        "support": res.nu_high.atoms.tolist(),
        "weights": res.nu_high.weights.tolist(),
        **_timing(args, time_project=res.time_project, time_solve=res.time_solve,
                  time_reconstruct=res.time_reconstruct),
    }, args)
    return EXIT_OK


def cmd_coreset(args) -> int:
    if min(args.sizes) < 1:  # checked before a large --k builds its inputs
        raise BadParams("need positive --sizes")
    # the distinct inputs, each standing for `multiplicity` of the k inputs;
    # everything below is priced, scored and drawn per distinct input
    if args.input is not None:
        distinct = _load(args.input)  # CSV groups are distinct objects
        multiplicity = np.ones(len(distinct), dtype=np.intp)
    else:
        distinct, slot = coreset_synthetic_family(args.k)
        multiplicity = np.bincount(slot)
    k = int(multiplicity.sum())
    d = distinct[0].dim
    batch = pool_batch(distinct)  # every query and the pilot are priced on it
    costs = [solve_pooled(batch, make_distribution(np.full((1, d), float(x)), np.array([1.0])),
                          args.p)[1] for x in args.queries]
    pilot = distinct[0] if args.input is None else None  # None: the pilot barycenter
    scores = sensitivity_upper_bounds(batch, args.p, pilot=pilot, multiplicity=multiplicity)
    weighted = multiplicity * scores
    probabilities = {"uniform": multiplicity / k, "sensitivity": weighted / weighted.sum()}
    rows = []
    for size in args.sizes:
        for method in ("uniform", "sensitivity"):
            core = build_coreset(probabilities[method], size, seed=args.seed,
                                 multiplicity=multiplicity)
            for x, query_costs in zip(args.queries, costs):
                ev = evaluate_coreset(core, query_costs, multiplicity)
                rows.append({
                    "method": method, "size": int(size),
                    "query": float(x),
                    "rel_error": ev["rel_error"],
                    "zero_cost": ev["zero_cost"],
                })
    _emit({"k": k, "rows": rows}, args)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind in ("ot_pair", "pullback"):
        pullback = args.kind == "pullback"
        A, B, M = gen_pullback(args.d, args.C) if pullback else gen_ot_pair(args.d)
        rows = [{"set": side, "coords": pt.tolist()}
                for side, pts in (("A", A), ("B", B)) for pt in pts]
        meta = {"kind": args.kind, "d": args.d, "M": M}
        if pullback:
            meta["C"] = args.C
    elif args.kind == "lb_barycenter":
        mus, opt, n = gen_lb_barycenter(args.t, args.N, args.C, args.eps, args.p)
        rows = [{"set": str(i), "weight": float(w), "coords": atom.tolist()}
                for i, mu in enumerate(mus) for w, atom in zip(mu.weights, mu.atoms)]
        meta = {"kind": "lb_barycenter", "expected_opt_cost": opt, "n": n}
    else:  # coreset_synthetic
        rows = [{"set": str(i), "coords": mu.atoms[0].tolist()}
                for i, mu in enumerate(gen_coreset_synthetic(args.k))]
        meta = {"kind": "coreset_synthetic", "k": args.k}
    _emit({**meta, "rows": rows}, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    result = cost_ratio_sweep(pool_batch(_load(args.input)), args.m_values,
                              _solver_options(args), map_kind=args.map,
                              trials=args.trials, master_seed=args.seed)
    rows = [{
        "m": row["m"],
        "mean_ratio": row["mean_ratio"],
        "max_ratio": row["max_ratio"],
        "stddev": float(np.std(row["ratios"])),
        **_timing(args, mean_time=row["mean_time"]),
    } for row in result["rows"]]
    _emit({"reference_cost": result["reference_cost"], "rows": rows,
           **_timing(args, reference_time=result["reference_time"])}, args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It holds no functions: ``main``
    looks up ``cmd_<command>`` when it runs, so a replaced handler is seen."""
    top = argparse.ArgumentParser(prog="baryreduce")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, model=(("--p", float, 2.0), ("--seed", int, 0))):
        """The model options that the handler reads, then the output options."""
        for flag, model_type, default in model:
            p.add_argument(flag, type=model_type, default=default)
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
    r.add_argument("--eps", type=float, default=None)  # unset: _resolve_map's default
    r.add_argument("--delta", type=float, default=None)  # unset: _resolve_map's default
    group = r.add_mutually_exclusive_group()
    group.add_argument("--dim", type=int, default=None)
    group.add_argument("--policy", choices=POLICIES, default="optimal")
    r.add_argument("--map", choices=tuple(MAP_MAKERS), default="gaussian")
    common(r)

    c = sub.add_parser("coreset", help="importance-sampling error table")
    source = c.add_mutually_exclusive_group()
    source.add_argument("--input", default=None)
    source.add_argument("--k", type=int, default=1000)
    c.add_argument("--sizes", type=int, nargs="+", default=[10, 100])
    c.add_argument("--queries", type=float, nargs="+", default=[0.0, 10.0])
    common(c)

    kinds = sub.add_parser("gen", help="write a synthetic instance").add_subparsers(
        dest="kind", required=True)
    for kind, model in GEN_OPTIONS.items():
        common(kinds.add_parser(kind), model)

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
        if getattr(args, "seed", 0) < 0:  # numpy's generators take non-negative seeds
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
