"""Per-layer figures of the traced run, computed from its spans.

Every figure is per traced op, so it does not depend on how many ops were
traced.  A layer that never ran on a workload reads 0.
"""

from __future__ import annotations

from statistics import mean, median

import numpy as np

from spans import MODULES, Tracer, self_times

#: spans whose call count and self time are reported by name
CALLS_AND_SELF = ("transport.solve_ot", "transport.cost_matrix",
                  "barycenter.solve_barycenter", "barycenter.update_support_atom",
                  "instances.load_csv_distributions", "core.make_distribution")
SELF_ONLY = ("barycenter.reconstruct_barycenter", "barycenter.solution_cost",
             "projection.project_instance", "projection.reduce_solve_reconstruct",
             "coreset.sensitivity_upper_bounds", "coreset.build_coreset",
             "coreset.evaluate_coreset", "instances.gen_coreset_synthetic",
             "cli.main")
MAP_MAKERS = ("projection.make_gaussian_map", "projection.make_srht_map",
              "projection.identity_map")


def make_tracer() -> Tracer:
    """A tracer whose hooks record what spans alone do not carry: the cells
    of each transport problem, the outer iterations of each barycenter
    solve, and which (input, query) pairs ``evaluate_coreset`` solved."""
    tracer = Tracer()
    evaluate = tracer.name_id("coreset.evaluate_coreset")
    tracer.facts.update(eval_ot_calls=0, eval_pairs=set(), barycenter={})

    def on_solve_ot(tr, index, args, kwargs, result):
        mu = args[0] if len(args) > 0 else kwargs["mu"]
        nu = args[1] if len(args) > 1 else kwargs["nu"]
        tr.attrs[index] = mu.size * nu.size
        if tr.within(evaluate):
            tr.facts["eval_ot_calls"] += 1
            tr.facts["eval_pairs"].add((tr.op, id(mu), id(nu)))

    def on_solve_barycenter(tr, index, args, kwargs, result):
        report = result[2]
        tr.facts["barycenter"][index] = (report.iterations, report.converged)

    tracer.hooks.update({"transport.solve_ot": on_solve_ot,
                         "barycenter.solve_barycenter": on_solve_barycenter})
    return tracer


def _outer_iters_ratio(tracer: Tracer, ops, span_op) -> float:
    """Mean, over reduce ops, of the reduced solve's outer iterations over
    those of the full solve with the same seed and p."""
    iters_by_op = {int(span_op[i]): it for i, (it, _) in tracer.facts["barycenter"].items()}
    full = {(ops[i].seed, ops[i].p): it for i, it in iters_by_op.items()
            if ops[i].kind == "barycenter"}
    ratios = [it / full[ops[i].seed, ops[i].p] for i, it in iters_by_op.items()
              if ops[i].kind == "reduce" and (ops[i].seed, ops[i].p) in full]
    return mean(ratios) if ratios else 0.0


def layer_figures(tracer: Tracer, ops) -> tuple[dict, dict]:
    """Per-layer figures and the exact counts behind them.

    ``ops[i]`` is the op traced with op id ``i``.  Returns ``(figures,
    counts)``: figures map a name to ``(value, unit)``; counts hold the
    deterministic integers that must repeat across runs of one seed.
    """
    spans = tracer.arrays()
    names = tracer.names
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(parent, duration)
    n_ops = len(ops)
    calls = dict(zip(names, np.bincount(name_id, minlength=len(names)).tolist()))
    own_by_name = dict(zip(names, np.bincount(name_id, weights=own,
                                              minlength=len(names)).tolist()))

    def self_s(span_names) -> float:
        return sum(own_by_name.get(n, 0.0) for n in span_names) / n_ops

    figures = {}
    for name in CALLS_AND_SELF:
        figures[f"{name}.calls"] = (calls.get(name, 0) / n_ops, "calls/op")
        figures[f"{name}.self_s"] = (self_s([name]), "s/op")
    for name in SELF_ONLY:
        figures[f"{name}.self_s"] = (self_s([name]), "s/op")
    figures["projection.make_map.self_s"] = (self_s(MAP_MAKERS), "s/op")

    ot = spans["attr"][name_id == tracer.name_id("transport.solve_ot")]
    figures["transport.solve_ot.cells_mean"] = (float(ot.mean()) if len(ot) else 0.0, "cells")
    figures["transport.solve_ot.trivial_frac"] = (
        float((ot == 1).mean()) if len(ot) else 0.0, "ratio")

    bary = list(tracer.facts["barycenter"].values())
    figures["barycenter.outer_iters_mean"] = (
        mean(it for it, _ in bary) if bary else 0.0, "iters")
    figures["barycenter.converged_frac"] = (
        mean(float(ok) for _, ok in bary) if bary else 0.0, "ratio")
    figures["projection.outer_iters_ratio"] = (
        _outer_iters_ratio(tracer, ops, spans["op"]), "ratio")

    eval_calls = tracer.facts["eval_ot_calls"]
    pairs = len(tracer.facts["eval_pairs"])
    figures["coreset.evaluate_coreset.ot_calls"] = (eval_calls / n_ops, "calls/op")
    figures["coreset.useful_ot_frac"] = (pairs / eval_calls if eval_calls else 0.0, "ratio")

    for module in MODULES:
        figures[f"{module}.self_s"] = (
            self_s(n for n in names if n.startswith(module + ".")), "s/op")
    root = name_id == 0
    op_seconds = duration[root]
    figures["bench.self_s"] = (float(own[root].sum()) / n_ops, "s/op")
    figures["trace.self_coverage"] = (
        float(own[~root].sum() / op_seconds.sum()), "ratio")

    counts = {name: c for name, c in calls.items() if c}
    counts.update(outer_iters=sorted(it for it, _ in bary),
                  eval_ot_calls=eval_calls, eval_pairs=pairs)
    return figures, counts


def self_time_balance(tracer: Tracer) -> float:
    """Largest relative gap, over ops, between the summed self times of an
    op's spans and the op's traced duration; 0 up to rounding."""
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    own = self_times(spans["parent"], duration)
    ops = spans["op"]
    root = spans["name_id"] == 0
    per_op_self = np.bincount(ops, weights=own)
    per_op_total = np.bincount(ops[root], weights=duration[root],
                               minlength=len(per_op_self))
    return float(np.max(np.abs(per_op_self - per_op_total) / per_op_total))


def overhead(traced_seconds, untraced_seconds) -> dict:
    """Median op time traced and untraced on the same ops, and the gap."""
    traced, untraced = median(traced_seconds), median(untraced_seconds)
    return {"trace.op_s_p50": (traced, "s"),
            "trace.untraced_op_s_p50": (untraced, "s"),
            "trace.overhead_s": (traced - untraced, "s")}

