"""Benchmark of the barycenter engine: one workload per run, closed loop.

    python3 bench/run.py --workload ot_pairs --seed 1 --seconds 25 --trace 0

One client runs the workload's fixed op list in-process, one op at a time,
and checks every op's output outside the op's timing.  The run prints a
human-readable report and, as its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer figures with ``--trace 1``.

``failed`` counts ops that raised or whose output failed a check.
``correct`` is false when the benchmark's own bookkeeping does not hold: the
traced spans' self times do not add up to the op times, or the exact counts
of a traced run differ from those of an earlier run of the same seed on the
same sources.

The library is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.  Outputs (the run record, the
traced spans, the CSV inputs) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: relative gap allowed between summed self times and an op's traced time
BALANCE_TOL = 1e-6


@dataclass
class Record:
    op: object
    seconds: float
    problems: list
    facts: dict


def run_ops(ops, tracer=None) -> list:
    """Run ``ops`` in order, each timed alone, then check its output."""
    records = []
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
                seconds = time.perf_counter() - start
            else:
                result, seconds = tracer.run_op(index, op.run)
        except Exception as exc:  # an op that raises is a failed op
            records.append(Record(op, time.perf_counter() - start,
                                  [f"raised {type(exc).__name__}: {exc}"], {}))
            continue
        records.append(Record(op, seconds, *op.check(result)))
    return records


def tail(seconds: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile, samples beyond)``; the maximum when there are
    fewer than eleven samples."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "baryreduce").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of the repository holding the benchmark, read from ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy bundles, as the user gets them."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(records, setup_seconds) -> dict:
    seconds = [r.seconds for r in records]
    value, pct, beyond = tail(seconds)
    return {
        "setup_s": (median(setup_seconds), "s",
                    f"median of {len(setup_seconds)} set-ups"),
        "op_s_p50": (median(seconds), "s", f"{len(seconds)} ops"),
        "op_s_tail": (value, "s", f"p{pct:.1f}, {beyond} of {len(seconds)} "
                                  "samples beyond"),
        "ops_per_s": (len(seconds) / sum(seconds), "1/s",
                      "ops per second of op time, checks excluded"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "peak resident set of the whole run"),
    }


def check_counts(workload: str, seed: int, counts: dict, digest: str) -> list:
    """Compare the traced run's exact counts with the last run of the same
    workload, seed and sources, then store them for the next run."""
    path = OUT / f"counts-{workload}-seed{seed}.json"
    problems = []
    if path.is_file():
        before = json.loads(path.read_text())
        if before["source_sha256"] == digest and before["counts"] != counts:
            diff = sorted(k for k in set(before["counts"]) | set(counts)
                          if before["counts"].get(k) != counts.get(k))
            problems.append(f"traced counts differ from the previous run: {diff}")
    path.write_text(json.dumps({"source_sha256": digest, "counts": counts},
                               indent=1, sort_keys=True))
    return problems


def report(title: str, figures: dict) -> None:
    print(title)
    for name, (value, unit, *note) in figures.items():
        suffix = f"  ({note[0]})" if note else ""
        print(f"  {name:<42} {value:>14.6g} {unit:<9}{suffix}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "baryreduce" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported here: the library is importable only once src/ is on the path
    import baryreduce
    import workloads

    if not Path(baryreduce.__file__).resolve().is_relative_to(SRC):
        print(f"error: baryreduce imported from {baryreduce.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup = workload.setup(args.seed, args.seconds, ROOT, OUT)
        setup_seconds.append(time.perf_counter() - start)
    records = run_ops(setup.ops)
    env = environment()
    figures = end_to_end(records, setup_seconds)
    figures.update((name, (value, unit, note))
                   for name, value, unit, note in workload.summary(records))
    failed = sum(1 for r in records if r.problems)
    figures["failed_op_frac"] = (failed / len(records), "ratio",
                                 f"{failed} of {len(records)} ops")
    problems = []
    if args.trace:
        traced, layer, trace_problems = traced_run(args, setup, records, env)
        records += traced
        problems += trace_problems

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ops {len(records)}  set-ups {SETUP_REPEATS}")
    print("environment " + json.dumps(env, sort_keys=True))
    report("end to end (untraced ops)", figures)
    if args.trace:
        report("per layer (traced ops, per op)", layer)
    for r in records:
        for problem in r.problems:
            print(f"failed {r.op.kind} {r.op.args}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = layer if args.trace else figures
    metrics = {m["name"]: {"value": chosen[m["name"]][0], "unit": m["unit"]}
               for m in listed["per_layer" if args.trace else "end_to_end"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup_seconds,
        "end_to_end": figures, "per_layer": layer if args.trace else None,
        "problems": problems,
        "ops": [{"kind": r.op.kind, "args": r.op.args, "seconds": r.seconds,
                 "problems": r.problems} for r in records],
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "metrics": metrics,
    }))
    return 0


def traced_run(args, setup, untraced, env) -> tuple:
    """Trace one pass of the op mix; return its records, the per-layer
    figures and any problem with the spans' bookkeeping."""
    ops = setup.ops[:setup.trace_ops]
    tracer = layers.make_tracer()
    tracer.install()
    try:
        traced = run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    problems = []
    balance = layers.self_time_balance(tracer)
    if balance > BALANCE_TOL:
        problems.append(f"self times miss an op's traced time by {balance:.2e}")
    figures, counts = layers.layer_figures(tracer, ops)
    figures.update(layers.overhead([r.seconds for r in traced],
                                   [r.seconds for r in untraced[:len(traced)]]))
    problems += check_counts(args.workload, args.seed, counts, env["source_sha256"])
    tracer.save(OUT / f"spans-{args.workload}.npz")
    return traced, figures, problems


if __name__ == "__main__":
    sys.exit(main())
