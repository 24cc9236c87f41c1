"""Tests of the benchmark's own code: python -m pytest bench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from run import tail  # noqa: E402
from spans import self_times  # noqa: E402


def test_self_times_subtract_direct_children_only():
    #      0 (10)
    #     /      \
    #   1 (6)    4 (1)
    #   /   \
    # 2 (2) 3 (3)
    parents = np.array([-1, 0, 1, 1, 0])
    durations = np.array([10.0, 6.0, 2.0, 3.0, 1.0])
    own = self_times(parents, durations)
    np.testing.assert_allclose(own, [3.0, 1.0, 2.0, 3.0, 1.0])
    assert own.sum() == pytest.approx(durations[0])


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = tail(list(range(36)))
    assert (value, beyond) == (25, 10)
    assert pct == pytest.approx(100 * 26 / 36)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_op_list(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup

    def op_list(seed):
        return [(op.kind, op.p, op.seed, op.args)
                for op in setup(seed, 1, ROOT, tmp_path).ops]

    first = op_list(3)
    assert first == op_list(3)
    if name != "ot_pairs":  # ot_pairs draws its points, checked below
        assert first != op_list(4)


def test_ot_pairs_points_repeat_for_a_seed():
    a, b, c = (workloads.ot_cases(seed, 1) for seed in (5, 5, 6))
    assert len(a) == 36
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.mu.atoms, y.mu.atoms)
        np.testing.assert_array_equal(x.nu.weights, y.nu.weights)
        assert x.optimum == y.optimum
    assert not np.array_equal(a[0].mu.atoms, c[0].mu.atoms)


def _optimal_plan(case):
    """The assignment plan of a uniform case, independent of the library."""
    C = workloads.cost_matrix(case.mu.atoms, case.nu.atoms, case.p)
    rows, cols = linear_sum_assignment(C)
    flow = np.zeros_like(C)
    flow[rows, cols] = 1.0 / len(rows)
    return flow, float((flow * C).sum())


def test_oracle_flags_a_wrong_cost():
    case = next(c for c in workloads.ot_cases(0, 1)
                if c.scale == 1.0 and np.ptp(c.mu.weights) == 0)
    flow, cost = _optimal_plan(case)
    assert workloads.check_transport(case, flow, cost) == []

    worse = flow.copy()  # swap two rows' targets: feasible, more costly
    worse[[0, 1]] = worse[[1, 0]]
    C = workloads.cost_matrix(case.mu.atoms, case.nu.atoms, case.p)
    problems = workloads.check_transport(case, worse, float((worse * C).sum()))
    assert any("x optimum" in p for p in problems)

    assert any("reported cost" in p
               for p in workloads.check_transport(case, flow, cost * (1 + 1e-6)))

    lopsided = flow.copy()
    lopsided[0, 0] += 1e-6
    assert any("marginals" in p
               for p in workloads.check_transport(case, lopsided, cost))


def test_oracle_matches_highs_and_assignment_at_unit_scale():
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    u = np.full(6, 1.0 / 6)
    for p in (1.0, 2.0):
        assert workloads.unit_optimum(X, Y, u, u, p, uniform=False) == pytest.approx(
            workloads.unit_optimum(X, Y, u, u, p, uniform=True), rel=1e-12)


def test_traced_cli_call_nests_spans_and_balances(tmp_path):
    mus_path = tmp_path / "two.csv"
    mus_path.write_text("0,1.0,0.0,0.0\n1,1.0,2.0,1.0\n")
    tracer = layers.make_tracer()
    tracer.install()
    try:
        code, _, _ = tracer.run_op(0, lambda: workloads.run_cli(
            ["reduce", "--input", str(mus_path), "--dim", "1", "--no-timing",
             "--support-size", "1"]))[0]
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    parent_of = {name: names[p] for name, p in zip(names, spans["parent"]) if p >= 0}
    assert parent_of["cli.main"] == "bench.op"
    assert parent_of["projection.reduce_solve_reconstruct"] == "cli.cmd_reduce"
    assert parent_of["barycenter.solve_barycenter"] == "projection.reduce_solve_reconstruct"
    assert parent_of["transport.solve_ot"] == "barycenter.solve_barycenter"
    assert "projection.make_gaussian_map" in names  # reached through MAP_MAKERS
    assert layers.self_time_balance(tracer) < 1e-9

    op = workloads.Op("reduce", 2.0, 0, [], None, None)
    figures, _ = layers.layer_figures(tracer, [op])
    figures.update(layers.overhead([1.0], [1.0]))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in listed["per_layer"]} == set(figures)


def test_uninstall_restores_the_library():
    from baryreduce import cli, projection, transport

    before = (transport.solve_ot, cli.solve_barycenter,
              dict(projection.MAP_MAKERS))
    tracer = layers.make_tracer()
    tracer.install()
    assert transport.solve_ot is not before[0]
    assert cli.solve_barycenter is projection.solve_barycenter
    tracer.uninstall()
    assert (transport.solve_ot, cli.solve_barycenter,
            dict(projection.MAP_MAKERS)) == before
