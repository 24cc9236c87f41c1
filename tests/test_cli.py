import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baryreduce import cli
from baryreduce.cli import main
from baryreduce.core import BaryError, ParseError, RaggedRows, make_distribution, pool_batch
from baryreduce.coreset import (
    build_coreset,
    evaluate_coreset,
    sensitivity_upper_bounds,
)
from baryreduce.instances import gen_coreset_synthetic, load_csv_distributions
from baryreduce.projection import jl_dimension
from baryreduce.transport import transport_costs

try:
    from importlib import resources
    _SCHEMA = json.loads(
        resources.files("baryreduce").joinpath("schemas/output.schema.json")
        .read_text()
    )
except Exception:  # pragma: no cover
    _SCHEMA = None


@pytest.fixture
def two_deltas(tmp_path):
    f = tmp_path / "two.csv"
    f.write_text("0,1.0,0.0\n1,1.0,2.0\n")
    return str(f)


def write_inputs(path, groups):
    """One CSV row ``i, weight, coords`` per atom of each ``(weights, atoms)``."""
    path.write_text("".join(
        f"{i},{w!r}," + ",".join(map(repr, x)) + "\n"
        for i, (weights, atoms) in enumerate(groups)
        for w, x in zip(weights.tolist(), atoms.tolist())))
    return str(path)


@pytest.fixture
def two_deltas_wide(tmp_path):
    """``two_deltas`` in R^256, wider than the dimension (237) that
    ``--policy optimal --eps 0.5 --delta 0.1`` asks for."""
    f = tmp_path / "two_wide.csv"
    zeros = ",0.0" * 255
    f.write_text(f"0,1.0,0.0{zeros}\n1,1.0,2.0{zeros}\n")
    return str(f)


@pytest.fixture
def blobs64(tmp_path):
    """3 inputs of 6 atoms in R^64; the default policy asks for m = 1685."""
    rng = np.random.default_rng(5)
    return write_inputs(tmp_path / "d64.csv",
                        [(np.full(6, 1 / 6), rng.normal(size=(6, 64))) for _ in range(3)])


@pytest.fixture
def small_inputs(tmp_path):
    """12 inputs of 1-4 atoms in R^2 with random weights."""
    rng = np.random.default_rng(11)
    return write_inputs(tmp_path / "small.csv",
                        [(rng.dirichlet(np.ones(n)), rng.normal(size=(n, 2)))
                         for n in rng.integers(1, 5, size=12)])


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def check_schema(payload):
    if _SCHEMA is not None:
        jsonschema.validate(payload, _SCHEMA)


class TestBarycenterCmd:
    def test_midpoint(self, two_deltas, capsys):
        code, out = run(["barycenter", "--input", two_deltas,
                         "--support-size", "1", "--no-timing"], capsys)
        assert code == 0
        assert out["cost"] == pytest.approx(1.0)
        check_schema(out)

    def test_single_distribution_zero_cost(self, tmp_path, capsys):
        f = tmp_path / "one.csv"
        f.write_text("0,0.5,0.0\n0,0.5,2.0\n")
        code, out = run(["barycenter", "--input", str(f),
                         "--support-size", "2", "--no-timing"], capsys)
        assert code == 0
        assert out["cost"] == pytest.approx(0.0, abs=1e-9)

    def test_missing_file(self, capsys):
        code = main(["barycenter", "--input", "/nonexistent.csv"])
        assert code == 2

    @pytest.mark.usefixtures("rising_transport_costs")
    def test_numerical_failure_exits_1(self, two_deltas, capsys):
        code = main(["barycenter", "--input", two_deltas, "--support-size", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestReduceCmd:
    def test_identity_dimension(self, two_deltas, capsys):
        code, out = run(["reduce", "--input", two_deltas, "--support-size", "1",
                         "--dim", "1", "--no-timing"], capsys)
        assert code == 0
        assert out["cost_low"] == pytest.approx(out["cost_high"], abs=1e-9)
        assert out["map"] == "identity"
        check_schema(out)

    def test_policy_echoes_dimension(self, two_deltas_wide, capsys):
        code, out = run(["reduce", "--input", two_deltas_wide, "--support-size", "1",
                         "--eps", "0.5", "--delta", "0.1",
                         "--policy", "optimal", "--no-timing"], capsys)
        assert code == 0
        assert out["m"] == jl_dimension(2, 0.5, 0.1, 2.0, "optimal", k=2)
        assert out["map"] == "gaussian"

    @pytest.mark.parametrize("extra", [[], ["--dim", "100"]], ids=["policy", "dim"])
    def test_never_maps_up(self, blobs64, capsys, extra):
        assert jl_dimension(18, 0.25, 0.1, 2.0, "optimal", k=3) == 1685
        code, out = run(["reduce", "--input", blobs64, "--p", "2", *extra,
                         "--no-timing"], capsys)
        assert code == 0
        assert out["map"] == "identity" and out["m"] == 64
        # both costs price the same plans and atoms, along two summation orders
        assert out["cost_low"] == pytest.approx(out["cost_high"], rel=1e-12)
        check_schema(out)

    def test_bad_policy_name(self, two_deltas):
        assert main(["reduce", "--input", two_deltas,
                     "--policy", "bogus"]) == 2


class TestCoresetCmd:
    def test_synthetic_runs(self, capsys):
        code, out = run(["coreset", "--k", "200", "--sizes", "10",
                         "--queries", "0", "10", "--no-timing"], capsys)
        assert code == 0
        assert len(out["rows"]) == 4  # 2 methods x 1 size x 2 queries
        check_schema(out)

    def test_negative_size(self, capsys):
        assert main(["coreset", "--k", "100", "--sizes", "-5"]) == 2

    @pytest.mark.parametrize("source", ["k", "input"])
    def test_one_pass_over_the_inputs(self, source, small_inputs, monkeypatch, capsys):
        # one pool of the distinct inputs: the synthetic family's two objects
        pooled = []

        def counted(mus):
            pooled.append(len(mus))
            return pool_batch(mus)

        monkeypatch.setattr(cli, "pool_batch", counted)
        argv = ["--k", "300"] if source == "k" else ["--input", small_inputs]
        code, out = run(["coreset", *argv, "--sizes", "5", "50",
                         "--queries", "0", "1", "10", "--no-timing"], capsys)
        assert code == 0
        assert pooled == [2 if source == "k" else 12]
        assert out["k"] == (300 if source == "k" else 12)

    @pytest.mark.parametrize("source, p", [("k", 2.0), ("input", 2.0), ("input", 1.5)])
    def test_rows_match_per_query_pricing(self, source, p, small_inputs, capsys):
        if source == "k":  # the synthetic family's pilot is its first input
            mus, argv = gen_coreset_synthetic(2000), ["--k", "2000"]
            pilot = mus[0]
        else:
            mus, argv = load_csv_distributions(small_inputs), ["--input", small_inputs]
            pilot = None
        sizes, queries, seed = [3, 40], [0.0, 1.0, 10.0], 7
        code, out = run(["coreset", *argv, "--p", str(p), "--sizes", *map(str, sizes),
                         "--queries", *map(str, queries), "--seed", str(seed),
                         "--no-timing"], capsys)
        assert code == 0
        d = mus[0].dim
        costs = [transport_costs(mus, make_distribution(np.full((1, d), x), [1.0]), p)
                 for x in queries]
        scores = sensitivity_upper_bounds(mus, p, pilot=pilot)
        q = {"uniform": np.full(len(mus), 1 / len(mus)),
             "sensitivity": scores / scores.sum()}
        rows = []
        for size in sizes:
            for method, probabilities in q.items():
                core = build_coreset(probabilities, size, seed=seed)
                for x, query_costs in zip(queries, costs):
                    ev = evaluate_coreset(core, query_costs)
                    rows.append({"method": method, "size": size, "query": x,
                                 "rel_error": ev["rel_error"],
                                 "zero_cost": ev["zero_cost"]})
        assert out == {"k": len(mus), "rows": rows}


class TestGenCmd:
    def test_ot_pair_rows(self, capsys):
        code, out = run(["gen", "ot_pair", "--d", "4", "--no-timing"], capsys)
        assert code == 0
        assert len(out["rows"]) == 8
        check_schema(out)

    def test_csv_format(self, tmp_path):
        dest = tmp_path / "out.csv"
        code = main(["gen", "ot_pair", "--d", "4", "--format", "csv",
                     "--output", str(dest)])
        assert code == 0
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 points


class TestSweepCmd:
    def test_identity_ratio(self, two_deltas, capsys):
        code, out = run(["sweep", "--input", two_deltas, "--support-size", "1",
                         "--m-values", "1", "--trials", "2",
                         "--no-timing"], capsys)
        assert code == 0
        assert out["rows"][0]["mean_ratio"] == pytest.approx(1.0, abs=1e-9)
        check_schema(out)

    def test_zero_trials(self, two_deltas):
        assert main(["sweep", "--input", two_deltas, "--m-values", "1",
                     "--trials", "0"]) == 2

    def test_byte_identical_reruns(self, two_deltas, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["sweep", "--input", two_deltas, "--support-size", "1",
                "--m-values", "1", "--trials", "2", "--no-timing"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def assert_one_error_line(code, capsys):
    """Exit code 2, nothing on stdout and one ``error:`` line on stderr."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("content", [
    b"", b"\xff\xfe", b'"' + b"k" * 200_000 + b'",1.0,0.0\n',
], ids=["empty", "not_utf8", "field_over_csv_limit"])
@pytest.mark.parametrize("command", [
    ["barycenter"], ["reduce"], ["coreset"], ["sweep", "--m-values", "1"],
], ids=["barycenter", "reduce", "coreset", "sweep"])
def test_unusable_input_file_is_a_usage_error(tmp_path, capsys, command, content):
    f = tmp_path / "in.csv"
    f.write_bytes(content)
    assert_one_error_line(main([*command, "--input", str(f)]), capsys)


@settings(max_examples=150, deadline=None)
@given(text=st.text(st.sampled_from('0123456789.e-," afinx\r\n\0'), max_size=60))
def test_arbitrary_csv_text_loads_or_names_its_line(tmp_path_factory, text):
    f = tmp_path_factory.mktemp("fuzz") / "in.csv"
    f.write_bytes(text.encode())
    try:
        load_csv_distributions(f)
    except (ParseError, RaggedRows) as exc:
        where = re.match(f"{re.escape(str(f))}:([0-9]+): ", str(exc))
        assert where and 1 <= int(where[1]) <= len(text.splitlines()), str(exc)
    except BaryError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["barycenter", "--input", str(f), "--no-timing"])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] if code == 0 else len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", [["barycenter"], ["reduce", "--dim", "2"]])
def test_quoted_and_plain_inputs_give_the_same_run(tmp_path, capsys, command):
    rng = np.random.default_rng(8)
    rows = [[str(i), 0.25, *x] for i in range(5) for x in rng.normal(size=(4, 3)).tolist()]
    stdout = []
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC):
        f = tmp_path / f"in{quoting}.csv"
        with open(f, "w", newline="") as fh:
            csv.writer(fh, quoting=quoting).writerows(rows)
        assert main([*command, "--input", str(f), "--no-timing"]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]
    assert '"' not in (tmp_path / f"in{csv.QUOTE_MINIMAL}.csv").read_text()


@pytest.mark.parametrize("command", [
    ["barycenter"], ["reduce"], ["coreset"], ["sweep", "--m-values", "1"],
], ids=["barycenter", "reduce", "coreset", "sweep"])
def test_negative_seed_is_a_usage_error(two_deltas, capsys, command):
    code = main([*command, "--input", two_deltas, "--seed", "-1"])
    assert_one_error_line(code, capsys)


# Every column distance of these atoms is at most 1, so at p = inf the costs
# stay finite and the support update is the first to see the exponent.
NEAR = "0,0.5,0.0\n0,0.5,0.2\n1,0.5,0.1\n1,0.5,0.3\n"


@pytest.mark.parametrize("argv", [
    ["reduce", "--p", "nan"], ["reduce", "--p", "inf"],
    ["gen", "lb_barycenter", "--p", "nan"], ["gen", "lb_barycenter", "--p", "0.5"],
    ["barycenter", "--p", "inf"], ["barycenter", "--support-size", "1", "--p", "inf", NEAR],
    ["reduce", "--dim", "1", "--p", "inf"], ["reduce", "--dim", "1", "--p", "inf", NEAR],
], ids=["reduce-nan", "reduce-inf", "gen-nan", "gen-half",
        "barycenter-inf", "barycenter-inf-near", "reduce-dim-inf", "reduce-dim-inf-near"])
def test_bad_exponent_is_a_usage_error(two_deltas, tmp_path, capsys, argv):
    if argv[-1] == NEAR:
        f = tmp_path / "near.csv"
        f.write_text(NEAR)
        argv = [*argv[:-1], "--input", str(f)]
    elif argv[0] != "gen":  # the dimension policy of reduce sees --p first
        argv = [*argv, "--input", two_deltas]
    assert_one_error_line(main(argv), capsys)


@pytest.mark.parametrize("m", ["-3", "0"])
def test_sweep_dimension_below_one_is_a_usage_error(two_deltas, capsys, m):
    code = main(["sweep", "--input", two_deltas, "--m-values", "1", m])
    assert_one_error_line(code, capsys)


@pytest.mark.parametrize("extra", [
    ["--eps", "1e-200"], ["--eps", "1e-160"], ["--delta", "1e-320"], ["--p", "1e80"],
], ids=["eps-squared-zero", "eps-squared-subnormal", "delta-tiny", "p-huge"])
def test_non_finite_dimension_is_a_usage_error(tmp_path, capsys, extra):
    f = tmp_path / "pairs.csv"  # two 2-atom inputs in R^2
    f.write_text("0,0.5,0.0,0.0\n0,0.5,1.0,0.0\n1,0.5,0.0,1.0\n1,0.5,1.0,1.0\n")
    assert_one_error_line(main(["reduce", "--input", str(f), *extra]), capsys)


@pytest.mark.parametrize("rows, extra", [
    ("0,0.5,0.0\n0,0.5,1.0\n", []),  # one input, fitted exactly by 4 atoms
    (NEAR, ["--p", "1e80"]),          # every cost underflows to 0
], ids=["one-input", "p-huge"])
def test_sweep_zero_reference_cost_is_a_usage_error(tmp_path, capsys, rows, extra):
    f = tmp_path / "zero.csv"
    f.write_text(rows)
    code = main(["sweep", "--input", str(f), "--m-values", "1", "--trials", "1",
                 "--support-size", "4", *extra])
    assert_one_error_line(code, capsys)


@pytest.mark.parametrize("command", [["barycenter"], ["reduce", "--dim", "1"]])
@pytest.mark.parametrize("seed", range(6))
def test_p1_median_at_a_data_point(tmp_path, capsys, command, seed):
    # one input whose weighted mean is its light atom at 0; one atom at
    # p=1 is the weighted median, the heavy atom at 1, at cost 1
    f = tmp_path / "median.csv"
    f.write_text("0,0.006622516556291391,0.0\n0,0.6622516556291391,1.0\n"
                 "0,0.33112582781456956,-2.0\n")
    code, out = run([*command, "--input", str(f), "--support-size", "1", "--p", "1",
                     "--seed", str(seed), "--no-timing"], capsys)
    assert code == 0
    assert out["support"] == [[1.0]]
    assert out.get("cost", out.get("cost_high")) == 1.0


def test_weight_sum_error_prints_a_plain_float(tmp_path, capsys):
    f = tmp_path / "short.csv"
    f.write_text("0,0.5,0.0\n0,0.4,1.0\n")
    code = main(["barycenter", "--input", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "np.float64" not in err
    assert err == f"error: {f}: distribution '0' weights sum to 0.9\n"


def test_runs_as_a_module():
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-m", "baryreduce", "coreset", "--k", "100",
                           "--sizes", "5", "--no-timing"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["k"] == 100 and len(out["rows"]) == 4
    check_schema(out)


def run_module(*argvs):
    """Run ``cli.main`` on each argv in turn in one fresh interpreter; returns
    the completed process, whose stdout holds each run's output in order."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = ("import sys\nfrom baryreduce.cli import main\n"
              f"sys.exit(max(main(argv) for argv in {list(argvs)!r}))")
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("p", ["200", "400", "inf", "1e6"])
def test_non_finite_coreset_costs_exit_1(p):
    # |x - 100|**p overflows; scores, sampling and the JSON must not see it
    done = run_module(["coreset", "--k", "10", "--sizes", "5", "--p", p,
                       "--queries", "100"])
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0] == "error: transport costs are not finite"


@pytest.mark.parametrize("argv", [
    ["coreset", "--k", "3", "--sizes", str(10**15)],
    ["coreset", "--k", str(10**15)],
    ["barycenter", "--support-size", str(10**15)],
], ids=["coreset_size", "coreset_k", "barycenter_support"])
def test_out_of_memory_is_one_error_line(argv, two_deltas):
    # each argv asks for an array of 10**15 elements, so the allocation fails at once
    if argv[0] == "barycenter":
        argv = [*argv, "--input", two_deltas]
    done = run_module(argv)
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


def test_one_parser_serves_every_call(tmp_path):
    gen = ["gen", "ot_pair", "--d", "4", "--no-timing"]
    coreset = ["coreset", "--k", "50", "--sizes", "5", "--no-timing"]
    together = run_module(gen, coreset, gen)
    apart = [run_module(argv) for argv in (gen, coreset, gen)]
    assert together.returncode == 0 and all(done.returncode == 0 for done in apart)
    assert together.stdout == "".join(done.stdout for done in apart)
    assert cli.build_parser() is cli.build_parser()
    for bad in (["coreset", "--sizes"], ["nope"], ["gen", "ot_pair", "--d", "x"]):
        assert main(bad) == 2
    assert main(coreset + ["--output", str(tmp_path / "out.json")]) == 0
    assert (tmp_path / "out.json").read_text() == apart[1].stdout
