import json

import jsonschema
import pytest

from baryreduce.cli import main

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

    def test_policy_echoes_dimension(self, two_deltas, capsys):
        from baryreduce.projection import jl_dimension
        code, out = run(["reduce", "--input", two_deltas, "--support-size", "1",
                         "--eps", "0.5", "--delta", "0.1",
                         "--policy", "optimal", "--no-timing"], capsys)
        assert code == 0
        assert out["m"] == jl_dimension(2, 0.5, 0.1, 2.0, "optimal", k=2)

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


@pytest.mark.parametrize("content", [
    b"", b"\xff\xfe", b'"' + b"k" * 200_000 + b'",1.0,0.0\n',
], ids=["empty", "not_utf8", "field_over_csv_limit"])
@pytest.mark.parametrize("command", [
    ["barycenter"], ["reduce"], ["coreset"], ["sweep", "--m-values", "1"],
], ids=["barycenter", "reduce", "coreset", "sweep"])
def test_unusable_input_file_is_a_usage_error(tmp_path, capsys, command, content):
    f = tmp_path / "in.csv"
    f.write_bytes(content)
    code = main([*command, "--input", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
