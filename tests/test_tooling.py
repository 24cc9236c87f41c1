"""Checks on the source tree itself: no unused imports, runtime imports only
from numpy, scipy and the standard library, every public name of the engine
reached by the engine, the benchmark or a demo, the benchmark's span names
still name public functions of the package, output is written by
``cli._emit`` alone, the exponent p is ordered against a bound by
``core.check_exponent`` alone, distances are computed by
``transport._distances`` alone and read in the solver by ``pooled_costs``
or the transport model alone, the solver layer never re-pools its inputs,
every error class of ``core`` is raised by the package, every model option
of the CLI is read by its command's handler, and the pytest configuration
reports a failing property test as a failure."""

import argparse
import ast
import contextlib
import importlib
import io
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from baryreduce import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baryreduce"
# __init__.py imports names only to re-export them
SOURCES = sorted([*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unused]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport numpy.linalg\nfrom a import b as c\n") == [
        "line 1: os", "line 2: numpy", "line 3: c"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set:
    """Top-level names of the modules that ``source`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_runtime_imports_are_numpy_scipy_or_stdlib():
    allowed = {*sys.stdlib_module_names, "numpy", "scipy", "baryreduce"}
    for path in sorted(PACKAGE.glob("*.py")):
        assert imported_modules(path.read_text()) <= allowed, path.name
    assert imported_modules("import a.b\nfrom c.d import e\nfrom . import f\n") == {"a", "c"}


def test_runtime_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert sorted(re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in deps) == [
        "numpy", "scipy"]


#: public names that no engine module, benchmark or demo needs to call
UNREACHED_BY_DESIGN = {
    "coreset_size_bound": "the paper's worst-case coreset size, to print beside measured sizes",
    "practical_size_bound": "the data-dependent coreset size, to print beside measured sizes",
}


def unreached_names() -> list:
    """Top-level public functions and classes of ``src/baryreduce`` whose name
    appears as a whole word nowhere outside their own definition: not in
    another engine module, not elsewhere in their own, and not in a
    benchmark or demo file.  ``cmd_*`` handlers are dispatched by name."""
    engine = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    texts = {path: path.read_text() for path in [
        *engine, *(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]}
    unreached = []
    for path in engine:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith(("_", "cmd_")) or node.name in UNREACHED_BY_DESIGN):
                continue
            rest = "\n".join([*lines[:node.lineno - 1], *lines[node.end_lineno:]])
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(text) for text in
                       [rest, *(t for p, t in texts.items() if p != path)]):
                unreached.append(f"{path.name}: {node.name}")
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_names() == []


def _span_names() -> list:
    """The literal span names of ``bench/layers.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("CALLS_AND_SELF", "SELF_ONLY", "MAP_MAKERS")
                for t in node.targets):
            names.extend(ast.literal_eval(node.value))
    return names


def test_bench_span_lists_are_read():
    assert len(_span_names()) >= 15


@pytest.mark.parametrize("name", _span_names())
def test_bench_span_is_a_public_function_of_its_module(name):
    module_name, _, function = name.partition(".")
    module = importlib.import_module(f"baryreduce.{module_name}")
    obj = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__


def _writes_output(node) -> bool:
    """``node`` reads ``sys.stdout``, prints without ``file=`` or calls an
    ``open`` whose mode writes, appends, creates or updates (or is not a
    literal)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "stdout" and isinstance(node.value, ast.Name) and node.value.id == "sys"
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "print":
        return all(kw.arg != "file" for kw in node.keywords)
    if isinstance(func, ast.Name) and func.id == "open":
        modes = node.args[1:2]  # open(file, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        modes = node.args[:1]  # path.open(mode)
    else:
        return False
    modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
    return any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
               for mode in modes)


def sites_where(matches, source: str, module: str) -> list:
    """``module.function`` (or ``module``) of each node of ``source`` that
    ``matches``, in source order."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            here = (f"{where}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where)
            if matches(child):
                sites.append(here)
            visit(child, here)

    visit(ast.parse(source), module)
    return sites


def test_output_sites_are_found():
    source = ("import sys\n"
              "def f():\n    sys.stdout.write('x')\n    print('y', file=sys.stderr)\n"
              "class C:\n    def g(self, p):\n        open(p, 'a')\n        open(p)\n"
              "        open(p, mode='rb')\n        print()\n"
              "def h(p, m):\n    p.open(m)\n    p.open()\n"
              "print(open('x', 'r+'))\n")
    assert sites_where(_writes_output, source, "m") == ["m.f", "m.C.g", "m.C.g", "m.h", "m", "m"]


def test_output_is_written_by_cli_emit_alone():
    """One output path: stdout and files are written in ``cli._emit`` only."""
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in sites_where(_writes_output, path.read_text(), path.stem)]
    assert sites and set(sites) == {"cli._emit"}, sites


def _calls(name: str):
    """A matcher for the calls of ``name``, by name or as an attribute."""
    def matches(node):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    return matches


def test_cdist_calls_are_found():
    source = ("from scipy.spatial import distance\n"
              "def f(a):\n    return distance.cdist(a, a) ** 2\n"
              "cdist(1)\nf(cdist)\n")
    assert sites_where(_calls("cdist"), source, "m") == ["m.f", "m"]


def test_distances_are_computed_by_transport_distances_alone():
    """One pricing rule: in the package only ``transport._distances`` calls
    ``cdist``, so the solver, its support step and every report price alike."""
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in sites_where(_calls("cdist"), path.read_text(), path.stem)]
    assert sites and set(sites) == {"transport._distances"}, sites


def _orders_exponent(node) -> bool:
    """``node`` is an ordering comparison (``<``, ``<=``, ``>``, ``>=``) with
    a bare ``p`` or an attribute ``*.p`` as an operand."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) and any(
        getattr(x, "id", None) == "p" or getattr(x, "attr", None) == "p" for x in pair)
        for op, pair in zip(node.ops, zip(operands, operands[1:])))


def test_exponent_orderings_are_found():
    source = ("def f(p, x, step):\n"
              "    if p < 1:\n        pass\n"
              "    return x.p >= 2, p == 2.0, p != 2, step * p < 1e-18, x.q < 1\n"
              "def check_exponent(p):\n    return 1.0 <= p < inf\n"
              "y = (0 < 1 < p)\n")
    assert sites_where(_orders_exponent, source, "m") == [
        "m.f", "m.f", "m.check_exponent", "m"]


def test_the_exponent_rule_is_core_check_exponent_alone():
    """One exponent rule: in the package only ``core.check_exponent`` orders
    p against a bound, so every entry that takes p refuses the same values."""
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in sites_where(_orders_exponent, path.read_text(), path.stem)]
    assert sites and set(sites) == {"core.check_exponent"}, sites


def _unpriced_distances(source: str):
    """A matcher for the reads of an array that ``_distances`` returns in
    ``source`` other than as an argument of a ``pooled_costs`` or a ``solve``
    call: the ``_distances`` call itself, or a name bound to its array
    directly or by a plain move to another name.  ``sites_where`` visits an
    assignment or a call before its parts."""
    is_distances, is_reader = _calls("_distances"), _calls("pooled_costs")
    is_solve = _calls("solve")

    def moves(node):
        """The (target, value) pairs of an assignment, element by element."""
        for target in getattr(node, "targets", []) if isinstance(node, ast.Assign) else []:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                yield from zip(target.elts, node.value.elts)
            else:
                yield target, node.value

    held = set()  # the names bound to such an array

    def is_array(node):
        return is_distances(node) or (isinstance(node, ast.Name) and node.id in held
                                      and isinstance(node.ctx, ast.Load))

    tree, size = ast.parse(source), -1
    while size < len(held):  # a name may be moved to before it is bound
        size = len(held)
        held.update(target.id for node in ast.walk(tree) for target, value in moves(node)
                    if isinstance(target, ast.Name) and is_array(value))
    allowed = set()

    def matches(node):
        if is_reader(node) or is_solve(node):
            allowed.update(map(id, node.args))
        allowed.update(id(value) for target, value in moves(node)
                       if isinstance(target, ast.Name))
        return is_array(node) and id(node) not in allowed
    return matches


def test_unpriced_sites_are_found():
    source = ("def f(x, y, m):\n"
              "    C = _distances(x, y, 1)\n"
              "    m.solve(C)\n"
              "    t.pooled_costs(flow, _distances(x, y, 1), s)\n"
              "    return w @ C[:, j]\n"
              "def g(x, y, m):\n"
              "    D, E = fit, _distances(x, y, 1)\n"
              "    C = E\n"
              "    return pooled_costs(flow, C, s), m.solve(E), C.sum()\n"
              "pooled_costs(g(_distances(x, y, 2)))\nf(_distances)\n")
    assert sites_where(_unpriced_distances(source), source, "m") == ["m.f", "m.g", "m"]
    assert sites_where(_calls("_distances"), source, "m") == ["m.f", "m.f", "m.g", "m"]


def test_barycenter_prices_distances_by_pooled_costs_alone():
    """One pricing rule in the solver: each array that ``_distances``
    returns in ``barycenter.py`` is read by ``pooled_costs`` or by the
    transport model's ``solve``, which prices by it, alone; so no support
    step or report sums its costs in another order than the trace does."""
    source = (PACKAGE / "barycenter.py").read_text()
    assert sites_where(_calls("_distances"), source, "barycenter")
    assert sites_where(_unpriced_distances(source), source, "barycenter") == []


def error_classes(source: str) -> list:
    """The classes of ``source`` derived, within it, from ``BaryError``."""
    errors = ["BaryError"]
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) in errors for base in node.bases):
            errors.append(node.name)
    return errors[1:]


def unraised_errors(core_source: str, sources) -> list:
    """The error classes of ``core_source`` that no source raises, by
    ``raise X(...)`` or by ``return X(...)`` for a caller to raise."""
    made = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            error = node.exc if isinstance(node, ast.Raise) else (
                node.value if isinstance(node, ast.Return) else None)
            if isinstance(error, ast.Call) and isinstance(error.func, ast.Name):
                made.add(error.func.id)
    return [name for name in error_classes(core_source) if name not in made]


def test_unraised_errors_are_found():
    core = ("class BaryError(ValueError):\n    pass\nclass A(BaryError):\n    pass\n"
            "class B(A):\n    pass\nclass C(BaryError):\n    pass\n"
            "class Other(Exception):\n    pass\n")
    sources = ["def f():\n    raise A('x')\n", "def g():\n    return B('y')\n",
               "def h():\n    raise Other('z')\n    C\n"]
    assert unraised_errors(core, sources) == ["C"]
    planted = (PACKAGE / "core.py").read_text() + "\n\nclass Planted(BaryError):\n    pass\n"
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    assert unraised_errors(planted, sources) == ["Planted"]


def test_every_error_class_is_raised():
    """One class per kind of fault: ``core`` defines the seven kinds a
    caller catches, and the package raises each of them."""
    core = (PACKAGE / "core.py").read_text()
    assert error_classes(core) == ["DimensionMismatch", "BadWeights", "BadPoints", "EmptyInput",
                                   "BadParams", "InvalidSolution", "ParseError"]
    assert unraised_errors(core, [path.read_text() for path in PACKAGE.glob("*.py")]) == []


def _names(name: str):
    """A matcher for the nodes that name ``name`` (``pool_batch``,
    ``np.split``): a name or attribute that reads it, or an import of it."""
    def matches(node):
        if isinstance(node, (ast.Name, ast.Attribute)):
            return ast.unparse(node) == name
        return isinstance(node, ast.alias) and name in (node.name, node.asname)
    return matches


def test_named_sites_are_found():
    source = ("from .core import pool_batch as pb\nimport numpy as np\n"
              "def f(x):\n    return np.split(pb(x))\nsplit = x.split\n")
    assert sites_where(_names("pool_batch"), source, "m") == ["m"]
    assert sites_where(_names("np.split"), source, "m") == ["m.f"]
    assert sites_where(_names("pb"), source, "m") == ["m", "m.f"]


@pytest.mark.parametrize("module, name", [
    ("barycenter", "pool_batch"), ("coreset", "pool_batch"), ("projection", "pool_batch"),
    ("projection", "make_distribution"), ("projection", "np.split"),
])
def test_the_solver_layer_never_re_pools(module, name):
    """The functions that solve take the batch their caller pooled, and a
    projection maps a batch to a batch: neither splits it or pools again."""
    source = (PACKAGE / f"{module}.py").read_text()
    assert sites_where(_names(name), source, module) == []


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return super().__getattribute__(name)


#: the output options, which every command takes and ``cli._emit`` reads
OUTPUT_OPTIONS = {"--format", "--output", "--no-timing"}


def leaf_parsers(parser, prefix=()):
    """(argv prefix, parser) of every command and ``gen`` kind of ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield list(prefix), parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*prefix, name))


def unread_options(parser, values) -> list:
    """``command flag`` of each model option that the command's handler does
    not read.  Each option is given alone, as ``values[flag]`` (checked to
    differ from its default), next to the required options; a required
    option is checked on that minimal argv itself."""
    unread = []
    for prefix, leaf in leaf_parsers(parser):
        options = [a for a in leaf._actions
                   if a.option_strings and a.dest != "help"
                   and not OUTPUT_OPTIONS & set(a.option_strings)]
        base = [word for a in options if a.required
                for word in (a.option_strings[0], *values[a.option_strings[0]])]
        for action in options:
            flag = action.option_strings[0]
            argv = [*prefix, *base, *([] if action.required else [flag, *values[flag]])]
            args = parser.parse_args(argv, namespace=ReadRecorder())
            assert action.required or getattr(args, action.dest) != action.default, argv
            args._reads.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert getattr(cli, f"cmd_{args.command}")(args) == cli.EXIT_OK, argv
            if action.dest not in args._reads:
                unread.append(f"{' '.join(prefix)} {flag}")
    return unread


@pytest.fixture
def option_values(tmp_path):
    """A value other than the default for every model option of the CLI."""
    f = tmp_path / "in.csv"
    f.write_text("0,0.5,0.0,0.0\n0,0.5,1.0,0.0\n1,0.5,0.0,1.0\n1,0.5,1.0,1.0\n")
    return {"--input": [str(f)], "--support-size": ["2"], "--eps": ["0.2"],
            "--delta": ["0.2"], "--dim": ["1"], "--policy": ["p2"], "--map": ["srht"],
            "--k": ["20"], "--sizes": ["5"], "--queries": ["1"], "--m-values": ["1"],
            "--trials": ["2"], "--p": ["1.5"], "--seed": ["1"], "--d": ["6"],
            "--C": ["4"], "--t": ["3"], "--N": ["20"]}


def test_unread_options_are_found(option_values):
    parser = cli.build_parser.__wrapped__()  # a parser of its own, not the cached one
    commands = {" ".join(prefix): leaf for prefix, leaf in leaf_parsers(parser)}
    commands["barycenter"].add_argument("--planted", type=int, default=0)
    commands["gen lb_barycenter"].add_argument("--seed", type=int, default=0)
    assert unread_options(parser, {**option_values, "--planted": ["1"]}) == [
        "barycenter --planted", "gen lb_barycenter --seed"]


def test_every_model_option_is_read_by_its_handler(option_values):
    """One option rule: each command and ``gen`` kind takes only the model
    options its handler reads, so no option is accepted and ignored."""
    assert len(list(leaf_parsers(cli.build_parser()))) == 8
    assert unread_options(cli.build_parser(), option_values) == []


def test_failing_property_test_is_reported(tmp_path):
    """Under the project's warning filters a failing ``@given`` test is an
    ordinary failure with its falsifying example, not an INTERNALERROR."""
    pytest.importorskip("hypothesis")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(x):\n"
        "    assert x != x\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
