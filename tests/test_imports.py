"""Import and source contracts: the package modules form a dependency order,
every function parameter is read, one module holds the Gauss-Legendre rule
and the radial flux stencil, no layer checks the class of K, every name the
benchmark's tracer wraps exists, construct solves through one call site,
the window scan has no mode switches, and importing the package and the quadrature-only commands load
numpy but no scipy module; scipy submodules are imported on first use, solve and verify load only scipy.linalg, and the superposition audit loads no scipy."""

from __future__ import annotations

import ast
import graphlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solveh_banded as scipy_solveh_banded

import elliptic_lab
from elliptic_lab import bvp1d, funcs, quad
from elliptic_lab.errors import SolverFault

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "elliptic_lab"
SPANS = SRC.parent / "perfbench" / "spans.py"

SPLIT_CUBIC = {"N": 3, "phi": {"kind": "power_split", "alpha": -3, "beta": -3},
               "f": {"kind": "power", "p": 1}, "K": {"kind": "origin"}}
BOUNDARY_POWER = {
    "problem": {"N": 3, "phi": {"kind": "power", "alpha": -2},
                "f": {"kind": "power", "p": 1}, "K": {"kind": "origin"}},
    "certify": {"regime": "boundary", "r0": 1.0},
}


class _ImportTimeImports(ast.NodeVisitor):
    """Package-relative imports among the statements that run when a module is imported.

    Function bodies run later, and ``if TYPE_CHECKING:`` blocks never run.
    """

    def __init__(self, modules: set[str]):
        self.modules = modules
        self.found: set[str] = set()

    def visit_FunctionDef(self, node):
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node):
        if isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.level == 1:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            self.found.update(name for name in names if name in self.modules)


def import_graph() -> dict[str, set[str]]:
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {}
    for name in modules:
        visitor = _ImportTimeImports(modules)
        visitor.visit(ast.parse((PACKAGE / f"{name}.py").read_text()))
        graph[name] = visitor.found
    return graph


def test_modules_form_a_dependency_order():
    graph = import_graph()
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert "funcs" not in graph["quad"]
    assert "problem" not in graph["quad"]
    assert "funcs" not in graph["bvp1d"]
    assert order.index("quad") < order.index("bvp1d") < order.index("funcs")


# (module, function, parameter) triples allowed to stay unread.
UNREAD_ALLOWED = {
    # the grids come from the minimal solution; the benchmark's ladder workload
    # calls family_member(..., nodes=nodes)
    ("construct", "family_member", "nodes"),
}


def unread_parameters() -> set[tuple[str, str, str]]:
    """Parameters of module-level functions that the function body never reads."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.update((path.stem, node.name, p) for p in params if p not in read)
    return found


def test_every_function_parameter_is_read():
    assert unread_parameters() - UNREAD_ALLOWED == set()


def scipy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the scipy modules it loaded."""
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_probe(tmp_path, command: str, config: dict) -> str:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    return f"from elliptic_lab.cli import main\nassert main({argv!r}) == 0"


def test_import_loads_no_scipy():
    assert scipy_modules_after("import elliptic_lab") == []


def test_classify_loads_no_scipy(tmp_path):
    assert scipy_modules_after(cli_probe(tmp_path, "classify", {"problem": SPLIT_CUBIC})) == []


def test_certify_divergence_loads_no_scipy(tmp_path):
    code = cli_probe(tmp_path, "certify-divergence", BOUNDARY_POWER)
    assert scipy_modules_after(code) == []


SCIPY_HELPERS = {"scipy", "scipy.version"}  # the package's own set-up modules


def scipy_subpackages(modules: list[str]) -> set[str]:
    """The public scipy subpackages among the loaded modules, e.g. ``scipy.linalg``."""
    return {".".join(m.split(".")[:2]) for m in modules
            if m not in SCIPY_HELPERS and not m.split(".")[1].startswith("_")}


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_solve_and_verify_load_scipy_only_for_lapack(tmp_path, command):
    """Profiles interpolate with numpy: a cold lab solve or lab verify on the
    minimal construction loads scipy.linalg and no other scipy subpackage."""
    modules = scipy_modules_after(cli_probe(tmp_path, command, {"problem": SPLIT_CUBIC}))
    assert not [m for m in modules if m.startswith(("scipy.interpolate", "scipy.optimize"))]
    assert scipy_subpackages(modules) == {"scipy.linalg"}


def test_verify_superposition_loads_no_scipy(tmp_path):
    """The field audit draws its Halton points with numpy."""
    config = {"problem": {**SPLIT_CUBIC, "K": {"kind": "point_set",
                                                "centers": [[0, 0, 0], [4, 0, 0]]}},
              "verify": {"target": "superposition", "samples": 2000}}
    assert scipy_modules_after(cli_probe(tmp_path, "verify", config)) == []


def test_gauge_grid_loads_no_scipy():
    code = "from elliptic_lab.bvp1d import RadialGrid\nRadialGrid.two_sided_unit(1e-3, 101)"
    assert scipy_modules_after(code) == []


def test_package_imports_scipy_only_for_lapack():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.split(".")[0] == "scipy"} == {"scipy.linalg.lapack"}


def test_solve_banded_matches_scipy_exactly():
    # SPD tridiagonal matrices: solveh_banded with one off-diagonal is ptsv too
    rng = np.random.default_rng(7)
    for n in (2, 17, 200, 2048):
        ab = np.zeros((2, n))
        ab[0, 1:] = -rng.uniform(0.1, 1.0, n - 1)
        ab[1] = 2.5 + rng.uniform(0.0, 1.0, n)
        b = rng.standard_normal(n)
        expected = scipy_solveh_banded(ab, b)
        off = ab[0, 1:].copy()
        x = bvp1d.solve_banded(off, ab[1].copy(), b.copy())
        assert np.array_equal(x, expected)
        assert np.array_equal(off, ab[0, 1:])  # reusable


def test_solve_banded_singular_system_is_a_solver_fault():
    # a zero pivot and an indefinite matrix: ptsv stops at the first pivot <= 0
    for diag, info in (([0.0, 2.0, 2.0, 2.0, 2.0], 1), ([2.0, -1.0, 2.0, 2.0, 2.0], 2)):
        with pytest.raises(SolverFault, match=rf"ptsv info={info}: not positive definite"):
            bvp1d.solve_banded(np.full(4, -0.5), np.array(diag), np.ones(5))


def test_one_gauss_legendre_rule():
    """Every Gauss-Legendre panel goes through quad._panels, the one rule."""
    users = sorted(p.name for p in PACKAGE.glob("*.py") if "leggauss" in p.read_text())
    assert users == ["quad.py"]


def test_one_radial_stencil():
    """Every radial -Lap goes through bvp1d.neg_laplacian, the solver's flux stencil."""
    users = sorted(p.name for p in PACKAGE.glob("*.py")
                   if "_face_conductance" in p.read_text() or "_cell_volumes" in p.read_text())
    assert users == ["bvp1d.py"]


def compact_set_class_checks() -> list[tuple[str, str]]:
    """(module file, class) of every isinstance call that names Origin, Ball or PointSet."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"):
                kinds = node.args[1]
                for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                    name = ast.unparse(kind).split(".")[-1]
                    if name in ("Origin", "Ball", "PointSet"):
                        found.append((path.name, name))
    return found


def test_one_compact_set_protocol():
    """Every layer asks K for its distance, solid and dimension; only problem.py
    and the superposition target of lab verify check K's class."""
    checks = compact_set_class_checks()
    assert {module for module, _ in checks} <= {"problem.py", "cli.py"}
    assert [kind for module, kind in checks if module == "cli.py"] == ["PointSet"]


def traced_attributes() -> list[tuple[str, str]]:
    """(target, attribute) of every tracer.wrap call in perfbench/spans.py.

    The target is the source text of the wrapped object relative to the
    package, e.g. ``quad._InnerCumulative``; an attribute given by a loop
    variable expands to the loop's constant values.
    """
    tree = ast.parse(SPANS.read_text())
    loops = {node.target.id: ast.literal_eval(node.iter) for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and isinstance(node.iter, (ast.Tuple, ast.List))}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"):
            target, attr = node.args[:2]
            attrs = loops[attr.id] if isinstance(attr, ast.Name) else [attr.value]
            found += [(ast.unparse(target), a) for a in attrs]
    return found


def test_every_traced_attribute_exists():
    """Renaming a name the benchmark's tracer wraps fails here, not in a traced run."""
    traced = traced_attributes()
    assert len(traced) >= 20
    missing = []
    for target, attr in traced:
        module, *path = target.split(".")
        obj = importlib.import_module(f"elliptic_lab.{module}")
        for part in path:
            obj = getattr(obj, part)
        if not hasattr(obj, attr):
            missing.append(f"{target}.{attr}")
    assert missing == []


def test_one_window_scan_and_one_double_integral_path():
    """The window scan has no mode switches, and the package exports the one
    supersolution entry point."""
    assert list(inspect.signature(quad._scan).parameters) == ["g", "windows", "criterion"]
    assert "supersolution_profile" in elliptic_lab.__dict__
    for gone in ("_merge_reports", "iterated_tail_value", "_tail_value"):
        assert not hasattr(quad, gone)
    for gone in ("supersolution_values", "SupersolutionData", "double_integral_profile"):
        assert not hasattr(funcs, gone) and not hasattr(elliptic_lab, gone)
    assert "r_max" not in inspect.signature(funcs.supersolution_profile).parameters
    assert "inner_lower" not in inspect.signature(quad.iterated_tail).parameters


def test_construct_solves_at_one_call_site():
    """Every ladder level goes through one solve_on_nodes call, which passes
    config as the 7th positional argument or as config= (the tracer reads it)."""
    tree = ast.parse((PACKAGE / "construct.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "solve_on_nodes"]
    assert len(calls) == 1
    assert len(calls[0].args) >= 7 or any(k.arg == "config" for k in calls[0].keywords)


def _calls(name: str) -> list[tuple[str, ast.Call]]:
    """The calls of a bare name in the package's modules, with each call's module."""
    return [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name]


def test_every_solve_passes_config_by_keyword():
    """config is solve_on_nodes' 5th parameter, and the tracer reads it as the
    7th positional argument or as config=, so every call names it."""
    calls = _calls("solve_on_nodes")
    assert {module for module, _ in calls} == {"bvp1d", "construct"}
    for _, call in calls:
        assert len(call.args) <= 4 and any(k.arg == "config" for k in call.keywords)


def test_flux_systems_are_assembled_in_one_place():
    """One assembly path: flux_stack is the only caller of _flux_system."""
    tree = ast.parse((PACKAGE / "bvp1d.py").read_text())
    callers = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "_flux_system" for n in ast.walk(fn))]
    assert callers == ["flux_stack"]
    assert [module for module, _ in _calls("_flux_system")] == ["bvp1d"]
