"""The public API of the package: each module's __all__ and the names
mstat/__init__.py re-exports resolve, the tolerance parameters that became
module constants stay removed, and the user-set eps reaches every function
that decides with it."""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import pytest

import mstat

MODULES = ["cones", "graph_normals", "lp", "newsvendor", "portfolio", "stationarity"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module("mstat." + name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(mstat.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert getattr(mstat, name) is getattr(importlib.import_module("mstat." + module), name)
        assert name in importlib.import_module("mstat." + module).__all__, (module, name)


# Parameters that became module constants; none may come back.
REMOVED_PARAMETERS = {
    ("graph_normals", "orthant_membership"): ["strict_eps"],
    ("graph_normals", "simplex_membership"): ["strict_eps"],
    ("graph_normals", "polyhedron_membership"): ["context"],
    ("stationarity", "ParameterSet.normal_cone_distance"): ["eps"],
    ("stationarity", "Problem.scenario_terms"): ["eps"],
    ("stationarity", "UpperModel.grad_z_bounds"): ["eps"],
    ("stationarity", "lower_residual"): ["eps"],
    ("stationarity", "nnamcq_check"): ["eps"],
    ("stationarity", "upper_residual"): ["eps", "penalties"],
    ("stationarity", "difference_check"): ["h", "rtol", "eps", "trials"],
    ("stationarity", "value_function"): ["value_tol", "point_tol"],
    ("cones", "distance_to_normal_cone"): ["eps"],
    ("portfolio", "solve_simplex_qp"): ["eps", "max_iter"],
    ("portfolio", "realizable_certificate"): ["eps"],
    ("newsvendor", "solve_newsvendor_rows"): ["tol", "max_expand"],
    ("newsvendor", "solve_newsvendor"): ["tol", "max_expand"],
    ("newsvendor", "NewsvendorLowerModel.__init__"): ["x"],
    ("newsvendor", "NewsvendorUpperModel.grad_z_bounds"): ["eps"],
    ("newsvendor", "NewsvendorProblem.scenario_terms"): ["eps"],
}


def _resolve(module, path):
    obj = importlib.import_module("mstat." + module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("target", REMOVED_PARAMETERS, ids=".".join)
def test_removed_tolerance_parameters_stay_removed(target):
    params = inspect.signature(_resolve(*target)).parameters
    assert [p for p in REMOVED_PARAMETERS[target] if p in params] == []


def _eps_callees(fn):
    """The mstat functions that fn's body calls with the name eps as an argument."""
    module = inspect.getmodule(fn)
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if not isinstance(node, ast.Call) or not any(
                isinstance(a, ast.Name) and a.id == "eps"
                for a in node.args + [k.value for k in node.keywords]):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            callee = getattr(module, func.id, None)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            callee = getattr(getattr(module, func.value.id, None), func.attr, None)
        else:
            callee = None
        if getattr(callee, "__module__", "").startswith("mstat."):
            yield callee


def test_the_user_set_eps_reaches_an_eps_parameter():
    """Every function that `mstat gph-normal` hands --tol to, directly or
    through the functions it calls, takes it as a parameter named eps."""
    from mstat import cli
    seen, todo = set(), [cli.cmd_gph_normal]
    while todo:
        for callee in _eps_callees(todo.pop()):
            if callee not in seen:
                seen.add(callee)
                todo.append(callee)
    assert {"active_rows", "active_diagnostics", "orthant_membership", "simplex_membership",
            "polyhedron_membership", "_graph_point", "cone_contains", "_orthant_rows",
            "_simplex_rows"} \
        <= {f.__name__ for f in seen}
    assert [f.__qualname__ for f in seen
            if "eps" not in inspect.signature(f).parameters] == []
