"""The benchmark in perfbench/ traces siltkit functions by name.

Its tracer replaces each target on its owner's ``__dict__`` and reads some
arguments by name, so deleting or renaming one of them breaks only the
benchmark, not this suite.  These tests read perfbench/ and change nothing
there.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import siltkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(siltkit.__file__).resolve().parent


@pytest.fixture(scope="module")
def modules():
    """The package and every submodule, keyed as the benchmark keys them."""
    found = {info.name: importlib.import_module(f"siltkit.{info.name}")
             for info in pkgutil.iter_modules(siltkit.__path__)}
    return {"siltkit": siltkit, **found}


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))  # tracer.py imports workloads.py
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_exists(modules, tracer):
    targets = tracer.targets(modules)
    assert len(targets) >= 20
    for name, owner, attr, kind, _ in targets:
        assert attr in vars(owner), name
        is_classmethod = isinstance(vars(owner)[attr], classmethod)
        assert is_classmethod == (kind == "classmethod"), name


def test_selftest_wrapper_bindings_exist(modules):
    # the bindings perfbench/selftest.py's check_wrappers expects wrapped:
    # cli and transport import their own binding of the traced functions
    cli, transport = modules["cli"], modules["transport"]
    traced = {"marginal_density_q_batch": modules["marginals"],
              "weighted_theta_samples": transport}
    for attr, home in traced.items():
        for owner in (cli, transport):
            assert vars(owner)[attr] is vars(home)[attr], (owner, attr)
    assert "at" in vars(modules["siltcore"].Path)
    quad_cls = vars(modules["quadrature"].SimplexQuadrature)
    for attr in ("gauss_legendre", "geometric_diagonal"):
        assert isinstance(quad_cls[attr], classmethod), attr


def test_arguments_read_by_name(modules):
    # the span extractors bind each call's arguments and read these keys
    q = inspect.signature(modules["marginals"].marginal_density_q_batch)
    assert {"u", "grid", "points", "quad"} <= set(q.parameters)
    sinkhorn = inspect.signature(modules["transport"].sinkhorn_log)
    assert "max_iterations" in sinkhorn.parameters


def _is_cache(decorator) -> bool:
    """True for functools' lru_cache or cache, bare, called or dotted."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def test_caches_only_on_module_level_functions():
    # the benchmark clears, before each op, only the caches it finds as
    # module attributes: one on a method or a nested function would carry
    # warm rules from one op into the next
    misplaced = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and id(node) not in top \
                    and any(map(_is_cache, node.decorator_list)):
                misplaced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not misplaced
