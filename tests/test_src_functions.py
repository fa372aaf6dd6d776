"""src/ holds no function that only the tests call.

A module-level function of the package must be used by the package itself
(a name, an attribute or an import in its code; docstrings do not count),
exported in fuzzyloc.__all__, traced by the benchmark (tracer.SPAN_TARGETS or
COUNT_TARGETS) or used as module.attr by benchmarks/workloads.py. A function
that is none of these is a test oracle and belongs in tests/helpers.py.
"""

import ast
from pathlib import Path

import fuzzyloc
from test_benchmark_targets import BENCHMARKS, tracer

SRC = Path(fuzzyloc.__file__).resolve().parent


def _used_names(tree):
    """Every name a tree reads: Name ids, attribute names and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def _workload_uses():
    """(module, attr) of each fuzzyloc module's attribute that workloads.py reads."""
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}


def test_every_src_function_has_a_caller_outside_the_tests():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _used_names(tree)}
    traced = {(module, qualname)
              for targets in (tracer.SPAN_TARGETS, tracer.COUNT_TARGETS)
              for module, qualnames in targets.items() for qualname in qualnames}
    benchmarked = traced | _workload_uses()
    test_only = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in used
        and node.name not in fuzzyloc.__all__
        and (module, node.name) not in benchmarked
    ]
    assert test_only == []
