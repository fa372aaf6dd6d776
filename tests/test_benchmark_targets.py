"""Every function the benchmark tracer wraps must still exist.

benchmarks/tracer.py names its targets by module and qualified name, and a
target that no longer resolves fails the traced benchmark run. Loading the
tracer here makes a refactor that drops or renames a traced function fail
the test suite as well.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module_name, qualname",
    [(module, name)
     for targets in (tracer.SPAN_TARGETS, tracer.COUNT_TARGETS)
     for module, names in targets.items()
     for name in names],
)
def test_traced_target_resolves(module_name, qualname):
    assert tracer._resolve(module_name, qualname) is not None, f"{module_name}.{qualname}"
