"""What the benchmark harness uses of the package must still work.

benchmarks/tracer.py names its targets by module and qualified name, and a
target that no longer resolves fails the traced benchmark run. Loading the
tracer here makes a refactor that drops or renames a traced function fail
the test suite as well. benchmarks/workloads.py reads the filter's state as
online-dense replays ekf.step; one of its requests is run and checked here.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


@pytest.mark.parametrize(
    "module_name, qualname",
    [(module, name)
     for targets in (tracer.SPAN_TARGETS, tracer.COUNT_TARGETS)
     for module, names in targets.items()
     for name in names],
)
def test_traced_target_resolves(module_name, qualname):
    assert tracer._resolve(module_name, qualname) is not None, f"{module_name}.{qualname}"


def test_online_dense_request_passes_its_check(tmp_path):
    workload = _load("workloads").OnlineDense(0, tmp_path)
    for i in range(2):
        seconds, raw = workload.request(i)
        assert seconds > 0.0
        assert workload.check(i, raw) == 0
    assert workload.deterministic, "the second replay's digest differs from the first"
    assert set(workload.quality) == {"rmse_pos_m.ekf", "nees_in_band.ekf"}
