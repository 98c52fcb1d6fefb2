"""The benchmark's per-layer metrics name functions of the program.

`perfbench/trace_child.py` times each public function of its modules by
name, and `BENCHMARK.json` lists the metrics it reads from those timings.
A metric whose function was deleted or renamed would leave the traced run
unresolved, so every such name must still be a public function defined in
its layer's module. The trace's work counters are called with the wrapped
function's arguments, so each takes that function's parameters, in order.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _trace_child():
    spec = importlib.util.spec_from_file_location(
        "trace_child", ROOT / "perfbench" / "trace_child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE_CHILD = _trace_child()
MODULES = TRACE_CHILD.MODULES
FUNCTION_METRICS = [
    metric["name"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if metric["name"].count(".") == 2 and metric["name"].endswith((".self_s", ".calls"))
]


def test_some_function_metrics_listed():
    assert len(FUNCTION_METRICS) >= 10


@pytest.mark.parametrize("name", FUNCTION_METRICS)
def test_metric_names_a_public_function_of_its_layer(name):
    layer, attr, _ = name.split(".")
    module = MODULES[layer]
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_some_work_counters_listed():
    assert len(TRACE_CHILD.WORK) >= 5


@pytest.mark.parametrize("name", sorted(TRACE_CHILD.WORK))
def test_work_counter_takes_the_parameters_of_its_function(name):
    layer, attr = name.split(".")
    fn = getattr(MODULES[layer], attr)
    counter = TRACE_CHILD.WORK[name]
    assert list(inspect.signature(counter).parameters) == list(
        inspect.signature(fn).parameters)
