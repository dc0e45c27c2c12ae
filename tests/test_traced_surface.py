"""Every function the benchmark's tracer wraps is still where it looks for it.

`perfbench/trace_child.py` skips a function that a module no longer has,
or a cache that a function no longer carries, and its metric is then
absent from a traced run.  These tests read its tables, so such a change
fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def _load_trace_child():
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_child = _load_trace_child()


def _entries(*tables):
    return [(layer, name) for table in tables for layer, names in table.items() for name in names]


def _resolve(layer: str, name: str):
    module = importlib.import_module(f"{trace_child.PACKAGE}.{layer}")
    return getattr(module, name, None)


@pytest.mark.parametrize(
    "layer, name", _entries(trace_child.TIMED, trace_child.COUNTED, trace_child.CACHED)
)
def test_traced_function_is_callable(layer, name):
    assert layer in trace_child.MODULES
    assert callable(_resolve(layer, name)), f"{layer}.{name}"


@pytest.mark.parametrize("layer, name", _entries(trace_child.CACHED))
def test_cached_function_keeps_its_cache(layer, name):
    assert hasattr(_resolve(layer, name), "cache_info"), f"{layer}.{name}"
