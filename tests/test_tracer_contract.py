"""The names perfbench/spans.py wraps exist in morsealg.

The benchmark's span tracer looks each traced function up by module and
name.  Renaming one breaks a traced run only, never an untraced one, so the
lookup is checked here.  spans.py uses only the standard library and is
loaded from its file.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name: str):
    return importlib.import_module(f"morsealg.{name}")


def test_traced_functions_exist():
    spans = _spans()
    for module in spans.MODULES:
        _module(module)
    for layer, targets in spans.FUNCTIONS.items():
        for module, attr in targets:
            assert callable(getattr(_module(module), attr, None)), f"{layer}: {module}.{attr}"


def test_traced_methods_exist():
    for layer, (module, cls_name, attr) in _spans().METHODS.items():
        cls = getattr(_module(module), cls_name)
        # the tracer replaces the method found in the class's own namespace
        assert callable(vars(cls).get(attr)), f"{layer}: {module}.{cls_name}.{attr}"


def test_other_names_the_tracer_reads_exist():
    assert isinstance(vars(_module("scalars").RadicalScalar)["parse"], classmethod)
    assert callable(_module("model").make_state.cache_info)
    assert issubclass(_module("operators").UndefinedOperatorError, Exception)
    assert _module("spectral").EigenStatus.PROPER
