"""The benchmark traces functions by name; every name must still exist.

``perfbench/tracing.py`` is loaded by file path and only read: a refactor
that renames a traced function fails here instead of in a traced run.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    tracing = _tracing()
    pairs = [pair for pairs in tracing.SPANS.values() for pair in pairs]
    pairs += [counted for counted, _ in tracing.COUNTERS.values()]
    return list(dict.fromkeys(f"{module}.{function}"
                              for module, function in pairs))


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves_to_a_callable(name):
    module, function = name.split(".")
    target = getattr(importlib.import_module(f"semistab.{module}"), function,
                     None)
    assert callable(target), f"semistab.{name} is gone"
