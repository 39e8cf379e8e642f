"""The benchmark's tracer looks dci_lab functions up by name; a rename or
deletion there would only show when the benchmark runs, so pin them here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pair for members in module.GROUPS.values() for pair in members]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"dci_lab.{module}"), name, None))
