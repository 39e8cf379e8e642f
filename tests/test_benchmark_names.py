"""The benchmark's tracer looks dci_lab functions up by name and reads
fitted ensembles; a rename, a deletion or a changed result shape there would
only show when the benchmark runs, so pin them here."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import make_classification
from dci_lab.models import ModelConfig, fit_ensemble

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    return [pair for members in load_tracer().GROUPS.values() for pair in members]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"dci_lab.{module}"), name, None))


def test_tree_counter_reads_a_fitted_ensemble(rng):
    ds = make_classification(rng.normal(size=(60, 3)), rng.integers(0, 2, size=60))
    ensemble = fit_ensemble(ds, ModelConfig(n_trees=4), seed=2)
    counts = load_tracer()._count_trees((ds,), {}, ensemble)
    assert counts == {"trees": 4, "nodes": ensemble.feature.size}
    assert ensemble.feature.size > 4  # some tree split, so the views were cut
