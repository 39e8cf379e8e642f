"""Per-module timing by wrapping dci_lab's public functions from outside.

Every traced function is replaced, in every dci_lab namespace (and every
module-level dict) that holds a reference to it, by one wrapper that records
a span; the originals can be put back between traced rounds. Spans nest on a stack: a span's self time is its duration minus the
durations of the traced spans it encloses, so the self times of all spans
under one outermost span add up to that span's duration exactly.

Groups name the per-layer metrics: ``<group>.s`` is inclusive time (a group
nested inside itself is counted once), ``<group>.self_s`` is self time, and
``<group>.calls`` counts calls. Some groups also count work read from the
arguments or the result (``rows``, ``pairs``, ``trees``, ``nodes``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

# group -> (module, function names)
GROUPS: dict[str, list[tuple[str, str]]] = {
    "dataset.load": [("dataset", "load_csv"), ("dataset", "load_idx"), ("dataset", "read_colspec")],
    "dataset.encode": [
        ("dataset", "one_hot"),
        ("dataset", "standardization_stats"),
        ("dataset", "apply_standardization"),
    ],
    "dataset.pca_fit": [("dataset", "pca_fit")],
    "dataset.pca_project": [("dataset", "pca_project")],
    "neighbors.nearest_neighbors": [("neighbors", "nearest_neighbors")],
    "neighbors.pairwise_sq_distances": [("neighbors", "pairwise_sq_distances")],
    "neighbors.knn": [("neighbors", "knn")],
    "dci.dci_scores": [("dci", "dci_scores")],
    "models.fit_ensemble": [("models", "fit_ensemble")],
    "models.predict": [("models", "predict")],
    "models.knn_predict": [("models", "knn_predict")],
    "models.uncertainty": [
        ("models", "ensemble_binary_uncertainty"),
        ("models", "regression_std_uncertainty"),
        ("models", "max_prob_uncertainty"),
        ("models", "mean_std_uncertainty"),
    ],
    "active.run_experiment": [("active", "run_experiment")],
    "active.select_next": [("active", "select_next")],
    "metrics": [
        ("metrics", "auroc"),
        ("metrics", "accuracy"),
        ("metrics", "rmse"),
        ("metrics", "decile_analysis"),
        ("metrics", "average_reports"),
    ],
    "cli.prepare_dataset": [("cli", "prepare_dataset")],
    "cli": [("cli", "main")],
}


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    return 1 if len(shape) == 1 else int(shape[0])


def _count_pairs(args, kwargs, result) -> dict[str, int]:
    queries = args[0] if args else kwargs["queries"]
    reference = args[1] if len(args) > 1 else kwargs["reference"]
    return {"pairs": _rows(queries) * _rows(reference)}


def _count_dci_rows(args, kwargs, result) -> dict[str, int]:
    return {"rows": _rows(args[0] if args else kwargs["neighbor_labels"])}


def _count_trees(args, kwargs, result) -> dict[str, int]:
    return {"trees": len(result.trees), "nodes": sum(int(t.feature.size) for t in result.trees)}


def _count_predict_rows(args, kwargs, result) -> dict[str, int]:
    return {"rows": _rows(args[1] if len(args) > 1 else kwargs["X"])}


# group -> (work counter, the keys it returns)
COUNTERS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "neighbors.nearest_neighbors": (_count_pairs, ("pairs",)),
    "dci.dci_scores": (_count_dci_rows, ("rows",)),
    "models.fit_ensemble": (_count_trees, ("trees", "nodes")),
    "models.predict": (_count_predict_rows, ("rows",)),
}


class Tracer:
    """Span stack plus per-group totals over wrappers that can be put in and taken out.

    Creating a tracer finds every reference to a traced function in the
    loaded dci_lab modules; ``install`` swaps the wrappers in and
    ``uninstall`` puts the originals back.
    """

    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list[float]] = []  # [child time] per open span
        self._active: dict[str, int] = defaultdict(int)
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for group, members in GROUPS.items():
            for mod_name, fn_name in members:
                fn = getattr(sys.modules[f"dci_lab.{mod_name}"], fn_name)
                wrappers[id(fn)] = (fn, self._wrap(group, fn))
        # (namespace, key, original, wrapper) for every reference found
        self.patches: list[tuple[dict, str, Callable, Callable]] = []
        for name, module in list(sys.modules.items()):
            if name != "dci_lab" and not name.startswith("dci_lab."):
                continue
            namespaces = [vars(module)] + [v for v in vars(module).values() if isinstance(v, dict)]
            for ns in namespaces:
                for key, value in ns.items():
                    if id(value) in wrappers:
                        self.patches.append((ns, key, *wrappers[id(value)]))

    def install(self) -> None:
        for ns, key, _, wrapper in self.patches:
            ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original, _ in self.patches:
            ns[key] = original

    def reset(self) -> None:
        self.totals.clear()

    def _wrap(self, group: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(group, (None,))[0]
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[group] -= 1
                if stack:
                    stack[-1][0] += elapsed
                t = self.totals[group]
                t["calls"] += 1
                t["self_s"] += elapsed - frame[0]
                if active[group] == 0:
                    t["s"] += elapsed
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    t[key] += value
            return result

        return traced

    def flat(self) -> dict[str, float]:
        """``group.quantity`` -> value for every group, zeros for groups not called."""
        out: dict[str, float] = {}
        for group in GROUPS:
            t = self.totals.get(group, {})
            for key in ("calls", "s", "self_s") + COUNTERS.get(group, (None, ()))[1]:
                out[f"{group}.{key}"] = t.get(key, 0.0)
        return out
