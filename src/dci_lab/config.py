"""Flat key-value configuration files and the bundled experiment presets.

Config files hold one `dotted.key = value` pair per line, with # comments.
A preset supplies a complete base configuration; keys from a user config
file override it one by one, so a preset plus a two-line file is a full
experiment description that diffs cleanly.

The `dci.*`, `model.*`, `grid.*` and `experiment.*` keys are the fields of
the classes in :data:`SECTIONS`, read by :func:`build` with each field's
type and default; the `data.*`, `score.*` and `analyze.*` keys and
`strategies` are read by the commands through :class:`Cfg`.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from pathlib import Path

from .active import ExperimentConfig
from .dci import DciParams, GridSpec
from .models import ModelConfig


class ConfigError(Exception):
    """Raised for unknown keys, bad values or inconsistent settings."""


SECTIONS = {"dci": DciParams, "model": ModelConfig, "grid": GridSpec, "experiment": ExperimentConfig}

# How :func:`build` reads a field of each annotation it parses: the parser
# and what a value it rejects must be instead. The annotations are strings,
# since the modules of SECTIONS postpone their evaluation.
_FIELD_TYPES = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
    "int | None": (lambda raw: None if raw.lower() == "none" else int(raw), "an integer or none"),
}

KNOWN_KEYS = frozenset(
    {
        f"{section}.{f.name}"
        for section, cls in SECTIONS.items()
        for f in fields(cls)
        if f.type in _FIELD_TYPES
    }
    | {
        "data.source",
        "data.name",
        "data.n",
        "data.seed",
        "data.csv",
        "data.colspec",
        "data.images",
        "data.labels",
        "data.subsample",
        "data.subsample_seed",
        "data.one_hot",
        "data.standardize",
        "data.standardize_onehot",
        "strategies",
        "score.query",
        "analyze.train_sizes",
        "analyze.n_splits",
        "analyze.test_size",
        "analyze.alphas",
        "analyze.betas",
        "analyze.kinds",
    }
)

PRESETS: dict[str, dict[str, str]] = {
    # Binary income classification: 1162 initial, 200 added per update,
    # 29 updates, 20 runs, 10-member committee scored with eq3_binary. Leaves
    # of at least 3 rows: grown to purity every member votes 0 or 1, and
    # eq3_binary is -0.5 on every row.
    "adult": {
        "data.source": "synthetic",
        "data.name": "census",
        "data.n": "10000",
        "data.seed": "11",
        "experiment.metric": "auroc",
        "experiment.initial_train_size": "1162",
        "experiment.additions_per_update": "200",
        "experiment.n_updates": "29",
        "experiment.n_seeds": "20",
        "experiment.test_size": "3000",
        "model.kind": "ensemble",
        "model.n_trees": "10",
        "model.min_leaf": "3",
        "dci.k": "20",
        "dci.alpha": "1.5",
        "dci.beta": "1.2",
        "strategies": "random,dci-high,dci-low,uncertainty-eq3_binary",
    },
    # Ordinal wine-quality regression, red schedule: 200 + 10 x 18, 30 runs,
    # 100-tree forest scored by prediction std.
    "wine-red": {
        "data.source": "synthetic",
        "data.name": "wine",
        "data.n": "1599",
        "data.seed": "5",
        "experiment.metric": "rmse",
        "experiment.initial_train_size": "200",
        "experiment.additions_per_update": "10",
        "experiment.n_updates": "18",
        "experiment.n_seeds": "30",
        "experiment.test_size": "599",
        "model.kind": "ensemble",
        "model.n_trees": "100",
        "model.min_leaf": "5",
        "dci.k": "20",
        "dci.alpha": "1.5",
        "dci.beta": "1.2",
        "strategies": "random,dci-high,dci-low,uncertainty-regression_std",
    },
    # White schedule: 500 + 25 x 24, 30 runs.
    "wine-white": {
        "data.source": "synthetic",
        "data.name": "wine",
        "data.n": "4898",
        "data.seed": "6",
        "experiment.metric": "rmse",
        "experiment.initial_train_size": "500",
        "experiment.additions_per_update": "25",
        "experiment.n_updates": "24",
        "experiment.n_seeds": "30",
        "experiment.test_size": "1398",
        "model.kind": "ensemble",
        "model.n_trees": "100",
        "model.min_leaf": "5",
        "dci.k": "20",
        "dci.alpha": "1.5",
        "dci.beta": "1.2",
        "strategies": "random,dci-high,dci-low,uncertainty-regression_std",
    },
    # Digit classification from tiny seeds: 10 + 5 x 18, 30 runs, K=10,
    # with impurity scoring also run on 10 variance-weighted components.
    "mnist-small": {
        "data.source": "synthetic",
        "data.name": "digits",
        "data.n": "600",
        "data.seed": "3",
        "data.standardize": "false",
        "experiment.metric": "accuracy",
        "experiment.initial_train_size": "10",
        "experiment.additions_per_update": "5",
        "experiment.n_updates": "18",
        "experiment.n_seeds": "30",
        "experiment.test_size": "200",
        # kNN stands in for the image classifier: exhaustive-split trees on
        # 784 columns are too slow for a demo preset on one core.
        "model.kind": "knn",
        "model.knn_k": "10",
        "dci.k": "10",
        "dci.alpha": "1.5",
        "dci.beta": "1.2",
        "strategies": (
            "random,dci-high,dci-low,uncertainty-max_prob,dci-high-pca10,dci-low-pca10"
        ),
    },
    # Larger digit runs: 500 + 200 x 10, 20 runs, K=20, impurity on raw
    # pixels and on 20 weighted components. max_prob replaces the
    # committee-std uncertainty because the kNN stand-in has one member;
    # configure model.kind=ensemble + uncertainty-mean_std to get it back.
    "mnist-pca": {
        "data.source": "synthetic",
        "data.name": "digits",
        "data.n": "4000",
        "data.seed": "3",
        "data.standardize": "false",
        "experiment.metric": "accuracy",
        "experiment.initial_train_size": "500",
        "experiment.additions_per_update": "200",
        "experiment.n_updates": "10",
        "experiment.n_seeds": "20",
        "experiment.test_size": "1000",
        "model.kind": "knn",
        "model.knn_k": "20",
        "dci.k": "20",
        "dci.alpha": "1.5",
        "dci.beta": "1.2",
        "strategies": "random,dci-high,uncertainty-max_prob,dci-high-pca20",
    },
}


def parse_config(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines; comments and blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def merge_config(preset: str | None, overrides: dict[str, str]) -> dict[str, str]:
    """Preset base (if any) updated by the overrides, with keys validated."""
    if preset is not None and preset not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {preset!r} (available: {known})")
    cfg = dict(PRESETS[preset]) if preset else {}
    cfg.update(overrides)
    unknown = sorted(set(cfg) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cfg


_REQUIRED = object()


class Cfg:
    """Typed access over a parsed key-value map, every read through :meth:`get`."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    def get(self, key: str, default: object, parse, expected: str):
        """``parse`` of the value of ``key``, else ``default``; ``parse`` rejects by KeyError or ValueError."""
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key {key!r}")
            return default
        raw = self.values[key]
        try:
            return parse(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{key} must be {expected} (got {raw!r})") from None

    def str(self, key: str, default: object = _REQUIRED, choices: tuple[str, ...] | None = None) -> str:
        parse = (lambda raw: raw) if choices is None else dict(zip(choices, choices)).__getitem__
        return self.get(key, default, parse, f"one of {', '.join(choices or ())}")

    def int(self, key: str, default: object = _REQUIRED) -> int:
        return self.get(key, default, int, "an integer")

    def bool(self, key: str, default: bool) -> bool:
        return self.get(key, default, lambda raw: {"true": True, "false": False}[raw.lower()], "true or false")

    def list(self, key: str, default: object = _REQUIRED) -> list[str]:
        return [item.strip() for item in self.str(key, default).split(",") if item.strip()]

    def _items(self, key: str, default: object, parse, expected: str) -> list:
        out = []
        for item in self.list(key, default):
            try:
                out.append(parse(item))
            except ValueError:
                raise ConfigError(f"{key} entries must be {expected} (got {item!r})") from None
        return out

    def floats(self, key: str, default: object = _REQUIRED) -> list[float]:
        return self._items(key, default, float, "numbers")

    def ints(self, key: str, default: object = _REQUIRED) -> list[int]:
        return self._items(key, default, int, "integers")


def build(cfg: Cfg, section: str, **given):
    """The ``SECTIONS[section]`` object of the fields in ``given`` and the
    ``<section>.<field>`` keys of ``cfg`` for the rest.

    A field of a parsed annotation whose key is absent keeps its default, or
    is a missing required key if it has none.
    """
    cls = SECTIONS[section]
    for f in fields(cls):
        if f.name not in given and f.type in _FIELD_TYPES:
            default = _REQUIRED if f.default is MISSING else f.default
            given[f.name] = cfg.get(f"{section}.{f.name}", default, *_FIELD_TYPES[f.type])
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
