"""Flat key-value configuration files and the bundled experiment presets.

Config files hold one `dotted.key = value` pair per line, with # comments.
A preset supplies a complete base configuration; keys from a user config
file override it one by one, so a preset plus a two-line file is a full
experiment description that diffs cleanly.
"""

from __future__ import annotations

import re
from pathlib import Path

from .active import Strategy
from .dci import DciParams, GridSpec
from .models import ModelConfig


class ConfigError(Exception):
    """Raised for unknown keys, bad values or inconsistent settings."""


KNOWN_KEYS = frozenset(
    {
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
        "dci.k",
        "dci.alpha",
        "dci.beta",
        "dci.epsilon",
        "grid.x_min",
        "grid.x_max",
        "grid.y_min",
        "grid.y_max",
        "grid.resolution",
        "model.kind",
        "model.n_trees",
        "model.max_depth",
        "model.min_leaf",
        "model.knn_k",
        "experiment.metric",
        "experiment.initial_train_size",
        "experiment.additions_per_update",
        "experiment.n_updates",
        "experiment.n_seeds",
        "experiment.candidate_batch_size",
        "experiment.test_size",
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
    except OSError as exc:
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


class Cfg:
    """Typed access over a parsed key-value map."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    def str(self, key: str, default: str | None = None, choices: tuple[str, ...] | None = None) -> str:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            return default
        v = self.values[key]
        if choices is not None and v not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)} (got {v!r})")
        return v

    def int(self, key: str, default: int | None = None) -> int:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            return default
        try:
            return int(self.values[key])
        except ValueError:
            raise ConfigError(f"{key} must be an integer (got {self.values[key]!r})") from None

    def float(self, key: str, default: float | None = None) -> float:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required config key {key!r}")
            return default
        try:
            return float(self.values[key])
        except ValueError:
            raise ConfigError(f"{key} must be a number (got {self.values[key]!r})") from None

    def bool(self, key: str, default: bool) -> bool:
        if key not in self.values:
            return default
        v = self.values[key].lower()
        if v not in ("true", "false"):
            raise ConfigError(f"{key} must be true or false (got {self.values[key]!r})")
        return v == "true"

    def list(self, key: str, default: str | None = None) -> list[str]:
        raw = self.str(key, default)
        return [item.strip() for item in raw.split(",") if item.strip()]

    def floats(self, key: str, default: str | None = None) -> list[float]:
        out = []
        for item in self.list(key, default):
            try:
                out.append(float(item))
            except ValueError:
                raise ConfigError(f"{key} entries must be numbers (got {item!r})") from None
        return out

    def ints(self, key: str, default: str | None = None) -> list[int]:
        out = []
        for item in self.list(key, default):
            try:
                out.append(int(item))
            except ValueError:
                raise ConfigError(f"{key} entries must be integers (got {item!r})") from None
        return out


def build_dci_params(cfg: Cfg) -> DciParams:
    try:
        return DciParams(
            k=cfg.int("dci.k", 20),
            alpha=cfg.float("dci.alpha", 1.5),
            beta=cfg.float("dci.beta", 1.2),
            epsilon=cfg.float("dci.epsilon", 1e-12),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_model_config(cfg: Cfg) -> ModelConfig:
    depth_raw = cfg.str("model.max_depth", "none")
    if depth_raw.lower() == "none":
        depth = None
    else:
        try:
            depth = int(depth_raw)
        except ValueError:
            raise ConfigError(f"model.max_depth must be an integer or 'none'") from None
    try:
        return ModelConfig(
            kind=cfg.str("model.kind", "ensemble", choices=("ensemble", "knn")),
            n_trees=cfg.int("model.n_trees", 10),
            max_depth=depth,
            min_leaf=cfg.int("model.min_leaf", 1),
            knn_k=cfg.int("model.knn_k", 5),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(cfg: Cfg) -> GridSpec:
    try:
        return GridSpec(
            x_min=cfg.float("grid.x_min"),
            x_max=cfg.float("grid.x_max"),
            y_min=cfg.float("grid.y_min"),
            y_max=cfg.float("grid.y_max"),
            resolution=cfg.int("grid.resolution", 100),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_PCA_LABEL = re.compile(r"^(dci-high|dci-low)-pca([1-9]\d*)$")


def parse_strategy(label: str, dci_params: DciParams) -> Strategy:
    """Build a Strategy from its config label (the same string it reports)."""
    try:
        if label == "random":
            return Strategy(tag="random")
        if label in ("dci-high", "dci-low"):
            return Strategy(tag=label, dci_params=dci_params)
        m = _PCA_LABEL.match(label)
        if m:
            return Strategy(
                tag=m.group(1),
                dci_params=dci_params,
                pca_components=int(m.group(2)),
            )
        if label.startswith("uncertainty-"):
            return Strategy(tag="model-uncertainty", kind=label[len("uncertainty-") :])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(
        f"unknown strategy {label!r} (expected random, dci-high[-pcaN], "
        f"dci-low[-pcaN], or uncertainty-<kind>)"
    )


def parse_strategies(cfg: Cfg, dci_params: DciParams) -> tuple[Strategy, ...]:
    labels = cfg.list("strategies", "random,dci-high")
    return tuple(parse_strategy(label, dci_params) for label in labels)
