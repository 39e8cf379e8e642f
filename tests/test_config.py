"""Config parsing, preset merging and typed access."""

from dataclasses import fields, replace

import numpy as np
import pytest

from dci_lab import models
from dci_lab.active import run_experiment
from dci_lab.cli import prepare_dataset
from dci_lab.config import (
    KNOWN_KEYS,
    PRESETS,
    SECTIONS,
    Cfg,
    ConfigError,
    build,
    load_config,
    merge_config,
    parse_config,
)
from dci_lab.models import ensemble_binary_uncertainty, fit_ensemble, predict

# Every config key, written out: a renamed field, or an annotation that
# build does not parse, must show up here rather than add or drop a key.
ALL_KEYS = {
    "data.source", "data.name", "data.n", "data.seed", "data.csv", "data.colspec", "data.images",
    "data.labels", "data.subsample", "data.subsample_seed", "data.one_hot", "data.standardize",
    "data.standardize_onehot",
    "dci.k", "dci.alpha", "dci.beta", "dci.epsilon",
    "grid.x_min", "grid.x_max", "grid.y_min", "grid.y_max", "grid.resolution",
    "model.kind", "model.n_trees", "model.max_depth", "model.min_leaf", "model.knn_k",
    "experiment.metric", "experiment.initial_train_size", "experiment.additions_per_update",
    "experiment.n_updates", "experiment.n_seeds", "experiment.candidate_batch_size", "experiment.test_size",
    "strategies", "score.query",
    "analyze.train_sizes", "analyze.n_splits", "analyze.test_size", "analyze.alphas", "analyze.betas",
    "analyze.kinds",
}

# The fields that cmd_simulate passes to build rather than reads from keys.
SUPPLIED = {"experiment": {"dataset", "strategies", "model", "dci"}}


def build_experiment(cfg, ds):
    """The ExperimentConfig of ``cfg`` on the pool ``ds``, as cmd_simulate builds it."""
    return build(
        cfg, "experiment", dataset=ds, dci=build(cfg, "dci"), model=build(cfg, "model"),
        strategies=cfg.list("strategies", "random,dci-high"),
    )


class TestParseConfig:
    def test_parses_pairs_comments_and_blanks(self):
        text = "# header\n\ndci.k = 7\nstrategies=random , dci-high\n"
        assert parse_config(text) == {
            "dci.k": "7",
            "strategies": "random , dci-high",
        }

    def test_rejects_bad_lines(self):
        with pytest.raises(ConfigError):
            parse_config("dci.k 7\n")
        with pytest.raises(ConfigError):
            parse_config("a = 1\na = 2\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


class TestMergeConfig:
    def test_overrides_win(self):
        merged = merge_config("adult", {"experiment.n_seeds": "2"})
        assert merged["experiment.n_seeds"] == "2"
        assert merged["data.name"] == "census"

    def test_unknown_preset_and_keys(self):
        with pytest.raises(ConfigError):
            merge_config("imagenet", {})
        with pytest.raises(ConfigError):
            merge_config(None, {"data.sourc": "csv"})

    def test_all_preset_keys_are_known(self):
        for name, preset in PRESETS.items():
            assert set(preset) <= KNOWN_KEYS, name

    def test_presets_build_cleanly(self):
        for preset in PRESETS.values():
            cfg = Cfg(dict(preset))
            ds, _ = prepare_dataset(cfg)
            exp = build_experiment(cfg, ds)
            assert exp.strategies == tuple(cfg.list("strategies"))
            assert exp.n_seeds == int(preset["experiment.n_seeds"])


class TestCfgAccessors:
    def test_typed_reads(self):
        cfg = Cfg(
            {
                "dci.k": "5",
                "data.one_hot": "false",
                "strategies": "a, b ,c",
                "analyze.alphas": "1,2.5",
                "analyze.train_sizes": "10,20",
            }
        )
        assert cfg.int("dci.k") == 5
        assert cfg.bool("data.one_hot", True) is False
        assert cfg.bool("data.standardize", True) is True
        assert cfg.list("strategies") == ["a", "b", "c"]
        assert cfg.floats("analyze.alphas") == [1.0, 2.5]
        assert cfg.ints("analyze.train_sizes") == [10, 20]
        assert cfg.str("missing", "fallback") == "fallback"

    def test_errors(self):
        cfg = Cfg({"dci.k": "many", "data.one_hot": "yes", "data.source": "sql"})
        with pytest.raises(ConfigError):
            cfg.int("dci.k")
        with pytest.raises(ConfigError):
            cfg.bool("data.one_hot", True)
        with pytest.raises(ConfigError):
            cfg.str("data.source", choices=("synthetic", "csv"))
        with pytest.raises(ConfigError):
            cfg.str("score.query")
        with pytest.raises(ConfigError):
            Cfg({"analyze.alphas": "1,x"}).floats("analyze.alphas")


class TestBuilders:
    def test_known_keys(self):
        assert KNOWN_KEYS == ALL_KEYS

    def test_every_field_is_parsed_or_supplied(self):
        for section, cls in SECTIONS.items():
            parsed = {key.partition(".")[2] for key in KNOWN_KEYS if key.startswith(f"{section}.")}
            supplied = SUPPLIED.get(section, set())
            assert not parsed & supplied, section
            assert {f.name for f in fields(cls)} == parsed | supplied, section

    def test_dci_params_defaults_and_errors(self):
        params = build(Cfg({}), "dci")
        assert (params.k, params.alpha, params.beta, params.epsilon) == (20, 1.5, 1.2, 1e-12)
        assert build(Cfg({"dci.alpha": "2", "dci.k": "7"}), "dci") == replace(params, alpha=2.0, k=7)
        with pytest.raises(ConfigError, match="alpha must be positive"):
            build(Cfg({"dci.alpha": "-1"}), "dci")
        with pytest.raises(ConfigError, match=r"dci.alpha must be a number \(got 'x'\)"):
            build(Cfg({"dci.alpha": "x"}), "dci")
        with pytest.raises(ConfigError, match=r"dci.k must be an integer \(got '2.5'\)"):
            build(Cfg({"dci.k": "2.5"}), "dci")

    def test_model_config_depth_parsing(self):
        assert build(Cfg({}), "model").max_depth is None
        assert build(Cfg({"model.max_depth": "none"}), "model").max_depth is None
        assert build(Cfg({"model.max_depth": "4"}), "model").max_depth == 4
        with pytest.raises(ConfigError, match="an integer or none"):
            build(Cfg({"model.max_depth": "deep"}), "model")
        with pytest.raises(ConfigError, match="unknown model kind 'svm'"):
            build(Cfg({"model.kind": "svm"}), "model")

    def test_grid_requires_bounds(self):
        cfg = Cfg(
            {"grid.x_min": "0", "grid.x_max": "1", "grid.y_min": "0", "grid.y_max": "2"}
        )
        grid = build(cfg, "grid")
        assert grid.resolution == 100
        with pytest.raises(ConfigError, match="missing required config key 'grid.x_max'"):
            build(Cfg({"grid.x_min": "0"}), "grid")

    def test_experiment_required_keys_and_errors(self):
        ds = prepare_dataset(Cfg({"data.name": "three-class", "data.n": "30"}))[0]
        keys = {"experiment.metric": "accuracy", "experiment.initial_train_size": "5", "experiment.test_size": "5"}
        exp = build_experiment(Cfg(keys), ds)
        assert (exp.metric, exp.initial_train_size, exp.test_size) == ("accuracy", 5, 5)
        assert (exp.additions_per_update, exp.n_updates, exp.n_seeds, exp.candidate_batch_size) == (1, 0, 1, 5)
        for key in keys:
            others = {k: v for k, v in keys.items() if k != key}
            with pytest.raises(ConfigError, match=f"missing required config key '{key}'"):
                build_experiment(Cfg(others), ds)
        with pytest.raises(ConfigError, match="unknown metric 'f1'"):
            build_experiment(Cfg(dict(keys, **{"experiment.metric": "f1"})), ds)


class TestStrategyLabels:
    """Config files list strategy labels, which ExperimentConfig keeps as
    given and checks with active.parse_strategy (tests/test_active.py); an
    empty or repeated list is rejected there too, for library and CLI
    callers alike."""

    @staticmethod
    def strategies(**given):
        ds = prepare_dataset(Cfg({"data.name": "three-class", "data.n": "30"}))[0]
        keys = {"experiment.metric": "accuracy", "experiment.initial_train_size": "5", "experiment.test_size": "5"}
        return build_experiment(Cfg(dict(keys, **given)), ds).strategies

    def test_parse_individual_labels(self):
        labels = "dci-high , dci-low-pca12,random,uncertainty-max_prob"
        assert self.strategies(strategies=labels) == ("dci-high", "dci-low-pca12", "random", "uncertainty-max_prob")

    @pytest.mark.parametrize(
        "label", ["greedy", "uncertainty-entropy", "dci-high-pca", "dci-high-pca0", "random-pca3", "DCI-HIGH"]
    )
    def test_rejects_unknown_labels(self, label):
        with pytest.raises(ConfigError, match=f"unknown strategy {label!r}"):
            self.strategies(strategies=f"random,{label}")

    def test_strategy_list_rules(self):
        assert self.strategies(strategies="dci-low, uncertainty-max_prob") == ("dci-low", "uncertainty-max_prob")
        assert self.strategies() == ("random", "dci-high")
        with pytest.raises(ConfigError, match="at least one strategy"):
            self.strategies(strategies=" , ")
        with pytest.raises(ConfigError, match="duplicates"):
            self.strategies(strategies="random,dci-low,random")
        # A bad label is reported after the experiment.* keys are read.
        ds = prepare_dataset(Cfg({"data.name": "three-class", "data.n": "30"}))[0]
        with pytest.raises(ConfigError, match="missing required config key 'experiment.metric'"):
            build_experiment(Cfg({"strategies": "greedy"}), ds)


class TestAdultPreset:
    """The adult committee baseline must score rows, not return a constant."""

    def small(self):
        overrides = {
            "data.n": "1500",
            "experiment.initial_train_size": "200",
            "experiment.additions_per_update": "40",
            "experiment.n_updates": "3",
            "experiment.test_size": "400",
        }
        cfg = Cfg(merge_config("adult", overrides))
        ds, _ = prepare_dataset(cfg)
        return build_experiment(cfg, ds)

    def test_eq3_binary_takes_many_values(self):
        exp = self.small()
        ds = exp.dataset
        ens = fit_ensemble(ds.select_rows(np.arange(300)), exp.model)
        u = ensemble_binary_uncertainty(predict(ens, ds.features[300:]))
        assert np.unique(u).size > 1

    def test_uncertainty_curve_is_not_random_or_lowest_index(self, monkeypatch):
        exp = self.small()

        def curve(label):
            return run_experiment(replace(exp, strategies=(label,)), seed=0)[0].values

        uncertainty = curve("uncertainty-eq3_binary")
        assert uncertainty != curve("random")
        # A constant score hands every pick to the lowest candidate index.
        monkeypatch.setitem(
            models.UNCERTAINTY, "eq3_binary", lambda per_member: np.zeros(per_member.shape[1])
        )
        assert uncertainty != curve("uncertainty-eq3_binary")
