"""Config parsing, preset merging and typed access."""

import numpy as np
import pytest

from dci_lab import models
from dci_lab.active import ExperimentConfig, run_experiment
from dci_lab.cli import prepare_dataset
from dci_lab.config import (
    KNOWN_KEYS,
    PRESETS,
    Cfg,
    ConfigError,
    build_dci_params,
    build_grid,
    build_model_config,
    load_config,
    merge_config,
    parse_config,
    parse_strategies,
    parse_strategy,
)
from dci_lab.dci import DciParams
from dci_lab.models import ensemble_binary_uncertainty, fit_ensemble, predict


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
            params = build_dci_params(cfg)
            build_model_config(cfg)
            strategies = parse_strategies(cfg, params)
            assert strategies


class TestCfgAccessors:
    def test_typed_reads(self):
        cfg = Cfg(
            {
                "dci.k": "5",
                "dci.alpha": "1.5",
                "data.one_hot": "false",
                "strategies": "a, b ,c",
                "analyze.alphas": "1,2.5",
                "analyze.train_sizes": "10,20",
            }
        )
        assert cfg.int("dci.k") == 5
        assert cfg.float("dci.alpha") == 1.5
        assert cfg.bool("data.one_hot", True) is False
        assert cfg.bool("data.standardize", True) is True
        assert cfg.list("strategies") == ["a", "b", "c"]
        assert cfg.floats("analyze.alphas") == [1.0, 2.5]
        assert cfg.ints("analyze.train_sizes") == [10, 20]
        assert cfg.str("missing", "fallback") == "fallback"

    def test_errors(self):
        cfg = Cfg({"dci.k": "many", "data.one_hot": "yes", "experiment.metric": "f1"})
        with pytest.raises(ConfigError):
            cfg.int("dci.k")
        with pytest.raises(ConfigError):
            cfg.bool("data.one_hot", True)
        with pytest.raises(ConfigError):
            cfg.str("experiment.metric", choices=("auroc", "accuracy"))
        with pytest.raises(ConfigError):
            cfg.str("score.query")
        with pytest.raises(ConfigError):
            Cfg({"analyze.alphas": "1,x"}).floats("analyze.alphas")


class TestBuilders:
    def test_dci_params_defaults_and_errors(self):
        params = build_dci_params(Cfg({}))
        assert (params.k, params.alpha, params.beta) == (20, 1.5, 1.2)
        with pytest.raises(ConfigError):
            build_dci_params(Cfg({"dci.alpha": "-1"}))

    def test_model_config_depth_parsing(self):
        assert build_model_config(Cfg({})).max_depth is None
        assert build_model_config(Cfg({"model.max_depth": "none"})).max_depth is None
        assert build_model_config(Cfg({"model.max_depth": "4"})).max_depth == 4
        with pytest.raises(ConfigError):
            build_model_config(Cfg({"model.max_depth": "deep"}))
        with pytest.raises(ConfigError):
            build_model_config(Cfg({"model.kind": "svm"}))

    def test_grid_requires_bounds(self):
        cfg = Cfg(
            {"grid.x_min": "0", "grid.x_max": "1", "grid.y_min": "0", "grid.y_max": "2"}
        )
        grid = build_grid(cfg)
        assert grid.resolution == 100
        with pytest.raises(ConfigError):
            build_grid(Cfg({"grid.x_min": "0"}))


class TestStrategyLabels:
    def test_parse_individual_labels(self):
        params = DciParams(k=9)
        assert parse_strategy("random", params).tag == "random"
        high = parse_strategy("dci-high", params)
        assert high.tag == "dci-high" and high.dci_params.k == 9
        pca = parse_strategy("dci-low-pca12", params)
        assert (pca.tag, pca.pca_components) == ("dci-low", 12)
        unc = parse_strategy("uncertainty-mean_std", params)
        assert (unc.tag, unc.kind) == ("model-uncertainty", "mean_std")
        # labels round-trip: parsing a strategy's label reproduces it
        for label in ("random", "dci-high", "dci-low-pca12", "uncertainty-mean_std"):
            assert parse_strategy(label, params).label == label

    @pytest.mark.parametrize(
        "label", ["greedy", "uncertainty-entropy", "dci-high-pca", "dci-high-pca0"]
    )
    def test_rejects_unknown_labels(self, label):
        with pytest.raises(ConfigError):
            parse_strategy(label, DciParams())

    def test_strategy_list_rules(self):
        # An empty or repeated list is rejected by ExperimentConfig, for
        # library and CLI callers alike (tests/test_active.py, tests/test_cli.py).
        params = DciParams()
        strategies = parse_strategies(Cfg({"strategies": "dci-low, uncertainty-max_prob"}), params)
        assert [s.label for s in strategies] == ["dci-low", "uncertainty-max_prob"]
        assert [s.label for s in parse_strategies(Cfg({}), params)] == ["random", "dci-high"]
        assert parse_strategies(Cfg({"strategies": " , "}), params) == ()
        with pytest.raises(ConfigError):
            parse_strategies(Cfg({"strategies": "random,greedy"}), params)


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
        return cfg, ds, build_model_config(cfg)

    def test_eq3_binary_takes_many_values(self):
        _, ds, model = self.small()
        ens = fit_ensemble(ds.select_rows(np.arange(300)), model)
        u = ensemble_binary_uncertainty(predict(ens, ds.features[300:]))
        assert np.unique(u).size > 1

    def test_uncertainty_curve_is_not_random_or_lowest_index(self, monkeypatch):
        cfg, ds, model = self.small()

        def curve(label):
            config = ExperimentConfig(
                dataset=ds,
                strategies=(parse_strategy(label, build_dci_params(cfg)),),
                model=model,
                metric=cfg.str("experiment.metric"),
                initial_train_size=cfg.int("experiment.initial_train_size"),
                additions_per_update=cfg.int("experiment.additions_per_update"),
                n_updates=cfg.int("experiment.n_updates"),
                test_size=cfg.int("experiment.test_size"),
            )
            return run_experiment(config, seed=0)[0].values

        uncertainty = curve("uncertainty-eq3_binary")
        assert uncertainty != curve("random")
        # A constant score hands every pick to the lowest candidate index.
        monkeypatch.setitem(
            models.UNCERTAINTY, "eq3_binary", lambda pred: np.zeros(pred.aggregate.shape[0])
        )
        assert uncertainty != curve("uncertainty-eq3_binary")
