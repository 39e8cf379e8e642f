"""Pool-based simulation loop: selection, schedules, determinism, aggregation."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_classification, make_regression
from dci_lab import active, dci, models, neighbors
from dci_lab.active import (
    ExperimentConfig,
    LearningCurve,
    ModelConfig,
    Strategy,
    aggregate,
    run_experiment,
    run_many,
    select_next,
    write_curves_csv,
    write_summary_csv,
)
from dci_lab.dci import DciParams, pool_scores
from dci_lab.models import fit_ensemble, knn_predict


def two_blob_dataset(rng, n_per=40, gap=8.0):
    X = np.concatenate([rng.normal(size=(n_per, 2)), rng.normal(size=(n_per, 2)) + gap])
    y = np.repeat([0, 1], n_per)
    perm = rng.permutation(2 * n_per)
    return make_classification(X[perm], y[perm])


class TestStrategy:
    def test_pairing_rules(self):
        Strategy(tag="random")
        Strategy(tag="dci-high", dci_params=DciParams())
        Strategy(tag="model-uncertainty", kind="max_prob")
        with pytest.raises(ValueError):
            Strategy(tag="greedy")
        with pytest.raises(ValueError):
            Strategy(tag="random", kind="max_prob")
        with pytest.raises(ValueError):
            Strategy(tag="model-uncertainty")
        with pytest.raises(ValueError):
            Strategy(tag="model-uncertainty", kind="entropy")
        with pytest.raises(ValueError):
            Strategy(tag="dci-high")
        with pytest.raises(ValueError):
            Strategy(tag="random", pca_components=3)
        with pytest.raises(ValueError):
            Strategy(tag="dci-high", dci_params=DciParams(), pca_components=-1)

    def test_labels(self):
        assert Strategy(tag="random").label == "random"
        assert Strategy(tag="dci-low", dci_params=DciParams()).label == "dci-low"
        assert (
            Strategy(tag="model-uncertainty", kind="eq3_binary").label
            == "uncertainty-eq3_binary"
        )
        pca = Strategy(tag="dci-high", dci_params=DciParams(), pca_components=20)
        assert pca.label == "dci-high-pca20"


class TestExperimentConfigValidation:
    def base(self, rng, **kw):
        defaults = dict(
            dataset=two_blob_dataset(rng),
            strategies=(Strategy(tag="random"),),
            metric="accuracy",
            initial_train_size=10,
            additions_per_update=2,
            n_updates=3,
            test_size=20,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_schedule_must_fit_pool(self, rng):
        self.base(rng)
        with pytest.raises(ValueError):
            self.base(rng, n_updates=40)

    def test_metric_and_label_compatibility(self, rng):
        ds_reg = make_regression(rng.normal(size=(40, 2)), rng.normal(size=40))
        with pytest.raises(ValueError):
            self.base(rng, metric="rmse")
        with pytest.raises(ValueError):
            self.base(rng, dataset=ds_reg, metric="accuracy", test_size=5)
        self.base(rng, dataset=ds_reg, metric="rmse", test_size=5)
        three = make_classification(rng.normal(size=(60, 2)), rng.integers(0, 3, size=60))
        with pytest.raises(ValueError):
            self.base(rng, dataset=three, metric="auroc")

    def test_uncertainty_strategy_requirements(self, rng):
        ds_reg = make_regression(rng.normal(size=(40, 2)), rng.normal(size=40))
        with pytest.raises(ValueError):
            self.base(
                rng,
                dataset=ds_reg,
                metric="rmse",
                test_size=5,
                strategies=(Strategy(tag="model-uncertainty", kind="eq3_binary"),),
            )
        with pytest.raises(ValueError):
            self.base(
                rng,
                strategies=(Strategy(tag="model-uncertainty", kind="regression_std"),),
            )
        with pytest.raises(ValueError):
            self.base(
                rng,
                strategies=(Strategy(tag="model-uncertainty", kind="mean_std"),),
                model=ModelConfig(kind="ensemble", n_trees=1),
            )
        with pytest.raises(ValueError):
            self.base(
                rng,
                strategies=(Strategy(tag="model-uncertainty", kind="eq3_binary"),),
                model=ModelConfig(kind="knn"),
            )
        # max_prob works on the aggregate, so the knn fallback qualifies
        self.base(
            rng,
            strategies=(Strategy(tag="model-uncertainty", kind="max_prob"),),
            model=ModelConfig(kind="knn"),
        )
        # Every strategy is checked, not only the first.
        with pytest.raises(ValueError):
            self.base(
                rng,
                strategies=(Strategy(tag="random"), Strategy(tag="model-uncertainty", kind="mean_std")),
                model=ModelConfig(kind="knn"),
            )

    def test_strategies_are_nonempty_with_unique_labels(self, rng):
        high = Strategy(tag="dci-high", dci_params=DciParams(k=3))
        with pytest.raises(ValueError, match="at least one"):
            self.base(rng, strategies=())
        with pytest.raises(ValueError, match="duplicates"):
            self.base(rng, strategies=(high, Strategy(tag="random"), high))
        # Labels name the curves, so one label with other parameters is a duplicate too.
        with pytest.raises(ValueError, match="duplicates"):
            self.base(rng, strategies=(high, Strategy(tag="dci-high", dci_params=DciParams(k=5))))
        config = self.base(rng, strategies=[Strategy(tag="random"), high])
        assert config.strategies == (Strategy(tag="random"), high)


# Two labelled clusters on a line, pool rows 0-3; pool index 4 sits on the boundary.
LINE_FEATURES = np.array([[0.0], [0.2], [10.0], [10.2], [5.0], [0.1], [9.9], [0.3]])
LINE_CODES = np.array([0, 0, 1, 1, 0, 0, 1, 0])


def line_dci_score(sign=1.0):
    """Candidates' DCI scores against the labelled rows 0-3, times ``sign``:
    -1 ranks the purest first, as dci-low does."""

    def score(cands):
        query = LINE_FEATURES[cands]
        (s,) = pool_scores(LINE_FEATURES[:4], LINE_CODES[:4], 2, query, [DciParams(k=4)])
        return sign * s

    return score


class TestSelectNext:
    def test_random_takes_first_draw(self):
        unlabelled = np.array([4, 5, 6, 7])
        rng = np.random.default_rng(123)
        want = int(np.random.default_rng(123).choice(unlabelled, size=3, replace=False)[0])
        assert select_next(unlabelled, 3, rng) == want

    def test_dci_high_picks_the_boundary_point(self):
        pick = select_next(np.array([4, 5, 6, 7]), 50, np.random.default_rng(0), line_dci_score())
        assert pick == 4  # the x=5 midpoint, surrounded by both classes

    def test_dci_low_picks_the_purest_point(self):
        pick = select_next(np.array([4, 5, 6, 7]), 50, np.random.default_rng(0), line_dci_score(-1.0))
        assert pick == 5  # x=0.1, deep inside the class-0 cluster

    def test_model_uncertainty_uses_supplied_scores(self):
        seen = {}

        def score(cands):
            seen["cands"] = cands.copy()
            return np.where(cands == 6, 9.0, 0.0)

        pick = select_next(np.array([7, 6, 5, 4]), 50, np.random.default_rng(0), score)
        assert pick == 6
        assert seen["cands"].tolist() == sorted(seen["cands"].tolist())

    def test_score_ties_go_to_lowest_pool_index(self):
        score = lambda cands: np.zeros(cands.size)
        pick = select_next(np.array([7, 5, 6]), 50, np.random.default_rng(0), score)
        assert pick == 5
        # Negated scores, as dci-low's, tie -0.0 with 0.0.
        signed = lambda cands: np.where(cands == 5, -0.0, 0.0)
        assert select_next(np.array([7, 5, 6]), 50, np.random.default_rng(0), signed) == 5

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_next(np.array([], dtype=int), 50, np.random.default_rng(0))
        # So is an empty batch, with and without a score function.
        with pytest.raises(ValueError, match="batch_size"):
            select_next(np.arange(5), 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="batch_size"):
            select_next(np.arange(5), 0, np.random.default_rng(0), lambda cands: np.zeros(cands.size))


class TestRunExperiment:
    def config(self, rng, **kw):
        defaults = dict(
            dataset=two_blob_dataset(rng),
            strategies=(Strategy(tag="dci-high", dci_params=DciParams(k=5)),),
            model=ModelConfig(kind="knn", knn_k=3),
            metric="accuracy",
            initial_train_size=8,
            additions_per_update=3,
            n_updates=4,
            candidate_batch_size=5,
            test_size=20,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_curve_schedule(self, rng):
        (curve,) = run_experiment(self.config(rng), seed=7)
        assert curve.train_sizes == (8, 11, 14, 17, 20)
        assert curve.strategy == "dci-high" and curve.metric == "accuracy"
        assert all(0.0 <= v <= 1.0 for v in curve.values)

    def test_no_updates_gives_single_point(self, rng):
        (curve,) = run_experiment(self.config(rng, n_updates=0), seed=1)
        assert curve.train_sizes == (8,)

    def test_same_seed_reproduces_exactly(self, rng):
        config = self.config(rng)
        assert run_experiment(config, seed=3) == run_experiment(config, seed=3)

    def test_different_seeds_differ(self, rng):
        # Overlapping blobs so accuracy actually varies with the split.
        config = self.config(
            rng, dataset=two_blob_dataset(rng, gap=1.5), strategies=(Strategy(tag="random"),)
        )
        curves = {run_experiment(config, seed=s)[0].points for s in range(6)}
        assert len(curves) > 1

    def test_easy_data_reaches_high_accuracy(self, rng):
        (curve,) = run_experiment(self.config(rng, n_updates=2), seed=0)
        assert curve.values[-1] >= 0.9  # two blobs 8 sigma apart

    def test_pca_feature_space_runs(self, rng):
        strat = Strategy(tag="dci-high", dci_params=DciParams(k=5), pca_components=2)
        (curve,) = run_experiment(self.config(rng, strategies=(strat,)), seed=2)
        assert curve.strategy == "dci-high-pca2"
        assert len(curve.points) == 5

    def test_regression_with_committee_std(self, rng):
        X = rng.normal(size=(60, 2))
        ds = make_regression(X, X[:, 0] * 3.0 + rng.normal(size=60) * 0.1)
        config = ExperimentConfig(
            dataset=ds,
            strategies=(Strategy(tag="model-uncertainty", kind="regression_std"),),
            model=ModelConfig(kind="ensemble", n_trees=5),
            metric="rmse",
            initial_train_size=10,
            additions_per_update=5,
            n_updates=2,
            test_size=15,
        )
        (curve,) = run_experiment(config, seed=11)
        assert curve.train_sizes == (10, 15, 20)
        assert all(v >= 0 for v in curve.values)

    def test_auroc_metric_with_ensemble(self, rng):
        config = self.config(
            rng,
            strategies=(Strategy(tag="model-uncertainty", kind="eq3_binary"),),
            model=ModelConfig(kind="ensemble", n_trees=4),
            metric="auroc",
            n_updates=1,
        )
        (curve,) = run_experiment(config, seed=5)
        assert all(0.0 <= v <= 1.0 for v in curve.values)


class TestKnnTestLists:
    """The kNN model predicts from neighbour lists that each boundary
    extends, for the test rows and for the unlabelled pool; its curves must
    equal knn_predict run afresh."""

    def fresh_curve(self, config, seed, monkeypatch):
        """The curve with every kNN prediction searched afresh, and the row
        count of each prediction."""
        seen = []

        def fresh(cfg, ensemble, labelled, rows, neighbors):
            assert ensemble is None and neighbors is not None
            seen.append(rows.size)
            ds = cfg.dataset
            return knn_predict(ds.select_rows(labelled), ds.features[rows], cfg.model.knn_k)[None]

        with monkeypatch.context() as m:
            m.setattr(active, "_predict", fresh)
            curve = run_experiment(config, seed)
        assert seen
        return curve, seen

    @staticmethod
    def blob_config(rng, strategy, **kw):
        # Rounded overlapping blobs: many exact distance ties.
        X = np.round(np.concatenate([rng.normal(size=(60, 3)), rng.normal(size=(60, 3)) + 1.0]))
        settings = dict(
            model=ModelConfig(kind="knn", knn_k=5),
            metric="accuracy",
            initial_train_size=3,
            additions_per_update=2,
            n_updates=12,
            test_size=40,
        )
        settings.update(kw)
        return ExperimentConfig(
            dataset=make_classification(X, np.repeat([0, 1], 60)), strategies=(strategy,), **settings
        )

    @pytest.mark.parametrize(
        "strategy",
        [
            Strategy(tag="random"),
            Strategy(tag="dci-high", dci_params=DciParams(k=4)),
            Strategy(tag="model-uncertainty", kind="max_prob"),
        ],
    )
    def test_class_pool_accuracy(self, rng, monkeypatch, strategy):
        config = self.blob_config(rng, strategy)
        for seed in (0, 1, 2):
            assert run_experiment(config, seed) == self.fresh_curve(config, seed, monkeypatch)[0]

    def test_candidate_scores_equal_a_fresh_search(self, rng, monkeypatch):
        # The initial set is smaller than k, so the candidates' lists are
        # searched afresh until they fill, then extended.
        config = self.blob_config(
            rng,
            Strategy(tag="model-uncertainty", kind="max_prob"),
            model=ModelConfig(kind="knn", knn_k=7),
            additions_per_update=4,
            n_updates=10,
        )
        for seed in (0, 1, 2):
            fresh, rows = self.fresh_curve(config, seed, monkeypatch)
            assert run_experiment(config, seed) == fresh
            # Besides the 11 test-set evaluations, each update scored its
            # whole unlabelled pool once.
            n_unlabelled = config.dataset.n_rows - config.test_size - config.initial_train_size
            pools = [n_unlabelled - u * config.additions_per_update for u in range(config.n_updates)]
            assert sorted(rows) == sorted([config.test_size] * (config.n_updates + 1) + pools)

    def test_candidate_scores_make_no_search(self, rng, monkeypatch):
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(models, "knn_predict")
        counted(models, "knn")
        counted(neighbors, "knn")
        counted(dci, "nearest_neighbors")
        config = self.blob_config(rng, Strategy(tag="model-uncertainty", kind="max_prob"))
        curves = [run_experiment(config, seed)[0].points for seed in (1, 2)]
        assert calls == []
        # The curves as the kNN model gave them when it searched per pick.
        assert curves == [
            (
                (3, 0.525), (5, 0.525), (7, 0.525), (9, 0.525), (11, 0.575), (13, 0.725), (15, 0.725),
                (17, 0.675), (19, 0.675), (21, 0.675), (23, 0.675), (25, 0.675), (27, 0.675),
            ),
            (
                (3, 0.5), (5, 0.5), (7, 0.5), (9, 0.65), (11, 0.625), (13, 0.625), (15, 0.625),
                (17, 0.675), (19, 0.675), (21, 0.675), (23, 0.7), (25, 0.7), (27, 0.7),
            ),
        ]

    def test_numeric_label_pool_rmse(self, rng, monkeypatch):
        # The regression mean is taken in list order, so the order is pinned.
        X = np.round(rng.normal(size=(150, 2)) * 2.0)
        ds = make_regression(X, X[:, 0] * 3.0 + rng.normal(size=150))
        config = ExperimentConfig(
            dataset=ds,
            strategies=(Strategy(tag="dci-high", dci_params=DciParams(k=6)),),
            model=ModelConfig(kind="knn", knn_k=9),
            metric="rmse",
            initial_train_size=4,
            additions_per_update=7,
            n_updates=9,
            test_size=50,
        )
        for seed in (0, 1, 2):
            assert run_experiment(config, seed) == self.fresh_curve(config, seed, monkeypatch)[0]


class TestRunMany:
    def test_seed_range_and_determinism(self, rng):
        ds = two_blob_dataset(rng)
        config = ExperimentConfig(
            dataset=ds,
            strategies=(Strategy(tag="random"),),
            model=ModelConfig(kind="knn", knn_k=3),
            metric="accuracy",
            initial_train_size=5,
            additions_per_update=2,
            n_updates=2,
            n_seeds=3,
            test_size=10,
        )
        curves = run_many(config, base_seed=40)
        assert [c.seed for c in curves] == [40, 41, 42]
        again = run_many(config, base_seed=40)
        assert curves == again

    @pytest.mark.parametrize("threads, n_seeds, workers", [(64, 2, 2), (2, 3, 2)])
    def test_workers_capped_at_seed_count(self, rng, monkeypatch, threads, n_seeds, workers):
        # A stand-in pool that records its size and runs tasks in-process,
        # so no process is started however large the thread count.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(active, "ProcessPoolExecutor", RecordingPool)
        config = ExperimentConfig(
            dataset=two_blob_dataset(rng),
            strategies=(Strategy(tag="random"),),
            model=ModelConfig(kind="knn", knn_k=3),
            initial_train_size=5,
            additions_per_update=2,
            n_updates=1,
            n_seeds=n_seeds,
            test_size=10,
        )
        curves = run_many(config, base_seed=7, threads=threads)
        assert sizes == [workers]
        assert curves == run_many(config, base_seed=7, threads=1)
        assert sizes == [workers]


def all_strategies_config(ds, model, **schedule):
    """One config with a strategy of each kind."""
    params = DciParams(k=3)
    strategies = [
        Strategy(tag="random"),
        Strategy(tag="dci-high", dci_params=params),
        Strategy(tag="dci-low", dci_params=params, pca_components=1),
        Strategy(tag="model-uncertainty", kind="max_prob"),
    ]
    if model.kind == "ensemble":
        strategies.append(Strategy(tag="model-uncertainty", kind="eq3_binary"))
    return ExperimentConfig(dataset=ds, strategies=strategies, model=model, **schedule)


SCHEDULE = dict(initial_train_size=6, additions_per_update=3, n_updates=3, n_seeds=3, test_size=12)


class TestSharedStart:
    @pytest.mark.parametrize(
        "model", [ModelConfig(kind="knn", knn_k=3), ModelConfig(n_trees=4)], ids=["knn", "ensemble"]
    )
    def test_strategies_together_equal_each_alone(self, rng, model):
        config = all_strategies_config(two_blob_dataset(rng), model, metric="auroc", **SCHEDULE)
        together = run_many(config, base_seed=3)
        alone = [
            curve for s in config.strategies for curve in run_many(replace(config, strategies=(s,)), base_seed=3)
        ]
        assert together == alone
        per_seed = {seed: run_experiment(config, seed) for seed in (3, 4, 5)}
        assert together == [per_seed[seed][j] for j in range(len(config.strategies)) for seed in (3, 4, 5)]
        assert [(c.strategy, c.seed) for c in together] == [
            (s.label, seed) for s in config.strategies for seed in (3, 4, 5)
        ]

    def test_first_committee_is_fitted_once_per_seed(self, rng, monkeypatch):
        # One grower call per seed and boundary: the first boundary grows the
        # shared committee, every later one the committees of all strategies.
        trees = []
        grow = models._grow_trees

        def counting_grow(X, y, boots, *args):
            trees.append(len(boots))
            return grow(X, y, boots, *args)

        monkeypatch.setattr(models, "_grow_trees", counting_grow)
        config = all_strategies_config(two_blob_dataset(rng), ModelConfig(n_trees=3), **SCHEDULE)
        run_many(config, base_seed=0)
        n_seeds, n_updates = SCHEDULE["n_seeds"], SCHEDULE["n_updates"]
        assert trees == ([3] + [3 * len(config.strategies)] * n_updates) * n_seeds


class TestWholePoolScores:
    """A committee strategy scores the whole unlabelled pool once per update
    and looks each pick's candidates up; the scores, and so the picks, must
    equal a predict of the candidates alone."""

    @staticmethod
    def pool(rng, kind, n=300):
        X = np.round(rng.normal(size=(n, 3)), 1)
        signal = X[:, 0] + 0.5 * rng.normal(size=n)
        if kind == "regression_std":
            return make_regression(X, 2.0 * signal)
        return make_classification(X, np.digitize(signal, [0.0] if kind == "eq3_binary" else [-0.5, 0.5]))

    @pytest.mark.parametrize("n_trees", [3, 12])
    @pytest.mark.parametrize("kind", sorted(models.UNCERTAINTY))
    def test_whole_pool_scores_equal_candidate_scores(self, rng, kind, n_trees):
        # Batches of one row are left out: select_next takes a lone
        # candidate whatever its score.
        ds = self.pool(rng, kind, n=3000)
        ensemble = fit_ensemble(ds.select_rows(np.arange(200)), ModelConfig(n_trees=n_trees), seed=1)
        score = models.UNCERTAINTY[kind]
        whole = score(models.predict(ensemble, ds.features))
        for m in (2, 3, 5):
            for _ in range(20):
                cands = np.sort(rng.choice(ds.n_rows, size=m, replace=False))
                assert np.array_equal(score(models.predict(ensemble, ds.features[cands])), whole[cands])

    # per_pick: a boundary after every pick; whole_pool: 40 picks looked up
    # in one scoring of the pool.
    @pytest.mark.parametrize("additions", [1, 40], ids=["per_pick", "whole_pool"])
    @pytest.mark.parametrize("kind", sorted(models.UNCERTAINTY))
    def test_curves_equal_per_pick_scoring(self, rng, monkeypatch, kind, additions):
        config = ExperimentConfig(
            dataset=self.pool(rng, kind),
            strategies=(Strategy(tag="model-uncertainty", kind=kind), Strategy(tag="random")),
            model=ModelConfig(n_trees=10),
            metric="rmse" if kind == "regression_std" else "accuracy",
            initial_train_size=20,
            additions_per_update=additions,
            n_updates=4,
            n_seeds=2,
            test_size=50,
        )
        features, uncertainty = config.dataset.features, models.UNCERTAINTY[kind]
        # The strategies move through each boundary in turn, so the last
        # committee predicted with is the one the uncertainty picks score with.
        committees = []
        checked = []
        boundary_predict, select = active._predict, active.select_next

        def capture(cfg, ensemble, *args):
            committees.append(ensemble)
            return boundary_predict(cfg, ensemble, *args)

        def oracle_select(unlabelled, batch_size, rng, score=None):
            def oracle(cands):
                got = score(cands)
                assert np.array_equal(got, uncertainty(models.predict(committees[-1], features[cands])))
                checked.append(cands.size)
                return got

            return select(unlabelled, batch_size, rng, oracle if score else None)

        monkeypatch.setattr(active, "_predict", capture)
        monkeypatch.setattr(active, "select_next", oracle_select)
        run_many(config, base_seed=4)
        assert checked == [config.candidate_batch_size] * (config.n_seeds * config.n_updates * additions)


class TestModelConfig:
    def test_ensemble_settings(self, rng):
        # fit_ensemble grows the model's trees; tree t draws its bootstrap
        # from seed + t.
        ds = two_blob_dataset(rng, gap=1.0)
        model = ModelConfig(n_trees=4, max_depth=3, min_leaf=2)
        ens = fit_ensemble(ds, model, seed=17)
        assert ens.n_trees == len(ens.trees) == 4
        for tree in ens.trees:
            depth = np.zeros(tree.feature.size, dtype=int)
            for node in np.flatnonzero(tree.left >= 0):  # children come after their parent
                depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
            assert depth.max() == 3  # overlapping blobs: grown to the limit
        alone = fit_ensemble(ds, replace(model, n_trees=1), seed=18).trees[0]
        assert np.array_equal(alone.threshold, ens.trees[1].threshold)
        deeper = fit_ensemble(ds, replace(model, max_depth=None, min_leaf=1), seed=17)
        assert deeper.feature.size > ens.feature.size

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "forest"},
            {"n_trees": 0},
            {"max_depth": -1},
            {"min_leaf": 0},
            {"knn_k": 0},
            {"kind": "knn", "max_depth": -1},
        ],
    )
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            ModelConfig(**bad)


class TestAggregate:
    def make_curve(self, strategy, seed, values):
        return LearningCurve(
            points=tuple((10 + 5 * i, v) for i, v in enumerate(values)),
            seed=seed,
            strategy=strategy,
            metric="accuracy",
        )

    def test_summary_statistics(self):
        curves = [
            self.make_curve("random", 0, [0.5, 0.7]),
            self.make_curve("random", 1, [0.7, 0.9]),
            self.make_curve("random", 2, [0.6, 0.2]),
            self.make_curve("dci-high", 0, [0.9, 1.0]),
        ]
        rows = aggregate(curves)
        by_key = {(r.strategy, r.train_size): r for r in rows}
        assert len(rows) == 4
        r = by_key[("random", 10)]
        assert r.mean == pytest.approx(0.6)
        assert r.median == pytest.approx(0.6)
        assert r.q25 == pytest.approx(np.quantile([0.5, 0.7, 0.6], 0.25))
        assert by_key[("dci-high", 15)].mean == 1.0

    def test_mismatched_schedules_rejected(self):
        a = self.make_curve("random", 0, [0.5, 0.7])
        b = LearningCurve(
            points=((10, 0.5),), seed=1, strategy="random", metric="accuracy"
        )
        with pytest.raises(ValueError):
            aggregate([a, b])
        with pytest.raises(ValueError):
            aggregate([])

    def test_curve_sizes_must_increase(self):
        with pytest.raises(ValueError):
            LearningCurve(
                points=((10, 0.5), (10, 0.6)), seed=0, strategy="random", metric="accuracy"
            )


class TestCsvOutputs:
    def test_curves_round_trip(self, tmp_path):
        curves = [
            LearningCurve(
                points=((10, 0.5), (12, 0.625)),
                seed=3,
                strategy="random",
                metric="accuracy",
            )
        ]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, curves)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["strategy", "seed", "train_size", "metric", "value"]
        assert rows[1] == ["random", "3", "10", "accuracy", "0.5"]
        assert rows[2] == ["random", "3", "12", "accuracy", "0.625"]

    def test_summary_round_trip(self, tmp_path):
        curves = [
            LearningCurve(points=((5, 0.25),), seed=s, strategy="random", metric="accuracy")
            for s in range(2)
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(path, aggregate(curves))
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["strategy", "train_size", "mean", "median", "q25", "q75"]
        assert rows[1] == ["random", "5", "0.25", "0.25", "0.25", "0.25"]
