"""Tree ensemble against a naive recursive reference, plus uncertainty math.

The reference grows trees with plain recursive code but mirrors the
production arithmetic operation-for-operation. The grower also scales
regression labels by a power of two before scoring, which the reference
skips: that scales every score exactly and moves no comparison. On
integer-valued inputs every intermediate (class counts, sums of labels less
a node's first) is exact in float64, so thresholds, leaf values and
predictions must agree bit-for-bit, not just approximately.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_classification, make_regression
from dci_lab import models
from dci_lab.dataset import DataError, one_hot
from dci_lab.models import (
    CLASSIFICATION,
    REGRESSION,
    ModelConfig,
    ensemble_binary_uncertainty,
    fit_ensemble,
    knn_from_labels,
    knn_predict,
    max_prob_uncertainty,
    mean_std_uncertainty,
    predict,
    regression_std_uncertainty,
)
from dci_lab.synthetic import census_income

_LEAF = -1


def ref_best_split(X, y, task, n_classes, min_leaf):
    """Per-feature Python loop over split positions; first strict minimum wins."""
    n, d = X.shape
    best = None
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        if task == CLASSIFICATION:
            cums = np.stack(
                [np.cumsum(ys == c) for c in range(n_classes)], axis=1
            )
            tot = cums[-1]
        else:
            cs = np.cumsum(ys - y[0])  # labels less the node's first
        for pos in range(n - 1):
            if not xs[pos] < xs[pos + 1]:
                continue
            if pos < min_leaf - 1 or pos >= n - min_leaf:
                continue
            inv_nl = 1.0 / (pos + 1)
            inv_nr = 1.0 / (n - 1 - pos)
            if task == CLASSIFICATION:
                s = 0.0
                for c in range(n_classes):
                    cl = float(cums[pos, c])
                    cr = float(tot[c] - cums[pos, c])
                    s = s + (cl * cl * inv_nl + cr * cr * inv_nr)
                s = -s
            else:
                cl, cr = cs[pos], cs[-1] - cs[pos]
                s = -(cl * cl * inv_nl + cr * cr * inv_nr)
            if best is None or s < best[0]:
                best = (s, f, pos, xs)
    if best is None:
        return None
    _, f, pos, xs = best
    thr = 0.5 * (xs[pos] + xs[pos + 1])
    if thr >= xs[pos + 1]:
        thr = xs[pos]
    return f, float(thr), np.argsort(X[:, f], kind="stable")


def ref_grow(X, y, task, n_classes, model, depth=0):
    n = y.shape[0]
    pure = (y == y[0]).all() if task == CLASSIFICATION else np.ptp(y) == 0.0
    found = None
    if (
        (model.max_depth is None or depth < model.max_depth)
        and n >= max(2, 2 * model.min_leaf)
        and not pure
    ):
        found = ref_best_split(X, y, task, n_classes, model.min_leaf)
    if found is None:
        if task == CLASSIFICATION:
            value = np.bincount(y.astype(np.int64), minlength=n_classes) / n
        else:
            value = np.array([float(np.sum(y)) / n])
        return {"value": value}
    # Children keep the node's rows in stable order along the split feature.
    f, thr, order = found
    X, y = X[order], y[order]
    go_left = X[:, f] <= thr
    return {
        "feature": f,
        "threshold": thr,
        "left": ref_grow(X[go_left], y[go_left], task, n_classes, model, depth + 1),
        "right": ref_grow(X[~go_left], y[~go_left], task, n_classes, model, depth + 1),
    }


def ref_apply_row(ref, x):
    while "value" not in ref:
        ref = ref["left"] if x[ref["feature"]] <= ref["threshold"] else ref["right"]
    return ref["value"]


def assert_tree_matches(tree, ref, node=0):
    if "value" in ref:
        assert int(tree.feature[node]) == _LEAF
        assert np.array_equal(tree.value[node], ref["value"])
    else:
        assert int(tree.feature[node]) == ref["feature"]
        assert float(tree.threshold[node]) == ref["threshold"]
        assert_tree_matches(tree, ref["left"], int(tree.left[node]))
        assert_tree_matches(tree, ref["right"], int(tree.right[node]))


def random_case(seed, task):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 80))
    d = int(rng.integers(1, 5))
    if rng.integers(0, 2):
        X = rng.integers(0, 7, size=(n, d)).astype(np.float64)  # heavy ties
    else:
        X = rng.normal(size=(n, d))
    if rng.integers(0, 4) == 0 and d > 1:
        X[:, 0] = 2.0  # constant column must never be split on
    if task == CLASSIFICATION:
        n_classes = int(rng.integers(2, 6))
        y = rng.integers(0, n_classes, size=n)
    else:
        n_classes = 0
        y = rng.integers(0, 9, size=n).astype(np.float64)  # keeps sums exact
    model = ModelConfig(
        n_trees=2,
        max_depth=[None, None, 2, 4][int(rng.integers(0, 4))],
        min_leaf=int(rng.integers(1, 6)),
    )
    return X, y, n_classes, model, int(rng.integers(0, 1000))


class TestTreeOracle:
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("case", range(10))
    def test_fitted_trees_match_reference_node_for_node(self, task, case):
        X, y, n_classes, model, seed = random_case(1000 * case + 7, task)
        if task == CLASSIFICATION:
            ds = make_classification(X, y, class_names=[f"c{i}" for i in range(n_classes)])
        else:
            ds = make_regression(X, y)
        ensemble = fit_ensemble(ds, model, seed)
        queries = np.random.default_rng(case).uniform(-1.0, 8.0, size=(25, X.shape[1]))
        per_member = predict(ensemble, queries)
        for t, tree in enumerate(ensemble.trees):
            boot = np.random.default_rng(seed + t).integers(0, len(y), size=len(y))
            ref = ref_grow(X[boot], y[boot], task, n_classes, model)
            assert_tree_matches(tree, ref)
            want = np.stack([ref_apply_row(ref, q) for q in queries])
            assert np.array_equal(per_member[t], want if task == CLASSIFICATION else want[:, 0])

    @pytest.mark.parametrize("case", range(6))
    def test_real_valued_regression_matches_reference(self, case):
        # Non-integer labels make every sum order-sensitive, so this also
        # pins the row order inside each node.
        X, _, _, model, seed = random_case(1000 * case + 7, REGRESSION)
        y = np.random.default_rng(case).normal(size=len(X)) * 10.0 + 0.3
        ensemble = fit_ensemble(make_regression(X, y), model, seed)
        for t, tree in enumerate(ensemble.trees):
            boot = np.random.default_rng(seed + t).integers(0, len(y), size=len(y))
            assert_tree_matches(tree, ref_grow(X[boot], y[boot], REGRESSION, 0, model))

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_one_hot_census_pool_matches_reference(self, task, min_leaf):
        # Two-valued one-hot columns put most rows inside long runs of tied
        # values, and each bootstrap repeats rows. With the real-valued label
        # every regression sum is order-sensitive, which pins the row order
        # inside each node.
        ds = one_hot(census_income(300, 6))
        X = ds.features
        if task == CLASSIFICATION:
            y, n_classes = ds.labels, ds.class_count
        else:
            y, n_classes = np.random.default_rng(2).normal(size=len(X)) * 10.0 + 0.3, 0
            ds = make_regression(X, y)
        model, seed = ModelConfig(n_trees=3, min_leaf=min_leaf), 5
        ensemble = fit_ensemble(ds, model, seed)
        for t, tree in enumerate(ensemble.trees):
            boot = np.random.default_rng(seed + t).integers(0, len(y), size=len(y))
            assert len(np.unique(boot)) < len(y)
            assert_tree_matches(tree, ref_grow(X[boot], y[boot], task, n_classes, model))

    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("min_leaf", [1, 4])
    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    @pytest.mark.parametrize("columns", ["all_two_valued", "none_two_valued", "mixed"])
    def test_two_valued_columns_match_reference(self, columns, n_classes, min_leaf, max_depth):
        # Two-valued columns are scored from counts, the rest by sorting;
        # values other than 0/1 make every threshold a real midpoint.
        rng = np.random.default_rng([n_classes, min_leaf, max_depth or 0])
        n = 90
        pair = np.where(rng.integers(0, 2, size=(n, 5)), 1.7, -0.4)
        pair[:, 3] = np.where(rng.uniform(size=n) < 0.1, 3.5, -2.25)  # a rare value
        wide = rng.integers(0, 6, size=(n, 3)) * 0.5 - 1.0
        X = {
            "all_two_valued": pair,
            "none_two_valued": wide,
            "mixed": np.column_stack([wide[:, 0], pair[:, :2], np.full(n, 0.3), wide[:, 1], pair[:, 3]]),
        }[columns]
        y = rng.integers(0, n_classes, size=n)
        ds = make_classification(X, y, class_names=[f"c{i}" for i in range(n_classes)])
        model, seed = ModelConfig(n_trees=3, min_leaf=min_leaf, max_depth=max_depth), 40 + n_classes
        ensemble = fit_ensemble(ds, model, seed)
        for t, tree in enumerate(ensemble.trees):
            boot = np.random.default_rng(seed + t).integers(0, n, size=n)
            assert_tree_matches(tree, ref_grow(X[boot], y[boot], CLASSIFICATION, n_classes, model))

    def test_two_valued_columns_are_never_sorted_in_classification(self, monkeypatch):
        # Classification sorts only the columns with more than two values;
        # regression sorts every column.
        searched = []
        best_splits = models._best_splits

        def spy(ranks, *args):
            searched.append(ranks.shape[0])
            return best_splits(ranks, *args)

        monkeypatch.setattr(models, "_best_splits", spy)
        rng = np.random.default_rng(5)
        X = np.where(rng.integers(0, 2, size=(120, 4)), 1.0, 0.0)
        X[:, 2] = 4.0  # constant
        y = rng.integers(0, 3, size=120)
        deep = fit_ensemble(make_classification(X, y), ModelConfig(n_trees=4), seed=1)
        assert searched == [] and (deep.feature != _LEAF).sum() > 20
        X = np.column_stack([X, rng.normal(size=120)])
        fit_ensemble(make_classification(X, y), ModelConfig(n_trees=4), seed=1)
        assert searched and set(searched) == {1}
        searched.clear()
        fit_ensemble(make_regression(X, rng.normal(size=120)), ModelConfig(n_trees=4), seed=1)
        assert searched and set(searched) == {5}

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_shared_batches_match_trees_grown_alone(self, task, monkeypatch):
        # Real-valued labels make the sums order-sensitive, and rounded
        # columns give ties, so any drift between a node searched in a
        # shared padded batch and searched alone would show. Column 4 has
        # two values, so classification also scores it from counts.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(150, 5))
        X[:, 1] = np.round(X[:, 1])
        X[:, 4] = np.where(X[:, 4] > 0.3, 2.5, -1.0)
        if task == CLASSIFICATION:
            ds = make_classification(X, rng.integers(0, 3, size=150))
        else:
            ds = make_regression(X, rng.normal(size=150) * 1e3 + 0.1)
        together = fit_ensemble(ds, ModelConfig(n_trees=6, min_leaf=2), seed=4)
        monkeypatch.setattr(models, "_BATCH_CELLS", 1)  # one node per search
        for t, tree in enumerate(together.trees):
            alone = fit_ensemble(ds, ModelConfig(n_trees=1, min_leaf=2), seed=4 + t).trees[0]
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(tree, name), getattr(alone, name)), name

    def test_all_constant_features_give_root_leaf(self):
        X = np.full((12, 3), 1.5)
        y = np.array([0, 1] * 6)
        ds = make_classification(X, y)
        ensemble = fit_ensemble(ds, ModelConfig(n_trees=1), seed=3)
        tree = ensemble.trees[0]
        assert len(tree.feature) == 1 and tree.feature[0] == _LEAF
        boot = np.random.default_rng(3).integers(0, 12, size=12)
        want = np.bincount(y[boot], minlength=2) / 12
        assert np.array_equal(tree.value[0], want)


def split_rows(tree, X, rows, node=0):
    """(node, its training rows) for every split node, from the root down."""
    if tree.feature[node] == _LEAF:
        return []
    go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
    return [(node, rows)] + split_rows(tree, X, rows[go_left], tree.left[node]) + split_rows(
        tree, X, rows[~go_left], tree.right[node]
    )


def exact_sse(y):
    mean = Fraction(sum(y), len(y))
    return sum((v - mean) ** 2 for v in y)


class TestRegressionScores:
    """Regression splits are scored from node-shifted, power-of-two-scaled
    label sums, so trees do not depend on a label's offset or unit."""

    @given(
        seed=st.integers(0, 10_000),
        offset=st.integers(-(10**8), 10**8),
        exponent=st.integers(-600, 600),
    )
    def test_trees_ignore_label_offset_and_unit(self, seed, offset, exponent):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(10, 60)), int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 1)
        y = rng.integers(-9, 10, size=n).astype(np.float64)
        model = ModelConfig(n_trees=2, min_leaf=int(rng.integers(1, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base, shifted, scaled = (
                fit_ensemble(make_regression(X, labels), model, seed) for labels in (y, y + offset, np.ldexp(y, exponent))
            )
        for other in (shifted, scaled):
            for name in ("feature", "threshold", "left", "right"):
                assert np.array_equal(getattr(other, name), getattr(base, name)), name
        assert np.array_equal(scaled.value, np.ldexp(base.value, exponent))
        leaf = base.feature == _LEAF
        assert np.allclose(shifted.value[leaf] - offset, base.value[leaf], rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("case", range(5))
    def test_every_split_minimizes_the_exact_squared_error(self, case):
        # Exact rational squared errors: each chosen split must reach the
        # node's minimum over all valid splits (not necessarily the first).
        X, y, _, model, seed = random_case(1000 * case + 11, REGRESSION)
        ensemble = fit_ensemble(make_regression(X, y), model, seed)
        labels = [Fraction(int(v)) for v in y]
        checked = 0
        for t, tree in enumerate(ensemble.trees):
            boot = np.random.default_rng(seed + t).integers(0, len(y), size=len(y))
            for node, rows in split_rows(tree, X, boot):
                f, thr = tree.feature[node], tree.threshold[node]
                left = X[rows, f] <= thr
                assert model.min_leaf <= left.sum() <= len(rows) - model.min_leaf
                best = None
                for g in range(X.shape[1]):
                    order = rows[np.argsort(X[rows, g], kind="stable")]
                    xs = X[order, g]
                    for pos in range(model.min_leaf - 1, len(rows) - model.min_leaf):
                        if xs[pos] < xs[pos + 1]:
                            sse = exact_sse([labels[i] for i in order[: pos + 1]])
                            sse += exact_sse([labels[i] for i in order[pos + 1 :]])
                            best = sse if best is None else min(best, sse)
                chosen = exact_sse([labels[i] for i in rows[left]]) + exact_sse([labels[i] for i in rows[~left]])
                assert chosen == best
                checked += 1
        assert checked > 0


class TestCommittees:
    """Committees grown in one fit_ensemble call, from lists of pool rows,
    equal each committee fitted alone on its rows with the same seed."""

    @staticmethod
    def pool(task):
        # Column 0 is real-valued, column 1 rounded (ties), column 2 two-valued,
        # and column 3 two-valued except on rows 100-119, so row sets without
        # those rows score it from counts alone but sort it together. Rows
        # 0-14 share one label.
        rng = np.random.default_rng(21)
        n = 120
        X = np.column_stack(
            [
                rng.normal(size=n),
                np.round(rng.normal(size=n)),
                np.where(rng.integers(0, 2, size=n), 1.7, -0.4),
                np.where(np.arange(n) < 100, rng.integers(0, 2, size=n), 2.0),
            ]
        )
        if task == CLASSIFICATION:
            y = rng.integers(0, 3, size=n)
            y[:15] = 1
            return make_classification(X, y, class_names=["a", "b", "c"])
        y = rng.normal(size=n) * 10.0 + 0.3
        y[:15] = 2.5
        return make_regression(X, y)

    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_committees_together_equal_each_alone(self, task, min_leaf, max_depth):
        ds = self.pool(task)
        rng = np.random.default_rng([min_leaf, max_depth or 0])
        rows = [rng.permutation(100)[:40], np.array([7]), rng.permutation(120)[:90], np.arange(15), np.arange(60)]
        model = ModelConfig(n_trees=4, min_leaf=min_leaf, max_depth=max_depth)
        together = fit_ensemble(ds, model, 9, rows=rows)
        assert together.n_trees == len(together.trees) == 4 * len(rows)
        committees = together.committees(len(rows))
        assert sum(c.feature.size for c in committees) == together.feature.size
        for r, committee in zip(rows, committees):
            alone = fit_ensemble(ds.select_rows(r), model, 9)
            assert (committee.n_trees, committee.n_classes, committee.task) == (4, alone.n_classes, alone.task)
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(committee, name), getattr(alone, name)), name
        whole = fit_ensemble(ds, model, 9, rows=[np.arange(120)])
        assert np.array_equal(whole.value, fit_ensemble(ds, model, 9).value)

    def test_empty_row_lists_are_rejected(self):
        ds = self.pool(CLASSIFICATION)
        for rows in ([], [np.arange(5), np.arange(0)]):
            with pytest.raises(ValueError, match="training set is empty"):
                fit_ensemble(ds, ModelConfig(n_trees=2), 0, rows=rows)


def census_like_case():
    # One-hot census columns: most positions lie inside runs of equal
    # values, so only a few boundaries are scored.
    ds = one_hot(census_income(240, 5))
    return ds.features, ds.labels, ds.class_count, ModelConfig(n_trees=3, min_leaf=2), 8


def real_regression_case():
    X, _, _, model, seed = random_case(3007, REGRESSION)
    y = np.random.default_rng(3).normal(size=len(X)) * 10.0 + 0.3
    return X, y, 0, model, seed


class TestDescent:
    @pytest.fixture(
        scope="class", params=[census_like_case, real_regression_case], ids=["census_like", "real_regression"]
    )
    def fitted(self, request):
        X, y, n_classes, model, seed = request.param()
        task = REGRESSION if n_classes == 0 else CLASSIFICATION
        ds = make_regression(X, y) if task == REGRESSION else make_classification(X, y)
        ensemble = fit_ensemble(ds, model, seed)
        refs = []
        for t in range(model.n_trees):
            boot = np.random.default_rng(seed + t).integers(0, len(y), size=len(y))
            refs.append(ref_grow(X[boot], y[boot], task, n_classes, model))
        # Training rows, rows between them, and rows sitting on thresholds.
        rng = np.random.default_rng(1)
        on = X[:20].copy()
        split = ensemble.feature != _LEAF
        pick = rng.integers(0, split.sum(), size=len(on))
        on[np.arange(len(on)), ensemble.feature[split][pick]] = ensemble.threshold[split][pick]
        queries = np.concatenate([X, 0.5 * (X[:-1] + X[1:]), on])
        return ensemble, refs, queries

    @pytest.mark.parametrize("cells", [1, 7, models._DESCENT_CELLS])  # 7: a few rows a block, the last one short
    def test_members_equal_reference_walks(self, fitted, cells, monkeypatch):
        monkeypatch.setattr(models, "_DESCENT_CELLS", cells)
        ensemble, refs, queries = fitted
        per_member = predict(ensemble, queries)
        for t, ref in enumerate(refs):
            want = np.stack([ref_apply_row(ref, q) for q in queries])
            assert np.array_equal(per_member[t], want if ensemble.task == CLASSIFICATION else want[:, 0])
        assert predict(ensemble, queries[:0]).shape == (len(refs), 0) + per_member.shape[2:]
        assert np.array_equal(predict(ensemble, queries[:1]), per_member[:, :1])
        assert np.array_equal(predict(ensemble, queries[5:6]), per_member[:, 5:6])


class TestEnsembleBehavior:
    def test_depth_zero_single_class_predicts_training_distribution(self, rng):
        # With one class present every bootstrap has the same distribution,
        # so the depth-0 leaf equals the pool's class distribution exactly.
        ds = make_classification(
            rng.normal(size=(30, 2)), np.zeros(30, dtype=np.int64), class_names=["only"]
        )
        ensemble = fit_ensemble(ds, ModelConfig(n_trees=1, max_depth=0))
        per_member = predict(ensemble, rng.normal(size=(5, 2)))
        assert np.array_equal(per_member.mean(axis=0), np.ones((5, 1)))

    def test_depth_zero_leaf_holds_its_bootstrap_distribution(self, rng):
        y = rng.integers(0, 3, size=40)
        ds = make_classification(rng.normal(size=(40, 2)), y)
        ensemble = fit_ensemble(ds, ModelConfig(n_trees=1, max_depth=0), seed=9)
        boot = np.random.default_rng(9).integers(0, 40, size=40)
        want = np.bincount(y[boot], minlength=3) / 40
        per_member = predict(ensemble, np.zeros((1, 2)))
        assert np.array_equal(per_member[0, 0], want)

    def test_separable_toy_reaches_training_accuracy_one(self, rng):
        X = np.concatenate([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 8.0])
        y = np.repeat([0, 1], 40)
        ds = make_classification(X, y)
        ensemble = fit_ensemble(ds, ModelConfig(n_trees=10), seed=1)
        per_member = predict(ensemble, X)
        assert (per_member.mean(axis=0).argmax(axis=1) == y).all()

    def test_same_seed_is_bit_identical(self, rng):
        X, y = rng.normal(size=(50, 3)), rng.integers(0, 2, size=50)
        ds = make_classification(X, y)
        model = ModelConfig(n_trees=5)
        a = predict(fit_ensemble(ds, model, seed=21), X)
        b = predict(fit_ensemble(ds, model, seed=21), X)
        assert np.array_equal(a, b)

    def test_tree_streams_depend_only_on_seed_plus_index(self, rng):
        X, y = rng.normal(size=(40, 2)), rng.integers(0, 2, size=40)
        ds = make_classification(X, y)
        a = fit_ensemble(ds, ModelConfig(n_trees=3), seed=11)
        b = fit_ensemble(ds, ModelConfig(n_trees=3), seed=12)
        for i in range(2):
            lhs, rhs = a.trees[i + 1], b.trees[i]
            assert np.array_equal(lhs.feature, rhs.feature)
            assert np.array_equal(lhs.threshold, rhs.threshold)
            assert np.array_equal(lhs.value, rhs.value)

    def test_prediction_shapes(self, rng):
        Xc = rng.normal(size=(25, 3))
        dsc = make_classification(Xc, rng.integers(0, 4, size=25))
        ens = fit_ensemble(dsc, ModelConfig(n_trees=3))
        assert predict(ens, Xc[:1]).shape == (3, 1, 4)
        assert predict(ens, Xc[:6]).shape == (3, 6, 4)
        dsr = make_regression(Xc, rng.normal(size=25))
        ens = fit_ensemble(dsr, ModelConfig(n_trees=3))
        assert predict(ens, Xc[:1]).shape == (3, 1)
        assert predict(ens, Xc[:6]).shape == (3, 6)
        with pytest.raises(ValueError, match="feature columns"):
            predict(ens, Xc[0])  # one row is a (1, d) batch, not a vector

    def test_errors(self, rng):
        ds = make_classification(rng.normal(size=(10, 2)), rng.integers(0, 2, size=10))
        with pytest.raises(ValueError):
            # an empty pool is rejected at construction, before fitting
            make_classification(
                np.empty((0, 2)), np.empty(0, dtype=np.int64), class_names=["a", "b"]
            )
        ens = fit_ensemble(ds, ModelConfig(n_trees=2))
        with pytest.raises(ValueError):
            predict(ens, rng.normal(size=(4, 3)))
        with pytest.raises(ValueError):
            ModelConfig(n_trees=0)
        with pytest.raises(ValueError):
            ModelConfig(min_leaf=0)
        with pytest.raises(ValueError):
            ModelConfig(max_depth=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["label", "feature"])
    def test_non_finite_training_rows_are_rejected(self, rng, where, bad):
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        (y if where == "label" else X[:, 1])[7] = bad
        ds = make_regression(X, y)
        with pytest.raises(DataError, match="non-finite"):
            fit_ensemble(ds, ModelConfig(n_trees=2))
        with pytest.raises(DataError, match="non-finite"):
            fit_ensemble(ds, ModelConfig(n_trees=2), rows=[np.arange(5), np.arange(5, 10)])
        if where == "feature":
            with pytest.raises(DataError, match="non-finite"):
                fit_ensemble(make_classification(X, rng.integers(0, 2, size=20)), ModelConfig(n_trees=2))
        # Only the rows the trees grow on are checked.
        fit_ensemble(ds, ModelConfig(n_trees=2), rows=[np.arange(5), np.arange(10, 20)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prediction_rows_are_rejected(self, rng, bad):
        X = rng.normal(size=(20, 2))
        ens = fit_ensemble(make_regression(X.copy(), rng.normal(size=20)), ModelConfig(n_trees=2))
        X[3, 0] = bad
        with pytest.raises(DataError, match="non-finite"):
            predict(ens, X)
        with pytest.raises(DataError, match="non-finite"):
            predict(ens, X[3:4])


# One query row's member predictions, as the (members, 1, ...) batch that
# predict returns; ``one`` reads the row's score back as a float.
def binary_pred(probs):
    return np.array([[[1.0 - p, p]] for p in probs])


def multi_pred(rows):
    return np.asarray(rows, dtype=np.float64)[:, None]


def reg_pred(values):
    return np.asarray(values, dtype=np.float64)[:, None]


def one(scores):
    assert scores.shape == (1,)
    return float(scores[0])


class TestUncertainty:
    def test_binary_committee_pinned_values(self):
        assert one(ensemble_binary_uncertainty(binary_pred([0.5, 0.5, 0.5]))) == 0.0
        assert one(ensemble_binary_uncertainty(binary_pred([1.0, 1.0]))) == -0.5
        assert one(ensemble_binary_uncertainty(binary_pred([0.0, 1.0]))) == -0.5
        got = one(ensemble_binary_uncertainty(binary_pred([0.3, 0.9])))
        assert got == pytest.approx(-(0.2 + 0.4) / 2, rel=1e-12)

    def test_binary_committee_requires_two_classes(self):
        three = multi_pred([[0.2, 0.3, 0.5]])
        with pytest.raises(ValueError):
            ensemble_binary_uncertainty(three)
        with pytest.raises(ValueError):
            ensemble_binary_uncertainty(reg_pred([1.0, 2.0]))

    @given(st.integers(0, 10_000))
    def test_binary_committee_zero_iff_all_half(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        probs = np.round(rng.uniform(size=m), 2)
        value = one(ensemble_binary_uncertainty(binary_pred(probs)))
        assert -0.5 <= value <= 0.0
        assert (value == 0.0) == bool((probs == 0.5).all())

    def test_regression_std_pinned_values(self):
        assert one(regression_std_uncertainty(reg_pred([3.7, 3.7, 3.7]))) == 0.0
        assert one(regression_std_uncertainty(reg_pred([0.0, 2.0]))) == 1.0

    def test_regression_std_matches_numpy(self, rng):
        values = rng.normal(size=9) * 50
        got = one(regression_std_uncertainty(reg_pred(values)))
        assert got == pytest.approx(np.std(values), rel=1e-12)
        with pytest.raises(ValueError):
            regression_std_uncertainty(binary_pred([0.5]))

    def test_max_prob_pinned_values(self):
        assert one(max_prob_uncertainty(multi_pred([[0.0, 0.0, 1.0]]))) == 0.0
        assert one(max_prob_uncertainty(multi_pred([np.full(10, 0.1)]))) == pytest.approx(0.9)
        assert one(max_prob_uncertainty(multi_pred([[0.6, 0.3, 0.1]]))) == pytest.approx(0.4)

    def test_mean_std_pinned_values(self):
        same = multi_pred([[0.2, 0.8], [0.2, 0.8], [0.2, 0.8]])
        assert one(mean_std_uncertainty(same)) == 0.0
        cross = multi_pred([[1.0, 0.0], [0.0, 1.0]])
        assert one(mean_std_uncertainty(cross)) == 0.5
        with pytest.raises(ValueError):
            mean_std_uncertainty(multi_pred([[0.5, 0.5]]))  # one member

    def test_mean_std_matches_per_class_numpy(self, rng):
        raw = rng.uniform(0.05, 1.0, size=(6, 4))
        pm = raw / raw.sum(axis=1, keepdims=True)
        want = np.std(pm, axis=0).mean()
        assert one(mean_std_uncertainty(multi_pred(pm))) == pytest.approx(want, rel=1e-12)

    @given(st.integers(0, 10_000))
    def test_duplicating_members_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        m, c = int(rng.integers(2, 8)), int(rng.integers(2, 5))
        raw = rng.uniform(0.05, 1.0, size=(m, c))
        pm = raw / raw.sum(axis=1, keepdims=True)
        once = multi_pred(pm)
        twice = multi_pred(np.concatenate([pm, pm]))
        for fn in (max_prob_uncertainty, mean_std_uncertainty):
            assert one(fn(twice)) == pytest.approx(one(fn(once)), rel=1e-12, abs=1e-15)
        if c == 2:
            assert one(ensemble_binary_uncertainty(twice)) == pytest.approx(
                one(ensemble_binary_uncertainty(once)), rel=1e-12, abs=1e-15
            )
        values = rng.normal(size=m)
        assert one(regression_std_uncertainty(
            reg_pred(np.concatenate([values, values]))
        )) == pytest.approx(one(regression_std_uncertainty(reg_pred(values))), rel=1e-12, abs=1e-15)

    def test_prediction_row_sums_validated(self, rng):
        # The uncertainties read member rows as probabilities: every row a
        # fitted committee or the kNN votes give sums to 1 within 1e-9.
        for n_classes in (1, 2, 5):
            X = rng.normal(size=(80, 3))
            ds = make_classification(X, rng.integers(0, n_classes, size=80), [f"c{i}" for i in range(n_classes)])
            for model in (ModelConfig(n_trees=5), ModelConfig(n_trees=4, max_depth=2, min_leaf=3)):
                fitted = fit_ensemble(ds, model, seed=3, rows=[np.arange(30), np.arange(20, 80)])
                for committee in [fitted, *fitted.committees(2)]:
                    per_member = predict(committee, rng.normal(size=(50, 3)))
                    assert np.abs(per_member.sum(axis=-1) - 1.0).max() <= 1e-9
            for k in (1, 3, 7):
                votes = knn_from_labels(ds, rng.integers(0, n_classes, size=(40, k)))
                assert np.abs(votes.sum(axis=-1) - 1.0).max() <= 1e-9


class TestKnnPredict:
    def test_pool_point_with_k_one_is_one_hot(self, rng):
        X = rng.normal(size=(15, 3))
        y = rng.integers(0, 4, size=15)
        ds = make_classification(X, y)
        got = knn_predict(ds, X[6], 1)
        want = np.zeros(4)
        want[y[6]] = 1.0
        assert np.array_equal(got, want)

    def test_vote_fractions(self):
        X = np.array([[0.0], [0.1], [0.2], [0.3], [9.0]])
        y = np.array([0, 0, 1, 1, 1])
        ds = make_classification(X, y)
        assert knn_predict(ds, np.array([0.05]), 4).tolist() == [0.5, 0.5]

    def test_regression_neighbour_mean(self):
        ds = make_regression(np.array([[0.0], [1.0], [50.0]]), np.array([1.0, 3.0, 99.0]))
        assert knn_predict(ds, np.array([0.4]), 2) == 2.0

    def test_k_clamped_to_pool_and_batch_matches_single(self, rng):
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, size=6)
        ds = make_classification(X, y)
        full = knn_predict(ds, np.zeros(2), 50)
        assert full == pytest.approx(np.bincount(y, minlength=2) / 6)
        queries = rng.normal(size=(4, 2))
        batch = knn_predict(ds, queries, 3)
        for i in range(4):
            assert np.array_equal(batch[i], knn_predict(ds, queries[i], 3))
