"""Impurity score math, checked against naive loop implementations."""

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_classification, make_regression
from dci_lab import dci
from dci_lab.dataset import DataError
from dci_lab.dci import (
    DciParams,
    GridSpec,
    dci_field,
    dci_scores,
    pool_scores,
    write_field_csv,
)
from dci_lab.neighbors import _sq_norms, knn, nearest_neighbors


def naive_dci(labels, distances, n_classes, params):
    """Two plain Python loops over classes and neighbours."""
    weights = [1.0 / (d**params.alpha + params.epsilon) for d in distances]
    denom = sum((d**params.alpha + params.epsilon) ** -params.beta for d in distances)
    best = None
    for j in range(n_classes):
        num = sum(w for w, lab in zip(weights, labels) if lab != j)
        if best is None or num < best:
            best = num
    return best / denom


def loop_dci(labels, distances, n_classes, params):
    """The vectorised formula with one where-sum per present class, in turn."""
    order = np.lexsort((labels, distances), axis=-1)
    labels = np.take_along_axis(labels, order, axis=1)
    distances = np.take_along_axis(distances, order, axis=1)
    d_alpha = distances**params.alpha + params.epsilon
    weights = 1.0 / d_alpha
    denom = (d_alpha ** (-params.beta)).sum(axis=1)
    best = np.full(labels.shape[0], np.inf)
    for j in np.unique(labels):
        best = np.minimum(best, np.where(labels != j, weights, 0.0).sum(axis=1))
    return best / denom


def random_neighborhood(rng, max_k=30, max_classes=5):
    k = int(rng.integers(1, max_k + 1))
    n_classes = int(rng.integers(2, max_classes + 1))
    labels = rng.integers(0, n_classes, size=k)
    distances = rng.uniform(0.0, 4.0, size=k)
    return labels, distances, n_classes


class TestDciScores:
    def test_matches_naive_two_loop(self, rng):
        for _ in range(300):
            labels, distances, n_classes = random_neighborhood(rng)
            params = DciParams(
                k=len(labels),
                alpha=float(rng.uniform(0.3, 3.0)),
                beta=float(rng.uniform(0.3, 2.5)),
            )
            got = dci_scores(labels[None], distances[None], n_classes, params)[0]
            want = naive_dci(labels, distances, n_classes, params)
            assert got == pytest.approx(want, rel=1e-12)

    def test_unanimous_region_scores_zero_exactly(self, rng):
        labels = np.full(12, 3)
        distances = rng.uniform(0.1, 2.0, size=12)
        assert dci_scores(labels[None], distances[None], 5)[0] == 0.0

    def test_single_neighbour_scores_zero(self):
        assert dci_scores(np.array([[1]]), np.array([[0.7]]), 3)[0] == 0.0

    def test_equal_distance_closed_form(self, rng):
        # All neighbours at distance d: score = min_j (K - n_j)/K * (d^a + eps)^(b-1)
        for _ in range(100):
            k = int(rng.integers(2, 25))
            n_classes = int(rng.integers(2, 6))
            labels = rng.integers(0, n_classes, size=k)
            d = float(rng.uniform(0.2, 3.0))
            params = DciParams(
                k=k, alpha=float(rng.uniform(0.5, 2.5)), beta=float(rng.uniform(0.5, 2.0))
            )
            counts = np.bincount(labels, minlength=n_classes)
            want = (
                (k - counts.max())
                / k
                * (d**params.alpha + params.epsilon) ** (params.beta - 1.0)
            )
            got = dci_scores(labels[None], np.full((1, k), d), n_classes, params)[0]
            assert got == pytest.approx(want, rel=1e-9)

    def test_beta_one_is_distance_free_on_equal_rings(self, rng):
        labels = rng.integers(0, 3, size=15)
        params = DciParams(k=15, alpha=1.4, beta=1.0)
        scores = [
            dci_scores(labels[None], np.full((1, 15), d), 3, params)[0]
            for d in (0.05, 0.7, 13.0)
        ]
        assert scores[0] == pytest.approx(scores[1], rel=1e-9)
        assert scores[1] == pytest.approx(scores[2], rel=1e-9)

    @given(st.randoms(use_true_random=False), st.integers(0, 10_000))
    def test_permutation_invariance_is_bit_exact(self, shuffler, seed):
        rng = np.random.default_rng(seed)
        labels, distances, n_classes = random_neighborhood(rng)
        base = dci_scores(labels[None], distances[None], n_classes)[0]
        perm = list(range(len(labels)))
        shuffler.shuffle(perm)
        shuffled = dci_scores(labels[perm][None], distances[perm][None], n_classes)[0]
        assert shuffled == base  # identical bits, not just close

    def test_batch_rows_match_individual_calls(self, rng):
        labels = rng.integers(0, 4, size=(8, 12))
        distances = rng.uniform(0.0, 3.0, size=(8, 12))
        batch = dci_scores(labels, distances, 4)
        for i in range(8):
            single = dci_scores(labels[i][None], distances[i][None], 4)[0]
            assert batch[i] == single

    @pytest.mark.parametrize("cells", [1, 7, 1 << 16])
    @pytest.mark.parametrize("n_classes,k", [(3, 12), (40, 6), (12, 33)])
    def test_blocked_class_sums_match_a_per_class_loop(self, rng, monkeypatch, cells, n_classes, k):
        # Bit for bit, in blocks of any size, with fewer and with more
        # classes present than neighbours; rounded and zero distances tie.
        monkeypatch.setattr(dci, "_SUM_CELLS", cells)
        params = DciParams(k=k, alpha=1.5, beta=1.2)
        labels = rng.integers(0, n_classes, size=(30, k))
        distances = np.round(rng.uniform(0.0, 3.0, size=(30, k)), 1)
        distances[::4, 0] = 0.0
        got = dci_scores(labels, distances, n_classes, params)
        assert got.tobytes() == loop_dci(labels, distances, n_classes, params).tobytes()

    @pytest.mark.parametrize("cells", [1, 1 << 16])
    def test_absent_class_ids_and_empty_batches(self, rng, monkeypatch, cells):
        # Class ids below, between and above the ones the neighbours hold
        # change no bit, and a batch of no rows gives no scores.
        monkeypatch.setattr(dci, "_SUM_CELLS", cells)
        params = DciParams(k=8, alpha=1.5, beta=1.2)
        labels = rng.choice([2, 5, 6], size=(20, 8))
        distances = np.round(rng.uniform(0.0, 3.0, size=(20, 8)), 1)
        got = dci_scores(labels, distances, 11, params)
        assert got.tobytes() == loop_dci(labels, distances, 11, params).tobytes()
        assert got.tobytes() == dci_scores(labels, distances, 7, params).tobytes()
        empty = dci_scores(np.empty((0, 8), dtype=np.int64), np.empty((0, 8)), 11, params)
        assert empty.shape == (0,)

    def test_rows_in_increasing_order_match_their_shuffles(self, rng):
        # Every row's distances strictly increase, as a neighbour search
        # returns them: the canonical sort has nothing to do.
        distances = np.sort(rng.uniform(0.0, 3.0, size=(9, 14)), axis=1)
        assert (np.diff(distances, axis=1) > 0).all()
        labels = rng.integers(0, 4, size=(9, 14))
        want = dci_scores(labels, distances, 4)
        for _ in range(5):
            perm = np.argsort(rng.random(distances.shape), axis=1)
            shuffled = dci_scores(
                np.take_along_axis(labels, perm, axis=1), np.take_along_axis(distances, perm, axis=1), 4
            )
            assert shuffled.tobytes() == want.tobytes()

    def test_tied_row_in_index_order_is_still_resorted(self, rng):
        # Sorted by (distance, index), with a tie whose labels (1, 0) are out
        # of order. Left as it is, the tied weight lands in the other half of
        # the pairwise sum and the score comes out one ulp off.
        distances = np.array(
            [[0.44866556226143095, 0.47561939156771293, 0.568022029555583, 1.2339446327823387,
              1.2339446327823387, 1.4830687177408908, 1.7545531641063288, 2.411866039470816,
              2.7132274439929702, 2.9326016218748934, 2.9431485316307615, 2.982972997080316]]
        )
        labels = np.array([[2, 1, 1, 1, 0, 2, 2, 2, 0, 0, 1, 0]])
        want = dci_scores(labels, distances, 3)
        for _ in range(5):
            perm = rng.permutation(12)
            assert dci_scores(labels[:, perm], distances[:, perm], 3).tobytes() == want.tobytes()

    def test_zero_distance_neighbour_dominates(self):
        # A neighbour sitting exactly on the query point pushes its class.
        labels = np.array([[0, 1, 1, 1]])
        distances = np.array([[0.0, 1.0, 1.0, 1.0]])
        score = dci_scores(labels, distances, 2, DciParams(k=4, alpha=1.5, beta=1.2))[0]
        # min is attained at j=0: the off-class weight is ~3/(1+eps)
        # against a denominator dominated by eps^-beta.
        assert 0.0 < score < 1e-9

    def test_integer_valued_float_labels_accepted(self):
        scores = dci_scores(np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]]), 2)
        assert scores[0] == pytest.approx(0.5, rel=1e-12)

    def test_input_validation(self):
        good_l, good_d = np.array([[0, 1]]), np.array([[1.0, 2.0]])
        with pytest.raises(ValueError):
            dci_scores(np.array([[0.5, 1.0]]), good_d, 2)
        with pytest.raises(ValueError):
            dci_scores(np.array([[0, 2]]), good_d, 2)
        with pytest.raises(ValueError):
            dci_scores(np.array([[0, -1]]), good_d, 2)
        with pytest.raises(ValueError):
            dci_scores(good_l, np.array([[1.0, -2.0]]), 2)
        with pytest.raises(ValueError):
            dci_scores(good_l[0], good_d[0], 2)
        with pytest.raises(ValueError):
            dci_scores(good_l, good_d, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distances_are_a_data_error(self, bad):
        with pytest.raises(DataError):
            dci_scores(np.array([[0, 1]]), np.array([[1.0, bad]]), 2)

    @pytest.mark.parametrize(
        "distances, params",
        [
            # d^-beta underflows to 0 while the numerator does not: inf.
            ([[1e200, 2e200, 3e200]], DciParams(k=3)),
            # d^alpha overflows: both sums are 0, so 0 / 0.
            ([[1e3, 2e3, 3e3]], DciParams(k=3, alpha=200.0)),
        ],
    )
    def test_scores_that_are_not_finite_are_a_data_error(self, distances, params):
        with pytest.raises(DataError, match=f"alpha = {params.alpha:g}, beta = 1.2"):
            dci_scores(np.array([[0, 1, 0]]), np.array(distances), 2, params)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DciParams(k=0)
        with pytest.raises(ValueError):
            DciParams(alpha=0.0)
        with pytest.raises(ValueError):
            DciParams(beta=-1.0)
        with pytest.raises(ValueError):
            DciParams(epsilon=0.0)
        DciParams(beta=0.9)  # sub-1 exponents are legitimate


class TestGrid:
    def test_axes_and_points_layout(self):
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=10.0, y_max=12.0, resolution=3)
        xs, ys = grid.axes()
        assert xs.tolist() == [0.0, 0.5, 1.0]
        assert ys.tolist() == [10.0, 11.0, 12.0]
        pts = grid.points()
        assert pts.shape == (9, 2)
        # x varies fastest
        assert pts[0].tolist() == [0.0, 10.0]
        assert pts[1].tolist() == [0.5, 10.0]
        assert pts[3].tolist() == [0.0, 11.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=1.0, x_max=1.0, y_min=0.0, y_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, resolution=1)

    def test_field_matches_pointwise_scores(self, rng):
        features = rng.normal(size=(40, 2))
        labels = (features[:, 0] > 0).astype(np.int64)
        ds = make_classification(features, labels)
        grid = GridSpec(x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0, resolution=5)
        params = DciParams(k=7, alpha=1.5, beta=1.2)
        field = dci_field(ds, grid, params)
        assert field.shape == (5, 5)
        xs, ys = grid.axes()
        for iy in (0, 2, 4):
            for ix in (1, 3):
                ns = knn(ds, np.array([xs[ix], ys[iy]]), 7)
                assert field[iy, ix] == dci_scores(ns.labels[None], ns.distances[None], 2, params)[0]

    def test_field_clamps_k_to_pool(self, rng):
        ds = make_classification(rng.normal(size=(3, 2)), [0, 1, 0])
        grid = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, resolution=2)
        field = dci_field(ds, grid, DciParams(k=50))
        assert np.isfinite(field).all()

    def test_field_requires_two_features(self, rng):
        ds = make_classification(rng.normal(size=(10, 3)), np.zeros(10, dtype=int))
        grid = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0)
        with pytest.raises(ValueError):
            dci_field(ds, grid)

    def test_write_field_csv_round_trip(self, tmp_path, rng):
        grid = GridSpec(x_min=-1.0, x_max=1.0, y_min=0.0, y_max=1.0, resolution=4)
        field = rng.uniform(size=(4, 4))
        field[0, 0] = 0.0
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, field)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["x", "y", "dci"]
        assert len(rows) == 17
        assert "-0" not in {r[2] for r in rows[1:]}
        xs, ys = grid.axes()
        # x fastest: second row is (xs[1], ys[0])
        assert float(rows[2][0]) == pytest.approx(xs[1])
        assert float(rows[2][1]) == pytest.approx(ys[0])
        got = np.array([float(r[2]) for r in rows[1:]]).reshape(4, 4)
        assert got == pytest.approx(field, rel=1e-8)
        with pytest.raises(ValueError):
            write_field_csv(path, grid, field[:2])


class TestPoolScores:
    """pool_scores is one search followed by dci_scores per parameter set,
    bit for bit."""

    @staticmethod
    def composed(features, codes, n_classes, queries, params):
        idx, dist = nearest_neighbors(queries, features, params.k)
        return dci_scores(codes[idx], dist, n_classes, params)

    @staticmethod
    def tied_pool(rng):
        # Rounded points: exact distance ties, and duplicate rows.
        X = np.round(rng.normal(size=(60, 3)))
        X[40:50] = X[:10]
        return X, np.round(rng.normal(size=(25, 3)))

    def test_ties_and_duplicate_rows(self, rng):
        X, Q = self.tied_pool(rng)
        codes = rng.integers(0, 3, size=60)
        for params in (DciParams(k=1), DciParams(k=7), DciParams(k=60), DciParams(k=99)):
            (got,) = pool_scores(X, codes, 3, Q, [params])
            assert got.tobytes() == self.composed(X, codes, 3, Q, params).tobytes()

    def test_numeric_label_coded_by_value(self, rng):
        X, Q = self.tied_pool(rng)
        values = rng.choice([-1.5, 0.0, 2.25, 7.0], size=60)
        codes, n_classes = make_regression(X, values).class_codes
        assert n_classes == 4
        params = DciParams(k=9)
        (got,) = pool_scores(X, codes, n_classes, Q, [params])
        assert got.tobytes() == self.composed(X, codes, n_classes, Q, params).tobytes()

    def test_several_parameter_sets_share_one_search(self, rng, monkeypatch):
        X, Q = self.tied_pool(rng)
        codes = rng.integers(0, 2, size=60)
        params = [DciParams(k=8, alpha=a, beta=b) for a in (1.0, 1.5, 3.0) for b in (1.0, 1.2)]
        separate = [self.composed(X, codes, 2, Q, p) for p in params]
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return nearest_neighbors(*args, **kwargs)

        monkeypatch.setattr(dci, "nearest_neighbors", counted)
        got = pool_scores(X, codes, 2, Q, params)
        assert len(calls) == 1
        assert [g.tobytes() for g in got] == [w.tobytes() for w in separate]

    def test_given_norms_equal_computed_ones(self, rng):
        X, Q = self.tied_pool(rng)
        codes = rng.integers(0, 3, size=60)
        params = [DciParams(k=5), DciParams(k=5, alpha=2.0)]
        given = pool_scores(X, codes, 3, Q, params, q_sq=_sq_norms(Q), ref_sq=_sq_norms(X))
        computed = pool_scores(X, codes, 3, Q, params)
        assert [g.tobytes() for g in given] == [c.tobytes() for c in computed]

    def test_zero_queries_and_zero_parameter_sets(self, rng):
        X, _ = self.tied_pool(rng)
        codes = rng.integers(0, 3, size=60)
        (got,) = pool_scores(X, codes, 3, np.empty((0, 3)), [DciParams(k=4)])
        assert got.shape == (0,)
        assert pool_scores(X, codes, 3, X[:2], []) == []

    def test_parameter_sets_must_share_k(self, rng):
        X, Q = self.tied_pool(rng)
        with pytest.raises(ValueError):
            pool_scores(X, np.zeros(60, np.int64), 1, Q, [DciParams(k=4), DciParams(k=5)])

