"""Exact neighbour retrieval against scipy's distance matrix and a
brute-force direct-difference search."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import make_classification
from dci_lab import neighbors
from dci_lab.dataset import DataError
from dci_lab.neighbors import (
    NeighborSet,
    knn,
    nearest_neighbors,
    pairwise_sq_distances,
)


class TestPairwiseDistances:
    def test_matches_scipy(self, rng):
        A = rng.normal(size=(37, 4))
        B = rng.normal(size=(21, 4))
        got = pairwise_sq_distances(A, B)
        assert got == pytest.approx(cdist(A, B, "sqeuclidean"), rel=1e-9, abs=1e-9)

    def test_chunk_boundary_consistency(self, rng):
        # More than one 256-row chunk; results must not depend on chunking.
        A = rng.normal(size=(600, 3))
        B = rng.normal(size=(10, 3))
        got = pairwise_sq_distances(A, B)
        assert got == pytest.approx(cdist(A, B, "sqeuclidean"), rel=1e-9, abs=1e-9)

    def test_never_negative_for_duplicates(self, rng):
        row = rng.normal(size=(1, 8)) * 1e3
        A = np.repeat(row, 5, axis=0) + rng.normal(size=(5, 8)) * 1e-9
        assert (pairwise_sq_distances(A, A) >= 0.0).all()

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            pairwise_sq_distances(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            pairwise_sq_distances(rng.normal(size=3), rng.normal(size=(3, 3)))


class TestNearestNeighbors:
    def test_matches_brute_force(self, rng):
        Q = rng.normal(size=(15, 3))
        R = rng.normal(size=(40, 3))
        idx, dist = nearest_neighbors(Q, R, 6)
        full = cdist(Q, R)
        for i in range(15):
            want = np.argsort(full[i], kind="stable")[:6]
            assert idx[i].tolist() == want.tolist()
            assert dist[i] == pytest.approx(full[i][want], rel=1e-9, abs=1e-12)
            assert (np.diff(dist[i]) >= 0).all()

    def test_ties_break_by_ascending_index(self):
        # Four reference points at identical distance from the origin.
        R = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [5.0, 5.0]])
        idx, dist = nearest_neighbors(np.zeros((1, 2)), R, 4)
        assert idx[0].tolist() == [0, 1, 2, 3]
        assert dist[0] == pytest.approx(np.ones(4))

    def test_exclude_self_skips_the_diagonal(self, rng):
        X = rng.normal(size=(12, 2))
        idx, _ = nearest_neighbors(X, X, 3, exclude_self=True)
        for i in range(12):
            assert i not in idx[i]
        with pytest.raises(ValueError):
            nearest_neighbors(X[:5], X, 3, exclude_self=True)

    def test_budget_checks(self, rng):
        # k larger than the available rows is clamped to them.
        X = rng.normal(size=(5, 2))
        idx, dist = nearest_neighbors(X, X, 6)
        assert idx.shape == dist.shape == (5, 5)
        idx, dist = nearest_neighbors(X, X, 5, exclude_self=True)
        assert idx.shape == dist.shape == (5, 4)
        assert idx.tolist() == nearest_neighbors(X, X, 4, exclude_self=True)[0].tolist()
        with pytest.raises(ValueError):
            nearest_neighbors(X, X, 0)
        with pytest.raises(ValueError):
            nearest_neighbors(X[:1], X[:1], 1, exclude_self=True)
        idx, _ = nearest_neighbors(X, X, 5)
        assert idx.shape == (5, 5)


def brute_force(Q, R, k, exclude_self=False):
    """Rank every reference row by direct-difference distance, then index."""
    diff = (R[None, :, :] - Q[:, None, :]).reshape(-1, R.shape[1])
    sq = np.einsum("ij,ij->i", diff, diff).reshape(Q.shape[0], R.shape[0])
    if exclude_self:
        np.fill_diagonal(sq, np.inf)
    order = np.argsort(sq, axis=1, kind="stable")[:, :k]
    return order, np.sqrt(np.take_along_axis(sq, order, axis=1))


@st.composite
def search_problems(draw):
    """Pools of Gaussian, rounded or one-hot rows, optionally far from the
    origin and with duplicated rows; queries mix pool copies and fresh rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gauss", "rounded", "onehot"]))
    d = draw(st.integers(1, 6))
    exclude_self = draw(st.booleans())
    if exclude_self:
        n = draw(st.sampled_from([2, 7, 40, 300]))
    else:
        n = draw(st.integers(1, 120))
    if kind == "onehot":
        R = np.eye(d)[rng.integers(0, d, size=n)]
    else:
        R = rng.normal(size=(n, d))
        if kind == "rounded":
            R = np.round(R * 2.0)
    n_dup = draw(st.integers(0, n // 2))
    if n_dup:
        R[rng.integers(0, n, size=n_dup)] = R[rng.integers(0, n, size=n_dup)]
    R = R + draw(st.sampled_from([0.0, 1.0, -1e3, 1e5, 1e6]))
    if exclude_self:
        Q = R
    else:
        m = draw(st.sampled_from([1, 3, 255, 256, 257, 600]))
        n_copy = draw(st.integers(0, m))
        fresh = R.mean(axis=0) + rng.normal(size=(m - n_copy, d)) * (R.std() + 1.0)
        Q = np.vstack([R[rng.integers(0, n, size=n_copy)], fresh])
        Q = Q[rng.permutation(m)]
    budget = n - 1 if exclude_self else n
    k = draw(st.integers(1, min(budget, 25)))
    return Q, R, k, exclude_self


class TestAgainstBruteForce:
    @given(search_problems())
    def test_matches_direct_difference_search(self, problem):
        Q, R, k, exclude_self = problem
        idx, dist = nearest_neighbors(Q, R, k, exclude_self=exclude_self)
        want_idx, want_dist = brute_force(Q, R, k, exclude_self)
        assert idx.tolist() == want_idx.tolist()
        np.testing.assert_array_max_ulp(dist, want_dist, maxulp=4)
        # A textbook sum over the same pairs agrees to a few ulp as well.
        plain = np.sqrt(((R[idx] - Q[:, None, :]) ** 2).sum(axis=-1))
        np.testing.assert_array_max_ulp(dist, plain, maxulp=4)
        assert (dist[want_dist == 0.0] == 0.0).all()

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e5, 1e6])
    def test_coincident_points_are_exactly_zero(self, rng, offset):
        X = rng.normal(size=(2000, 18)) + offset
        idx, dist = nearest_neighbors(X[:300], X, 3)
        assert idx[:, 0].tolist() == list(range(300))
        assert (dist[:, 0] == 0.0).all()
        assert (dist[:, 1] > 0.0).all()

    def test_independent_of_chunk_size(self, rng, monkeypatch):
        R = np.round(rng.normal(size=(200, 3)))
        Q = np.vstack([R[:50], rng.normal(size=(50, 3))])
        want = nearest_neighbors(Q, R, 7)
        for rows, block in [(1, 1), (7, 5), (64, 100)]:
            monkeypatch.setattr(neighbors, "_CHUNK_ROWS", rows)
            monkeypatch.setattr(neighbors, "_PAIR_BLOCK", block)
            got = nearest_neighbors(Q, R, 7)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()

    def test_memory_stays_per_chunk(self, rng):
        Q = rng.normal(size=(2048, 4))
        R = rng.normal(size=(4096, 4))
        full = Q.shape[0] * R.shape[0] * 8
        tracemalloc.start()
        try:
            nearest_neighbors(Q, R, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full / 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_are_a_data_error(self, rng, bad):
        X = rng.normal(size=(6, 2))
        Y = X.copy()
        Y[3, 1] = bad
        with pytest.raises(DataError):
            nearest_neighbors(Y, X, 2)
        with pytest.raises(DataError):
            nearest_neighbors(X, Y, 2)


class TestKnn:
    def test_returns_sorted_labelled_neighbours(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 3, size=30)
        ds = make_classification(X, y)
        q = rng.normal(size=2)
        ns = knn(ds, q, 5)
        assert not ns.is_batch and ns.k == 5
        want = np.argsort(cdist(q[None], X)[0], kind="stable")[:5]
        assert ns.indices.tolist() == want.tolist()
        assert ns.labels.tolist() == y[want].tolist()

    def test_batch_shape_and_k_clamp(self, rng):
        ds = make_classification(rng.normal(size=(4, 2)), [0, 1, 0, 1])
        ns = knn(ds, rng.normal(size=(6, 2)), 99)
        assert ns.is_batch and ns.distances.shape == (6, 4)

    def test_query_validation(self, rng):
        ds = make_classification(rng.normal(size=(4, 2)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            knn(ds, rng.normal(size=3), 2)
        with pytest.raises(ValueError):
            knn(ds, rng.normal(size=(2, 2)), 0)


class TestNeighborSet:
    def test_validation_and_immutability(self, rng):
        ns = NeighborSet(
            distances=np.array([0.5, 1.0]),
            labels=np.array([1, 0]),
            indices=np.array([3, 7]),
        )
        assert ns.k == 2
        with pytest.raises(ValueError):
            ns.distances[0] = 2.0
        with pytest.raises(ValueError):
            NeighborSet(
                distances=np.array([0.5]), labels=np.array([1, 0]), indices=np.array([3])
            )
        with pytest.raises(ValueError):
            NeighborSet(
                distances=np.empty(0), labels=np.empty(0), indices=np.empty(0)
            )
