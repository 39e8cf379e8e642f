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
    extend_neighbors,
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


@st.composite
def growth_problems(draw):
    """A reference set grown in random blocks, with duplicates and an offset:
    Gaussian rows, rounded rows (exact ties), or signed permutations of one
    vector around the origin, whose equal true distances round to squared
    values a few ulp apart that can share a root. Queries mix copies of
    reference rows with fresh rows (the origin for the permutations), across
    more than one query chunk."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gauss", "rounded", "sphere"]))
    d = draw(st.integers(2 if kind == "sphere" else 1, 5))
    n = draw(st.integers(1, 80))
    if kind == "sphere":
        base = rng.normal(size=d)
        R = np.array([rng.permutation(base) for _ in range(n)])
        R *= rng.choice([-1.0, 1.0], size=(n, d))
    else:
        R = rng.normal(size=(n, d))
        if kind == "rounded":
            R = np.round(R * 2.0)
    n_dup = draw(st.integers(0, n // 2))
    if n_dup:
        R[rng.integers(0, n, size=n_dup)] = R[rng.integers(0, n, size=n_dup)]
    offset = draw(st.sampled_from([0.0, -1e3, 1e6]))
    m = draw(st.sampled_from([1, 5, 300]))
    n_copy = draw(st.integers(0, m))
    if kind == "sphere":
        fresh = np.zeros((m - n_copy, d))
    else:
        fresh = R.mean(axis=0) + rng.normal(size=(m - n_copy, d)) * (R.std() + 1.0)
    Q = np.vstack([R[rng.integers(0, n, size=n_copy)], fresh])[rng.permutation(m)]
    R = R + offset
    Q = Q + offset
    # Mostly lists that fill up early, so that most steps extend them.
    k = draw(st.one_of(st.integers(1, max(1, n // 3)), st.integers(1, n + 5)))
    ends = []
    end = 0
    while end < n:
        end = min(n, end + draw(st.integers(1, n)))
        ends.append(end)
    return Q, R, k, ends


class TestExtendNeighbors:
    @given(growth_problems())
    def test_every_step_equals_a_fresh_search(self, problem):
        Q, R, k, ends = problem
        idx = np.empty((Q.shape[0], 0), dtype=np.int64)
        sq = np.empty((Q.shape[0], 0))
        start = 0
        for end in ends:
            idx, sq = extend_neighbors(Q, R[:end], start, idx, sq, k)
            start = end
            want_idx, want_dist = nearest_neighbors(Q, R[:end], k)
            assert idx.tolist() == want_idx.tolist()
            assert np.sqrt(sq).tobytes() == want_dist.tobytes()

    def test_inputs_are_left_alone_and_nothing_appended_is_a_no_op(self, rng):
        R = rng.normal(size=(30, 3))
        Q = rng.normal(size=(8, 3))
        idx, sq = extend_neighbors(Q, R[:20], 0, np.empty((8, 0), np.int64), np.empty((8, 0)), 4)
        before = idx.copy(), sq.copy()
        extend_neighbors(Q, R, 20, idx, sq, 4)
        assert idx.tolist() == before[0].tolist() and sq.tobytes() == before[1].tobytes()
        same = extend_neighbors(Q, R[:20], 20, idx, sq, 4)
        assert same[0].tolist() == idx.tolist()

    def test_memory_stays_per_block(self, rng):
        # Every appended row is nearer than each query's old lists, so every
        # (query, appended row) pair is shortlisted; gathering a query row
        # per pair up front would take pairs x d floats.
        Q = rng.normal(size=(256, 64))
        R = np.vstack([rng.normal(size=(10, 64)) + 50.0, rng.normal(size=(256, 64))])
        idx, sq = extend_neighbors(Q, R[:10], 0, np.empty((256, 0), np.int64), np.empty((256, 0)), 5)
        per_pair = Q.shape[0] * (R.shape[0] - 10) * Q.shape[1] * 8
        tracemalloc.start()
        try:
            idx, sq = extend_neighbors(Q, R, 10, idx, sq, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < per_pair / 4
        want_idx, want_dist = nearest_neighbors(Q, R, 5)
        assert idx.tolist() == want_idx.tolist()
        assert np.sqrt(sq).tobytes() == want_dist.tobytes()

    def test_validation(self, rng):
        R = rng.normal(size=(10, 2))
        Q = rng.normal(size=(3, 2))
        idx, sq = extend_neighbors(Q, R[:6], 0, np.empty((3, 0), np.int64), np.empty((3, 0)), 4)
        with pytest.raises(ValueError):
            extend_neighbors(Q, R, 6, idx, sq, 0)
        with pytest.raises(ValueError):
            extend_neighbors(Q, R, 6, idx[:, :3], sq[:, :3], 4)
        with pytest.raises(ValueError):
            extend_neighbors(Q, R[:5], 6, idx, sq, 4)
        with pytest.raises(ValueError):
            extend_neighbors(Q[:, :1], R, 6, idx, sq, 4)
        for bad in (np.nan, np.inf):
            Y = R.copy()
            Y[8, 0] = bad
            with pytest.raises(DataError):
                extend_neighbors(Q, Y, 6, idx, sq, 4)


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


class TestPrecomputedNorms:
    """Squared row norms passed in, as a caller computes them once for a
    whole pool, give the same bits as norms computed inside the search."""

    @staticmethod
    def pool_norms(Q, R):
        # The queries and reference rows as rows of one pool, whose norms
        # are computed once, in one block.
        pool = np.vstack([R, Q])
        sq = neighbors._sq_norms(pool)
        return sq[R.shape[0] :], sq[: R.shape[0]]

    @given(search_problems())
    def test_nearest_neighbors_bits(self, problem):
        Q, R, k, exclude_self = problem
        q_sq, ref_sq = self.pool_norms(Q, R)
        want = nearest_neighbors(Q, R, k, exclude_self=exclude_self)
        got = nearest_neighbors(Q, R, k, exclude_self=exclude_self, q_sq=q_sq, ref_sq=ref_sq)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()

    def test_contested_kth_neighbour_and_exclude_self(self, rng):
        # Signed permutations of one vector: equidistant from the origin up to
        # a few ulp, so the k-th neighbour of the origin is contested.
        R = np.array([rng.permutation([0.3, 1.7, 2.9]) for _ in range(12)])
        R *= rng.choice([-1.0, 1.0], size=R.shape)
        Q = np.vstack([np.zeros((1, 3)), R[:4]])
        q_sq, ref_sq = self.pool_norms(Q, R)
        for k in (1, 3, 5, 11):
            want = nearest_neighbors(Q, R, k)
            got = nearest_neighbors(Q, R, k, q_sq=q_sq, ref_sq=ref_sq)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()
            want = nearest_neighbors(R, R, k, exclude_self=True)
            got = nearest_neighbors(R, R, k, exclude_self=True, q_sq=ref_sq, ref_sq=ref_sq)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()

    @given(growth_problems())
    def test_extend_neighbors_bits_across_boundaries(self, problem):
        Q, R, k, ends = problem
        q_sq, ref_sq = self.pool_norms(Q, R)
        plain = given_norms = (np.empty((Q.shape[0], 0), dtype=np.int64), np.empty((Q.shape[0], 0)))
        start = 0
        for end in ends:
            plain = extend_neighbors(Q, R[:end], start, *plain, k)
            given_norms = extend_neighbors(
                Q, R[:end], start, *given_norms, k, q_sq=q_sq, ref_sq=ref_sq[:end]
            )
            start = end
            assert given_norms[0].tolist() == plain[0].tolist()
            assert given_norms[1].tobytes() == plain[1].tobytes()

    @pytest.mark.parametrize("d", [784, 3, 17])
    def test_a_row_norm_does_not_depend_on_its_block(self, rng, d):
        X = rng.normal(size=(300, d)) * np.exp(rng.normal(size=(300, 1)) * 3.0)
        full = neighbors._sq_norms(X)
        for start in (0, 1, 3, 5, 7, 250):
            for n in (1, 2, 5, 7, 64, 257):
                part = neighbors._sq_norms(X[start : start + n])
                assert part.tobytes() == full[start : start + n].tobytes()
        alone = np.array([neighbors._sq_norms(X[i : i + 1])[0] for i in range(300)])
        assert alone.tobytes() == full.tobytes()
        rows = rng.permutation(300)[:77]
        assert neighbors._sq_norms(X[rows]).tobytes() == full[rows].tobytes()
        # Copied into a larger buffer at an odd row offset, as the labelled
        # rows of a simulation are.
        buf = np.empty((305, d))
        buf[3:303] = X
        assert neighbors._sq_norms(buf[3:303]).tobytes() == full.tobytes()

    def test_validation(self, rng):
        R = rng.normal(size=(10, 2))
        Q = rng.normal(size=(3, 2))
        q_sq, ref_sq = neighbors._sq_norms(Q), neighbors._sq_norms(R)
        empty = np.empty((3, 0), np.int64), np.empty((3, 0))
        # Lists at no rows (a fresh search), at 6 rows (an extension) and at
        # all 10 (nothing appended).
        lists = {0: empty, 6: extend_neighbors(Q, R[:6], 0, *empty, 4)}
        lists[10] = extend_neighbors(Q, R, 6, *lists[6], 4)
        for bad_q, bad_ref in [
            (q_sq[:2], ref_sq),
            (q_sq, ref_sq[:9]),
            (q_sq[:, None], ref_sq),
            (q_sq, np.append(ref_sq, 1.0)),
        ]:
            with pytest.raises(ValueError):
                nearest_neighbors(Q, R, 4, q_sq=bad_q, ref_sq=bad_ref)
            for start, old in lists.items():
                with pytest.raises(ValueError):
                    extend_neighbors(Q, R, start, *old, 4, q_sq=bad_q, ref_sq=bad_ref)
        for bad in (np.nan, np.inf):
            nq, nref = q_sq.copy(), ref_sq.copy()
            nq[1], nref[8] = bad, bad
            with pytest.raises(DataError):
                nearest_neighbors(Q, R, 4, q_sq=nq)
            with pytest.raises(DataError):
                nearest_neighbors(Q, R, 4, ref_sq=nref)
            with pytest.raises(DataError):
                extend_neighbors(Q, R, 6, *lists[6], 4, q_sq=nq)
            with pytest.raises(DataError):
                extend_neighbors(Q, R, 6, *lists[6], 4, ref_sq=nref)
