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

    def test_budget_checks(self, rng):
        # k larger than the available rows is clamped to them.
        X = rng.normal(size=(5, 2))
        idx, dist = nearest_neighbors(X, X, 6)
        assert idx.shape == dist.shape == (5, 5)
        with pytest.raises(ValueError):
            nearest_neighbors(X, X, 0)
        with pytest.raises(ValueError):
            nearest_neighbors(X[:1], X[:0], 1)
        idx, _ = nearest_neighbors(X, X, 5)
        assert idx.shape == (5, 5)
        # No query rows: no lists, fresh or extended.
        idx, dist = nearest_neighbors(X[:0], X, 3)
        assert idx.shape == dist.shape == (0, 3)
        idx, sq = extend_neighbors(X[:0], X, 4, idx, dist, 3)
        assert idx.shape == sq.shape == (0, 3)


def direct_sq(Q, R):
    """Direct-difference squared distances, shape (n_queries, n_reference)."""
    diff = (R[None, :, :] - Q[:, None, :]).reshape(-1, R.shape[1])
    return np.einsum("ij,ij->i", diff, diff).reshape(Q.shape[0], R.shape[0])


def brute_force(Q, R, k):
    """Rank every reference row by direct-difference distance, then index."""
    sq = direct_sq(Q, R)
    order = np.argsort(sq, axis=1, kind="stable")[:, :k]
    return order, np.sqrt(np.take_along_axis(sq, order, axis=1))


@st.composite
def search_problems(draw):
    """Pools of Gaussian, rounded or one-hot rows, optionally far from the
    origin and with duplicated rows; queries mix pool copies and fresh rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gauss", "rounded", "onehot"]))
    d = draw(st.integers(1, 6))
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
    m = draw(st.sampled_from([1, 3, 255, 256, 257, 600]))
    n_copy = draw(st.integers(0, m))
    fresh = R.mean(axis=0) + rng.normal(size=(m - n_copy, d)) * (R.std() + 1.0)
    Q = np.vstack([R[rng.integers(0, n, size=n_copy)], fresh])
    Q = Q[rng.permutation(m)]
    k = draw(st.integers(1, min(n, 25)))
    return Q, R, k


class TestAgainstBruteForce:
    @given(search_problems())
    def test_matches_direct_difference_search(self, problem):
        Q, R, k = problem
        idx, dist = nearest_neighbors(Q, R, k)
        want_idx, want_dist = brute_force(Q, R, k)
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

    def test_messages_tell_an_overflowing_norm_from_a_non_finite_cell(self, rng):
        X = rng.normal(size=(6, 2))
        big, bad = X.copy(), X.copy()
        big[3, 1] = 1e200  # finite, but its square is not
        bad[3, 1] = np.inf
        with pytest.raises(DataError, match="squared norm of a reference row overflowed"):
            nearest_neighbors(X, big, 2)
        with pytest.raises(DataError, match="squared norm of a query row overflowed"):
            nearest_neighbors(big, X, 2)
        with pytest.raises(DataError, match="reference rows must be finite"):
            nearest_neighbors(X, bad, 2)


@st.composite
def growth_problems(draw):
    """A reference set grown in random blocks, with duplicates and an offset:
    Gaussian rows, integer-grid rows (exact ties), or signed permutations of
    one vector around the origin, whose equal true distances round to
    squared values a few ulp apart that can share a root. Rows have a few
    columns or 784, as digit images do. Queries mix copies of reference rows
    with fresh rows (the origin for the permutations), across more than one
    query chunk."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gauss", "grid", "sphere"]))
    d = draw(st.sampled_from([2, 3, 5, 784] if kind == "sphere" else [1, 2, 3, 5, 784]))
    n = draw(st.integers(1, 80))
    if kind == "sphere":
        base = rng.normal(size=d)
        R = np.array([rng.permutation(base) for _ in range(n)])
        R *= rng.choice([-1.0, 1.0], size=(n, d))
    else:
        R = rng.normal(size=(n, d))
        if kind == "grid":
            R = np.round(R * 2.0)
    n_dup = draw(st.integers(0, n // 2))
    if n_dup:
        R[rng.integers(0, n, size=n_dup)] = R[rng.integers(0, n, size=n_dup)]
    offset = draw(st.sampled_from([0.0, -1e3, 1e6, 1e8]))
    m = draw(st.sampled_from([1, 5, 300]))
    n_copy = draw(st.integers(0, m))
    if kind == "sphere":
        fresh = np.zeros((m - n_copy, d))
    else:
        fresh = R.mean(axis=0) + rng.normal(size=(m - n_copy, d)) * (R.std() + 1.0)
        if kind == "grid":
            fresh = np.round(fresh)
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


def assert_list_values(Q, R, old, new):
    """Each value of the lists ``new`` lies within the expansion's rounding
    bound of its exact squared distance, and each row that changed from
    ``old`` and holds two values within twice the bound of each other holds
    exact ones (a list's values are sorted)."""
    idx, sq = new
    exact = neighbors._exact_sq(Q, R, idx)
    bound = neighbors._sq_error_bound(R.shape[1], neighbors._sq_norms(Q), neighbors._sq_norms(R).max())
    assert (np.abs(sq - exact) <= bound[:, None]).all()
    changed = np.ones(Q.shape[0], dtype=bool)
    if old[0].shape == idx.shape:
        changed = (old[0] != idx).any(axis=1) | (old[1] != sq).any(axis=1)
    close = (np.diff(sq, axis=1) <= 2.0 * bound[:, None]).any(axis=1)
    rows = changed & close
    assert sq[rows].tobytes() == exact[rows].tobytes()


class TestExtendNeighbors:
    @given(growth_problems())
    def test_every_step_equals_a_fresh_search(self, problem):
        Q, R, k, ends = problem
        idx = np.empty((Q.shape[0], 0), dtype=np.int64)
        sq = np.empty((Q.shape[0], 0))
        start = 0
        for end in ends:
            old = idx, sq
            idx, sq = extend_neighbors(Q, R[:end], start, idx, sq, k)
            start = end
            assert idx.tolist() == nearest_neighbors(Q, R[:end], k)[0].tolist()
            assert_list_values(Q, R[:end], old, (idx, sq))

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
        old = extend_neighbors(Q, R[:10], 0, np.empty((256, 0), np.int64), np.empty((256, 0)), 5)
        per_pair = Q.shape[0] * (R.shape[0] - 10) * Q.shape[1] * 8
        tracemalloc.start()
        try:
            idx, sq = extend_neighbors(Q, R, 10, *old, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < per_pair / 4
        assert idx.tolist() == nearest_neighbors(Q, R, 5)[0].tolist()
        assert_list_values(Q, R, old, (idx, sq))

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


def tie_heavy_pool(rng, kind, offset):
    """Integer-grid rows with duplicates, 12 rows repeated 10 times each, or
    signed permutations of one vector (equal distances from the origin up
    to a few ulp); 300 queries, two chunks, mix copies and fresh rows."""
    if kind == "sphere":
        R = np.array([rng.permutation([0.3, 1.7, 2.9, 4.1]) for _ in range(60)])
        R *= rng.choice([-1.0, 1.0], size=R.shape)
        Q = np.vstack([R[rng.integers(0, 60, size=150)], np.zeros((150, 4))])
    else:
        if kind == "grid":
            R = np.round(rng.normal(size=(120, 3)) * 2.0)
            R[rng.integers(0, 120, size=40)] = R[rng.integers(0, 120, size=40)]
        else:
            R = np.repeat(np.round(rng.normal(size=(12, 3)) * 2.0), 10, axis=0)
        R = R[rng.permutation(R.shape[0])]
        Q = np.vstack([R[rng.integers(0, R.shape[0], size=150)], np.round(rng.normal(size=(150, 3)) * 2.0)])
    return Q[rng.permutation(300)] + offset, R + offset


class TestBoundSlack:
    """The searches are exact for any expanded values within the rounding
    bound of the direct differences, not only for those BLAS happens to
    give: each value is replaced by its direct difference plus 0.999 of the
    bound for the true k nearest and minus it for every other row, which
    swaps the order of every tie and near-tie."""

    @staticmethod
    def skew(monkeypatch, k):
        current = {}

        def expanded(chunk, q_sq, reference, ref_sq):
            # ``reference`` is the tail of the current reference rows that
            # the call expands (all of them, or those appended).
            R = current["R"]
            sq = direct_sq(chunk, R)
            sign = np.full(sq.shape, -1.0)
            np.put_along_axis(sign, np.argsort(sq, axis=1, kind="stable")[:, :k], 1.0, axis=1)
            bound = neighbors._sq_error_bound(R.shape[1], q_sq, neighbors._sq_norms(R).max())
            shift = 0.999 * bound[:, None]
            skewed = sq + shift * sign
            # Rounding can carry a value past the shift; step it back.
            over = np.abs(skewed - sq) > shift
            skewed[over] = np.nextafter(skewed[over], sq[over])
            return skewed[:, R.shape[0] - reference.shape[0] :]

        monkeypatch.setattr(neighbors, "_expanded_sq", expanded)
        return current

    @pytest.mark.parametrize("kind", ["grid", "copies", "sphere"])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("k", [1, 4, 25])
    def test_searches_hold_under_the_bound(self, rng, monkeypatch, kind, offset, k):
        Q, R = tie_heavy_pool(rng, kind, offset)
        current = self.skew(monkeypatch, k)
        current["R"] = R
        idx, dist = nearest_neighbors(Q, R, k)
        want_idx, want_dist = brute_force(Q, R, k)
        assert idx.tolist() == want_idx.tolist()
        assert dist.tobytes() == want_dist.tobytes()
        lists = np.empty((Q.shape[0], 0), dtype=np.int64), np.empty((Q.shape[0], 0))
        start = 0
        for end in (3, 10, 11, R.shape[0] // 3, R.shape[0] // 2, R.shape[0]):
            current["R"] = R[:end]
            lists = extend_neighbors(Q, R[:end], start, *lists, k)
            start = end
            assert lists[0].tolist() == brute_force(Q, R[:end], k)[0].tolist()


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
        Q, R, k = problem
        q_sq, ref_sq = self.pool_norms(Q, R)
        want = nearest_neighbors(Q, R, k)
        got = nearest_neighbors(Q, R, k, q_sq=q_sq, ref_sq=ref_sq)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()

    def test_contested_kth_neighbour(self, rng):
        # Signed permutations of one vector: equidistant from the origin up to
        # a few ulp, so the k-th neighbour of the origin is contested.
        R = np.array([rng.permutation([0.3, 1.7, 2.9]) for _ in range(12)])
        R *= rng.choice([-1.0, 1.0], size=R.shape)
        sphere = np.vstack([np.zeros((1, 3)), R[:4]]), R, (1, 3, 5, 11)
        # 30 copies of each of 12 rows: every query's k-th neighbour ties
        # with 29 others or more, in both chunks of 300 queries.
        R = np.repeat(np.round(rng.normal(size=(12, 4)) * 2.0), 30, axis=0)[rng.permutation(360)]
        Q = np.vstack([R[rng.integers(0, 360, size=150)], np.round(rng.normal(size=(150, 4)) * 2.0)])
        copies = Q, R, (1, 20, 359, 360)
        for Q, R, ks in (sphere, copies):
            q_sq, ref_sq = self.pool_norms(Q, R)
            for k in ks:
                want = brute_force(Q, R, k)
                for got in (nearest_neighbors(Q, R, k), nearest_neighbors(Q, R, k, q_sq=q_sq, ref_sq=ref_sq)):
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
