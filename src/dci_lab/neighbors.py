"""Exact k-nearest-neighbour retrieval under Euclidean distance.

The pools this package targets are small enough (tens of thousands of rows)
that exact chunked distance computation beats any index structure, and
exactness matters: downstream scores are asserted to tight tolerances and
ties must break deterministically by ascending pool index.

The matrix expansion |q|^2 - 2 q.r + |r|^2 is fast but loses digits to
cancellation (coincident points come out near 1e-8 instead of 0, far worse
on data far from the origin), so it only shortlists candidates; returned
distances are recomputed as direct differences. Memory is O(chunk x
n_reference): no n_queries x n_reference array is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset

# Query rows per block of expanded distances: the (chunk, n_ref) float64
# block and its argpartition indices are the largest arrays held at once,
# about 40 MB for a 10 000-row pool.
_CHUNK_ROWS = 256
# Float64 elements per block of direct differences (256 KB): small enough
# that the gathered rows stay in cache between subtraction and reduction.
_PAIR_BLOCK = 32768


@dataclass(frozen=True)
class NeighborSet:
    """Distances, labels and pool indices of each query's nearest points.

    Arrays share shape (k,) for a single query or (n_queries, k) for a
    batch. As produced by :func:`knn` each row is sorted by ascending
    distance with ties broken by ascending pool index; the dataclass itself
    does not require sortedness, so entry order may be permuted freely by
    order-insensitive consumers.
    """

    distances: np.ndarray
    labels: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        dist = np.asarray(self.distances, dtype=np.float64)
        labels = np.asarray(self.labels)
        idx = np.asarray(self.indices, dtype=np.int64)
        if dist.ndim not in (1, 2) or dist.shape != idx.shape or dist.shape != labels.shape:
            raise ValueError("distances, labels and indices must share shape (k,) or (n, k)")
        if dist.shape[-1] == 0:
            raise ValueError("a NeighborSet must contain at least one entry")
        for a in (dist, labels, idx):
            a.flags.writeable = False
        object.__setattr__(self, "distances", dist)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "indices", idx)

    @property
    def k(self) -> int:
        return self.distances.shape[-1]

    @property
    def is_batch(self) -> bool:
        return self.distances.ndim == 2


def _sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _expanded_sq(
    chunk: np.ndarray, q_sq: np.ndarray, reference: np.ndarray, ref_sq: np.ndarray
) -> np.ndarray:
    """|q|^2 - 2 q.r + |r|^2 for one chunk of queries, formed in place."""
    sq = chunk @ reference.T
    sq *= -2.0
    sq += q_sq[:, None]
    sq += ref_sq
    return sq


def _check_shapes(queries: np.ndarray, reference: np.ndarray) -> None:
    if queries.ndim != 2 or reference.ndim != 2 or queries.shape[1] != reference.shape[1]:
        raise ValueError("queries and reference must be 2-d with matching columns")


def pairwise_sq_distances(queries: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_queries, n_reference).

    Computed per chunk as |q|^2 - 2 q.r + |r|^2 and clamped at zero; the
    expansion can go slightly negative for near-identical points, and its
    absolute error grows with the squared norms. :func:`nearest_neighbors`
    uses it only to shortlist and returns direct-difference distances.
    """
    queries = np.asarray(queries, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    _check_shapes(queries, reference)
    ref_sq = _sq_norms(reference)
    out = np.empty((queries.shape[0], reference.shape[0]))
    for start in range(0, queries.shape[0], _CHUNK_ROWS):
        chunk = queries[start : start + _CHUNK_ROWS]
        sq = _expanded_sq(chunk, _sq_norms(chunk), reference, ref_sq)
        np.maximum(sq, 0.0, out=out[start : start + _CHUNK_ROWS])
    return out


def _exact_sq(
    queries: np.ndarray, reference: np.ndarray, cols: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """sum((queries[rows[i]] - reference[cols[i, j]])^2) per (i, j), in
    cache-sized blocks; ``rows`` defaults to 0, 1, ... Both sides are
    gathered one block at a time."""
    out = np.empty(cols.shape)
    step = max(1, _PAIR_BLOCK // max(1, cols.shape[1] * reference.shape[1]))
    for s in range(0, cols.shape[0], step):
        diff = reference[cols[s : s + step]]
        diff -= (queries[s : s + step] if rows is None else queries[rows[s : s + step]])[:, None, :]
        flat = diff.reshape(-1, diff.shape[-1])
        out[s : s + step] = np.einsum("ij,ij->i", flat, flat).reshape(diff.shape[:2])
    return out


def _sq_error_bound(d: int, q_sq: np.ndarray, ref_max: float) -> np.ndarray:
    """Bound on |expanded - exact| of one squared distance, per query row.

    (d + 2) eps per unit of |q|^2 + max |r|^2 covers the norms, the dot
    product and the two additions for any summation order; the factor 2
    covers the rounding of the direct differences the expansion is
    compared with.
    """
    return 2.0 * (d + 2) * np.finfo(np.float64).eps * (q_sq + ref_max)


def _norms(X: np.ndarray, sq: np.ndarray | None, side: str) -> np.ndarray:
    """Squared norms of the rows of X, computed unless ``sq`` holds them.

    A row's norm has the same bits whichever block of rows it is computed
    in, so norms computed once for a whole pool serve any subset of it.
    """
    if sq is None:
        sq = _sq_norms(X)
    else:
        sq = np.asarray(sq, dtype=np.float64)
        if sq.shape != (X.shape[0],):
            raise ValueError(f"{side} norms must have shape ({X.shape[0]},)")
    if not np.isfinite(sq).all():
        raise DataError(f"{side} rows must be finite")
    return sq


def _nearest_sq(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    exclude_self: bool = False,
    q_sq: np.ndarray | None = None,
    ref_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`nearest_neighbors` with squared distances."""
    queries = np.asarray(queries, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    _check_shapes(queries, reference)
    n_ref, d = reference.shape
    budget = n_ref - 1 if exclude_self else n_ref
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget < 1:
        raise ValueError("no reference row is available")
    k = min(k, budget)
    if exclude_self and queries.shape[0] != n_ref:
        raise ValueError("exclude_self requires equal query and reference row counts")

    ref_sq = _norms(reference, ref_sq, "reference")
    q_sq = _norms(queries, q_sq, "query")
    ref_max = float(ref_sq.max())
    n_q = queries.shape[0]
    indices = np.empty((n_q, k), dtype=np.int64)
    distances = np.empty((n_q, k))
    for start in range(0, n_q, _CHUNK_ROWS):
        chunk = queries[start : start + _CHUNK_ROWS]
        c_sq = q_sq[start : start + _CHUNK_ROWS]
        sq = _expanded_sq(chunk, c_sq, reference, ref_sq)
        rows = np.arange(chunk.shape[0])
        if exclude_self:
            sq[rows, start + rows] = np.inf
        # One kth value: NumPy partitions several kth values far more slowly.
        part = np.argpartition(sq, k if k < n_ref else k - 1, axis=1)
        cand = part[:, :k]
        # A reference row can beat or tie the k-th candidate only if its
        # expanded value is within twice the bound of the k-th one.
        limit = sq[rows[:, None], cand].max(axis=1) + 2.0 * _sq_error_bound(d, c_sq, ref_max)
        ex = _exact_sq(chunk, reference, cand)
        order = np.lexsort((cand, ex))
        out = slice(start, start + chunk.shape[0])
        indices[out] = cand[rows[:, None], order]
        distances[out] = ex[rows[:, None], order]
        if k == n_ref:
            continue
        # Contested rows: redo exactly over every rival inside the bound.
        for i in np.flatnonzero(sq[rows, part[:, k]] <= limit):
            rivals = np.flatnonzero(sq[i] <= limit[i])
            r_sq = _exact_sq(chunk[i : i + 1], reference, rivals[None, :])[0]
            best = np.lexsort((rivals, r_sq))[:k]
            indices[start + i] = rivals[best]
            distances[start + i] = r_sq[best]
    return indices, distances


def nearest_neighbors(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    exclude_self: bool = False,
    *,
    q_sq: np.ndarray | None = None,
    ref_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of the min(k, available) nearest reference rows.

    The raw matrix-level core behind :func:`knn`. ``exclude_self`` treats
    query row i and reference row i as the same point and skips it, for
    scoring a set against itself; one reference row fewer is then available.
    Rows are ordered by (distance, reference index), and distances are
    direct differences, so coincident points are exactly 0.

    Per chunk of queries the expansion shortlists k candidates with
    ``argpartition``; only they get an exact distance. A row whose
    (k+1)-th expanded value lies within the expansion's rounding bound of
    its k-th has rivals the expansion cannot order, and is redone exactly
    over every reference row inside that bound.

    ``q_sq`` and ``ref_sq`` are the squared row norms of ``queries`` and
    ``reference`` when the caller already holds them; by default they are
    computed here. The result does not depend on which.
    """
    indices, distances = _nearest_sq(queries, reference, k, exclude_self, q_sq, ref_sq)
    np.sqrt(distances, out=distances)
    return indices, distances


def extend_neighbors(
    queries: np.ndarray,
    reference: np.ndarray,
    start: int,
    indices: np.ndarray,
    sq_distances: np.ndarray,
    k: int,
    *,
    q_sq: np.ndarray | None = None,
    ref_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists against ``reference[:start]``, extended to all of it.

    ``indices`` and ``sq_distances`` are the lists of ``queries`` against
    the first ``start`` reference rows, as this function returns them;
    pass ``start = 0`` and (n_queries, 0) arrays for the first call. The
    result, (indices, squared distances) of the min(k, n_reference)
    nearest rows, is bit for bit ``nearest_neighbors(queries, reference,
    k)`` with its distances squared: merging on squared values keeps the
    order a fresh search gives, where two of them could share one root.

    While the lists are short of k entries they hold every earlier row,
    and the lists are searched afresh. Otherwise only the appended rows
    are expanded, and only those whose expanded value lies within the
    rounding bound of a row's k-th squared distance get an exact one.
    ``q_sq`` and ``ref_sq`` are optional squared row norms, as for
    :func:`nearest_neighbors`.
    """
    queries = np.asarray(queries, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    _check_shapes(queries, reference)
    n_q = queries.shape[0]
    n_ref, d = reference.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 <= start <= n_ref:
        raise ValueError("start must lie within the reference rows")
    if indices.shape != (n_q, min(k, start)) or sq_distances.shape != indices.shape:
        raise ValueError("the lists must have shape (n_queries, min(k, start))")
    if ref_sq is not None:
        ref_sq = _norms(reference, ref_sq, "reference")
    if start < k:
        return _nearest_sq(queries, reference, k, q_sq=q_sq, ref_sq=ref_sq)
    q_sq = _norms(queries, q_sq, "query")
    if start == n_ref:
        return indices, sq_distances

    new = reference[start:]
    new_sq = _norms(new, None if ref_sq is None else ref_sq[start:], "reference")
    new_max = float(new_sq.max())
    indices = indices.copy()
    sq_distances = sq_distances.copy()
    for start_q in range(0, n_q, _CHUNK_ROWS):
        out = slice(start_q, start_q + _CHUNK_ROWS)
        chunk = queries[out]
        c_sq = q_sq[out]
        # An appended row can beat the k-th entry only if its expanded value
        # is within the bound of that entry's exact value.
        limit = sq_distances[out, k - 1] + _sq_error_bound(d, c_sq, new_max)
        sq = _expanded_sq(chunk, c_sq, new, new_sq)
        rows, cols = np.nonzero(sq <= limit[:, None])
        if rows.size == 0:
            continue
        # Merge each row's list with the appended rows, those not
        # shortlisted at inf so that they sort last.
        sq.fill(np.inf)
        sq[rows, cols] = _exact_sq(chunk, new, cols[:, None], rows)[:, 0]
        m_sq = np.hstack([sq_distances[out], sq])
        m_idx = np.hstack([indices[out], np.broadcast_to(np.arange(start, n_ref), sq.shape)])
        order = np.lexsort((m_idx, m_sq))[:, :k]
        indices[out] = np.take_along_axis(m_idx, order, axis=1)
        sq_distances[out] = np.take_along_axis(m_sq, order, axis=1)
    return indices, sq_distances


def knn(pool: Dataset, query: np.ndarray, k: int) -> NeighborSet:
    """The min(k, pool size) nearest labelled points for each query.

    ``query`` is one feature vector or a (n, d) batch; entries come back
    sorted by distance, ties by ascending pool index.
    """
    query = np.asarray(query, dtype=np.float64)
    single = query.ndim == 1
    Q = query[None, :] if single else query
    if Q.ndim != 2 or Q.shape[1] != pool.n_features:
        raise ValueError(f"query must have {pool.n_features} features")
    idx, dist = nearest_neighbors(Q, pool.features, k)
    labels = pool.labels[idx]
    if single:
        idx, dist, labels = idx[0], dist[0], labels[0]
    return NeighborSet(distances=dist, labels=labels, indices=idx)
