"""Exact k-nearest-neighbour retrieval under Euclidean distance.

The pools this package targets are small enough (tens of thousands of rows)
that exact chunked distance computation beats any index structure, and
exactness matters: downstream scores are asserted to tight tolerances and
ties must break deterministically by ascending pool index.

The matrix expansion |q|^2 - 2 q.r + |r|^2 is fast but loses digits to
cancellation (coincident points come out near 1e-8 instead of 0, far worse
on data far from the origin). Both searches filter with it: a candidate
is a row whose expanded value lies within twice its rounding bound of the
k-th, and :func:`_exact_top_k` orders the candidates by direct difference.
:func:`extend_neighbors` keeps the expansion's values where the bound
decides the order. Memory is O(chunk x n_reference): no n_queries x
n_reference array is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset

# Query rows per block of expanded distances: the (chunk, n_ref) float64
# block and its partitioned copy are the largest arrays held at once,
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
    uses it only to filter and returns direct-difference distances.
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


def _exact_sq(queries: np.ndarray, reference: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum((queries[i] - reference[cols[i, j]])^2) per (i, j), in
    cache-sized blocks of gathered reference rows."""
    out = np.empty(cols.shape)
    step = max(1, _PAIR_BLOCK // max(1, cols.shape[1] * reference.shape[1]))
    for s in range(0, cols.shape[0], step):
        diff = reference[cols[s : s + step]]
        diff -= queries[s : s + step, None, :]
        flat = diff.reshape(-1, diff.shape[-1])
        out[s : s + step] = np.einsum("ij,ij->i", flat, flat).reshape(diff.shape[:2])
    return out


def _exact_top_k(
    queries: np.ndarray, reference: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, squared distances) of the k nearest candidates of each query
    row by (direct difference, index). ``queries[i]`` has at least k, at
    ``reference[cols[rows == i]]``, with ``rows`` ascending as from
    ``np.nonzero``; they are padded to the widest row, and padding sorts last."""
    counts = np.bincount(rows, minlength=queries.shape[0])
    pad = np.arange(counts.max()) >= counts[:, None]
    cand = np.zeros(pad.shape, dtype=np.int64)
    cand[~pad] = cols
    ex = _exact_sq(queries, reference, cand)
    ex[pad] = np.inf
    cand[pad] = reference.shape[0]
    best = np.lexsort((cand, ex))[:, :k]
    at = np.arange(best.shape[0])[:, None]
    return cand[at, best], ex[at, best]


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
        if np.isfinite(X).all():
            raise DataError(f"the squared norm of a {side} row overflowed; scale the features down")
        raise DataError(f"{side} rows must be finite")
    return sq


def _nearest_sq(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    q_sq: np.ndarray | None = None,
    ref_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`nearest_neighbors` with squared distances."""
    queries = np.asarray(queries, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    _check_shapes(queries, reference)
    n_ref, d = reference.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    if n_ref < 1:
        raise ValueError("no reference row is available")
    k = min(k, n_ref)

    ref_sq = _norms(reference, ref_sq, "reference")
    q_sq = _norms(queries, q_sq, "query")
    ref_max = float(ref_sq.max())
    n_q = queries.shape[0]
    indices = np.empty((n_q, k), dtype=np.int64)
    distances = np.empty((n_q, k))
    for start in range(0, n_q, _CHUNK_ROWS):
        out = slice(start, start + _CHUNK_ROWS)
        sq = _expanded_sq(queries[out], q_sq[out], reference, ref_sq)
        # A reference row can beat or tie the k-th nearest only if its
        # expanded value is within twice the bound of the k-th one.
        limit = np.partition(sq, k - 1, axis=1)[:, k - 1]
        limit += 2.0 * _sq_error_bound(d, q_sq[out], ref_max)
        # Several times faster than np.nonzero of the 2-d mask.
        rows, cols = np.divmod(np.flatnonzero(sq <= limit[:, None]), n_ref)
        indices[out], distances[out] = _exact_top_k(queries[out], reference, rows, cols, k)
    return indices, distances


def nearest_neighbors(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    *,
    q_sq: np.ndarray | None = None,
    ref_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of the min(k, n_reference) nearest reference rows.

    The raw matrix-level core behind :func:`knn`. Rows are ordered by
    (distance, reference index), and distances are direct differences, so
    coincident points are exactly 0.

    Per chunk of queries the expansion filters: a reference row is a
    candidate when its expanded value is at most the query's k-th smallest
    plus twice the expansion's rounding bound (:func:`_sq_error_bound`).
    Only candidates get a direct difference; usually there are k of them,
    and more only where the expansion cannot order the k-th against its
    rivals.

    ``q_sq`` and ``ref_sq`` are the squared row norms of ``queries`` and
    ``reference`` when the caller already holds them; by default they are
    computed here. The result does not depend on which.
    """
    indices, distances = _nearest_sq(queries, reference, k, q_sq, ref_sq)
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
    result holds the min(k, n_reference) nearest rows, each sorted by
    (value, index). Its indices are bit for bit those of
    ``nearest_neighbors(queries, reference, k)``, in their order; each
    squared distance is the expansion's, within its rounding bound
    (:func:`_sq_error_bound`, with the largest reference norm) of the
    direct difference, or the direct difference itself.

    While the lists are short of k entries they hold every earlier row,
    and the lists are searched afresh, with direct differences. Otherwise
    only the appended rows are expanded. A row whose appended rows all lie
    more than twice the bound beyond its k-th value keeps its list. The
    others merge their lists with those appended rows by value. Only a
    row where two of the first k+1 merged values lie within twice the
    bound, whose order the expansion cannot decide, gets direct
    differences: for every entry within twice the bound of its k-th, and
    it keeps them as its values. ``q_sq`` and ``ref_sq`` are optional
    squared row norms, as for :func:`nearest_neighbors`.
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
    ref_sq = _norms(reference, ref_sq, "reference")
    if start < k:
        return _nearest_sq(queries, reference, k, q_sq=q_sq, ref_sq=ref_sq)
    q_sq = _norms(queries, q_sq, "query")
    if start == n_ref:
        return indices, sq_distances

    # The largest norm of every row so far bounds the error of the values
    # carried from earlier calls as well as of the appended rows'.
    ref_max = float(ref_sq.max())
    new, new_sq = reference[start:], ref_sq[start:]
    new_idx = np.arange(start, n_ref)
    indices = indices.copy()
    sq_distances = sq_distances.copy()
    for start_q in range(0, n_q, _CHUNK_ROWS):
        out = slice(start_q, start_q + _CHUNK_ROWS)
        chunk, c_sq = queries[out], q_sq[out]
        old_idx, old_sq = indices[out], sq_distances[out]
        # Values more than twice the bound apart keep their exact order.
        slack = 2.0 * _sq_error_bound(d, c_sq, ref_max)
        sq = _expanded_sq(chunk, c_sq, new, new_sq)
        near = sq <= (old_sq[:, k - 1] + slack)[:, None]
        hit = np.flatnonzero(near.any(axis=1))
        if hit.size == 0:
            continue
        # Merge each hit row's list with the appended rows, those not
        # shortlisted at inf so that they sort last. How the sort orders
        # ties does not matter: two values within the slack make the row
        # ambiguous, and an ambiguous row is ordered by exact values.
        sq[~near] = np.inf
        m_sq = np.hstack([old_sq[hit], sq[hit]])
        m_idx = np.hstack([old_idx[hit], np.broadcast_to(new_idx, (hit.size, new_idx.size))])
        order = np.argsort(m_sq, axis=1)
        rows = np.arange(hit.size)[:, None]
        top_sq = m_sq[rows, order[:, : k + 1]]
        top_idx = m_idx[rows, order[:, :k]]
        h_slack = slack[hit]
        amb = np.flatnonzero((np.diff(top_sq, axis=1) <= h_slack[:, None]).any(axis=1))
        if amb.size:
            # Every entry within twice the bound of the k-th may belong in the list.
            a_rows, a_cols = np.nonzero(m_sq[amb] <= (top_sq[amb, k - 1] + h_slack[amb])[:, None])
            top_idx[amb], top_sq[amb, :k] = _exact_top_k(
                chunk[hit[amb]], reference, a_rows, m_idx[amb[a_rows], a_cols], k
            )
        indices[start_q + hit] = top_idx
        sq_distances[start_q + hit] = top_sq[:, :k]
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
