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


def _exact_sq(chunk: np.ndarray, reference: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum((chunk[i] - reference[cols[i, j]])^2) per (i, j), in cache-sized blocks."""
    out = np.empty(cols.shape)
    step = max(1, _PAIR_BLOCK // max(1, cols.shape[1] * reference.shape[1]))
    for s in range(0, cols.shape[0], step):
        diff = reference[cols[s : s + step]]
        diff -= chunk[s : s + step, None, :]
        flat = diff.reshape(-1, diff.shape[-1])
        out[s : s + step] = np.einsum("ij,ij->i", flat, flat).reshape(diff.shape[:2])
    return out


def nearest_neighbors(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    exclude_self: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of the k nearest reference rows per query row.

    The raw matrix-level core behind :func:`knn`; k must not exceed the
    available reference rows. ``exclude_self`` treats query row i and
    reference row i as the same point and skips it, for scoring a set
    against itself. Rows are ordered by (distance, reference index), and
    distances are direct differences, so coincident points are exactly 0.

    Per chunk of queries the expansion shortlists k candidates with
    ``argpartition``; only they get an exact distance. A row whose
    (k+1)-th expanded value lies within the expansion's rounding bound of
    its k-th has rivals the expansion cannot order, and is redone exactly
    over every reference row inside that bound.
    """
    queries = np.asarray(queries, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    _check_shapes(queries, reference)
    n_ref, d = reference.shape
    budget = n_ref - 1 if exclude_self else n_ref
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget < k:
        raise ValueError(f"k={k} exceeds the {budget} available reference rows")
    if exclude_self and queries.shape[0] != n_ref:
        raise ValueError("exclude_self requires equal query and reference row counts")

    ref_sq = _sq_norms(reference)
    if not np.isfinite(ref_sq).all():
        raise DataError("reference rows must be finite")
    # Bound on |expanded - exact| of one squared distance, per unit of
    # |q|^2 + max |r|^2: (d + 2) eps covers the norms, the dot product and
    # the two additions for any summation order; the factor 2 covers the
    # rounding of the direct differences the expansion is compared with.
    rel_err = 2.0 * (d + 2) * np.finfo(np.float64).eps
    ref_max = float(ref_sq.max())
    n_q = queries.shape[0]
    indices = np.empty((n_q, k), dtype=np.int64)
    distances = np.empty((n_q, k))
    for start in range(0, n_q, _CHUNK_ROWS):
        chunk = queries[start : start + _CHUNK_ROWS]
        q_sq = _sq_norms(chunk)
        if not np.isfinite(q_sq).all():
            raise DataError("query rows must be finite")
        sq = _expanded_sq(chunk, q_sq, reference, ref_sq)
        rows = np.arange(chunk.shape[0])
        if exclude_self:
            sq[rows, start + rows] = np.inf
        part = np.argpartition(sq, [k - 1, k] if k < n_ref else k - 1, axis=1)
        # A reference row can beat or tie the k-th candidate only if its
        # expanded value is within twice the bound of the k-th one.
        limit = sq[rows, part[:, k - 1]] + 2.0 * rel_err * (q_sq + ref_max)
        cand = part[:, :k]
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
    np.sqrt(distances, out=distances)
    return indices, distances


def knn(pool: Dataset, query: np.ndarray, k: int) -> NeighborSet:
    """The min(k, pool size) nearest labelled points for each query.

    ``query`` is one feature vector or a (n, d) batch; entries come back
    sorted by distance, ties by ascending pool index.
    """
    if pool.n_rows < 1:
        raise ValueError("pool is empty")
    if k < 1:
        raise ValueError("k must be at least 1")
    query = np.asarray(query, dtype=np.float64)
    single = query.ndim == 1
    Q = query[None, :] if single else query
    if Q.ndim != 2 or Q.shape[1] != pool.n_features:
        raise ValueError(f"query must have {pool.n_features} features")
    k_eff = min(k, pool.n_rows)
    idx, dist = nearest_neighbors(Q, pool.features, k_eff)
    labels = pool.labels[idx]
    if single:
        idx, dist, labels = idx[0], dist[0], labels[0]
    return NeighborSet(distances=dist, labels=labels, indices=idx)
