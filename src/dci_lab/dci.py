"""Distance-weighted class impurity scores.

The score of a point is computed from its k nearest labelled neighbours:
each neighbour at distance d contributes weight 1 / (d^alpha + epsilon),
and the score is

    min over classes j of  sum of weights of neighbours NOT in class j
    -------------------------------------------------------------------
              sum over neighbours of (d^alpha + epsilon)^-beta

It is zero in unanimously labelled regions, grows near class boundaries,
and for beta > 1 also grows with distance from the labelled data, so it can
rank unlabelled points for label acquisition without ever fitting a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import DataError, Dataset, write_csv
from .neighbors import nearest_neighbors

DEFAULT_EPSILON = 1e-12
# Float64 cells per block of per-class weight sums in dci_scores (512 KB).
_SUM_CELLS = 1 << 16


@dataclass(frozen=True)
class DciParams:
    """Neighbourhood size and the exponents shaping the score.

    alpha sharpens the distance weighting (larger alpha localizes the score
    around boundaries); beta = 1 makes the score depend on neighbour labels
    only, while beta > 1 (recommended) makes it grow where data is absent;
    epsilon keeps zero distances finite. Any positive alpha and beta are
    accepted.
    """

    k: int = 20
    alpha: float = 1.5
    beta: float = 1.2
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class GridSpec:
    """A square 2-d evaluation grid with `resolution` points per axis."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: int = 100

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extents must have max > min")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.linspace(self.x_min, self.x_max, self.resolution)
        ys = np.linspace(self.y_min, self.y_max, self.resolution)
        return xs, ys

    def points(self) -> np.ndarray:
        """All grid coordinates, shape (resolution^2, 2), x varying fastest."""
        xs, ys = self.axes()
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


def dci_scores(
    neighbor_labels: np.ndarray,
    neighbor_distances: np.ndarray,
    n_classes: int,
    params: DciParams = DciParams(),
) -> np.ndarray:
    """Impurity scores for a batch of points given their neighbour lists.

    ``neighbor_labels`` and ``neighbor_distances`` have shape (n, k); the
    result does not depend on the order of a point's neighbours, including
    at the bit level. Labels must be integer-valued class ids.
    """
    labels = np.asarray(neighbor_labels)
    if labels.dtype.kind == "f":
        if not np.all(labels == np.round(labels)):
            raise ValueError("labels must be integer-valued class ids")
    labels = labels.astype(np.int64)
    dists = np.asarray(neighbor_distances, dtype=np.float64)
    if labels.ndim != 2 or labels.shape != dists.shape:
        raise ValueError("labels and distances must share shape (n, k)")
    if n_classes < 1:
        raise ValueError("n_classes must be at least 1")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("neighbour label out of range")
    if not np.isfinite(dists).all():
        raise DataError("neighbour distances must be finite")
    if np.any(dists < 0):
        raise ValueError("distances must be non-negative")

    # Canonicalize each row by (distance, label) so the accumulation order,
    # and hence the rounding, is identical for any input permutation. Rows
    # whose distances strictly increase, as a neighbour search returns them
    # unless two tie, are in that order already.
    if not (dists[:, 1:] > dists[:, :-1]).all():
        order = np.lexsort((labels, dists), axis=-1)
        labels = np.take_along_axis(labels, order, axis=1)
        dists = np.take_along_axis(dists, order, axis=1)

    # Only classes present among a row's neighbours can attain its minimum;
    # any other class keeps the row's full weight sum, which dominates, since
    # adding a non-negative term never lowers a rounded sum. Per-class sums
    # are taken directly over the retained entries; deriving them as
    # total - class_sum loses everything to cancellation when one neighbour
    # sits at distance ~0 and dominates the total. They are formed as one
    # (present classes, rows, k) block per bounded run of rows.
    present = np.flatnonzero(np.bincount(labels.ravel(), minlength=n_classes))[:, None, None]
    n, k = labels.shape
    step = max(1, _SUM_CELLS // max(1, present.size * k))
    min_num = np.empty(n)
    # Powers of large distances overflow or underflow; the scores are
    # checked instead, so that none that is not finite is returned.
    with np.errstate(all="ignore"):
        d_alpha = dists**params.alpha + params.epsilon
        w_num = 1.0 / d_alpha
        denom = (d_alpha ** (-params.beta)).sum(axis=1)
        for s in range(0, n, step):
            lab = labels[s : s + step]
            num = np.where(lab != present, w_num[s : s + step], 0.0).sum(axis=2)
            min_num[s : s + step] = num.min(axis=0)
        scores = min_num / denom
    if not np.isfinite(scores).all():
        raise DataError(
            f"DCI scores are not finite at alpha = {params.alpha:g}, beta = {params.beta:g}: "
            "the powers of the neighbour distances overflow; scale the features down"
        )
    return scores


def pool_scores(
    features: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
    queries: np.ndarray,
    params: Sequence[DciParams],
    *,
    q_sq: np.ndarray | None = None,
    ref_sq: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Scores of ``queries`` against a labelled pool, one array per set of ``params``.

    ``features`` are the pool's rows and ``codes`` their class ids, below
    ``n_classes``. One neighbour search serves every parameter set, so the
    sets must share ``k``, which is clamped to the pool size. ``q_sq`` and
    ``ref_sq`` are optional squared row norms, as for
    :func:`nearest_neighbors`.
    """
    ks = {p.k for p in params}
    if len(ks) > 1:
        raise ValueError("the DCI parameter sets must share k")
    if not ks:
        return []
    idx, dist = nearest_neighbors(queries, features, ks.pop(), q_sq=q_sq, ref_sq=ref_sq)
    labels = codes[idx]
    return [dci_scores(labels, dist, n_classes, p) for p in params]


def dci_field(
    pool: Dataset,
    grid: GridSpec,
    params: DciParams = DciParams(),
) -> np.ndarray:
    """Scores over a regular grid against a labelled 2-d pool.

    Returns a (resolution, resolution) matrix with rows following the y
    axis and columns the x axis. The neighbourhood size is clamped to the
    pool size; a numeric label is converted to class ids by distinct value.
    """
    if pool.n_features != 2:
        raise ValueError("field evaluation expects a 2-d pool")
    (scores,) = pool_scores(pool.features, *pool.class_codes, grid.points(), [params])
    return scores.reshape(grid.resolution, grid.resolution)


def write_field_csv(path: str | Path, grid: GridSpec, field: np.ndarray) -> None:
    """Write grid scores as x,y,dci rows, x varying fastest."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (grid.resolution, grid.resolution):
        raise ValueError("field shape must match the grid resolution")
    xs, ys = grid.axes()
    rows = ((x, y, field[iy, ix]) for iy, y in enumerate(ys) for ix, x in enumerate(xs))
    write_csv(path, ["x", "y", "dci"], rows)
