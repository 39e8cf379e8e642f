"""Built-in predictors and committee-disagreement uncertainty scores.

The workhorse model is a bagged ensemble of axis-aligned decision trees
(Gini impurity for classification, variance for regression) grown with an
exhaustive midpoint split search. A k-nearest-neighbour predictor is
provided as a cheap fallback. Four uncertainty measures operate on the
ensemble's per-member predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .neighbors import knn

CLASSIFICATION = "classification"
REGRESSION = "regression"

_LEAF = -1


@dataclass(frozen=True)
class ModelConfig:
    """The predictor: a bagged tree ensemble or k nearest neighbours.

    The tree fields apply to the ensemble; max_depth None grows trees to
    purity.
    """

    kind: str = "ensemble"
    n_trees: int = 10
    max_depth: int | None = None
    min_leaf: int = 1
    knn_k: int = 5

    def __post_init__(self) -> None:
        if self.kind not in ("ensemble", "knn"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if self.knn_k < 1:
            raise ValueError("knn_k must be at least 1")


class _TreeView(NamedTuple):
    """One member of an ensemble, cut from its node table and numbered from
    its root at 0; ``left`` and ``right`` are -1 at leaves."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class TreeEnsemble:
    """Every tree of a bagged ensemble in one node table; node t is the root
    of tree t.

    feature[i] is -1 at leaves; value rows hold the class distribution
    (classification) or the mean response (regression) of the node. A node's
    children are adjacent, right = left + 1, and numbered after it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    task: str
    n_features: int
    n_trees: int
    n_classes: int = 0

    @property
    def trees(self) -> tuple[_TreeView, ...]:
        """Per-tree views, cut from the table on each access; each keeps its
        nodes in table order, so the root comes first."""
        owner = np.empty(self.feature.size, dtype=np.int64)
        nodes = np.arange(self.n_trees)
        owner[nodes] = nodes
        while nodes.size:
            nodes = nodes[self.feature[nodes] != _LEAF]
            owner[self.left[nodes]] = owner[self.right[nodes]] = owner[nodes]
            nodes = np.concatenate([self.left[nodes], self.right[nodes]])
        counts = np.bincount(owner, minlength=self.n_trees)
        order = np.argsort(owner, kind="stable")
        local = np.full(owner.size + 1, _LEAF)  # local[-1] maps _LEAF to itself
        local[order] = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return tuple(
            _TreeView(
                self.feature[nodes], self.threshold[nodes], local[self.left[nodes]], local[self.right[nodes]],
                self.value[nodes],
            )
            for nodes in np.split(order, np.cumsum(counts)[:-1])
        )


@dataclass(frozen=True)
class EnsemblePrediction:
    """Per-member predictions plus their mean.

    Classification: per_member has shape (members, classes) for one query or
    (members, n, classes) for a batch. Regression: (members,) or
    (members, n). ``aggregate`` is the mean over the member axis.
    """

    per_member: np.ndarray
    aggregate: np.ndarray
    task: str

    def __post_init__(self) -> None:
        pm = np.asarray(self.per_member, dtype=np.float64)
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION:
            if pm.ndim not in (2, 3):
                raise ValueError("classification per_member must be (M, C) or (M, n, C)")
            if np.any(np.abs(pm.sum(axis=-1) - 1.0) > 1e-9):
                raise ValueError("member probability rows must sum to 1")
        elif pm.ndim not in (1, 2):
            raise ValueError("regression per_member must be (M,) or (M, n)")
        object.__setattr__(self, "per_member", pm)
        object.__setattr__(self, "aggregate", np.asarray(self.aggregate, dtype=np.float64))

    @property
    def n_members(self) -> int:
        return self.per_member.shape[0]


# Split searches run on batches of nodes of similar size, padded to the
# widest; a batch holds at most this many (node, feature, row) cells unless
# one node alone needs more.
_BATCH_CELLS = 1 << 14


def _best_splits(
    ranks: np.ndarray, y: np.ndarray, rows: np.ndarray, n: np.ndarray, task: str, n_classes: int, min_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feature, position, sorted rows) of each node's best split.

    ``rows`` is (K, m): node k's training rows in node order, padded past
    n[k]; ``ranks`` is (d, n_rows), equal values sharing a rank. Per feature
    and node this sorts the rows stably, by (value, position in the node),
    into the (d, K, m) sorted rows, and scores only the midpoints between
    unequal values that leave min_leaf rows on each side; pads sort last and
    are never scored. Each scored cell sees the same operations in the same
    order as a search on its node alone, so batching changes no bit. Ties
    resolve to the lowest (feature index, threshold), as a front-to-back
    argmin over each node's feature-major scores would. Position -1 marks
    no valid split.
    """
    K, m = rows.shape
    d, n_rows = ranks.shape
    shift = (K * m - 1).bit_length()
    key = np.take(ranks, rows, axis=1)  # (d, K, m): a plain take is the fastest gather
    np.copyto(key, n_rows, where=np.arange(m) >= n[:, None])
    key <<= shift
    key |= np.arange(K * m).reshape(K, m)
    # Each key packs (rank, index into rows): within a line the index orders
    # rows by position, and keys are distinct, so sorting them in place
    # gives the permutation a stable argsort would, in the low bits.
    key.sort(axis=-1)
    sorted_rows = rows.ravel()[key & ((1 << shift) - 1)]
    ys = y[sorted_rows]
    rank = key
    rank >>= shift
    # Cells at value boundaries inside the min_leaf range, by (d, K, m - 1)
    # index; a line is one (feature, node) pair, and at and end index row j
    # and the line's last row in (d, K, m).
    j = np.arange(m - 1)
    scored = rank[..., :-1] != rank[..., 1:]
    scored &= (j >= min_leaf - 1) & (j < (n - min_leaf)[:, None])
    cell = np.flatnonzero(scored)
    line, j = np.divmod(cell, m - 1)
    n_line = np.tile(n, d)[line]
    at, end = cell + line, m * line + n_line - 1
    inv = 1.0 / np.arange(1.0, m + 1)  # inv[c - 1] = 1 / c
    inv_nl, inv_nr = inv[j], inv[end - at - 1]
    if task == CLASSIFICATION:
        # Minimizing summed child Gini equals maximizing sum of squared
        # class counts over child size; the constant parent terms drop out.
        # Counts are exact in float64; the last class gets what is left.
        seen_at, seen_end = j + 1.0, n_line + 0.0
        score = np.zeros(cell.size)
        for c in range(n_classes):
            if c == n_classes - 1:
                cum_at, cum_end = seen_at, seen_end
            else:
                cum = np.cumsum(ys == c, axis=-1, dtype=np.float64).ravel()
                cum_at, cum_end = cum[at], cum[end]
                seen_at, seen_end = seen_at - cum_at, seen_end - cum_end
            score -= cum_at**2 * inv_nl + (cum_end - cum_at) ** 2 * inv_nr
    else:
        cs = np.cumsum(ys, axis=-1).ravel()
        css = np.cumsum(ys * ys, axis=-1).ravel()
        # Cancellation can push a sum-of-squared-errors term slightly
        # negative; harmless for an argmin over relative scores.
        score = (css[at] - cs[at] ** 2 * inv_nl) + (
            (css[end] - css[at]) - (cs[end] - cs[at]) ** 2 * inv_nr
        )
    grid = np.full((d, K, m - 1), np.inf)
    grid.ravel()[cell] = score
    # The first minimum of each line, then the first feature holding the
    # node's minimum: the first minimum in feature-major order.
    pos = grid.argmin(axis=2)
    low = grid.reshape(d * K, m - 1)[np.arange(d * K), pos.ravel()].reshape(d, K)
    feature = low.argmin(axis=0)
    node = np.arange(K)
    pos = pos[feature, node]
    pos[~np.isfinite(low[feature, node])] = -1
    return feature, pos, sorted_rows


def _grow_trees(
    X: np.ndarray, y: np.ndarray, boots: list[np.ndarray], task: str, n_classes: int, model: ModelConfig
) -> tuple[np.ndarray, ...]:
    """One tree per bootstrap row list, grown one depth at a time.

    The nodes of a depth, across all trees, share batched split searches,
    and each node's split is what a search on that node alone would give. A
    child keeps its rows in its parent's order along the split feature.
    Returns the node table (feature, threshold, left, right, value) of
    :class:`TreeEnsemble`: node t is the root of tree t, and each depth's
    children are numbered after every node above them.
    """
    ranks = np.stack([np.unique(col, return_inverse=True)[1] for col in X.T])
    ids = np.arange(len(boots))  # the frontier: node ids, rows and row counts
    rows = np.concatenate(boots)
    sizes = np.array([b.size for b in boots])
    n_nodes, splits, leaves = ids.size, [], []
    depth = 0
    while ids.size:
        starts = np.cumsum(sizes) - sizes
        y_rows = y[rows]
        lo, hi = np.minimum.reduceat(y_rows, starts), np.maximum.reduceat(y_rows, starts)
        grow = (hi != lo if task == CLASSIFICATION else hi - lo != 0.0) & (sizes >= max(2, 2 * model.min_leaf))
        if model.max_depth is not None and depth >= model.max_depth:
            grow[:] = False
        todo = np.flatnonzero(grow)
        todo = todo[np.argsort(-sizes[todo], kind="stable")]
        found = []
        while todo.size:
            # Largest nodes first, batched while they fill half the width.
            m = int(sizes[todo[0]])
            batch = todo[: max(1, _BATCH_CELLS // (m * X.shape[1]))]
            batch, todo = batch[2 * sizes[batch] >= m], todo[np.count_nonzero(2 * sizes[batch] >= m) :]
            n = sizes[batch]
            at = np.minimum(np.arange(m), n[:, None] - 1) + starts[batch][:, None]
            f, pos, sorted_rows = _best_splits(ranks, y, rows[at], n, task, n_classes, model.min_leaf)
            ok = np.flatnonzero(pos >= 0)
            chosen = sorted_rows[f[ok], ok]
            found.append((batch[ok], f[ok], pos[ok], chosen[np.arange(m) < n[ok, None]]))
        at, f, pos, rows_lr = (np.concatenate(p) for p in zip(*found)) if found else [ids[:0]] * 4
        # Children's rows lie split node after split node in rows_lr.
        n = sizes[at]
        first = np.cumsum(n) - n + pos
        below, above = X[rows_lr[first], f], X[rows_lr[first + 1], f]
        thr = 0.5 * (below + above)
        thr = np.where(thr >= above, below, thr)  # midpoint rounded up
        sizes_lr = np.column_stack([pos + 1, n - pos - 1]).ravel()
        leaf = np.ones(ids.size, dtype=bool)
        leaf[at] = False
        if task == CLASSIFICATION:
            cells = np.repeat(np.arange(ids.size) * n_classes, sizes) + y_rows
            counts = np.bincount(cells, minlength=ids.size * n_classes).reshape(-1, n_classes)
            leaves.append((ids[leaf], counts[leaf] / sizes[leaf, None]))
        else:
            # Row means of a C-contiguous block take the same pairwise sums
            # as one leaf's mean, so leaves of one size are done together.
            means, at_leaf = np.empty((leaf.sum(), 1)), np.flatnonzero(leaf)
            for c in np.unique(sizes[leaf]):
                same = sizes[at_leaf] == c
                means[same, 0] = y_rows[starts[at_leaf[same]][:, None] + np.arange(c)].mean(axis=1)
            leaves.append((ids[leaf], means))
        children = n_nodes + np.arange(2 * at.size)
        n_nodes += children.size
        splits.append((ids[at], f, thr, children[0::2], children[1::2]))
        ids, rows, sizes = children, rows_lr, sizes_lr
        depth += 1

    feature, left, right = (np.full(n_nodes, _LEAF) for _ in range(3))
    threshold = np.zeros(n_nodes)
    value = np.zeros((n_nodes, n_classes if task == CLASSIFICATION else 1))
    for node, f, thr, lo_child, hi_child in splits:
        feature[node], threshold[node], left[node], right[node] = f, thr, lo_child, hi_child
    for node, leaf_value in leaves:
        value[node] = leaf_value
    return feature, threshold, left, right, value


def fit_ensemble(train: Dataset, model: ModelConfig = ModelConfig(), seed: int = 0) -> TreeEnsemble:
    """Fit the model's bagged trees on a dataset; the task follows the label kind.

    Each tree trains on an n-with-replacement bootstrap resample drawn from
    its own stream seeded with (seed + tree index), so a given tree is
    reproducible regardless of fitting order.
    """
    if train.n_rows < 1:
        raise ValueError("training set is empty")
    task = CLASSIFICATION if train.is_classification else REGRESSION
    n_classes = train.class_count if train.is_classification else 0
    X = train.features
    y = train.labels.astype(np.float64) if task == REGRESSION else train.labels
    boots = [
        np.random.default_rng(seed + t).integers(0, train.n_rows, size=train.n_rows)
        for t in range(model.n_trees)
    ]
    return TreeEnsemble(
        *_grow_trees(X, y, boots, task, n_classes, model),
        task=task,
        n_features=train.n_features,
        n_trees=model.n_trees,
        n_classes=n_classes,
    )


# Predictions descend blocks of rows whose (tree, row) pairs number at most
# this many, unless one row alone has more.
_DESCENT_CELLS = 1 << 14


def _descend(ensemble: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """(trees, rows) leaf ids of X: all pairs of a block descend together."""
    feature, threshold, right = ensemble.feature, ensemble.threshold, ensemble.right
    T, (n, d) = ensemble.n_trees, X.shape
    X = np.ascontiguousarray(X)
    out = np.empty((T, n), dtype=np.int64)
    step = max(1, _DESCENT_CELLS // T)
    for s in range(0, n, step):
        block, b = X[s : s + step].ravel(), min(step, n - s)
        node = np.repeat(np.arange(T), b)  # tree-major pairs
        at = np.flatnonzero(feature[node] != _LEAF)  # pairs not yet at a leaf
        cell = at % b * d  # offset of each pair's row in the block
        while at.size:
            here = node[at]
            go_left = block[cell + feature[here]] <= threshold[here]
            node[at] = here = right[here] - go_left  # left = right - 1
            inner = feature[here] != _LEAF
            at, cell = at[inner], cell[inner]
        out[:, s : s + b] = node.reshape(T, b)
    return out


def predict(ensemble: TreeEnsemble, X: np.ndarray) -> EnsemblePrediction:
    """Per-member predictions for a single row (1-d) or a batch (2-d)."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise ValueError(
            f"expected {ensemble.n_features} feature columns, got shape {X.shape}"
        )
    per_member = ensemble.value[_descend(ensemble, X)]
    if ensemble.task == REGRESSION:
        per_member = per_member[..., 0]
    if single:
        per_member = per_member[:, 0]
    return EnsemblePrediction(
        per_member=per_member,
        aggregate=per_member.mean(axis=0),
        task=ensemble.task,
    )


def _require(pred: EnsemblePrediction, task: str, caller: str) -> None:
    if pred.task != task:
        raise ValueError(f"{caller} requires a {task} prediction")


def ensemble_binary_uncertainty(pred: EnsemblePrediction) -> float | np.ndarray:
    """Negative mean member distance from probability 0.5; maximum is 0.

    Defined for binary classification only; the value is 0 exactly when
    every member outputs 0.5 and falls to -0.5 for unanimous hard votes.
    """
    _require(pred, CLASSIFICATION, "ensemble_binary_uncertainty")
    if pred.per_member.shape[-1] != 2:
        raise ValueError("binary uncertainty requires exactly 2 classes")
    p = pred.per_member[..., 1]
    out = -np.abs(0.5 - p).mean(axis=0) + 0.0
    return float(out) if out.ndim == 0 else out


def regression_std_uncertainty(pred: EnsemblePrediction) -> float | np.ndarray:
    """Population standard deviation of member predictions.

    Members are shifted by the first member before the two-pass variance so
    unanimous ensembles give exactly 0.
    """
    _require(pred, REGRESSION, "regression_std_uncertainty")
    d = pred.per_member - pred.per_member[0]
    m = d.mean(axis=0)
    out = np.sqrt(((d - m) ** 2).mean(axis=0))
    return float(out) if out.ndim == 0 else out


def max_prob_uncertainty(pred: EnsemblePrediction) -> float | np.ndarray:
    """One minus the aggregate probability of the predicted class."""
    _require(pred, CLASSIFICATION, "max_prob_uncertainty")
    out = 1.0 - np.asarray(pred.aggregate).max(axis=-1)
    return float(out) if out.ndim == 0 else out


def mean_std_uncertainty(pred: EnsemblePrediction) -> float | np.ndarray:
    """Mean over classes of the population std of member probabilities."""
    _require(pred, CLASSIFICATION, "mean_std_uncertainty")
    if pred.n_members < 2:
        raise ValueError("mean_std_uncertainty requires at least 2 members")
    d = pred.per_member - pred.per_member[0]
    m = d.mean(axis=0)
    out = np.sqrt(((d - m) ** 2).mean(axis=0)).mean(axis=-1)
    return float(out) if out.ndim == 0 else out


# Uncertainty kind -> scoring function. It stays a plain module-level dict:
# perfbench/tracer.py times the functions by wrapping the entries of such dicts.
UNCERTAINTY = {
    "eq3_binary": ensemble_binary_uncertainty,
    "regression_std": regression_std_uncertainty,
    "max_prob": max_prob_uncertainty,
    "mean_std": mean_std_uncertainty,
}


def knn_from_labels(pool: Dataset, neighbor_labels: np.ndarray) -> np.ndarray:
    """Vote fractions (classification) or neighbour mean (regression) per row.

    ``neighbor_labels`` is (n, k): the labels of each row's neighbours in
    ``pool``, in list order, which the regression mean keeps.
    """
    if pool.is_classification:
        counts = (neighbor_labels[:, :, None] == np.arange(pool.class_count)).sum(axis=1)
        return counts / neighbor_labels.shape[1]
    return neighbor_labels.mean(axis=1)


def knn_predict(
    pool: Dataset, query: np.ndarray, k: int
) -> np.ndarray | float:
    """Vote fractions (classification) or neighbour mean (regression).

    ``query`` may be one vector or a batch; k is clamped to the pool size.
    """
    query = np.asarray(query, dtype=np.float64)
    single = query.ndim == 1
    nbrs = knn(pool, query[None, :] if single else query, k)
    out = knn_from_labels(pool, nbrs.labels)
    if not single:
        return out
    return out[0] if pool.is_classification else float(out[0])
