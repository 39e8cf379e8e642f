"""Built-in predictors and committee-disagreement uncertainty scores.

The workhorse model is a bagged ensemble of axis-aligned decision trees
(Gini impurity for classification, variance for regression) grown with an
exhaustive midpoint split search. A k-nearest-neighbour predictor is
provided as a cheap fallback. Four uncertainty measures operate on the
ensemble's per-member predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .neighbors import knn

CLASSIFICATION = "classification"
REGRESSION = "regression"

_LEAF = -1


@dataclass(frozen=True)
class EnsembleConfig:
    """Bagging hyperparameters; max_depth None grows trees to purity."""

    n_trees: int = 10
    max_depth: int | None = None
    min_leaf: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")


@dataclass
class _Tree:
    """Flat array encoding of one decision tree.

    feature[i] is -1 at leaves; value rows hold the class distribution
    (classification) or the mean response (regression) of the node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf value rows for each input row, via vectorized descent."""
        idx = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.nonzero(self.feature[idx] != _LEAF)[0]
        while rows.size:
            node = idx[rows]
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            idx[rows] = np.where(go_left, self.left[node], self.right[node])
            rows = rows[self.feature[idx[rows]] != _LEAF]
        return self.value[idx]


@dataclass(frozen=True)
class TreeEnsemble:
    trees: list[_Tree]
    task: str
    n_features: int
    n_classes: int = 0
    rng_seed: int = 0
    config: EnsembleConfig = field(default_factory=EnsembleConfig)

    @property
    def n_trees(self) -> int:
        return len(self.trees)


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


_INV_COUNT_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _inv_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached (1/left size, 1/right size) columns for a node of n rows."""
    hit = _INV_COUNT_CACHE.get(n)
    if hit is None:
        if len(_INV_COUNT_CACHE) > 4096:
            _INV_COUNT_CACHE.clear()
        sizes = np.arange(1, n, dtype=np.float64)[:, None]
        hit = (1.0 / sizes, 1.0 / sizes[::-1])
        _INV_COUNT_CACHE[n] = hit
    return hit


# Split searches run on batches of nodes of similar size, padded to the
# widest; a batch holds at most this many (node, feature, row) cells unless
# one node alone needs more.
_BATCH_CELLS = 1 << 14


def _best_splits(
    ranks: np.ndarray, y: np.ndarray, rows: np.ndarray, n: np.ndarray, task: str, n_classes: int, min_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feature, position, sorted rows) of each node's best split.

    ``rows`` is (K, m): node k's training rows in node order, padded past
    n[k]; ``ranks`` is (d, n_rows), equal values sharing a rank. Per node
    this scores every midpoint of every feature in stable sort order,
    (value, position in the node); pads sort last and score +inf, and each
    kept cell sees the same operations in the same order as a search on
    its node alone, so batching changes no bit. Ties resolve to the lowest
    (feature index, threshold) because argmin scans each node's
    feature-major layout front to back. Position -1 marks no valid split.
    """
    K, m = rows.shape
    d, n_rows = ranks.shape
    shift = (m - 1).bit_length()
    key = ranks[np.arange(d)[None, :, None], rows[:, None, :]]
    np.copyto(key, n_rows, where=(np.arange(m) >= n[:, None])[:, None, :])
    key <<= shift
    key |= np.arange(m)  # (rank, position) packed: keys are distinct, so any sort is stable
    order = np.argsort(key, axis=-1)
    sorted_key = key.ravel()[order + (m * np.arange(K * d)).reshape(K, d, 1)]
    sorted_rows = rows.ravel()[order + (m * np.arange(K))[:, None, None]]
    ys = y[sorted_rows]
    last = (n - 1)[:, None, None]
    j = np.arange(m - 1)
    inv_nl = _inv_counts(m)[0][:, 0]
    inv_nr = inv_nl[np.maximum(n[:, None] - 2 - j, 0)][:, None, :]  # 1 / (n - 1 - j)
    if task == CLASSIFICATION:
        # Minimizing summed child Gini equals maximizing sum of squared
        # class counts over child size; the constant parent terms drop out.
        # Counts are exact in float64; the last class gets what is left.
        seen = np.arange(1.0, m + 1)
        score = np.zeros((K, d, m - 1))
        for c in range(n_classes):
            cum = seen if c == n_classes - 1 else np.cumsum(ys == c, axis=-1, dtype=np.float64)
            seen = seen - cum
            rest = np.take_along_axis(cum, last, -1) - cum[..., :-1]
            score -= cum[..., :-1] ** 2 * inv_nl + rest**2 * inv_nr
    else:
        cs = np.cumsum(ys, axis=-1)
        css = np.cumsum(ys * ys, axis=-1)
        # Cancellation can push a sum-of-squared-errors term slightly
        # negative; harmless for an argmin over relative scores.
        score = (css[..., :-1] - cs[..., :-1] ** 2 * inv_nl) + (
            (np.take_along_axis(css, last, -1) - css[..., :-1])
            - (np.take_along_axis(cs, last, -1) - cs[..., :-1]) ** 2 * inv_nr
        )
    stuck = (sorted_key[..., :-1] >> shift) == (sorted_key[..., 1:] >> shift)
    stuck |= ((j < min_leaf - 1) | (j >= (n - min_leaf)[:, None]))[:, None, :]
    score[stuck] = np.inf
    flat = score.reshape(K, -1)
    best = flat.argmin(axis=1)
    feature, pos = np.divmod(best, m - 1)
    pos[~np.isfinite(flat[np.arange(K), best])] = -1
    return feature, pos, sorted_rows


def _grow_trees(
    X: np.ndarray, y: np.ndarray, boots: list[np.ndarray], task: str, n_classes: int, config: EnsembleConfig
) -> list[_Tree]:
    """One tree per bootstrap row list, grown one depth at a time.

    The nodes of a depth, across all trees, share batched split searches,
    and each node's split is what a search on that node alone would give. A
    child keeps its rows in its parent's order along the split feature.
    Nodes live in one table: node t is the root of tree t.
    """
    ranks = np.stack([np.unique(col, return_inverse=True)[1] for col in X.T])
    ids = np.arange(len(boots))  # the frontier: node ids, rows and row counts
    rows = np.concatenate(boots)
    sizes = np.array([b.size for b in boots])
    owner, splits, leaves = [ids], [], []
    depth = 0
    while ids.size:
        starts = np.cumsum(sizes) - sizes
        y_rows = y[rows]
        lo, hi = np.minimum.reduceat(y_rows, starts), np.maximum.reduceat(y_rows, starts)
        grow = (hi != lo if task == CLASSIFICATION else hi - lo != 0.0) & (sizes >= max(2, 2 * config.min_leaf))
        if config.max_depth is not None and depth >= config.max_depth:
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
            f, pos, sorted_rows = _best_splits(ranks, y, rows[at], n, task, n_classes, config.min_leaf)
            ok = pos >= 0
            f, pos, n, chosen = f[ok], pos[ok], n[ok], sorted_rows[ok, f[ok]]
            below = X[chosen[np.arange(n.size), pos], f]
            above = X[chosen[np.arange(n.size), pos + 1], f]
            thr = 0.5 * (below + above)
            thr = np.where(thr >= above, below, thr)  # midpoint rounded up
            sizes_lr = np.column_stack([pos + 1, n - pos - 1]).ravel()
            found.append((batch[ok], f, thr, sizes_lr, chosen[np.arange(m) < n[:, None]]))
        at, f, thr, sizes_lr, rows_lr = (np.concatenate(p) for p in zip(*found)) if found else [ids[:0]] * 5
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
        children = sum(o.size for o in owner) + np.arange(2 * at.size)
        splits.append((ids[at], f, thr, children[0::2], children[1::2]))
        owner.append(np.repeat(owner[-1][at], 2))
        ids, rows, sizes = children, rows_lr, sizes_lr
        depth += 1

    owner = np.concatenate(owner)
    feature, left, right = (np.full(owner.size + 1, _LEAF) for _ in range(3))
    threshold = np.zeros(owner.size)
    value = np.zeros((owner.size, n_classes if task == CLASSIFICATION else 1))
    for node, f, thr, lo_child, hi_child in splits:
        feature[node], threshold[node], left[node], right[node] = f, thr, lo_child, hi_child
    for node, leaf_value in leaves:
        value[node] = leaf_value
    trees = []
    for t in range(len(boots)):
        nodes = np.flatnonzero(owner == t)  # ascending, so the root comes first
        local = np.full(owner.size + 1, _LEAF)  # local[-1] maps _LEAF to itself
        local[nodes] = np.arange(nodes.size)
        trees.append(
            _Tree(feature[nodes], threshold[nodes], local[left[nodes]], local[right[nodes]], value[nodes])
        )
    return trees


def fit_ensemble(train: Dataset, config: EnsembleConfig = EnsembleConfig()) -> TreeEnsemble:
    """Fit bagged trees on a dataset; the task follows the label kind.

    Each tree trains on an n-with-replacement bootstrap resample drawn from
    its own stream seeded with (config.seed + tree index), so a given tree
    is reproducible regardless of fitting order.
    """
    if train.n_rows < 1:
        raise ValueError("training set is empty")
    task = CLASSIFICATION if train.is_classification else REGRESSION
    n_classes = train.class_count if train.is_classification else 0
    X = train.features
    y = train.labels.astype(np.float64) if task == REGRESSION else train.labels
    boots = [
        np.random.default_rng(config.seed + t).integers(0, train.n_rows, size=train.n_rows)
        for t in range(config.n_trees)
    ]
    trees = _grow_trees(X, y, boots, task, n_classes, config)
    return TreeEnsemble(
        trees=trees,
        task=task,
        n_features=train.n_features,
        n_classes=n_classes,
        rng_seed=config.seed,
        config=config,
    )


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
    stacked = np.stack([tree.apply(X) for tree in ensemble.trees])
    if ensemble.task == REGRESSION:
        per_member = stacked[:, :, 0]
    else:
        per_member = stacked
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
