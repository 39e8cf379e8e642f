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


def _best_split(
    Xn: np.ndarray, yn: np.ndarray, task: str, n_classes: int, min_leaf: int
) -> tuple[int, int, np.ndarray] | None:
    """(feature, split position, sort order) minimizing child impurity.

    Scores every midpoint of every feature at once; ties resolve to the
    lowest (feature index, threshold) because argmin scans the
    feature-major layout front to back.
    """
    n, d = Xn.shape
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = Xn[order, np.arange(d)]
    ys = yn[order]
    movable = xs[:-1] < xs[1:]
    inv_nl, inv_nr = _inv_counts(n)
    if task == CLASSIFICATION:
        # Minimizing summed child Gini equals maximizing sum of squared
        # class counts over child size; the constant parent terms drop out.
        sq = np.zeros((n - 1, d))
        for c in range(n_classes):
            cum = np.cumsum(ys == c, axis=0)
            sq += cum[:-1] ** 2 * inv_nl + (cum[-1] - cum[:-1]) ** 2 * inv_nr
        score = -sq
    else:
        cs = np.cumsum(ys, axis=0)
        css = np.cumsum(ys * ys, axis=0)
        # Cancellation can push a sum-of-squared-errors term slightly
        # negative; harmless for an argmin over relative scores.
        score = (css[:-1] - cs[:-1] ** 2 * inv_nl) + (
            (css[-1] - css[:-1]) - (cs[-1] - cs[:-1]) ** 2 * inv_nr
        )
    score[~movable] = np.inf
    if min_leaf > 1:
        score[: min_leaf - 1] = np.inf
        score[n - min_leaf :] = np.inf
    flat = np.argmin(score.T.ravel())
    f, pos = divmod(int(flat), n - 1)
    if not np.isfinite(score[pos, f]):
        return None
    return f, pos, order[:, f]


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    n_classes: int,
    config: EnsembleConfig,
) -> _Tree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_values: dict[int, np.ndarray] = {}

    def new_node() -> int:
        node = len(feature)
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        return node

    # Explicit stack: recursion depth can reach the sample count for
    # min_leaf=1 trees on adversarial orderings.
    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        n = idx.size
        y_node = y[idx]
        found = None
        if (
            (config.max_depth is None or depth < config.max_depth)
            and n >= max(2, 2 * config.min_leaf)
            and (
                not (y_node == y_node[0]).all()
                if task == CLASSIFICATION
                else np.ptp(y_node) != 0.0
            )
        ):
            found = _best_split(X[idx], y_node, task, n_classes, config.min_leaf)
        if found is None:
            if task == CLASSIFICATION:
                counts = np.bincount(y_node.astype(np.int64), minlength=n_classes)
                leaf_values[node] = counts / n
            else:
                leaf_values[node] = np.array([y_node.mean()])
            continue
        best_feature, best_pos, best_order = found
        col_sorted = X[idx, best_feature][best_order]
        thr = 0.5 * (col_sorted[best_pos] + col_sorted[best_pos + 1])
        if thr >= col_sorted[best_pos + 1]:  # midpoint rounded up
            thr = col_sorted[best_pos]
        left_idx = idx[best_order[: best_pos + 1]]
        right_idx = idx[best_order[best_pos + 1 :]]
        feature[node] = best_feature
        threshold[node] = float(thr)
        left[node] = new_node()
        right[node] = new_node()
        stack.append((left[node], left_idx, depth + 1))
        stack.append((right[node], right_idx, depth + 1))

    value = np.zeros((len(feature), n_classes if task == CLASSIFICATION else 1))
    for node, row in leaf_values.items():
        value[node] = row
    return _Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=value,
    )


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
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng(config.seed + t)
        boot = rng.integers(0, train.n_rows, size=train.n_rows)
        trees.append(_grow_tree(X[boot], y[boot], task, n_classes, config))
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


def knn_predict(
    pool: Dataset, query: np.ndarray, k: int
) -> np.ndarray | float:
    """Vote fractions (classification) or neighbour mean (regression).

    ``query`` may be one vector or a batch; k is clamped to the pool size.
    """
    query = np.asarray(query, dtype=np.float64)
    single = query.ndim == 1
    nbrs = knn(pool, query[None, :] if single else query, k)
    if pool.is_classification:
        counts = (nbrs.labels[:, :, None] == np.arange(pool.class_count)).sum(axis=1)
        probs = counts / nbrs.k
        return probs[0] if single else probs
    means = nbrs.labels.mean(axis=1)
    return float(means[0]) if single else means
