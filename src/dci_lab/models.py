"""Built-in predictors and committee-disagreement uncertainty scores.

The workhorse model is a bagged ensemble of axis-aligned decision trees
(Gini impurity for classification, variance for regression) grown with an
exhaustive midpoint split search. A k-nearest-neighbour predictor is
provided as a cheap fallback. Four uncertainty measures operate on the
ensemble's per-member predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import DataError, Dataset
from .neighbors import nearest_neighbors

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

    # perfbench/tracer.py names this; it goes when the benchmark drops the name (ROADMAP item 2).
    @property
    def trees(self) -> tuple[TreeEnsemble, ...]:
        """One one-tree ensemble per member, cut from the table on each access."""
        return tuple(self.committees(self.n_trees))

    def committees(self, count: int) -> list[TreeEnsemble]:
        """The table cut into ``count`` committees of equally many
        consecutive trees, as :func:`fit_ensemble` grows them from row lists.
        Each keeps its nodes in table order, numbered from 0, so its roots
        come first."""
        size = self.n_trees // count
        owner = np.empty(self.feature.size, dtype=np.int64)
        nodes = np.arange(self.n_trees)
        owner[nodes] = nodes // size
        while nodes.size:
            nodes = nodes[self.feature[nodes] != _LEAF]
            owner[self.left[nodes]] = owner[self.right[nodes]] = owner[nodes]
            nodes = np.concatenate([self.left[nodes], self.right[nodes]])
        counts = np.bincount(owner)
        order = np.argsort(owner, kind="stable")
        local = np.full(owner.size + 1, _LEAF)  # local[-1] maps _LEAF to itself
        local[order] = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return [
            TreeEnsemble(
                self.feature[nodes], self.threshold[nodes], local[self.left[nodes]], local[self.right[nodes]],
                self.value[nodes], task=self.task, n_features=self.n_features, n_trees=size,
                n_classes=self.n_classes,
            )
            for nodes in np.split(order, np.cumsum(counts)[:-1])
        ]


# Sort-path split searches run on batches of nodes of similar size, padded
# to the widest; a batch holds at most this many (node, sort-path column,
# row) cells unless one node alone needs more. Two-valued columns take the
# count path and add no cells.
_BATCH_CELLS = 1 << 14


def _split_scores(sums, n_left: np.ndarray, n: np.ndarray, count: int) -> np.ndarray:
    """Summed child impurity, up to terms constant per node, of splits that
    put n_left of a node's n rows (both float64) on the left: minus the sum,
    over ``count`` quantities, of left²/n_left + right²/n_right.

    ``sums(q)`` returns quantity q's (left, node) sums in float64. Class
    counts give summed child Gini; the last class gets what the others
    leave. One quantity, labels less the node's first, gives summed child
    squared error (shifted data: Chan, Golub & LeVeque 1983). Counts are
    exact in float64, so equal counts score to equal bits.
    """
    inv_nl, inv_nr = 1.0 / n_left, 1.0 / (n - n_left)
    seen_at, seen_end = n_left, n
    score = np.zeros(n_left.size)
    for q in range(count):
        if 0 < q == count - 1:
            cum_at, cum_end = seen_at, seen_end
        else:
            cum_at, cum_end = sums(q)
            seen_at, seen_end = seen_at - cum_at, seen_end - cum_end
        score -= cum_at**2 * inv_nl + (cum_end - cum_at) ** 2 * inv_nr
    return score


def _first_minima(low: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feature, position, score) of each node's first minimum over a (d, K)
    table of per-(feature, node) best scores found at positions ``pos``;
    position -1 where every score is inf."""
    feature = low.argmin(axis=0)
    node = np.arange(low.shape[1])
    low, pos = low[feature, node], pos[feature, node]
    pos[~np.isfinite(low)] = -1
    return feature, pos, low


def _best_splits(
    ranks: np.ndarray, y: np.ndarray, rows: np.ndarray, n: np.ndarray, task: str, n_classes: int, min_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(feature, position, score, sorted rows) of each node's best split.

    ``rows`` is (K, m): node k's training rows in node order, padded past
    n[k]; ``ranks`` is (d, n_rows), equal values sharing a rank. Per feature
    and node this sorts the rows stably, by (value, position in the node),
    into the (d, K, m) sorted rows, and scores only the midpoints between
    unequal values that leave min_leaf rows on each side, from class counts
    or from labels ``y`` less the node's first; pads sort last and are never
    scored. Each scored cell sees the same operations in the same order as
    a search on its node alone, so batching changes no bit. Ties resolve to
    the lowest (feature index, threshold), as a front-to-back argmin over
    each node's feature-major scores would. Position -1, with score inf,
    marks no valid split.
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

    def sums(q):
        v = ys == q if task == CLASSIFICATION else ys - y[rows[:, 0], None]
        cum = np.cumsum(v, axis=-1, dtype=np.float64).ravel()
        return cum[at], cum[end]

    score = _split_scores(sums, j + 1.0, n_line + 0.0, max(n_classes, 1))
    grid = np.full((d, K, m - 1), np.inf)
    grid.ravel()[cell] = score
    # The first minimum of each line, then the first feature holding the
    # node's minimum: the first minimum in feature-major order.
    pos = grid.argmin(axis=2)
    low = grid.reshape(d * K, m - 1)[np.arange(d * K), pos.ravel()].reshape(d, K)
    return (*_first_minima(low, pos), sorted_rows)


def _count_splits(
    low: np.ndarray, y_rows: np.ndarray, rows: np.ndarray, starts: np.ndarray, n: np.ndarray,
    counts: np.ndarray, n_classes: int, min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feature, position, score) of each node's best split on two-valued
    columns, counted instead of sorted.

    ``low`` is (d, n_rows), true where a row holds its column's lower value.
    ``rows`` holds K nodes' rows back to back from ``starts``, n[k] >= 1
    each (``reduceat`` needs rising starts), with labels ``y_rows``;
    ``counts`` holds the nodes' (K, n_classes) class counts. A two-valued
    column has one boundary, after a node's lower-value rows; it is scored
    from the same counts by the same expression as in :func:`_best_splits`,
    so score, position and ties equal a sort's.
    """
    block = low[:, rows]  # (d, N)
    n_left = np.add.reduceat(block, starts, axis=1, dtype=np.int64)  # (d, K)
    cell = np.flatnonzero((n_left >= min_leaf) & (n - n_left >= min_leaf))
    node = cell % n.size

    def class_counts(c):
        left = np.add.reduceat(block & (y_rows == c), starts, axis=1, dtype=np.int64)
        return left.ravel()[cell] + 0.0, counts[node, c] + 0.0

    grid = np.full(n_left.shape, np.inf)
    grid.ravel()[cell] = _split_scores(class_counts, n_left.ravel()[cell] + 0.0, n[node] + 0.0, n_classes)
    return _first_minima(grid, n_left - 1)


def _grow_trees(
    X: np.ndarray, y: np.ndarray, boots: list[np.ndarray], task: str, n_classes: int, model: ModelConfig
) -> tuple[np.ndarray, ...]:
    """One tree per bootstrap row list, grown one depth at a time.

    The nodes of a depth, across all trees, share their split searches, and
    each node's split is what a search on that node alone would give. In
    classification, columns with at most two values over the training rows
    (one-hot indicators, constants) are scored from per-node counts, for all
    nodes of a depth at once; every other column is sorted, in batches. A
    child keeps its rows in its parent's order along the split feature.
    Returns the node table (feature, threshold, left, right, value) of
    :class:`TreeEnsemble`: node t is the root of tree t, and each depth's
    children are numbered after every node above them.
    """
    ranks = np.stack([np.unique(col, return_inverse=True)[1] for col in X.T])
    two = np.flatnonzero(ranks.max(axis=1) <= 1) if task == CLASSIFICATION else np.arange(0)
    sort_cols = np.setdiff1d(np.arange(X.shape[1]), two)
    low, sort_ranks = ranks[two] == 0, ranks[sort_cols]
    # Regression scores labels scaled by the power of two that brings them
    # below 1 in magnitude: exact, so no comparison moves, and none overflows.
    y_split = y if task == CLASSIFICATION else np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    ids = np.arange(len(boots))  # the frontier: node ids, rows and row counts
    rows = np.concatenate(boots)
    sizes = np.array([b.size for b in boots])
    n_nodes, splits, leaves = ids.size, [], []
    depth = 0
    while ids.size:
        starts = np.cumsum(sizes) - sizes
        y_rows = y[rows]
        lo, hi = np.minimum.reduceat(y_rows, starts), np.maximum.reduceat(y_rows, starts)
        grow = (hi != lo) & (sizes >= max(2, 2 * model.min_leaf))
        if model.max_depth is not None and depth >= model.max_depth:
            grow[:] = False
        if task == CLASSIFICATION:
            cells = np.repeat(np.arange(ids.size) * n_classes, sizes) + y_rows
            counts = np.bincount(cells, minlength=ids.size * n_classes).reshape(-1, n_classes)
        # The growing nodes, largest first, with their rows back to back in
        # rows_g from off; each split node's rows go to the same place in
        # rows_lr, in the stable order of the column it splits on.
        todo = np.flatnonzero(grow)
        todo = todo[np.argsort(-sizes[todo], kind="stable")]
        n = sizes[todo]
        off = np.cumsum(n) - n
        rows_g = rows[np.repeat(starts[todo] - off, n) + np.arange(n.sum())]
        rows_lr = np.empty_like(rows_g)
        f, pos, score = np.zeros(todo.size, dtype=np.int64), np.full(todo.size, -1), np.full(todo.size, np.inf)
        if two.size and todo.size:
            f, pos, score = _count_splits(low, y[rows_g], rows_g, off, n, counts[todo], n_classes, model.min_leaf)
            f = two[f]
        by_count = pos >= 0
        b0 = 0
        while sort_cols.size and b0 < todo.size:
            # Largest nodes first, batched while they fill half the width.
            m = int(n[b0])
            b1 = min(todo.size, b0 + max(1, _BATCH_CELLS // (m * sort_cols.size)))
            b1 = b0 + np.count_nonzero(2 * n[b0:b1] >= m)
            at = np.minimum(np.arange(m), n[b0:b1, None] - 1) + off[b0:b1, None]
            fs, ps, ss, sorted_rows = _best_splits(sort_ranks, y_split, rows_g[at], n[b0:b1], task, n_classes, model.min_leaf)
            # The first minimum in feature-major order over both paths.
            win = np.flatnonzero((ss < score[b0:b1]) | ((ss == score[b0:b1]) & (sort_cols[fs] < f[b0:b1])))
            k = b0 + win
            f[k], pos[k], score[k], by_count[k] = sort_cols[fs[win]], ps[win], ss[win], False
            real = np.arange(m) < n[k, None]
            rows_lr[at[win][real]] = sorted_rows[fs[win], win][real]
            b0 = b1
        # A two-valued column's stable order puts a node's lower-value rows first.
        mine = np.repeat(by_count, n)
        nc, rows_c = n[by_count], rows_g[mine]
        side = ranks[np.repeat(f[by_count], nc), rows_c]
        rows_lr[mine] = rows_c[np.argsort(2 * np.repeat(np.arange(nc.size), nc) + side, kind="stable")]
        ok = pos >= 0
        at, f, pos, rows_lr = todo[ok], f[ok], pos[ok], rows_lr[np.repeat(ok, n)]
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


def fit_ensemble(
    train: Dataset, model: ModelConfig = ModelConfig(), seed: int = 0, rows: Sequence[np.ndarray] | None = None
) -> TreeEnsemble:
    """Fit the model's bagged trees on a dataset; the task follows the label kind.

    Each tree trains on an n-with-replacement bootstrap resample drawn from
    its own stream seeded with (seed + tree index), so a given tree is
    reproducible regardless of fitting order. ``rows``, row index arrays
    into ``train``, grows one committee per array in one call, each equal
    to a fit on ``train.select_rows(array)``; the result holds their trees
    in order, and :meth:`TreeEnsemble.committees` cuts it apart.
    """
    subsets = [np.arange(train.n_rows)] if rows is None else [np.asarray(r, dtype=np.intp) for r in rows]
    if min((s.size for s in subsets), default=0) < 1:
        raise ValueError("training set is empty")
    task = CLASSIFICATION if train.is_classification else REGRESSION
    n_classes = train.class_count if train.is_classification else 0
    # The committees grow on the rows any of them uses; ranks over those
    # rows keep every sort order, and a column two-valued on all of them
    # still takes the count path.
    used, inverse = np.unique(np.concatenate(subsets), return_inverse=True)
    X, y = train.features[used], train.labels[used]
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("tree training rows hold a non-finite feature or label")
    boots = [
        local[np.random.default_rng(seed + t).integers(0, local.size, size=local.size)]
        for local in np.split(inverse, np.cumsum([s.size for s in subsets])[:-1])
        for t in range(model.n_trees)
    ]
    return TreeEnsemble(
        *_grow_trees(X, y, boots, task, n_classes, model),
        task=task,
        n_features=train.n_features,
        n_trees=len(boots),
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


def predict(ensemble: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """Per-member predictions for a batch of rows: (members, n, classes) in
    classification, (members, n) in regression."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise ValueError(
            f"expected {ensemble.n_features} feature columns, got shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise DataError("prediction rows hold a non-finite feature")
    per_member = ensemble.value[_descend(ensemble, X)]
    return per_member[..., 0] if ensemble.task == REGRESSION else per_member


def ensemble_binary_uncertainty(per_member: np.ndarray) -> np.ndarray:
    """Negative mean member distance from probability 0.5; maximum is 0.

    Defined for binary classification only; the value is 0 exactly when
    every member outputs 0.5 and falls to -0.5 for unanimous hard votes.
    """
    if per_member.ndim != 3:
        raise ValueError("ensemble_binary_uncertainty requires (members, n, classes) probabilities")
    if per_member.shape[-1] != 2:
        raise ValueError("binary uncertainty requires exactly 2 classes")
    return -np.abs(0.5 - per_member[..., 1]).mean(axis=0) + 0.0


def regression_std_uncertainty(per_member: np.ndarray) -> np.ndarray:
    """Population standard deviation of member predictions.

    Members are shifted by the first member before the two-pass variance so
    unanimous ensembles give exactly 0.
    """
    if per_member.ndim != 2:
        raise ValueError("regression_std_uncertainty requires (members, n) predictions")
    d = per_member - per_member[0]
    m = d.mean(axis=0)
    return np.sqrt(((d - m) ** 2).mean(axis=0))


def max_prob_uncertainty(per_member: np.ndarray) -> np.ndarray:
    """One minus the member-mean probability of the predicted class."""
    if per_member.ndim != 3:
        raise ValueError("max_prob_uncertainty requires (members, n, classes) probabilities")
    return 1.0 - per_member.mean(axis=0).max(axis=-1)


def mean_std_uncertainty(per_member: np.ndarray) -> np.ndarray:
    """Mean over classes of the population std of member probabilities."""
    if per_member.ndim != 3:
        raise ValueError("mean_std_uncertainty requires (members, n, classes) probabilities")
    if per_member.shape[0] < 2:
        raise ValueError("mean_std_uncertainty requires at least 2 members")
    d = per_member - per_member[0]
    m = d.mean(axis=0)
    return np.sqrt(((d - m) ** 2).mean(axis=0)).mean(axis=-1)


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


# perfbench/tracer.py names this; it goes when the benchmark drops the name (ROADMAP item 2).
def knn_predict(pool: Dataset, queries: np.ndarray, k: int) -> np.ndarray:
    """:func:`knn_from_labels` of a batch of queries' k nearest pool rows."""
    return knn_from_labels(pool, pool.labels[nearest_neighbors(queries, pool.features, k)[0]])
