"""Pool-based active-learning simulation.

One experiment: draw a held-out test set and an initial labelled set, train
a model, then repeatedly (a) draw a small random candidate batch from the
unlabelled pool, (b) move the strategy's pick into the labelled set, and
(c) at update boundaries retrain and record the test metric. Model-based
strategies score candidates with the model from the most recent boundary
(it is stale within an update); impurity-based strategies rescore against
the live labelled set, which needs no training at all.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from .dataset import Dataset, pca_fit, pca_project, write_csv
from .dci import DciParams, pool_scores
from .metrics import accuracy, auroc, rmse
from .neighbors import _sq_norms, extend_neighbors
from .models import (
    UNCERTAINTY,
    ModelConfig,
    TreeEnsemble,
    fit_ensemble,
    knn_from_labels,
    predict,
)

RANDOM = "random"
DCI_HIGH = "dci-high"
DCI_LOW = "dci-low"
MODEL_UNCERTAINTY = "model-uncertainty"

METRICS = ("auroc", "accuracy", "rmse")

# Sub-stream ids separating the RNG consumers of a simulation and of the
# CLI's analyze command.
_STREAM_SPLIT = 0
_STREAM_SELECT = 1
_STREAM_MODEL = 2
_STREAM_ANALYZE_SPLIT = 3
_STREAM_ANALYZE_MODEL = 4

# Pool rows per block when carrying neighbour lists across a boundary.
_ROW_BLOCK = 256


def parse_strategy(label: str) -> tuple[str, str | None, int]:
    """The (tag, uncertainty kind, PCA components) of a strategy label.

    A label is ``random``, ``dci-high`` or ``dci-low``, an impurity label
    with a ``-pcaN`` suffix, N >= 1, or ``uncertainty-<kind>`` with a kind
    of :data:`UNCERTAINTY`. The impurity tags score with the experiment's
    ``dci`` parameters, in a PCA feature space refit at each model update
    when N is given.
    """
    if label in (RANDOM, DCI_HIGH, DCI_LOW):
        return label, None, 0
    tag, _, n_pca = label.rpartition("-pca")
    if tag in (DCI_HIGH, DCI_LOW) and re.fullmatch("[1-9][0-9]*", n_pca):
        return tag, None, int(n_pca)
    tag, _, kind = label.partition("-")
    if tag == "uncertainty" and kind in UNCERTAINTY:
        return MODEL_UNCERTAINTY, kind, 0
    raise ValueError(
        f"unknown strategy {label!r} (expected random, dci-high[-pcaN], dci-low[-pcaN] "
        f"or uncertainty-<kind>, kind one of {', '.join(UNCERTAINTY)})"
    )


def check_uncertainty(kind: str, ds: Dataset, model: ModelConfig) -> None:
    """Raise ValueError unless uncertainty ``kind`` fits the label and the model."""
    if kind not in UNCERTAINTY:
        raise ValueError(f"unknown uncertainty kind {kind!r}")
    if kind == "eq3_binary" and (not ds.is_classification or ds.class_count != 2):
        raise ValueError("eq3_binary requires a binary class label")
    if kind == "regression_std" and ds.is_classification:
        raise ValueError("regression_std requires a numeric label")
    if kind in ("max_prob", "mean_std") and not ds.is_classification:
        raise ValueError(f"{kind} requires a class label")
    if kind in ("eq3_binary", "regression_std", "mean_std") and model.kind != "ensemble":
        raise ValueError(f"{kind} requires the ensemble model")
    if kind == "mean_std" and model.n_trees < 2:
        raise ValueError("mean_std requires at least 2 ensemble members")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment: every strategy runs the same schedule on each seed.

    ``strategies`` holds labels as :func:`parse_strategy` reads them, given
    as any sequence and kept as a tuple; they name the curves, so no two
    may be equal. The impurity strategies all score with ``dci``.
    """

    dataset: Dataset
    strategies: tuple[str, ...]
    model: ModelConfig = field(default_factory=ModelConfig)
    dci: DciParams = field(default_factory=DciParams)
    metric: str
    initial_train_size: int
    additions_per_update: int = 1
    n_updates: int = 0
    n_seeds: int = 1
    candidate_batch_size: int = 5
    test_size: int

    def __post_init__(self) -> None:
        ds = self.dataset
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.strategies:
            raise ValueError("strategies must name at least one strategy")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("strategies contains duplicates")
        kinds = [parse_strategy(label)[1] for label in self.strategies]
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if min(self.initial_train_size, self.candidate_batch_size, self.test_size) < 1:
            raise ValueError("sizes must be positive")
        if self.additions_per_update < 1 and self.n_updates > 0:
            raise ValueError("additions_per_update must be positive when updating")
        if self.n_updates < 0 or self.n_seeds < 1:
            raise ValueError("counts must be non-negative")
        need = self.test_size + self.initial_train_size + self.n_updates * self.additions_per_update
        if need > ds.n_rows:
            raise ValueError(
                f"schedule needs {need} rows but the dataset has {ds.n_rows}"
            )
        if self.metric == "rmse":
            if ds.is_classification:
                raise ValueError("rmse requires a numeric label")
        elif not ds.is_classification:
            raise ValueError(f"{self.metric} requires a class label")
        if self.metric == "auroc" and ds.class_count != 2:
            raise ValueError("auroc requires a binary label")
        for kind in kinds:
            if kind is not None:
                check_uncertainty(kind, ds, self.model)


@dataclass(frozen=True)
class LearningCurve:
    """Test-metric values at each labelled-set size of one seeded run."""

    points: tuple[tuple[int, float], ...]
    seed: int
    strategy: str
    metric: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple((int(s), float(v)) for s, v in self.points))
        sizes = [s for s, _ in self.points]
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("train sizes must be non-empty and strictly increasing")

    @property
    def train_sizes(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


class SummaryRow(NamedTuple):
    """One strategy's metric statistics at one train size, across seeds."""

    strategy: str
    train_size: int
    mean: float
    median: float
    q25: float
    q75: float


def select_next(
    unlabelled: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
    score: Callable[[np.ndarray], np.ndarray] | None = None,
) -> int:
    """Pick one unlabelled pool index.

    Draws min(batch_size, remaining) distinct candidates uniformly. Without
    ``score`` the first draw is taken; otherwise ``score`` maps the sorted
    candidates to one score each, and the highest wins, ties going to the
    lowest pool index.
    """
    unlabelled = np.asarray(unlabelled)
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if unlabelled.size == 0:
        raise ValueError("the unlabelled pool is empty")
    m = min(batch_size, unlabelled.size)
    candidates = rng.choice(unlabelled, size=m, replace=False)
    if score is None:
        return int(candidates[0])
    candidates = np.sort(candidates)
    return int(candidates[np.argmax(score(candidates))])


def stream_seed(seed: int, stream: int, index: int) -> int:
    """The integer seed of draw ``index`` of sub-stream ``stream`` under ``seed``."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def seed_split(config: ExperimentConfig, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One seed's test rows, initial labelled rows and the rest of the pool,
    cut in that order from one seeded permutation of the pool rows."""
    perm = np.random.default_rng([seed, _STREAM_SPLIT]).permutation(config.dataset.n_rows)
    n_held = config.test_size + config.initial_train_size
    return perm[: config.test_size], perm[config.test_size : n_held], perm[n_held:]


def _predict(
    config: ExperimentConfig,
    ensemble: TreeEnsemble | None,
    labelled: np.ndarray,
    rows: np.ndarray,
    neighbors: np.ndarray | None,
) -> np.ndarray:
    """Per-member predictions, as :func:`predict` returns them, for the pool
    rows ``rows`` of the model fitted at an update boundary on the pool rows
    ``labelled``: the committee ``ensemble``, or for the kNN model
    (``ensemble`` None) the votes of ``neighbors``, the rows' neighbour lists
    into the labelled rows, as one member; this gathers no features."""
    ds = config.dataset
    if ensemble is not None:
        return predict(ensemble, ds.features[rows])
    return knn_from_labels(ds, ds.labels[labelled[neighbors]])[None]


_Lists = tuple[np.ndarray, np.ndarray]


def _no_lists(n_rows: int) -> _Lists:
    """Empty neighbour lists of ``n_rows`` rows, for the first boundary."""
    return np.empty((n_rows, 0), dtype=np.int64), np.empty((n_rows, 0))


def _extend_lists(
    config: ExperimentConfig,
    update: int,
    rows: np.ndarray,
    rows_sq: np.ndarray,
    lab_X: np.ndarray,
    lab_sq: np.ndarray,
    lists: _Lists,
) -> _Lists:
    """The kNN model's neighbour lists of the pool rows ``rows`` into
    ``lab_X``, as :func:`extend_neighbors` returns them: ``lists`` are the
    lists of the boundary before, extended with the rows labelled since,
    which leaves their indices equal to a fresh search's. ``rows_sq`` and
    ``lab_sq`` are the rows' squared norms. The rows are gathered one block
    at a time, so no copy of all of them is held."""
    n_seen = lab_X.shape[0] - config.additions_per_update if update else 0
    k = config.model.knn_k
    idx = np.empty((rows.size, min(k, lab_X.shape[0])), dtype=np.int64)
    sq = np.empty(idx.shape)
    for s in range(0, rows.size, _ROW_BLOCK):
        b = slice(s, s + _ROW_BLOCK)
        idx[b], sq[b] = extend_neighbors(
            config.dataset.features[rows[b]], lab_X, n_seen, lists[0][b], lists[1][b], k,
            q_sq=rows_sq[b], ref_sq=lab_sq,
        )
    return idx, sq


class _TestRows(NamedTuple):
    """One seed's held-out pool rows, their labels and squared norms."""

    rows: np.ndarray
    y: np.ndarray
    sq: np.ndarray


def _committees(
    config: ExperimentConfig, seed: int, update: int, labelled: list[np.ndarray]
) -> list[TreeEnsemble | None]:
    """The committees of one update boundary, one per labelled row set, grown
    in one call; None each for the kNN model, which fits nothing."""
    if config.model.kind != "ensemble":
        return [None] * len(labelled)
    fitted = fit_ensemble(config.dataset, config.model, stream_seed(seed, _STREAM_MODEL, update), rows=labelled)
    return fitted.committees(len(labelled))


def _boundary(
    config: ExperimentConfig,
    update: int,
    ensemble: TreeEnsemble | None,
    lab_X: np.ndarray,
    lab_sq: np.ndarray,
    labelled: np.ndarray,
    test: _TestRows,
    test_nbrs: _Lists,
) -> tuple[float, _Lists]:
    """Score the model of one update boundary, fitted on the labelled rows.

    Returns its test metric and the kNN model's test-row lists,
    ``test_nbrs`` extended by :func:`_extend_lists`.
    """
    neighbors = None
    if config.model.kind == "knn":
        test_nbrs = _extend_lists(config, update, test.rows, test.sq, lab_X, lab_sq, test_nbrs)
        neighbors = test_nbrs[0]
    mean = _predict(config, ensemble, labelled, test.rows, neighbors).mean(axis=0)
    if config.metric == "rmse":
        value = rmse(mean, test.y)
    elif config.metric == "auroc":
        value = auroc(mean[:, 1], test.y)
    else:
        value = accuracy(mean.argmax(axis=1), test.y)
    return value, test_nbrs


class _SeedStart(NamedTuple):
    """One seed's split and first update boundary, shared by every strategy:
    the squared norms of every pool row, the test rows, the initial labelled
    rows, the sorted unlabelled pool, and the first boundary's committee
    (None for the kNN model), metric value and test-row lists."""

    pool_sq: np.ndarray
    test: _TestRows
    labelled: np.ndarray
    unlabelled: np.ndarray
    ensemble: TreeEnsemble | None
    value: float
    test_nbrs: _Lists


def _seed_start(config: ExperimentConfig, seed: int) -> _SeedStart:
    ds = config.dataset
    test_idx, labelled, rest = seed_split(config, seed)
    pool_sq = _sq_norms(ds.features)
    test = _TestRows(test_idx, ds.labels[test_idx], pool_sq[test_idx])
    (ensemble,) = _committees(config, seed, 0, [labelled])
    first = _boundary(
        config, 0, ensemble, ds.features[labelled], pool_sq[labelled], labelled, test,
        _no_lists(config.test_size),
    )
    return _SeedStart(pool_sq, test, labelled, np.sort(rest), ensemble, *first)


def run_experiment(config: ExperimentConfig, seed: int) -> list[LearningCurve]:
    """One seeded simulation per strategy, each producing n_updates + 1
    curve points. The seed's split and first boundary are computed once;
    then the strategies move through the boundaries in lockstep, and each
    boundary grows all their committees in one call."""
    start = _seed_start(config, seed)
    runs = [_curve(config, label, seed, start) for label in config.strategies]
    out = [next(run) for run in runs]
    for update in range(1, config.n_updates + 1):
        fitted = _committees(config, seed, update, out)
        out = [run.send(ensemble) for run, ensemble in zip(runs, fitted)]
    return out


def _curve(
    config: ExperimentConfig, label: str, seed: int, start: _SeedStart
) -> Generator[np.ndarray | LearningCurve, TreeEnsemble | None, None]:
    """The run of strategy ``label`` from the seed's split and first
    boundary. After each update's picks it yields the labelled pool rows and
    is sent the committee fitted on them (None for the kNN model); last, it
    yields the curve."""
    ds = config.dataset
    tag, kind, n_pca = parse_strategy(label)
    rng_select = np.random.default_rng([seed, _STREAM_SELECT])
    # The labelled set lives in preallocated buffers that picks append to in
    # place; selection reads views of their first n_lab rows.
    n_lab = config.initial_train_size
    n_final = n_lab + config.n_updates * config.additions_per_update
    labelled = np.empty(n_final, dtype=np.intp)
    labelled[:n_lab] = start.labelled
    lab_X = np.empty((n_final, ds.n_features))
    lab_X[:n_lab] = ds.features[start.labelled]
    unlabelled = start.unlabelled

    # Impurity scoring always needs class ids; for a numeric label the
    # distinct values over the whole dataset act as the classes.
    codes, n_classes = ds.class_codes
    use_pca = n_pca > 0
    pool_sq = start.pool_sq
    ensemble, value, test_nbrs = start.ensemble, start.value, start.test_nbrs
    # A model-uncertainty strategy scores the whole unlabelled pool once per
    # update and looks each pick's candidates up in the scores, which are
    # aligned with ``unl_rows``, the unlabelled pool at the last boundary.
    # The kNN model predicts from the pool's lists into lab_X, carried like
    # the test rows' lists.
    unl_rows = unlabelled
    unl_nbrs = _no_lists(unl_rows.size)

    def model_score(cands: np.ndarray) -> np.ndarray:
        return unl_scores[np.searchsorted(unl_rows, cands)]

    def impurity_score(cands: np.ndarray) -> np.ndarray:
        lab = labelled[:n_lab]
        q_sq = ref_sq = None
        if use_pca:
            ref, query = proj[:n_lab], pca_project(pca, ds.features[cands])
        else:
            ref, query = lab_X[:n_lab], ds.features[cands]
            q_sq, ref_sq = pool_sq[cands], pool_sq[lab]
        (scores,) = pool_scores(ref, codes[lab], n_classes, query, [config.dci], q_sq=q_sq, ref_sq=ref_sq)
        # dci-low takes the lowest score: argmax(-s) is argmin(s), ties included.
        return -scores if tag == DCI_LOW else scores

    score = {RANDOM: None, MODEL_UNCERTAINTY: model_score}.get(tag, impurity_score)

    points: list[tuple[int, float]] = []
    for update in range(config.n_updates + 1):
        lab_sq = pool_sq[labelled[:n_lab]]
        if update:
            ensemble = yield labelled[:n_lab]
            value, test_nbrs = _boundary(
                config, update, ensemble, lab_X[:n_lab], lab_sq, labelled[:n_lab], start.test, test_nbrs
            )
        points.append((n_lab, value))
        if update == config.n_updates:
            break
        if kind is not None:
            neighbors = None
            if config.model.kind == "knn":
                keep = np.searchsorted(unl_rows, unlabelled)
                unl_nbrs = _extend_lists(
                    config, update, unlabelled, pool_sq[unlabelled], lab_X[:n_lab], lab_sq,
                    (unl_nbrs[0][keep], unl_nbrs[1][keep]),
                )
                neighbors = unl_nbrs[0]
            unl_rows = unlabelled
            unl_scores = UNCERTAINTY[kind](
                _predict(config, ensemble, labelled[:n_lab], unl_rows, neighbors)
            )
        if use_pca:
            n_comp = min(n_pca, n_lab, ds.n_features)
            pca = pca_fit(lab_X[:n_lab], n_comp)
            proj = np.empty((n_final, n_comp))
            proj[:n_lab] = pca_project(pca, lab_X[:n_lab])
        for _ in range(config.additions_per_update):
            pick = select_next(unlabelled, config.candidate_batch_size, rng_select, score)
            labelled[n_lab] = pick
            lab_X[n_lab] = ds.features[pick]
            if use_pca:
                proj[n_lab] = pca_project(pca, lab_X[n_lab : n_lab + 1])[0]
            n_lab += 1
            unlabelled = np.delete(unlabelled, np.searchsorted(unlabelled, pick))

    yield LearningCurve(points=tuple(points), seed=seed, strategy=label, metric=config.metric)


def run_many(config: ExperimentConfig, base_seed: int = 0, threads: int = 1) -> list[LearningCurve]:
    """n_seeds runs of the experiment, with seeds base_seed, base_seed+1,
    ...; the curves come strategy by strategy, seed by seed."""
    seeds = range(base_seed, base_seed + config.n_seeds)
    if threads > 1 and len(seeds) > 1:
        # Never more workers than seeds: with the fork start method the pool
        # forks every worker up front, whether or not it gets a task.
        with ProcessPoolExecutor(max_workers=min(threads, len(seeds))) as pool:
            per_seed = list(pool.map(partial(run_experiment, config), seeds))
    else:
        per_seed = [run_experiment(config, seed) for seed in seeds]
    return [curves[j] for j in range(len(config.strategies)) for curves in per_seed]


def aggregate(curves: Sequence[LearningCurve]) -> list[SummaryRow]:
    """Mean, median and quartiles of the metric at each train size.

    Curves are grouped by strategy label; all curves must share one train
    size schedule. Quartiles interpolate linearly between order statistics.
    """
    if not curves:
        raise ValueError("no curves to aggregate")
    schedule = curves[0].train_sizes
    for c in curves:
        if c.train_sizes != schedule:
            raise ValueError("curves have mismatched train-size schedules")
    labels = dict.fromkeys(c.strategy for c in curves)
    rows: list[SummaryRow] = []
    for label in labels:
        values = np.array([c.values for c in curves if c.strategy == label])
        q25, med, q75 = np.quantile(values, [0.25, 0.5, 0.75], axis=0)
        mean = values.mean(axis=0)
        for j, size in enumerate(schedule):
            stats = (float(mean[j]), float(med[j]), float(q25[j]), float(q75[j]))
            rows.append(SummaryRow(label, int(size), *stats))
    return rows


def write_curves_csv(path: str | Path, curves: Sequence[LearningCurve]) -> None:
    write_csv(
        path,
        ["strategy", "seed", "train_size", "metric", "value"],
        ((c.strategy, c.seed, size, c.metric, value) for c in curves for size, value in c.points),
    )


def write_summary_csv(path: str | Path, rows: Sequence[SummaryRow]) -> None:
    write_csv(path, SummaryRow._fields, rows)
