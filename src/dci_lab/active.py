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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset, PcaModel, pca_fit, pca_project
from .dci import DciParams, dci_scores
from .metrics import accuracy, auroc, rmse
from .neighbors import nearest_neighbors
from .models import (
    CLASSIFICATION,
    UNCERTAINTY,
    EnsembleConfig,
    EnsemblePrediction,
    fit_ensemble,
    knn_predict,
    predict,
)

RANDOM = "random"
DCI_HIGH = "dci-high"
DCI_LOW = "dci-low"
MODEL_UNCERTAINTY = "model-uncertainty"
STRATEGY_TAGS = (RANDOM, DCI_HIGH, DCI_LOW, MODEL_UNCERTAINTY)

METRICS = ("auroc", "accuracy", "rmse")

# Sub-stream constants separating the experiment's RNG consumers.
_STREAM_SPLIT = 0
_STREAM_SELECT = 1
_STREAM_MODEL = 2


@dataclass(frozen=True)
class Strategy:
    """How the next pool point is chosen.

    ``kind`` names the model-uncertainty formula and is present exactly for
    the model-uncertainty tag; ``dci_params`` is present exactly for the
    impurity tags, which score in a PCA feature space refit at each model
    update when ``pca_components`` is positive.
    """

    tag: str
    kind: str | None = None
    dci_params: DciParams | None = None
    pca_components: int = 0

    def __post_init__(self) -> None:
        if self.tag not in STRATEGY_TAGS:
            raise ValueError(f"unknown strategy tag {self.tag!r}")
        if (self.kind is not None) != (self.tag == MODEL_UNCERTAINTY):
            raise ValueError("kind is required for model-uncertainty and only there")
        if self.kind is not None and self.kind not in UNCERTAINTY:
            raise ValueError(f"unknown uncertainty kind {self.kind!r}")
        if (self.dci_params is not None) != (self.tag in (DCI_HIGH, DCI_LOW)):
            raise ValueError("dci_params is required for dci strategies and only there")
        if self.pca_components < 0:
            raise ValueError("pca_components must be non-negative")
        if self.pca_components and self.tag not in (DCI_HIGH, DCI_LOW):
            raise ValueError("pca feature space applies to dci strategies only")

    @property
    def label(self) -> str:
        if self.tag == MODEL_UNCERTAINTY:
            return f"uncertainty-{self.kind}"
        if self.pca_components:
            return f"{self.tag}-pca{self.pca_components}"
        return self.tag


@dataclass(frozen=True)
class ModelConfig:
    """The predictor retrained at update boundaries."""

    kind: str = "ensemble"
    n_trees: int = 10
    max_depth: int | None = None
    min_leaf: int = 1
    knn_k: int = 5

    def __post_init__(self) -> None:
        if self.kind not in ("ensemble", "knn"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.knn_k < 1:
            raise ValueError("knn_k must be at least 1")
        self.ensemble(0)  # EnsembleConfig checks the tree fields

    def ensemble(self, seed: int) -> EnsembleConfig:
        """The bagging settings of this model, seeded for one fit."""
        return EnsembleConfig(
            n_trees=self.n_trees, max_depth=self.max_depth, min_leaf=self.min_leaf, seed=seed
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


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Dataset
    strategy: Strategy
    model: ModelConfig = field(default_factory=ModelConfig)
    metric: str = "accuracy"
    initial_train_size: int = 10
    additions_per_update: int = 5
    n_updates: int = 0
    n_seeds: int = 1
    candidate_batch_size: int = 5
    test_size: int = 1

    def __post_init__(self) -> None:
        ds = self.dataset
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
        if self.strategy.tag == MODEL_UNCERTAINTY:
            check_uncertainty(self.strategy.kind, ds, self.model)

    @property
    def task(self) -> str:
        return CLASSIFICATION if self.dataset.is_classification else "regression"


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


@dataclass(frozen=True)
class SummaryRow:
    strategy: str
    train_size: int
    mean: float
    median: float
    q25: float
    q75: float


@dataclass
class SelectionContext:
    """Everything a strategy may consult when ranking candidates.

    ``model_score`` maps candidate pool indices to uncertainties using the
    model from the last update boundary; ``labelled``, ``labelled_features``
    (``features[labelled]``) and ``proj_labelled`` track the live labelled
    set, which impurity scoring follows point by point.
    """

    features: np.ndarray
    codes: np.ndarray
    n_classes: int
    labelled: np.ndarray
    labelled_features: np.ndarray
    batch_size: int
    pca: PcaModel | None = None
    proj_labelled: np.ndarray | None = None
    model_score: Callable[[np.ndarray], np.ndarray] | None = None


def _dci_candidate_scores(
    ctx: SelectionContext, strategy: Strategy, candidates: np.ndarray
) -> np.ndarray:
    params = strategy.dci_params
    if strategy.pca_components:
        ref = ctx.proj_labelled
        query = pca_project(ctx.pca, ctx.features[candidates])
    else:
        ref = ctx.labelled_features
        query = ctx.features[candidates]
    idx, dist = nearest_neighbors(query, ref, params.k)
    return dci_scores(ctx.codes[ctx.labelled][idx], dist, ctx.n_classes, params)


def select_next(
    unlabelled: np.ndarray,
    strategy: Strategy,
    ctx: SelectionContext,
    rng: np.random.Generator,
) -> int:
    """Pick one unlabelled pool index.

    Draws min(batch, remaining) distinct candidates uniformly; the random
    strategy takes the first draw, the others take the arg-extreme of their
    score over the batch with ties going to the lowest pool index.
    """
    unlabelled = np.asarray(unlabelled)
    if unlabelled.size == 0:
        raise ValueError("the unlabelled pool is empty")
    m = min(ctx.batch_size, unlabelled.size)
    candidates = rng.choice(unlabelled, size=m, replace=False)
    if strategy.tag == RANDOM:
        return int(candidates[0])
    candidates = np.sort(candidates)
    if strategy.tag == MODEL_UNCERTAINTY:
        scores = np.asarray(ctx.model_score(candidates), dtype=np.float64)
    else:
        scores = _dci_candidate_scores(ctx, strategy, candidates)
    pick = int(np.argmin(scores)) if strategy.tag == DCI_LOW else int(np.argmax(scores))
    return int(candidates[pick])


def _model_seed(seed: int, update: int) -> int:
    return int(np.random.SeedSequence([seed, _STREAM_MODEL, update]).generate_state(1)[0])


class _BoundaryModel:
    """The predictor fitted at an update boundary, with its scoring closures."""

    def __init__(self, config: ExperimentConfig, train: Dataset, seed: int):
        self.config = config
        self.train = train
        if config.model.kind == "ensemble":
            self.ensemble = fit_ensemble(train, config.model.ensemble(seed))
        else:
            self.ensemble = None

    def _predict(self, X: np.ndarray) -> EnsemblePrediction:
        if self.ensemble is not None:
            return predict(self.ensemble, X)
        out = knn_predict(self.train, X, self.config.model.knn_k)
        out = np.asarray(out)
        task = CLASSIFICATION if self.train.is_classification else "regression"
        return EnsemblePrediction(per_member=out[None], aggregate=out, task=task)

    def uncertainty(self, X: np.ndarray) -> np.ndarray:
        pred = self._predict(X)
        return np.asarray(UNCERTAINTY[self.config.strategy.kind](pred), dtype=np.float64)

    def evaluate(self, test_X: np.ndarray, test_y: np.ndarray) -> float:
        pred = self._predict(test_X)
        metric = self.config.metric
        if metric == "rmse":
            return rmse(pred.aggregate, test_y)
        if metric == "auroc":
            return auroc(pred.aggregate[:, 1], test_y)
        return accuracy(pred.aggregate.argmax(axis=1), test_y)


def run_experiment(config: ExperimentConfig, seed: int) -> LearningCurve:
    """One seeded simulation producing n_updates + 1 curve points."""
    ds = config.dataset
    rng_split = np.random.default_rng([seed, _STREAM_SPLIT])
    rng_select = np.random.default_rng([seed, _STREAM_SELECT])

    perm = rng_split.permutation(ds.n_rows)
    test_idx = perm[: config.test_size]
    # The labelled set lives in preallocated buffers that picks append to in
    # place; selection reads views of their first n_lab rows.
    n_lab = config.initial_train_size
    n_final = n_lab + config.n_updates * config.additions_per_update
    labelled = np.empty(n_final, dtype=np.intp)
    labelled[:n_lab] = perm[config.test_size : config.test_size + n_lab]
    lab_X = np.empty((n_final, ds.n_features))
    lab_X[:n_lab] = ds.features[labelled[:n_lab]]
    unlabelled = np.sort(perm[config.test_size + n_lab :])

    # Impurity scoring always needs class ids; for a numeric label the
    # distinct values over the whole dataset act as the classes.
    codes, n_classes = ds.class_codes
    test_X = ds.features[test_idx]
    test_y = ds.labels[test_idx]
    strategy = config.strategy
    use_pca = strategy.pca_components > 0

    points: list[tuple[int, float]] = []
    for update in range(config.n_updates + 1):
        boundary = _BoundaryModel(
            config, ds.select_rows(labelled[:n_lab]), _model_seed(seed, update)
        )
        pca = None
        proj = None
        if use_pca:
            n_comp = min(strategy.pca_components, n_lab, ds.n_features)
            pca = pca_fit(lab_X[:n_lab], n_comp)
            proj = np.empty((n_final, n_comp))
            proj[:n_lab] = pca_project(pca, lab_X[:n_lab])
        points.append((n_lab, boundary.evaluate(test_X, test_y)))
        if update == config.n_updates:
            break
        for _ in range(config.additions_per_update):
            ctx = SelectionContext(
                features=ds.features,
                codes=codes,
                n_classes=n_classes,
                labelled=labelled[:n_lab],
                labelled_features=lab_X[:n_lab],
                batch_size=config.candidate_batch_size,
                pca=pca,
                proj_labelled=None if proj is None else proj[:n_lab],
                model_score=(lambda cands: boundary.uncertainty(ds.features[cands]))
                if strategy.tag == MODEL_UNCERTAINTY
                else None,
            )
            pick = select_next(unlabelled, strategy, ctx, rng_select)
            labelled[n_lab] = pick
            lab_X[n_lab] = ds.features[pick]
            if use_pca:
                proj[n_lab] = pca_project(pca, lab_X[n_lab : n_lab + 1])[0]
            n_lab += 1
            unlabelled = np.delete(unlabelled, np.searchsorted(unlabelled, pick))

    return LearningCurve(
        points=tuple(points), seed=seed, strategy=strategy.label, metric=config.metric
    )


def _run_one(args: tuple[ExperimentConfig, int]) -> LearningCurve:
    return run_experiment(*args)


def run_many(
    config: ExperimentConfig, base_seed: int = 0, threads: int = 1
) -> list[LearningCurve]:
    """n_seeds independent experiments with seeds base_seed, base_seed+1, ..."""
    seeds = [base_seed + i for i in range(config.n_seeds)]
    if threads > 1 and len(seeds) > 1:
        # Never more workers than seeds: with the fork start method the pool
        # forks every worker up front, whether or not it gets a task.
        with ProcessPoolExecutor(max_workers=min(threads, len(seeds))) as pool:
            return list(pool.map(_run_one, [(config, s) for s in seeds]))
    return [run_experiment(config, s) for s in seeds]


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
    labels = []
    for c in curves:
        if c.strategy not in labels:
            labels.append(c.strategy)
    rows: list[SummaryRow] = []
    for label in labels:
        values = np.array([c.values for c in curves if c.strategy == label])
        q25, med, q75 = np.quantile(values, [0.25, 0.5, 0.75], axis=0)
        mean = values.mean(axis=0)
        for j, size in enumerate(schedule):
            rows.append(
                SummaryRow(
                    strategy=label,
                    train_size=int(size),
                    mean=float(mean[j]),
                    median=float(med[j]),
                    q25=float(q25[j]),
                    q75=float(q75[j]),
                )
            )
    return rows


def write_curves_csv(path: str | Path, curves: Sequence[LearningCurve]) -> None:
    lines = ["strategy,seed,train_size,metric,value"]
    for c in curves:
        for size, value in c.points:
            lines.append(f"{c.strategy},{c.seed},{size},{c.metric},{format(value + 0.0, '.9g')}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_csv(path: str | Path, rows: Sequence[SummaryRow]) -> None:
    lines = ["strategy,train_size,mean,median,q25,q75"]
    for r in rows:
        stats = ",".join(
            format(v + 0.0, ".9g") for v in (r.mean, r.median, r.q25, r.q75)
        )
        lines.append(f"{r.strategy},{r.train_size},{stats}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
