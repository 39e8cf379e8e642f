"""End-to-end checks of the advertised behaviours, one test per claim.

Each test here is self-contained: oracles are re-derived inline (plain
Python loops, closed forms, or scipy) rather than imported from the other
test modules, so a pass means the library agrees with an independent
reading of the formulas and protocols.

The selection-experiment checks (wine ordering, census ordering) are the
slow ones: together they take about 3.5 minutes of one core (2 vCPUs,
Python 3.11, NumPy 2.4).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.stats import binomtest, spearmanr

from dci_lab.active import ExperimentConfig, run_experiment
from dci_lab.cli import main
from dci_lab.dataset import apply_standardization, one_hot, standardization_stats
from dci_lab.dci import DciParams, GridSpec, dci_field, dci_scores
from dci_lab.metrics import auroc, average_reports, decile_analysis
from dci_lab.models import (
    ModelConfig,
    ensemble_binary_uncertainty,
    fit_ensemble,
    mean_std_uncertainty,
    predict,
    regression_std_uncertainty,
)
from dci_lab.neighbors import nearest_neighbors
from dci_lab.synthetic import census_income, three_class_points, wine_quality


def naive_impurity(labels, distances, n_classes, params):
    """Two-loop transcription of the score definition, pure Python."""
    weights = [1.0 / (d**params.alpha + params.epsilon) for d in distances]
    denom = sum((d**params.alpha + params.epsilon) ** -params.beta for d in distances)
    best = None
    for j in range(n_classes):
        num = sum(w for w, y in zip(weights, labels) if y != j)
        best = num if best is None else min(best, num)
    return best / denom


def rel_close(a, b, rel, abs_tol=0.0):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


@pytest.fixture(scope="module")
def census_pool():
    # Shared by the census ordering and the decile-trend checks: encoded,
    # standardized, then thinned to 8000 rows with a fixed draw.
    ds = one_hot(census_income(10000, 11))
    ds = apply_standardization(ds, standardization_stats(ds, np.arange(ds.n_rows)))
    keep = np.sort(np.random.default_rng(17).permutation(ds.n_rows)[:8000])
    return ds.select_rows(keep)


def test_01_score_matches_direct_formula_on_random_neighborhoods():
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(1000):
        k = int(rng.integers(1, 31))
        n_classes = int(rng.integers(2, 6))
        labels = rng.integers(0, n_classes, size=k)
        distances = rng.uniform(0.0, 4.0, size=k)
        params = DciParams(
            k=k,
            alpha=float(rng.uniform(0.8, 2.5)),
            beta=float(rng.uniform(0.85, 1.5)),
        )
        cases.append((labels, distances, n_classes, params))

    t0 = time.perf_counter()
    for labels, distances, n_classes, params in cases:
        got = float(dci_scores(labels[None], distances[None], n_classes, params)[0])
        want = naive_impurity(labels.tolist(), distances.tolist(), n_classes, params)
        assert rel_close(got, want, rel=1e-12, abs_tol=1e-300), (got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"1000 neighborhoods took {elapsed:.2f}s"


def test_02_equal_distance_neighborhoods_follow_closed_form():
    rng = np.random.default_rng(202)
    eps = 1e-12
    for _ in range(200):
        k = int(rng.integers(1, 31))
        n_classes = int(rng.integers(2, 6))
        d = float(rng.uniform(0.2, 3.0))
        alpha = float(rng.uniform(0.8, 2.5))
        beta = float(rng.uniform(0.85, 1.5))
        labels = rng.integers(0, n_classes, size=(1, k))
        params = DciParams(k=k, alpha=alpha, beta=beta, epsilon=eps)

        got = float(dci_scores(labels, np.full((1, k), d), n_classes, params)[0])
        counts = np.bincount(labels[0], minlength=n_classes)
        frac = (k - counts.max()) / k
        closed = frac * (d**alpha + eps) ** (beta - 1.0)
        limit = frac * d ** (alpha * (beta - 1.0))
        assert rel_close(got, closed, rel=1e-9, abs_tol=1e-300), (got, closed)
        assert rel_close(got, limit, rel=1e-6, abs_tol=1e-300), (got, limit)


def test_03_coordinate_scaling_rescales_scores_and_keeps_argmax():
    rng = np.random.default_rng(303)
    pool = rng.normal(size=(300, 4))
    pool_labels = rng.integers(0, 3, size=300)
    queries = rng.normal(size=(50, 4))
    k = 10

    for alpha, beta in ((1.5, 1.2), (2.0, 0.9)):
        params = DciParams(k=k, alpha=alpha, beta=beta)
        idx, dist = nearest_neighbors(queries, pool, k)
        base = dci_scores(pool_labels[idx], dist, 3, params)
        for c in (0.1, 3.0, 40.0):
            idx_c, dist_c = nearest_neighbors(queries * c, pool * c, k)
            scaled = dci_scores(pool_labels[idx_c], dist_c, 3, params)
            factor = c ** (alpha * (beta - 1.0))
            assert np.all(np.abs(scaled - base * factor) <= 1e-6 * np.abs(scaled))
            assert int(np.argmax(scaled)) == int(np.argmax(base))


def test_04_field_trends_track_beta_and_alpha():
    ds = three_class_points()  # 300 points, 2 features, 3 classes
    t0 = time.perf_counter()

    # A window extending well past the data: the outermost ring of cells
    # sits far from every labelled point, where only the density term of
    # the score is active, so its mean must grow with beta.
    wide = GridSpec(x_min=-4.0, x_max=8.0, y_min=-4.0, y_max=7.5, resolution=100)
    ring_means = []
    for beta in (0.9, 1.1, 1.3):
        f = dci_field(ds, wide, DciParams(k=20, alpha=1.5, beta=beta))
        ring = np.concatenate([f[0, :], f[-1, :], f[1:-1, 0], f[1:-1, -1]])
        ring_means.append(float(ring.mean()))
    assert ring_means[0] < ring_means[1] < ring_means[2], ring_means

    # A window snug around the data: raising alpha sharpens the score onto
    # the class boundaries, so the high-score area shrinks. Measured as the
    # fraction of cells above the 90th percentile pooled over the sweep.
    pad = 0.25
    snug = GridSpec(
        x_min=float(ds.features[:, 0].min()) - pad,
        x_max=float(ds.features[:, 0].max()) + pad,
        y_min=float(ds.features[:, 1].min()) - pad,
        y_max=float(ds.features[:, 1].max()) + pad,
        resolution=100,
    )
    fields = [
        dci_field(ds, snug, DciParams(k=20, alpha=a, beta=1.2)) for a in (1.0, 1.5, 2.0)
    ]
    thr = np.percentile(np.concatenate([f.ravel() for f in fields]), 90)
    fracs = [float((f > thr).mean()) for f in fields]
    assert fracs[0] > fracs[1] > fracs[2], fracs

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"field sweeps took {elapsed:.2f}s"


def test_05_wine_selection_beats_random_and_low_score_selection():
    ds = wine_quality(1599, 5)
    ds = apply_standardization(ds, standardization_stats(ds, np.arange(1599)))
    strategies = {"high": "dci-high", "random": "random", "low": "dci-low"}
    # One experiment holds every strategy, as the CLI runs them: each seed
    # fits its first committee once and grows each boundary's committees
    # in one call.
    config = ExperimentConfig(
        dataset=ds,
        strategies=tuple(strategies.values()),
        model=ModelConfig(kind="ensemble", n_trees=100, min_leaf=5),
        dci=DciParams(k=20, alpha=1.5, beta=1.2),
        metric="rmse",
        initial_train_size=200,
        additions_per_update=10,
        n_updates=18,
        n_seeds=30,
        test_size=599,
    )
    t0 = time.perf_counter()
    runs = [run_experiment(config, seed=i) for i in range(30)]
    finals = {name: np.array([curves[j].points[-1][1] for curves in runs]) for j, name in enumerate(strategies)}
    elapsed = time.perf_counter() - t0

    assert finals["high"].mean() < finals["random"].mean(), (
        finals["high"].mean(),
        finals["random"].mean(),
    )
    assert finals["high"].mean() < finals["low"].mean(), (
        finals["high"].mean(),
        finals["low"].mean(),
    )
    # Paired one-sided sign test over seeds: high < low.
    wins = int(np.sum(finals["high"] < finals["low"]))
    n_eff = int(np.sum(finals["high"] != finals["low"]))
    p = binomtest(wins, n_eff, alternative="greater").pvalue
    assert p < 0.05, (wins, n_eff, p)
    assert elapsed < 900.0, f"wine runs took {elapsed / 60:.1f} min"


def test_06_census_selection_ordering_and_committee_agreement(census_pool):
    strategies = {"high": "dci-high", "low": "dci-low", "committee": "uncertainty-eq3_binary"}
    config = ExperimentConfig(
        dataset=census_pool,
        strategies=tuple(strategies.values()),
        model=ModelConfig(kind="ensemble", n_trees=10),
        dci=DciParams(k=20, alpha=1.5, beta=1.2),
        metric="auroc",
        initial_train_size=400,
        additions_per_update=50,
        n_updates=15,
        n_seeds=20,
        test_size=2000,
    )
    t0 = time.perf_counter()
    runs = [run_experiment(config, seed=i) for i in range(20)]
    finals = {name: np.mean([curves[j].points[-1][1] for curves in runs]) for j, name in enumerate(strategies)}
    elapsed = time.perf_counter() - t0

    assert finals["high"] > finals["low"], finals
    assert abs(finals["high"] - finals["committee"]) < 0.02, finals
    assert elapsed < 1200.0, f"census runs took {elapsed / 60:.1f} min"


def test_07_decile_accuracy_falls_with_score(census_pool):
    ds = census_pool
    t0 = time.perf_counter()
    for size in (10, 20):
        for alpha in (1.0, 1.5, 2.0):
            params = DciParams(k=20, alpha=alpha, beta=1.2)
            reports = []
            for split in range(20):
                perm = np.random.default_rng([0, 3, split]).permutation(ds.n_rows)
                tr, te = perm[:size], perm[size:]
                train = ds.select_rows(tr)
                ens = fit_ensemble(train, ModelConfig(n_trees=10), seed=1000 + split)
                per_member = predict(ens, ds.features[te])
                correct = (per_member.mean(axis=0).argmax(axis=1) == ds.labels[te]).astype(
                    np.int64
                )
                idx, dist = nearest_neighbors(
                    ds.features[te], train.features, min(20, size)
                )
                scores = dci_scores(train.labels[idx], dist, ds.class_count, params)
                reports.append(decile_analysis(scores, correct))
            mean_acc = average_reports(reports).accuracies
            rho = spearmanr(np.arange(10), mean_acc).statistic
            assert rho < 0, (size, alpha, rho, mean_acc)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"decile sweeps took {elapsed:.1f}s"


def test_08_auroc_equals_pairwise_concordance_exactly():
    rng = np.random.default_rng(808)
    done = 0
    while done < 500:
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[rng.integers(0, n)] ^= 1
        # Lattice-valued scores so ties are frequent.
        scores = rng.integers(0, int(rng.integers(2, 13)), size=n) * 0.25

        pos = scores[labels == 1]
        neg = scores[labels == 0]
        num = 0.0
        for p in pos:
            for q in neg:
                if p > q:
                    num += 1.0
                elif p == q:
                    num += 0.5
        want = num / (len(pos) * len(neg))
        assert auroc(scores, labels) == want
        done += 1


def test_09_simulation_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "\n".join(
            [
                "data.source = synthetic",
                "data.name = census",
                "data.n = 400",
                "data.seed = 2",
                "model.kind = ensemble",
                "model.n_trees = 5",
                "experiment.metric = auroc",
                "experiment.initial_train_size = 40",
                "experiment.additions_per_update = 10",
                "experiment.n_updates = 3",
                "experiment.n_seeds = 2",
                "experiment.test_size = 100",
                "dci.k = 10",
                "strategies = random,dci-high,dci-low,uncertainty-eq3_binary",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("curves.csv", "summary.csv", "manifest.json"):
        first = (outs[0] / fname).read_bytes()
        second = (outs[1] / fname).read_bytes()
        assert first == second, f"{fname} differs between identical runs"


def test_10_committee_uncertainty_zero_points():
    rng = np.random.default_rng(1010)
    grid = np.linspace(0.0, 1.0, 21)  # includes exact 0.5
    for i in range(1000):
        m = int(rng.integers(2, 13))

        if i % 5 == 0:
            p1 = np.full(m, 0.5)
        else:
            p1 = rng.choice(grid, size=m)
        # Each committee predicts one row: per-member arrays (m, 1, ...).
        pm = np.column_stack([1.0 - p1, p1])[:, None]
        u = float(ensemble_binary_uncertainty(pm)[0])
        assert u <= 0.0
        assert (u == 0.0) == bool(np.all(p1 == 0.5)), (p1, u)

        # Unanimous committees sit exactly at zero spread...
        row = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
        same = np.tile(row, (m, 1, 1))
        assert mean_std_uncertainty(same)[0] == 0.0

        value = float(rng.normal())
        flat = np.full((m, 1), value)
        assert regression_std_uncertainty(flat)[0] == 0.0

        # ...and any disagreement moves both strictly off zero.
        rows = rng.dirichlet(np.ones(3), size=m)
        if not np.all(rows == rows[0]):
            assert mean_std_uncertainty(rows[:, None])[0] > 0.0
        values = rng.normal(size=m)
        if not np.all(values == values[0]):
            assert regression_std_uncertainty(values[:, None])[0] > 0.0
