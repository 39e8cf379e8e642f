"""Seeded synthetic datasets shaped like the benchmark tasks.

The benchmark files themselves are not bundled, so these generators build
offline stand-ins with the same schemas: a mixed categorical/numeric binary
income table, an 11-feature ordinal wine-quality table, a 2-d three-class
toy for score-field plots, and digit-like image blocks for the IDX pipeline.
Every generator is a pure function of its seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import (
    KIND_CATEGORICAL,
    KIND_LABEL_CLASS,
    KIND_LABEL_NUMERIC,
    KIND_NUMERIC,
    ColumnSpec,
    Dataset,
    write_csv,
)


def three_class_points(n_per_class: int = 100, seed: int = 7, spread: float = 0.8) -> Dataset:
    """Three overlapping Gaussian blobs at triangle corners on the plane."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]])
    points = []
    labels = []
    for c, center in enumerate(centers):
        points.append(center + rng.normal(0.0, spread, size=(n_per_class, 2)))
        labels.append(np.full(n_per_class, c))
    specs = (
        ColumnSpec("x", KIND_NUMERIC),
        ColumnSpec("y", KIND_NUMERIC),
        ColumnSpec("cls", KIND_LABEL_CLASS),
    )
    return Dataset(
        features=np.vstack(points),
        labels=np.concatenate(labels),
        column_specs=specs,
        class_names=("a", "b", "c"),
    )


_EDUCATION = ("basic", "highschool", "college", "bachelors", "masters", "doctorate")
_EDU_PROBS = (0.10, 0.30, 0.20, 0.25, 0.10, 0.05)
_OCCUPATION = ("service", "clerical", "trades", "sales", "professional", "management")
_OCC_PROBS = (0.20, 0.15, 0.20, 0.15, 0.15, 0.15)
_OCC_EFFECT = (-0.8, -0.3, 0.0, 0.1, 0.9, 1.2)
_MARITAL = ("single", "married", "divorced")
_MAR_PROBS = (0.35, 0.50, 0.15)
_MAR_EFFECT = (-0.9, 0.8, -0.4)


def census_income(n: int = 10000, seed: int = 11) -> Dataset:
    """A binary income table with interacting numeric and categorical drivers.

    The label is a Bernoulli draw from a logistic model of age, education,
    occupation, marital status, weekly hours and capital gains, so class
    regions overlap and the positive rate sits near 30 percent.
    """
    rng = np.random.default_rng(seed)
    age = rng.uniform(18.0, 80.0, n)
    edu = rng.choice(len(_EDUCATION), size=n, p=_EDU_PROBS)
    occ = rng.choice(len(_OCCUPATION), size=n, p=_OCC_PROBS)
    mar = rng.choice(len(_MARITAL), size=n, p=_MAR_PROBS)
    hours = np.clip(rng.normal(40.0, 12.0, n), 5.0, 99.0)
    capital = np.where(rng.random(n) < 0.2, rng.exponential(1200.0, n), 0.0)

    z = (
        -4.9
        + 0.040 * (age - 18.0)
        + 0.55 * edu
        + np.asarray(_OCC_EFFECT)[occ]
        + np.asarray(_MAR_EFFECT)[mar]
        + 0.028 * (hours - 40.0)
        + 0.00035 * capital
    )
    p = 1.0 / (1.0 + np.exp(-z))
    y = (rng.random(n) < p).astype(np.int64)

    features = np.column_stack(
        [age, edu.astype(np.float64), occ.astype(np.float64), mar.astype(np.float64), hours, capital]
    )
    specs = (
        ColumnSpec("age", KIND_NUMERIC),
        ColumnSpec("education", KIND_CATEGORICAL),
        ColumnSpec("occupation", KIND_CATEGORICAL),
        ColumnSpec("marital", KIND_CATEGORICAL),
        ColumnSpec("hours", KIND_NUMERIC),
        ColumnSpec("capital_gain", KIND_NUMERIC),
        ColumnSpec("income", KIND_LABEL_CLASS),
    )
    return Dataset(
        features=features,
        labels=y,
        column_specs=specs,
        class_names=("<=50k", ">50k"),
        categories={
            "education": _EDUCATION,
            "occupation": _OCCUPATION,
            "marital": _MARITAL,
        },
    )


_WINE_COLUMNS = (
    "fixed_acidity",
    "volatile_acidity",
    "citric_acid",
    "residual_sugar",
    "chlorides",
    "free_so2",
    "total_so2",
    "density",
    "ph",
    "sulphates",
    "alcohol",
)
# Affine per-column placement so raw values sit in plausible lab ranges.
_WINE_SHIFT = (8.3, 0.53, 0.27, 2.5, 0.087, 15.9, 46.5, 0.9967, 3.31, 0.66, 10.4)
_WINE_SCALE = (1.7, 0.18, 0.19, 1.4, 0.047, 10.5, 32.9, 0.0019, 0.15, 0.17, 1.07)


def wine_quality(n: int = 1599, seed: int = 5) -> Dataset:
    """An ordinal-quality wine table driven by latent style clusters.

    Samples sit around one of six styles whose base qualities span 4 to 7;
    cluster overlap plus occasional one-step quality noise creates the
    mixed-neighbourhood structure an impurity score keys on.
    """
    rng = np.random.default_rng(seed)
    n_styles = 6
    centers = rng.normal(0.0, 1.0, size=(n_styles, len(_WINE_COLUMNS)))
    base_quality = np.array([4, 5, 5, 6, 6, 7], dtype=np.float64)
    weights = np.array([0.06, 0.24, 0.24, 0.21, 0.19, 0.06])
    style = rng.choice(n_styles, size=n, p=weights)
    latent = centers[style] * 1.6 + rng.normal(0.0, 1.0, size=(n, len(_WINE_COLUMNS)))
    bump = rng.choice([-1.0, 0.0, 1.0], size=n, p=[0.08, 0.84, 0.08])
    quality = np.clip(base_quality[style] + bump, 3.0, 8.0)

    features = np.asarray(_WINE_SHIFT) + latent * np.asarray(_WINE_SCALE)
    specs = tuple(ColumnSpec(c, KIND_NUMERIC) for c in _WINE_COLUMNS) + (
        ColumnSpec("quality", KIND_LABEL_NUMERIC),
    )
    return Dataset(features=features, labels=quality, column_specs=specs)


def digit_images(n: int = 600, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Digit-like uint8 images: per-class blob prototypes plus pixel noise.

    Returns (images, labels) with images shaped (n, 28, 28), ready for the
    IDX writer. Classes cycle 0..9 so every class appears.
    """
    rng = np.random.default_rng(seed)
    protos = np.kron(rng.uniform(0.0, 1.0, size=(10, 7, 7)), np.ones((4, 4)))
    # Low contrast on purpose: with strong prototypes the noise averages
    # out over 784 pixels and nearest-neighbour accuracy saturates at 1.0
    # after a few hundred labels, which makes selection strategies
    # indistinguishable.
    protos = protos * 50.0 + 60.0
    labels = np.arange(n, dtype=np.int64) % 10
    noise = rng.normal(0.0, 80.0, size=(n, 28, 28))
    images = np.clip(protos[labels] + noise, 0.0, 255.0).astype(np.uint8)
    return images, labels


def digits_dataset(n: int = 600, seed: int = 3) -> Dataset:
    """:func:`digit_images` flattened to a [0, 1] pixel classification table."""
    images, labels = digit_images(n, seed)
    features = images.reshape(n, -1).astype(np.float64) / 255.0
    specs = tuple(ColumnSpec(f"px{i}", KIND_NUMERIC) for i in range(features.shape[1]))
    specs = specs + (ColumnSpec("label", KIND_LABEL_CLASS),)
    return Dataset(
        features=features,
        labels=labels,
        column_specs=specs,
        class_names=tuple(str(i) for i in range(10)),
    )


def write_dataset_csv(ds: Dataset, path) -> None:
    """Write a dataset back to CSV, mapping category and class codes to tokens."""
    columns = [
        [ds.categories[spec.name][int(v)] for v in column] if spec.kind == KIND_CATEGORICAL else column
        for spec, column in zip(ds.feature_specs, ds.features.T)
    ]
    labels = [ds.class_names[i] for i in ds.labels] if ds.is_classification else ds.labels
    write_csv(path, [s.name for s in ds.column_specs], zip(*columns, labels))


def write_colspec(ds: Dataset, path) -> None:
    """Write the matching `name = kind` column-spec file."""
    Path(path).write_text("".join(f"{s.name} = {s.kind}\n" for s in ds.column_specs), encoding="utf-8")
