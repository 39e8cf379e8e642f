"""Dataset loading, encoding, standardization and PCA projection.

Feature matrices are dense float64 arrays. Categorical columns are stored as
category indices (first-seen order) until :func:`one_hot` expands them, and
distances downstream are always measured on the encoded, standardized matrix.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
KIND_LABEL_CLASS = "label_class"
KIND_LABEL_NUMERIC = "label_numeric"
COLUMN_KINDS = (KIND_NUMERIC, KIND_CATEGORICAL, KIND_LABEL_CLASS, KIND_LABEL_NUMERIC)
LABEL_KINDS = (KIND_LABEL_CLASS, KIND_LABEL_NUMERIC)

MISSING_TOKENS = frozenset({"?", ""})

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(Exception):
    """Raised for malformed or inconsistent input data files."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ColumnSpec:
    """Name and kind of one logical dataset column."""

    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {self.kind!r} for column {self.name!r}")

    @property
    def is_label(self) -> bool:
        return self.kind in LABEL_KINDS


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with labels and per-column metadata.

    ``column_specs`` lists the feature columns in matrix order followed by the
    single label column. ``class_names`` is present exactly when the label is
    categorical; labels are then integer indices into it. ``categories`` maps
    categorical feature column names to their token vocabulary (first-seen
    order), which one-hot encoding uses for widths and output names.
    """

    features: np.ndarray
    labels: np.ndarray
    column_specs: tuple[ColumnSpec, ...]
    class_names: tuple[str, ...] | None = None
    categories: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        specs = tuple(self.column_specs)
        labels_in = np.asarray(self.labels)
        label_specs = [s for s in specs if s.is_label]
        if len(label_specs) != 1:
            raise ValueError("column_specs must contain exactly one label column")
        if not specs[-1].is_label:
            raise ValueError("the label column spec must be last")
        if len(specs) - 1 != feats.shape[1]:
            raise ValueError("feature column count does not match column_specs")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        if feats.shape[0] == 0:
            raise ValueError("dataset must contain at least one row")
        if labels_in.shape != (feats.shape[0],):
            raise ValueError("labels length must equal the feature row count")
        if specs[-1].kind == KIND_LABEL_CLASS:
            labels = np.ascontiguousarray(labels_in, dtype=np.int64)
            if self.class_names is None:
                raise ValueError("class_names is required for class labels")
            if labels.min() < 0 or labels.max() >= len(self.class_names):
                raise ValueError("class label out of range of class_names")
        else:
            labels = np.ascontiguousarray(labels_in, dtype=np.float64)
            if self.class_names is not None:
                raise ValueError("class_names is only valid for class labels")
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "labels", _readonly(labels))
        object.__setattr__(self, "column_specs", specs)
        if self.class_names is not None:
            object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "categories", dict(self.categories))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def feature_specs(self) -> tuple[ColumnSpec, ...]:
        return self.column_specs[:-1]

    @property
    def label_spec(self) -> ColumnSpec:
        return self.column_specs[-1]

    @property
    def is_classification(self) -> bool:
        return self.label_spec.kind == KIND_LABEL_CLASS

    @property
    def class_count(self) -> int:
        if self.class_names is None:
            raise ValueError("dataset has a numeric label, not classes")
        return len(self.class_names)

    @property
    def class_codes(self) -> tuple[np.ndarray, int]:
        """(class id per row, number of classes) for impurity scoring.

        A numeric label is coded by its distinct values, in ascending order.
        """
        if self.is_classification:
            return self.labels, self.class_count
        uniques, codes = np.unique(self.labels, return_inverse=True)
        return codes.astype(np.int64), len(uniques)

    def select_rows(self, rows: Sequence[int] | np.ndarray) -> "Dataset":
        """A new dataset restricted to the given rows (order preserved)."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            column_specs=self.column_specs,
            class_names=self.class_names,
            categories=self.categories,
        )


@dataclass(frozen=True)
class PcaModel:
    """Centering vector, component rows and per-component variance ratios.

    Components past the data's rank have ratio zero, so they project to zero.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _readonly(np.asarray(self.mean, dtype=np.float64)))
        object.__setattr__(
            self, "components", _readonly(np.asarray(self.components, dtype=np.float64))
        )
        object.__setattr__(
            self,
            "explained_variance_ratio",
            _readonly(np.asarray(self.explained_variance_ratio, dtype=np.float64)),
        )

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


def _utf8_text(path: str | Path) -> str:
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_colspec(path: str | Path) -> list[ColumnSpec]:
    """Parse a column-spec file of ``name = kind`` lines.

    Blank lines and ``#`` comment lines are ignored. Kinds must be one of
    numeric, categorical, label_class, label_numeric.
    """
    specs: list[ColumnSpec] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(_utf8_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'name = kind'")
        name, _, kind = line.partition("=")
        name = name.strip()
        kind = kind.strip()
        if kind not in COLUMN_KINDS:
            raise DataError(f"{path}:{lineno}: unknown column kind {kind!r}")
        if name in seen:
            raise DataError(f"{path}:{lineno}: duplicate column {name!r}")
        seen.add(name)
        specs.append(ColumnSpec(name, kind))
    if sum(s.is_label for s in specs) != 1:
        raise DataError(f"{path}: column spec must declare exactly one label column")
    return specs


def read_records(path: str | Path) -> tuple[list[str], list[int], list[list[str]]]:
    """(header, line numbers, rows) of a UTF-8 CSV file, every cell stripped.

    Blank lines are skipped, quoting must be well formed and each row as wide
    as the header. Line numbers count records; no header gives an empty one.
    """
    reader = enumerate(csv.reader(io.StringIO(_utf8_text(path), newline=""), strict=True), 1)
    lines, rows, lineno = [], [], 0
    try:
        for lineno, record in reader:
            if record:
                lines.append(lineno)
                rows.append([c.strip() for c in record])
    except csv.Error as exc:
        raise DataError(f"{path}:{lineno + 1}: {exc}") from None
    header = rows[0] if rows else []
    for line, row in zip(lines[1:], rows[1:]):
        if len(row) != len(header):
            raise DataError(f"{path}:{line}: {len(row)} fields, expected {len(header)} as in the header")
    return header, lines[1:], rows[1:]


def parse_numbers(
    rows: Sequence[Sequence[str]], path: str | Path, lines: Sequence[int], names: Sequence[str]
) -> np.ndarray:
    """The float64 matrix of numeric cells, one row per line, one name per column.

    A token that is not a number, or a value that is not finite, raises
    :class:`DataError` naming the first such cell in row order.
    """
    try:
        block = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
        if np.isfinite(block).all():
            return block
    except ValueError:
        pass
    for line, row in zip(lines, rows):
        for name, cell in zip(names, row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}:{line}: non-numeric token {cell!r} in numeric column {name!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{line}: non-finite value {cell!r} in numeric column {name!r}")
    raise DataError(f"{path}: numeric cells do not form a {len(rows)} x {len(names)} block")


def load_csv(path: str | Path, specs: Sequence[ColumnSpec]) -> Dataset:
    """Load a comma-separated UTF-8 file with a header row, read by :func:`read_records`.

    Rows containing a missing-value token ("?" or an empty cell) are dropped.
    Numeric features and a numeric label parse with :func:`parse_numbers`;
    categorical features and a class label map to indices in first-seen order.
    """
    spec_by_name = {s.name: s for s in specs}
    if len(spec_by_name) != len(specs):
        raise DataError("duplicate column names in specs")
    header, lines, rows = read_records(path)
    if not header:
        raise DataError(f"{path}: empty file")
    for i, name in enumerate(header):
        if name not in spec_by_name:
            raise DataError(f"{path}: unknown column {name!r}")
        if name in header[:i]:
            raise DataError(f"{path}: column {name!r} appears twice in the header")
    for name in spec_by_name:
        if name not in header:
            raise DataError(f"{path}: column {name!r} missing from header")
    col_specs = [spec_by_name[n] for n in header]
    kept = [(line, row) for line, row in zip(lines, rows) if MISSING_TOKENS.isdisjoint(row)]
    if not kept:
        raise DataError(f"{path}: no rows left after removing missing data")
    lines, rows = zip(*kept)
    columns = list(zip(*rows))

    numeric = [i for i, s in enumerate(col_specs) if s.kind in (KIND_NUMERIC, KIND_LABEL_NUMERIC)]
    block = parse_numbers(list(zip(*(columns[i] for i in numeric))), path, lines, [header[i] for i in numeric])
    values = dict(zip(numeric, block.T))
    vocabularies = {}
    for i, spec in enumerate(col_specs):
        if spec.kind in (KIND_CATEGORICAL, KIND_LABEL_CLASS):
            index: dict[str, int] = {}
            values[i] = [index.setdefault(cell, len(index)) for cell in columns[i]]
            vocabularies[spec.name] = tuple(index)
    label_pos = next(i for i, s in enumerate(col_specs) if s.is_label)
    feature_positions = [i for i in range(len(header)) if i != label_pos]
    features = np.array([values[i] for i in feature_positions], dtype=np.float64)
    label = col_specs[label_pos]
    return Dataset(
        features=features.reshape(len(feature_positions), len(rows)).T,
        labels=np.asarray(values[label_pos]),
        column_specs=tuple(col_specs[i] for i in feature_positions) + (label,),
        class_names=vocabularies.pop(label.name, None),
        categories=vocabularies,
    )


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable[object]]) -> None:
    """Write a header line and one comma-joined line per row.

    This is the byte format of every CSV the package writes: floats (Python
    or NumPy) with 9 significant digits and -0 as 0, every other value
    through ``str``, UTF-8 with LF line ends and a final newline.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format(v + 0.0, ".9g") if isinstance(v, (float, np.floating)) else str(v) for v in row
        ))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_be_u32(buf: bytes, offset: int, path: str | Path) -> int:
    if offset + 4 > len(buf):
        raise DataError(f"{path}: truncated file")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Load an IDX image/label file pair into a flat pixel dataset.

    Pixels are scaled to [0, 1]; labels become class ids with names "0".."9"
    (or up to the maximum label seen if beyond 9).
    """
    img_buf = Path(images_path).read_bytes()
    magic = _read_be_u32(img_buf, 0, images_path)
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{images_path}: bad magic number {magic:#010x} for an image file")
    count = _read_be_u32(img_buf, 4, images_path)
    rows = _read_be_u32(img_buf, 8, images_path)
    cols = _read_be_u32(img_buf, 12, images_path)
    if count == 0 or rows * cols == 0:
        raise DataError(f"{images_path}: the file holds no pixels ({count} images of {rows} x {cols})")
    expected = 16 + count * rows * cols
    if len(img_buf) < expected:
        raise DataError(f"{images_path}: truncated file")
    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=count * rows * cols, offset=16)

    lab_buf = Path(labels_path).read_bytes()
    magic = _read_be_u32(lab_buf, 0, labels_path)
    if magic != IDX_LABELS_MAGIC:
        raise DataError(f"{labels_path}: bad magic number {magic:#010x} for a label file")
    lab_count = _read_be_u32(lab_buf, 4, labels_path)
    if lab_count != count:
        raise DataError(
            f"label count {lab_count} does not match image count {count}"
        )
    if len(lab_buf) < 8 + count:
        raise DataError(f"{labels_path}: truncated file")
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=count, offset=8).astype(np.int64)

    features = pixels.reshape(count, rows * cols).astype(np.float64)
    features /= 255.0  # in place: one pool-sized array, not two
    n_classes = max(10, int(labels.max()) + 1)
    specs = tuple(ColumnSpec(f"px{i}", KIND_NUMERIC) for i in range(rows * cols))
    specs = specs + (ColumnSpec("label", KIND_LABEL_CLASS),)
    return Dataset(
        features=features,
        labels=labels,
        column_specs=specs,
        class_names=tuple(str(i) for i in range(n_classes)),
    )


def write_idx(
    images: np.ndarray,
    labels: np.ndarray,
    images_path: str | Path,
    labels_path: str | Path,
) -> None:
    """Write uint8 images of shape (n, rows, cols) and labels as an IDX pair."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 3 or images.dtype != np.uint8:
        raise ValueError("images must be a uint8 array of shape (n, rows, cols)")
    if labels.shape != (images.shape[0],):
        raise ValueError("labels length must match image count")
    if labels.min(initial=0) < 0 or labels.max(initial=0) > 255:
        raise ValueError("labels must fit in an unsigned byte")
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


def one_hot(ds: Dataset) -> Dataset:
    """Expand each categorical feature column into one indicator column per category.

    Numeric columns pass through unchanged; a dataset without categorical
    columns is returned as-is. Indicator columns are named ``col=token`` and
    keep the categorical kind so standardization can treat them separately.
    """
    if not any(s.kind == KIND_CATEGORICAL for s in ds.feature_specs):
        return ds
    blocks: list[np.ndarray] = []
    specs: list[ColumnSpec] = []
    for j, spec in enumerate(ds.feature_specs):
        col = ds.features[:, j]
        if spec.kind == KIND_NUMERIC:
            blocks.append(col[:, None])
            specs.append(spec)
            continue
        tokens = ds.categories.get(spec.name)
        width = len(tokens) if tokens is not None else int(col.max()) + 1
        ids = col.astype(np.int64)
        if ids.min() < 0 or ids.max() >= width:
            raise ValueError(f"category id out of range in column {spec.name!r}")
        block = np.zeros((ds.n_rows, width), dtype=np.float64)
        block[np.arange(ds.n_rows), ids] = 1.0
        blocks.append(block)
        for c in range(width):
            token = tokens[c] if tokens is not None else str(c)
            specs.append(ColumnSpec(f"{spec.name}={token}", KIND_CATEGORICAL))
    specs.append(ds.label_spec)
    return Dataset(
        features=np.hstack(blocks),
        labels=ds.labels,
        column_specs=tuple(specs),
        class_names=ds.class_names,
    )


def standardization_stats(
    ds: Dataset,
    stats_from: Sequence[int] | np.ndarray,
    include_onehot: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (mean, inverse-scale) computed over the given rows.

    Columns that standardization does not touch get mean 0 and scale 1.
    A column whose values over the given rows are all equal (or whose
    population std is 0) gets scale 0, which maps it to all-zero when
    applied; any other column gets unit std, even a spread below 1e-12.
    """
    rows = np.asarray(stats_from, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("stats_from must be non-empty")
    touch = np.array(
        [
            s.kind == KIND_NUMERIC or (include_onehot and s.kind == KIND_CATEGORICAL)
            for s in ds.feature_specs
        ],
        dtype=bool,
    )
    mean = np.zeros(ds.n_features)
    inv_scale = np.ones(ds.n_features)
    if touch.any():
        sub = ds.features[rows][:, touch]
        m = sub.mean(axis=0)
        std = sub.std(axis=0)  # population std (divide by n)
        # Rounding leaves a constant column far from 0 a tiny nonzero std.
        constant = (sub == sub[0]).all(axis=0) | (std == 0.0)
        inv = np.where(constant, 0.0, 1.0 / np.where(constant, 1.0, std))
        mean[touch] = m
        inv_scale[touch] = inv
    return mean, inv_scale


def apply_standardization(ds: Dataset, stats: tuple[np.ndarray, np.ndarray]) -> Dataset:
    """Shift and scale a dataset's feature columns with precomputed stats."""
    mean, inv_scale = stats
    return Dataset(
        features=(ds.features - mean) * inv_scale,
        labels=ds.labels,
        column_specs=ds.column_specs,
        class_names=ds.class_names,
        categories=ds.categories,
    )


def pca_fit(X: np.ndarray, n_components: int) -> PcaModel:
    """Top eigenvectors of the covariance of centered ``X`` with variance ratios.

    The covariance uses the population convention (divide by n); the ratios
    are unaffected by that choice. Component signs are canonicalized so the
    entry of largest magnitude is positive.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    n, d = X.shape
    if n < 2:
        raise ValueError("PCA requires at least 2 rows")
    if not 1 <= n_components <= min(n, d):
        raise ValueError("n_components must be in [1, min(rows, cols)]")
    mean = X.mean(axis=0)
    centered = X - mean
    # Wide data: the n x n Gram matrix has the same nonzero spectrum as the
    # d x d covariance and is far cheaper to decompose. Covariance
    # eigenvectors are recovered as X^T u / ||X^T u||; directions past the
    # rank get zero rows, which project to zero anyway because their
    # variance ratios are zero.
    wide = d > max(n, 128)
    gram = centered @ centered.T if wide else centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(gram / n)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = eigvals.sum()
    rank = int((eigvals > total * 1e-12).sum())
    if wide:
        components = np.zeros((n_components, d))
        for j in range(min(n_components, rank)):
            v = centered.T @ eigvecs[:, j]
            components[j] = v / np.linalg.norm(v)
    else:
        components = eigvecs[:, :n_components].T.copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    if total > 0:
        ratios = eigvals[:n_components] / total
    else:
        ratios = np.zeros(n_components)
    if n_components > rank:
        ratios = ratios.copy()
        ratios[rank:] = 0.0
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance_ratio=ratios,
    )


def pca_project(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Project rows onto the components, weighting each by its variance ratio."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(
            f"X must have {model.input_dim} columns, got shape {X.shape}"
        )
    return (X - model.mean) @ model.components.T * model.explained_variance_ratio
