"""Seeded input files for the benchmark workloads.

The benchmark makes its own inputs instead of calling ``dci_lab.synthetic``,
so a change to the program's generators cannot change what is measured.
Every function here is a pure function of its seed. The program only ever
sees the files written here.

Pools follow the schemas of the program's synthetic stand-ins:

- census: a binary income table with three numeric and three categorical
  feature columns (18 columns after one-hot encoding), written as CSV plus
  a colspec sidecar;
- digits: 28x28 uint8 images of ten noisy blob prototypes, written as an
  IDX image/label pair.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CENSUS_NUMERIC = ("age", "hours", "capital_gain")
CENSUS_CATEGORIES = {
    "education": ("basic", "highschool", "college", "bachelors", "masters", "doctorate"),
    "occupation": ("service", "clerical", "trades", "sales", "professional", "management"),
    "marital": ("single", "married", "divorced"),
}
_CATEGORY_PROBS = {
    "education": (0.10, 0.30, 0.20, 0.25, 0.10, 0.05),
    "occupation": (0.20, 0.15, 0.20, 0.15, 0.15, 0.15),
    "marital": (0.35, 0.50, 0.15),
}
_CATEGORY_EFFECT = {
    "education": (0.0, 0.55, 1.10, 1.65, 2.20, 2.75),
    "occupation": (-0.8, -0.3, 0.0, 0.1, 0.9, 1.2),
    "marital": (-0.9, 0.8, -0.4),
}
# Column order of the CSV; the label comes last.
CENSUS_COLUMNS = ("age", "education", "occupation", "marital", "hours", "capital_gain", "income")
CENSUS_CLASSES = ("<=50k", ">50k")

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class CensusTable:
    """Census rows as the text cells written to the CSV, label last."""

    rows: list[list[str]]

    def encoded_columns(self) -> list[tuple[str, str | None]]:
        """(column, token) pairs of the one-hot encoded feature space.

        Categorical vocabularies are in first-seen order over the rows, which
        is the order a CSV loader that builds vocabularies while reading
        produces. Numeric columns have token None.
        """
        first_seen: dict[str, list[str]] = {c: [] for c in CENSUS_CATEGORIES}
        for row in self.rows:
            for j, col in enumerate(CENSUS_COLUMNS[:-1]):
                if col in first_seen and row[j] not in first_seen[col]:
                    first_seen[col].append(row[j])
        out: list[tuple[str, str | None]] = []
        for col in CENSUS_COLUMNS[:-1]:
            if col in first_seen:
                out.extend((col, tok) for tok in first_seen[col])
            else:
                out.append((col, None))
        return out

    def encoded_cells(self, row: list[str], columns: list[tuple[str, str | None]]) -> list[str]:
        """One row as text cells of the encoded space, numeric tokens verbatim."""
        by_name = dict(zip(CENSUS_COLUMNS, row))
        return [by_name[c] if tok is None else ("1" if by_name[c] == tok else "0") for c, tok in columns]


def census_table(n: int, seed: int) -> CensusTable:
    """n census rows whose label is a Bernoulli draw from a logistic model."""
    rng = np.random.default_rng([seed, 0xCE5])
    age = rng.uniform(18.0, 80.0, n)
    cats = {
        col: rng.choice(len(toks), size=n, p=_CATEGORY_PROBS[col])
        for col, toks in CENSUS_CATEGORIES.items()
    }
    hours = np.clip(rng.normal(40.0, 12.0, n), 5.0, 99.0)
    capital = np.where(rng.random(n) < 0.2, rng.exponential(1200.0, n), 0.0)
    z = -4.9 + 0.040 * (age - 18.0) + 0.028 * (hours - 40.0) + 0.00035 * capital
    for col, ids in cats.items():
        z = z + np.asarray(_CATEGORY_EFFECT[col])[ids]
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-z))
    rows = []
    for i in range(n):
        rows.append(
            [
                format(age[i], ".9g"),
                CENSUS_CATEGORIES["education"][cats["education"][i]],
                CENSUS_CATEGORIES["occupation"][cats["occupation"][i]],
                CENSUS_CATEGORIES["marital"][cats["marital"][i]],
                format(hours[i], ".9g"),
                format(capital[i], ".9g"),
                CENSUS_CLASSES[int(y[i])],
            ]
        )
    return CensusTable(rows=rows)


def write_census_csv(table: CensusTable, csv_path: Path, colspec_path: Path) -> None:
    lines = [",".join(CENSUS_COLUMNS)] + [",".join(r) for r in table.rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    kinds = [
        "numeric" if c in CENSUS_NUMERIC else "categorical" for c in CENSUS_COLUMNS[:-1]
    ] + ["label_class"]
    colspec_path.write_text(
        "".join(f"{c} = {k}\n" for c, k in zip(CENSUS_COLUMNS, kinds)), encoding="utf-8"
    )


def write_query_csv(
    pool: CensusTable, held_out: CensusTable, n_copies: int, seed: int, path: Path
) -> np.ndarray:
    """Held-out rows plus exact copies of pool rows, shuffled, in the encoded space.

    Returns, per query row, the pool row it copies (-1 for held-out rows).
    """
    columns = pool.encoded_columns()
    rng = np.random.default_rng([seed, 0x9E7])
    copies = rng.choice(len(pool.rows), size=n_copies, replace=False)
    cells = [pool.encoded_cells(r, columns) for r in held_out.rows]
    cells += [pool.encoded_cells(pool.rows[i], columns) for i in copies]
    source = np.r_[np.full(len(held_out.rows), -1), copies]
    order = rng.permutation(len(cells))
    cells = [cells[i] for i in order]
    header = ",".join(c if t is None else f"{c}={t}" for c, t in columns)
    path.write_text("\n".join([header] + [",".join(r) for r in cells]) + "\n", encoding="utf-8")
    return source[order]


def digit_images(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels): low-contrast blob prototypes under heavy pixel noise.

    Classes cycle 0..9. The contrast is low so that nearest-neighbour
    accuracy stays well below 1 at the schedule's label counts.
    """
    rng = np.random.default_rng([seed, 0xD1617])
    protos = np.kron(rng.uniform(0.0, 1.0, size=(10, 7, 7)), np.ones((4, 4))) * 50.0 + 60.0
    labels = np.arange(n, dtype=np.int64) % 10
    noise = rng.normal(0.0, 80.0, size=(n, 28, 28))
    images = np.clip(protos[labels] + noise, 0.0, 255.0).astype(np.uint8)
    return images, labels


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: Path, labels_path: Path) -> None:
    n, rows, cols = images.shape
    images_path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols) + images.tobytes())
    labels_path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, n) + labels.astype(np.uint8).tobytes())


def write_config(path: Path, values: dict[str, object]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
