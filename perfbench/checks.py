"""Output checks: an independent oracle for ``score`` and properties for the rest.

Nothing here imports dci_lab. Each check returns how many operations it
looked at and which of them failed, with one line per problem:

- ``simulate``: one operation per seeded run (strategy x seed);
- ``score``: one operation per checked query row;
- ``analyze``: one operation per decile table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

# Summary cells are recomputed from curve values that were rounded to 9
# significant digits, and are themselves rounded the same way: two roundings
# of values in [0, 1] put them at most 1e-9 apart.
SUMMARY_ATOL = 5e-9

# Score tolerance: |program - oracle| <= SCORE_RTOL * |oracle| + SCORE_ATOL.
# scores.csv carries 9 significant digits (relative rounding 5e-10). The
# program computes squared distances as |q|^2 - 2 q.r + |r|^2, whose absolute
# error (~1e-15 times the squared norms) reaches ~5e-9 relative in the score
# of a held-out row with a neighbour at distance ~1e-3; SCORE_RTOL leaves a
# factor 20 above that. SCORE_ATOL covers the rows that copy a pool row: one
# neighbour sits at distance 0, so the true score is 0 to ~1e-11, and the
# expansion's leftover ~1e-8 distance moves it by up to ~1e-10. Every other
# row with a nonzero score scores above ~1e-4, far above SCORE_ATOL. How
# many copy rows miss SCORE_RTOL alone is reported with each run.
SCORE_RTOL = 1e-7
SCORE_ATOL = 1e-9


@dataclass
class CheckResult:
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(message)

    def merge(self, other: "CheckResult") -> None:
        base = self.attempted
        self.attempted += other.attempted
        self.failed_ops.update((base, op) for op in other.failed_ops)
        self.problems.extend(other.problems)
        for k, v in other.info.items():
            self.info.setdefault(k, v)


def _read_rows(path: Path, header: list[str]) -> list[list[str]] | None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError:
        return None
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def check_simulate(
    out: Path,
    strategies: list[str],
    seeds: list[int],
    schedule: list[int],
    metric: str,
    n_classes: int,
) -> CheckResult:
    res = CheckResult(attempted=len(strategies) * len(seeds))
    all_ops = [(s, seed) for s in strategies for seed in seeds]
    curves = _read_rows(out / "curves.csv", ["strategy", "seed", "train_size", "metric", "value"])
    if curves is None:
        for op in all_ops:
            res.fail(op, f"{out}/curves.csv missing or wrong header")
        return res
    expected_rows = len(strategies) * len(seeds) * len(schedule)
    if len(curves) != expected_rows:
        res.problems.append(f"curves.csv has {len(curves)} rows, expected {expected_rows}")
    points: dict[tuple[str, int], list[tuple[int, float]]] = {op: [] for op in all_ops}
    for strategy, seed, size, name, value in curves:
        op = (strategy, int(seed))
        if op not in points or name != metric:
            res.problems.append(f"unexpected curve row {strategy},{seed},{size},{name}")
            continue
        points[op].append((int(size), float(value)))
    chance = 0.5 if metric == "auroc" else 1.0 / n_classes
    for op in all_ops:
        sizes = [s for s, _ in points[op]]
        values = [v for _, v in points[op]]
        if sizes != schedule:
            res.fail(op, f"{op}: train sizes {sizes} do not follow the schedule {schedule}")
            continue
        if not all(0.0 <= v <= 1.0 for v in values):
            res.fail(op, f"{op}: metric values outside [0, 1]: {values}")
        if op[0] == "random" and not values[-1] > chance:
            res.fail(op, f"{op}: final random {metric} {values[-1]} does not beat chance {chance}")
    for seed in seeds:
        firsts = {s: points[(s, seed)][0] for s in strategies if points[(s, seed)]}
        if len(set(firsts.values())) > 1:
            for s in strategies:
                res.fail((s, seed), f"seed {seed}: first curve points differ across strategies: {firsts}")

    summary = _read_rows(out / "summary.csv", ["strategy", "train_size", "mean", "median", "q25", "q75"])
    if summary is None:
        for op in all_ops:
            res.fail(op, f"{out}/summary.csv missing or wrong header")
        return res
    got = {(r[0], int(r[1])): [float(x) for x in r[2:]] for r in summary}
    if len(got) != len(summary) or len(summary) != len(strategies) * len(schedule):
        res.problems.append(f"summary.csv has {len(summary)} rows, expected {len(strategies) * len(schedule)}")
    for s in strategies:
        if any(len(points[(s, seed)]) != len(schedule) for seed in seeds):
            continue
        values = np.array([[v for _, v in points[(s, seed)]] for seed in seeds])
        q25, med, q75 = np.quantile(values, [0.25, 0.5, 0.75], axis=0)
        want = np.column_stack([values.mean(axis=0), med, q25, q75])
        for j, size in enumerate(schedule):
            row = got.get((s, size))
            if row is None or not np.allclose(row, want[j], rtol=0.0, atol=SUMMARY_ATOL):
                for seed in seeds:
                    res.fail((s, seed), f"summary {s} @ {size}: {row} != recomputed {want[j].tolist()}")
    return res


def _parse_pool(path: Path, colspec: Path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """(encoded features, label tokens, numeric-column mask) read from the text."""
    kinds = {}
    for line in colspec.read_text(encoding="utf-8").splitlines():
        name, _, kind = line.partition("=")
        kinds[name.strip()] = kind.strip()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader if r]
    features = [h for h in header if not kinds[h].startswith("label")]
    label_col = next(i for i, h in enumerate(header) if kinds[h].startswith("label"))
    vocab: dict[str, list[str]] = {h: [] for h in features if kinds[h] == "categorical"}
    for r in rows:
        for i, h in enumerate(header):
            if h in vocab and r[i] not in vocab[h]:
                vocab[h].append(r[i])
    columns: list[tuple[int, str | None]] = []
    for i, h in enumerate(header):
        if h in vocab:
            columns.extend((i, tok) for tok in vocab[h])
        elif i != label_col:
            columns.append((i, None))
    X = np.array(
        [[float(r[i]) if tok is None else float(r[i] == tok) for i, tok in columns] for r in rows]
    )
    numeric = np.array([tok is None for _, tok in columns])
    return X, [r[label_col] for r in rows], numeric


def oracle_scores(
    pool_csv: Path, colspec: Path, query_csv: Path, rows: list[int], k: int, alpha: float, beta: float, eps: float
) -> dict[int, float]:
    """DCI of the given query rows, computed apart from the program.

    Standardizes numeric pool columns with their population mean and std,
    applies the same map to the queries, takes direct-difference Euclidean
    distances, ranks neighbours by (distance, pool index) and evaluates the
    README formula in plain Python.
    """
    X, labels, numeric = _parse_pool(pool_csv, colspec)
    with open(query_csv, newline="", encoding="utf-8") as fh:
        q_rows = [r for r in csv.reader(fh) if r][1:]
    Q = np.array([[float(c) for c in q_rows[i]] for i in rows])
    mean = np.where(numeric, X.mean(axis=0), 0.0)
    std = np.where(numeric, X.std(axis=0), 1.0)
    Xs = (X - mean) / std
    Qs = (Q - mean) / std
    classes = sorted(set(labels))
    out = {}
    for start in range(0, len(rows), 200):
        D = cdist(Qs[start : start + 200], Xs)
        for j, d in enumerate(D):
            nbrs = np.lexsort((np.arange(d.size), d))[:k]
            dists = [float(d[i]) for i in nbrs]
            labs = [labels[i] for i in nbrs]
            weights = [1.0 / (x**alpha + eps) for x in dists]
            denom = math.fsum((x**alpha + eps) ** (-beta) for x in dists)
            num = min(math.fsum(w for w, y in zip(weights, labs) if y != c) for c in classes)
            out[rows[start + j]] = num / denom
    return out


def check_score(out: Path, n_queries: int, oracle: dict[int, float], copies: set[int]) -> CheckResult:
    res = CheckResult(attempted=len(oracle))
    body = _read_rows(out / "scores.csv", ["dci"])
    if body is None or len(body) != n_queries:
        for i in oracle:
            res.fail(i, f"{out}/scores.csv missing, wrong header or not {n_queries} rows")
        return res
    off_copies = 0
    for i, want in oracle.items():
        got = float(body[i][0])
        if not abs(got - want) <= SCORE_RTOL * abs(want) + SCORE_ATOL:
            res.fail(i, f"query row {i}: score {got!r} != oracle {want!r}")
        if i in copies and not abs(got - want) <= SCORE_RTOL * abs(want):
            off_copies += 1
    res.info["copy rows checked"] = len(copies & set(oracle))
    res.info["copy rows off the oracle by more than SCORE_RTOL"] = off_copies
    return res


def check_analyze(out: Path, train_sizes: list[int], labels: list[str], falling: list[str], test_size: dict[int, int]) -> CheckResult:
    """Decile tables: ten buckets summing to the test size, and for the
    ``falling`` labels, higher accuracy in the lowest-uncertainty decile than
    in the highest."""
    res = CheckResult(attempted=len(train_sizes) * len(labels))
    for size in train_sizes:
        for label in labels:
            op = (size, label)
            path = out / f"decile_train{size}_{label}.csv"
            rows = _read_rows(path, ["decile", "count", "accuracy"])
            if rows is None or [r[0] for r in rows] != [str(i) for i in range(1, 11)]:
                res.fail(op, f"{path.name}: missing, wrong header or not deciles 1..10")
                continue
            counts = [int(r[1]) for r in rows]
            acc = [float(r[2]) for r in rows]
            if sum(counts) != test_size[size]:
                res.fail(op, f"{path.name}: counts sum to {sum(counts)}, test size is {test_size[size]}")
            if not all(0.0 <= a <= 1.0 for a in acc):
                res.fail(op, f"{path.name}: accuracy outside [0, 1]")
            if label in falling and not acc[0] > acc[-1]:
                res.fail(op, f"{path.name}: lowest-uncertainty accuracy {acc[0]} <= highest {acc[-1]}")
    return res
