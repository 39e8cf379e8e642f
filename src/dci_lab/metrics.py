"""Evaluation measures and the uncertainty-vs-accuracy decile analysis."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import write_csv


class DecileReport(NamedTuple):
    """Per-decile item counts and accuracies after sorting test items by
    uncertainty, lowest-uncertainty decile first."""

    counts: np.ndarray
    accuracies: np.ndarray


def _ranks_with_ties(values: np.ndarray) -> np.ndarray:
    """1-based ranks, equal values sharing their average rank.

    Average ranks are integers or half-integers, so all sums downstream stay
    exact in float64 at the sizes this package handles.
    """
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    s = values[order]
    starts = np.r_[True, s[1:] != s[:-1]]
    group = np.cumsum(starts) - 1
    first = np.nonzero(starts)[0]
    counts = np.diff(np.r_[first, n])
    avg = first + (counts + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = avg[group]
    return ranks


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties 0.5.

    Computed from rank sums, which equals all-pairs concordance counting
    exactly (not just within tolerance).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d of equal length")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    n_pos = int((labels == 1).sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    ranks = _ranks_with_ties(scores)
    rank_sum = ranks[labels == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of exact matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1 or predicted.size == 0:
        raise ValueError("inputs must be non-empty 1-d vectors of equal length")
    return float((predicted == truth).mean())


def rmse(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape or predicted.ndim != 1 or predicted.size == 0:
        raise ValueError("inputs must be non-empty 1-d vectors of equal length")
    return float(np.sqrt(((predicted - truth) ** 2).mean()))


def decile_analysis(uncertainties: np.ndarray, correct: np.ndarray) -> DecileReport:
    """Accuracy per uncertainty decile, lowest-uncertainty decile first.

    Items are sorted ascending by uncertainty (stable, so ties keep their
    original order) and partitioned into 10 buckets; when the count is not
    divisible by 10 the leading buckets take one extra item each.
    """
    u = np.asarray(uncertainties, dtype=np.float64)
    c = np.asarray(correct)
    if u.shape != c.shape or u.ndim != 1:
        raise ValueError("inputs must be 1-d of equal length")
    if u.shape[0] < 10:
        raise ValueError("decile analysis needs at least 10 items")
    if not np.isin(c, (0, 1)).all():
        raise ValueError("correct must be binary 0/1")
    order = np.argsort(u, kind="stable")
    base, rem = divmod(u.shape[0], 10)
    counts = np.where(np.arange(10) < rem, base + 1, base)
    chunks = np.split(c[order].astype(np.float64), np.cumsum(counts)[:-1])
    return DecileReport(counts, np.array([chunk.mean() for chunk in chunks]))


def average_reports(reports: list[DecileReport]) -> DecileReport:
    """Bucket-wise mean accuracy over reports sharing one bucket layout."""
    if not reports:
        raise ValueError("no reports to average")
    counts = reports[0].counts
    for r in reports[1:]:
        if not np.array_equal(r.counts, counts):
            raise ValueError("reports have mismatched bucket sizes")
    return DecileReport(counts, np.mean([r.accuracies for r in reports], axis=0))


def write_decile_csv(path: str | Path, report: DecileReport) -> None:
    """Write one decile,count,accuracy row per bucket."""
    write_csv(path, ["decile", "count", "accuracy"], zip(range(1, 11), *report))
