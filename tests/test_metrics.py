"""Ranking metrics against brute-force definitions and scipy."""

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from dci_lab.metrics import (
    DecileReport,
    accuracy,
    auroc,
    average_reports,
    decile_analysis,
    rmse,
    write_decile_csv,
)


class TestPointMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_rmse(self, rng):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
        a, b = rng.normal(size=30), rng.normal(size=30)
        assert rmse(a, b) == pytest.approx(np.sqrt(np.mean((a - b) ** 2)), rel=1e-12)
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


def concordance_auroc(scores, labels):
    """Pairwise definition: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuroc:
    def test_matches_pairwise_concordance_exactly(self, rng):
        # Heavy tie mass on purpose: scores drawn from a small lattice.
        for _ in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 6, size=n) / 4.0
            assert auroc(scores, labels) == concordance_auroc(scores, labels)

    def test_known_values(self):
        assert auroc([0.1, 0.9], [0, 1]) == 1.0
        assert auroc([0.9, 0.1], [0, 1]) == 0.0
        assert auroc([0.5, 0.5], [0, 1]) == 0.5
        assert auroc([1, 2, 3, 4], [0, 1, 0, 1]) == 0.75

    def test_rank_sum_agrees_with_scipy_average_ranks(self, rng):
        scores = rng.integers(0, 10, size=200) / 3.0
        labels = rng.integers(0, 2, size=200)
        ranks = rankdata(scores)
        n_pos = labels.sum()
        n_neg = 200 - n_pos
        want = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        assert auroc(scores, labels) == pytest.approx(want, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [0, 0])  # one class only
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [0, 2])
        with pytest.raises(ValueError):
            auroc([0.1], [1])
        with pytest.raises(ValueError):
            auroc([0.1, 0.2, 0.3], [0, 1])

    @given(st.integers(0, 10_000))
    def test_complementing_scores_flips_auroc(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=n)
        assert auroc(-scores, labels) == pytest.approx(
            1.0 - auroc(scores, labels), abs=1e-12
        )


class TestDecileAnalysis:
    def test_bucket_sizes_put_remainder_first(self, rng):
        # n=23 -> 3 leading buckets of 3, then 2s.
        report = decile_analysis(rng.normal(size=23), rng.integers(0, 2, size=23))
        assert report.counts.tolist() == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]
        assert report.counts.sum() == 23

    def test_sorted_ascending_by_score(self):
        scores = np.arange(20)[::-1].astype(float)  # descending input
        correct = np.zeros(20, dtype=np.int64)
        correct[:10] = 1  # the HIGH scores are the correct ones
        report = decile_analysis(scores, correct)
        # Ascending deciles: low scores first, which are the incorrect half.
        assert report.accuracies[:5].tolist() == [0.0] * 5
        assert report.accuracies[5:].tolist() == [1.0] * 5

    def test_stable_under_ties(self):
        scores = np.zeros(20)
        correct = np.array([1, 0] * 10)
        report = decile_analysis(scores, correct)
        # All-ties: stable sort keeps input order, deciles alternate
        assert report.accuracies.tolist() == [0.5] * 10

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            decile_analysis(rng.normal(size=9), rng.integers(0, 2, size=9))
        with pytest.raises(ValueError):
            decile_analysis(rng.normal(size=12), np.full(12, 2))
        with pytest.raises(ValueError):
            decile_analysis(rng.normal(size=12), rng.integers(0, 2, size=11))

    @staticmethod
    def _report(count, accuracies):
        return DecileReport(np.full(10, count), np.asarray(accuracies, dtype=np.float64))

    def test_average_reports(self):
        a = self._report(2, np.linspace(0.0, 0.9, 10))
        b = self._report(2, np.linspace(1.0, 0.1, 10))
        merged = average_reports([a, b])
        assert merged.counts.tolist() == [2] * 10  # layout kept, not summed
        assert merged.accuracies == pytest.approx(np.full(10, 0.5))
        with pytest.raises(ValueError):
            average_reports([])
        with pytest.raises(ValueError):
            average_reports([a, self._report(3, b.accuracies)])

    def test_csv_round_trip(self, tmp_path, rng):
        report = decile_analysis(rng.normal(size=47), rng.integers(0, 2, size=47))
        path = tmp_path / "deciles.csv"
        write_decile_csv(path, report)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["decile", "count", "accuracy"]
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 11)]
        assert [int(r[1]) for r in rows[1:]] == report.counts.tolist()
        got = np.array([float(r[2]) for r in rows[1:]])
        assert got == pytest.approx(report.accuracies, rel=1e-8)
