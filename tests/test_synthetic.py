"""Seeded generators: schemas, determinism, and CSV round trips."""

import numpy as np
import pytest

from dci_lab.dataset import ColumnSpec, Dataset, load_csv, load_idx, one_hot, read_colspec, write_idx
from dci_lab.synthetic import (
    census_income,
    digit_images,
    digits_dataset,
    three_class_points,
    wine_quality,
    write_colspec,
    write_dataset_csv,
)


class TestGenerators:
    def test_three_class_schema(self):
        ds = three_class_points(50, seed=1)
        assert ds.n_rows == 150 and ds.n_features == 2
        assert ds.class_names == ("a", "b", "c")
        assert np.bincount(ds.labels).tolist() == [50, 50, 50]

    def test_census_schema(self):
        ds = census_income(2000, seed=4)
        assert ds.n_rows == 2000 and ds.n_features == 6
        assert ds.class_count == 2
        rate = ds.labels.mean()
        assert 0.15 < rate < 0.45  # overlapping classes, not a degenerate label
        assert set(ds.categories) == {"education", "occupation", "marital"}
        wide = one_hot(ds)
        assert wide.n_features == 18

    def test_wine_schema(self):
        ds = wine_quality(800, seed=2)
        assert ds.n_rows == 800 and ds.n_features == 11
        assert not ds.is_classification
        values = np.unique(ds.labels)
        assert values.min() >= 3.0 and values.max() <= 8.0
        assert np.array_equal(values, values.astype(np.int64))
        assert len(values) >= 4  # several quality levels actually occur

    def test_digit_images(self):
        images, labels = digit_images(45, seed=8)
        assert images.shape == (45, 28, 28) and images.dtype == np.uint8
        assert labels.tolist() == [i % 10 for i in range(45)]
        ds = digits_dataset(45, seed=8)
        assert ds.n_features == 784
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert np.array_equal(ds.features[3], images[3].reshape(-1) / 255.0)

    @pytest.mark.parametrize(
        "make",
        [three_class_points, census_income, wine_quality, digits_dataset],
    )
    def test_seeded_determinism(self, make):
        a = make(60, 9)
        b = make(60, 9)
        c = make(60, 10)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)


class TestDigitsAsIdx:
    def test_digits_equal_their_idx_files(self, tmp_path):
        ds = digits_dataset(600, 3)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(*digit_images(600, 3), ip, lp)
        back = load_idx(ip, lp)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert (back.column_specs, back.class_names) == (ds.column_specs, ds.class_names)


class TestCsvRoundTrip:
    def test_tokens_with_commas_and_quotes_are_quoted(self, tmp_path):
        ds = Dataset(
            features=np.array([[1.0, 0.0], [2.5, 1.0], [3.0, 0.0]]),
            labels=np.array([0, 1, 1]),
            column_specs=(ColumnSpec("x", "numeric"), ColumnSpec("cat", "categorical"), ColumnSpec("y", "label_class")),
            class_names=('say "p"', "q"),
            categories={"cat": ("a,b", "c")},
        )
        csv_path, spec_path = tmp_path / "t.csv", tmp_path / "t.spec"
        write_dataset_csv(ds, csv_path)
        write_colspec(ds, spec_path)
        assert csv_path.read_text().splitlines()[1] == '1,"a,b","say ""p"""'
        back = load_csv(csv_path, read_colspec(spec_path))
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert (back.class_names, back.categories) == (ds.class_names, ds.categories)

    def test_token_with_a_lone_carriage_return_is_quoted(self, tmp_path):
        ds = Dataset(
            features=np.array([[1.0, 0.0], [2.0, 1.0]]),
            labels=np.array([0, 1]),
            column_specs=(ColumnSpec("x", "numeric"), ColumnSpec("cat", "categorical"), ColumnSpec("y", "label_class")),
            class_names=("p", "q"),
            categories={"cat": ("a\rb", "c")},
        )
        csv_path, spec_path = tmp_path / "t.csv", tmp_path / "t.spec"
        write_dataset_csv(ds, csv_path)
        write_colspec(ds, spec_path)
        assert csv_path.read_bytes() == b'x,cat,y\n1,"a\rb",p\n2,c,q\n'
        back = load_csv(csv_path, read_colspec(spec_path))
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert (back.class_names, back.categories) == (ds.class_names, ds.categories)

    def test_census_survives_write_and_load(self, tmp_path):
        ds = census_income(40, seed=3)
        csv_path, spec_path = tmp_path / "t.csv", tmp_path / "t.spec"
        write_dataset_csv(ds, csv_path)
        write_colspec(ds, spec_path)
        back = load_csv(csv_path, read_colspec(spec_path))
        # The loader numbers tokens in first-seen order, so compare the
        # decoded tokens, cell by cell.
        for j, spec in enumerate(ds.feature_specs):
            if spec.kind == "categorical":
                tokens, got = ds.categories[spec.name], back.categories[spec.name]
                assert [got[int(i)] for i in back.features[:, j]] == [tokens[int(i)] for i in ds.features[:, j]]
            else:
                assert back.features[:, j] == pytest.approx(ds.features[:, j], rel=1e-8)
        assert [back.class_names[i] for i in back.labels] == [ds.class_names[i] for i in ds.labels]

    def test_wine_numeric_label_round_trip(self, tmp_path):
        ds = wine_quality(25, seed=1)
        csv_path, spec_path = tmp_path / "w.csv", tmp_path / "w.spec"
        write_dataset_csv(ds, csv_path)
        write_colspec(ds, spec_path)
        back = load_csv(csv_path, read_colspec(spec_path))
        assert back.features == pytest.approx(ds.features, rel=1e-8)
        assert back.labels == pytest.approx(ds.labels)
