"""Loading, encoding, standardization and PCA behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_classification
from dci_lab.dataset import (
    ColumnSpec,
    DataError,
    Dataset,
    apply_standardization,
    load_csv,
    load_idx,
    one_hot,
    pca_fit,
    pca_project,
    read_colspec,
    standardization_stats,
    write_csv,
    write_idx,
)


class TestDatasetType:
    def test_validation(self, rng):
        X = rng.normal(size=(4, 2))
        specs = (
            ColumnSpec("a", "numeric"),
            ColumnSpec("b", "numeric"),
            ColumnSpec("y", "label_class"),
        )
        ok = Dataset(X, [0, 1, 0, 1], specs, class_names=("n", "p"))
        assert ok.n_rows == 4 and ok.n_features == 2
        assert ok.is_classification and ok.class_count == 2
        with pytest.raises(ValueError):
            Dataset(X, [0, 1, 0, 1], specs)  # class_names required
        with pytest.raises(ValueError):
            Dataset(X, [0, 2, 0, 1], specs, class_names=("n", "p"))  # out of range
        with pytest.raises(ValueError):
            Dataset(X, [0, 1, 0], specs, class_names=("n", "p"))  # length mismatch
        with pytest.raises(ValueError):
            Dataset(X, [0, 1, 0, 1], specs[:2], class_names=("n", "p"))  # no label
        with pytest.raises(ValueError):
            Dataset(X, [0, 1, 0, 1], (specs[2], specs[0], specs[1]), class_names=("n", "p"))
        with pytest.raises(ValueError):
            ColumnSpec("a", "wibble")

    def test_numeric_label_dataset(self, rng):
        specs = (ColumnSpec("a", "numeric"), ColumnSpec("y", "label_numeric"))
        ds = Dataset(rng.normal(size=(3, 1)), [0.5, 1.5, -2.0], specs)
        assert not ds.is_classification
        assert ds.labels.dtype == np.float64
        with pytest.raises(ValueError):
            ds.class_count
        with pytest.raises(ValueError):
            Dataset(ds.features, ds.labels, specs, class_names=("a",))

    def test_class_codes(self, rng):
        ds = make_classification(rng.normal(size=(4, 2)), [2, 0, 2, 1], ("a", "b", "c", "d"))
        codes, n = ds.class_codes
        assert codes.tolist() == [2, 0, 2, 1] and n == 4  # unused classes still count
        specs = (ColumnSpec("a", "numeric"), ColumnSpec("y", "label_numeric"))
        ds = Dataset(rng.normal(size=(5, 1)), [7.5, -1.0, 7.5, 3.0, -1.0], specs)
        codes, n = ds.class_codes
        assert codes.dtype == np.int64
        assert codes.tolist() == [2, 0, 2, 1, 0] and n == 3

    def test_arrays_are_readonly(self, rng):
        ds = make_classification(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_select_rows_preserves_order_and_metadata(self, rng):
        ds = make_classification(rng.normal(size=(6, 2)), [0, 1, 2, 0, 1, 2])
        sub = ds.select_rows([4, 0, 4])
        assert sub.labels.tolist() == [1, 0, 1]
        assert np.array_equal(sub.features[0], ds.features[4])
        assert sub.class_names == ds.class_names
        assert sub.column_specs == ds.column_specs


class TestColspecFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "cols.spec"
        p.write_text(
            "# comment\n\nage = numeric\n  job=categorical\nincome = label_class\n"
        )
        specs = read_colspec(p)
        assert [(s.name, s.kind) for s in specs] == [
            ("age", "numeric"),
            ("job", "categorical"),
            ("income", "label_class"),
        ]

    @pytest.mark.parametrize(
        "body",
        [
            "age numeric\n",  # no equals
            "age = float\ny = label_class\n",  # unknown kind
            "a = numeric\na = numeric\ny = label_class\n",  # duplicate
            "a = numeric\n",  # no label
            "a = label_class\nb = label_numeric\n",  # two labels
        ],
    )
    def test_rejects_malformed(self, tmp_path, body):
        p = tmp_path / "bad.spec"
        p.write_text(body)
        with pytest.raises(DataError):
            read_colspec(p)


CSV_SPECS = [
    ColumnSpec("age", "numeric"),
    ColumnSpec("job", "categorical"),
    ColumnSpec("income", "label_class"),
]


class TestLoadCsv:
    def test_happy_path_first_seen_vocabularies(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "age,job,income\n"
            "30, teacher ,low\n"
            "40,clerk,high\n"
            "50,teacher,low\n"
        )
        ds = load_csv(p, CSV_SPECS)
        assert ds.features[:, 0].tolist() == [30.0, 40.0, 50.0]
        assert ds.features[:, 1].tolist() == [0.0, 1.0, 0.0]
        assert ds.categories == {"job": ("teacher", "clerk")}
        assert ds.class_names == ("low", "high")
        assert ds.labels.tolist() == [0, 1, 0]

    def test_feature_order_follows_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("income,job,age\nlow,clerk,18\n")
        ds = load_csv(p, CSV_SPECS)
        assert [s.name for s in ds.feature_specs] == ["job", "age"]
        assert ds.features[0].tolist() == [0.0, 18.0]

    def test_missing_token_rows_dropped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,job,income\n30,?,low\n31,clerk,high\n,clerk,low\n")
        ds = load_csv(p, CSV_SPECS)
        assert ds.n_rows == 1
        assert ds.features[0, 0] == 31.0

    def test_numeric_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1.0,2.5\n2.0,3.5\n")
        ds = load_csv(p, [ColumnSpec("x", "numeric"), ColumnSpec("y", "label_numeric")])
        assert not ds.is_classification
        assert ds.labels.tolist() == [2.5, 3.5]

    @pytest.mark.parametrize(
        "body",
        [
            "",  # empty file
            "age,job\n30,clerk\n",  # label column missing from header
            "age,job,income,extra\n30,clerk,low,x\n",  # unknown column
            "age,age,job,income\n30,31,clerk,low\n",  # repeated column
            "age,job,income\n30,clerk\n",  # short record
            "age,job,income\nthirty,clerk,low\n",  # non-numeric token
            "age,job,income\n?,clerk,low\n",  # all rows dropped
            "age,job,income\nnan,clerk,low\n",  # non-finite numeric cell
            "age,job,income\n-inf,clerk,low\n",  # non-finite numeric cell
            'age,job,income\n30,clerk,low\n40,"clerk,high\n50,clerk,low\n',  # unterminated quote
        ],
    )
    def test_rejects_malformed(self, tmp_path, body):
        p = tmp_path / "bad.csv"
        p.write_text(body)
        with pytest.raises(DataError):
            load_csv(p, CSV_SPECS)

    @pytest.mark.parametrize(
        "body, specs, message",
        [
            (
                "age,job,income\n30,clerk,low\nthirty,clerk,high\nnan,clerk,low\n",
                CSV_SPECS,
                "bad.csv:3: non-numeric token 'thirty' in numeric column 'age'",
            ),
            (
                "x,y\n1,2\n?,zz\n\n2,inf\n3,oops\n",
                [ColumnSpec("x", "numeric"), ColumnSpec("y", "label_numeric")],
                "bad.csv:5: non-finite value 'inf' in numeric column 'y'",
            ),
        ],
    )
    def test_first_bad_cell_is_named_by_line_and_column(self, tmp_path, body, specs, message):
        # Line numbers count the dropped row and the blank line as well.
        p = tmp_path / "bad.csv"
        p.write_text(body)
        with pytest.raises(DataError) as err:
            load_csv(p, specs)
        assert str(err.value).endswith(message)

    @given(data=st.data())
    def test_matches_a_cell_by_cell_reading(self, tmp_path_factory, data):
        n_numeric = data.draw(st.integers(0, 3))
        n_categorical = data.draw(st.integers(0, 3))
        label_kind = data.draw(st.sampled_from(["label_class", "label_numeric"]))
        specs = [ColumnSpec(f"n{i}", "numeric") for i in range(n_numeric)]
        specs += [ColumnSpec(f"c{i}", "categorical") for i in range(n_categorical)]
        specs.append(ColumnSpec("y", label_kind))
        header = data.draw(st.permutations(specs))
        number = st.one_of(
            st.integers(-1000, 1000).map(str),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.floats(-1e6, 1e6).map(lambda v: format(v, ".4e")),
        )
        token = st.sampled_from(["a", "b", "ccc", "d e"])
        pad = st.sampled_from(["", " ", "\t", "  "])
        # One column, if any, holds missing tokens, so that most rows are kept.
        sparse = data.draw(st.sampled_from([None, *header]))

        def cell(spec):
            value = number if spec.kind in ("numeric", "label_numeric") else token
            if spec == sparse:
                value = st.one_of(value, st.sampled_from(["?", ""]))
            return st.tuples(pad, value, pad).map("".join)

        rows = data.draw(st.lists(st.tuples(*(cell(s) for s in header)), min_size=1, max_size=12))
        blank_after = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        lines = [",".join(s.name for s in header)]
        for row, blank in zip(rows, blank_after):
            lines += [",".join(row)] + [""] * blank
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        # The expectation, one cell at a time.
        vocab = {s.name: {} for s in header}
        kept = []
        for row in rows:
            cells = [c.strip() for c in row]
            if any(c in ("?", "") for c in cells):
                continue
            values = {}
            for s, c in zip(header, cells):
                if s.kind in ("numeric", "label_numeric"):
                    values[s.name] = float(c)
                else:
                    values[s.name] = vocab[s.name].setdefault(c, len(vocab[s.name]))
            kept.append(values)
        if not kept:
            with pytest.raises(DataError, match="no rows left"):
                load_csv(path, specs)
            return
        ds = load_csv(path, specs)
        feature_specs = [s for s in header if not s.is_label]
        assert ds.column_specs == tuple(feature_specs) + (specs[-1],)
        want = np.array([[v[s.name] for s in feature_specs] for v in kept], dtype=np.float64)
        assert ds.features.tobytes() == want.reshape(len(kept), len(feature_specs)).tobytes()
        assert ds.labels.tolist() == [v["y"] for v in kept]
        if label_kind == "label_class":
            assert ds.class_names == tuple(vocab["y"])
        else:
            assert ds.class_names is None
        assert ds.categories == {s.name: tuple(vocab[s.name]) for s in feature_specs if s.kind == "categorical"}


class TestWriteCsv:
    def test_byte_format(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            ("a", 1, -0.0, np.float64(-0.0), 1 / 3),
            ("b", np.int64(7), np.float64(2.0), 1e-20, np.float32(0.5)),
        ]
        write_csv(path, ["s", "i", "z", "nz", "x"], rows)
        assert path.read_bytes() == (
            b"s,i,z,nz,x\n"
            b"a,1,0,0,0.333333333\n"
            b"b,7,2,1e-20,0.5\n"
        )


class TestIdx:
    def test_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(7, 4, 5)).astype(np.uint8)
        labels = rng.integers(0, 10, size=7)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(images, labels, ip, lp)
        ds = load_idx(ip, lp)
        assert ds.n_rows == 7 and ds.n_features == 20
        assert np.array_equal(ds.features, images.reshape(7, 20) / 255.0)
        assert ds.labels.tolist() == labels.tolist()
        assert ds.class_names == tuple(str(i) for i in range(10))
        assert ds.feature_specs[0].name == "px0"

    def test_rejects_corrupt_files(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        labels = np.array([1, 2, 3])
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(images, labels, ip, lp)
        with pytest.raises(DataError):
            load_idx(lp, lp)  # wrong magic for images
        with pytest.raises(DataError):
            load_idx(ip, ip)
        short = tmp_path / "short.idx"
        short.write_bytes(ip.read_bytes()[:-3])
        with pytest.raises(DataError):
            load_idx(short, lp)
        other_lp = tmp_path / "lab2.idx"
        write_idx(images[:2], labels[:2], tmp_path / "img2.idx", other_lp)
        with pytest.raises(DataError):
            load_idx(ip, other_lp)  # label/image count mismatch

    def test_write_validation(self, rng, tmp_path):
        with pytest.raises(ValueError):
            write_idx(
                rng.normal(size=(2, 2, 2)),
                np.array([0, 1]),
                tmp_path / "a",
                tmp_path / "b",
            )


class TestOneHot:
    def build(self):
        specs = (
            ColumnSpec("x", "numeric"),
            ColumnSpec("color", "categorical"),
            ColumnSpec("y", "label_class"),
        )
        return Dataset(
            features=np.array([[1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]),
            labels=[0, 1, 0],
            column_specs=specs,
            class_names=("n", "p"),
            categories={"color": ("red", "green", "blue")},
        )

    def test_expands_with_vocabulary_names(self):
        wide = one_hot(self.build())
        assert wide.n_features == 4
        assert [s.name for s in wide.feature_specs] == [
            "x",
            "color=red",
            "color=green",
            "color=blue",
        ]
        assert wide.features[:, 1:].tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
        ]
        assert wide.features[:, 0].tolist() == [1.0, 2.0, 3.0]
        # indicator columns keep the categorical kind
        assert wide.feature_specs[1].kind == "categorical"

    def test_no_categoricals_returns_same_object(self, rng):
        ds = make_classification(rng.normal(size=(3, 2)), [0, 1, 0])
        assert one_hot(ds) is ds

    def test_out_of_range_id_rejected(self):
        base = self.build()
        ds = Dataset(
            features=np.array([[1.0, 5.0]]),
            labels=[0],
            column_specs=base.column_specs,
            class_names=base.class_names,
            categories=base.categories,
        )
        with pytest.raises(ValueError):
            one_hot(ds)


class TestStandardize:
    def test_zscore_matches_population_oracle(self, rng):
        X = rng.normal(3.0, 2.0, size=(40, 3))
        ds = make_classification(X, rng.integers(0, 2, size=40))
        out = apply_standardization(ds, standardization_stats(ds, np.arange(40)))
        want = (X - X.mean(axis=0)) / X.std(axis=0)
        assert out.features == pytest.approx(want, rel=1e-12)
        assert out.features.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-12)
        assert out.features.std(axis=0) == pytest.approx(np.ones(3), rel=1e-12)

    def test_stats_come_from_subset_but_apply_everywhere(self, rng):
        X = rng.normal(size=(20, 2))
        ds = make_classification(X, rng.integers(0, 2, size=20))
        rows = np.arange(5)
        out = apply_standardization(ds, standardization_stats(ds, rows))
        sub = X[rows]
        want = (X - sub.mean(axis=0)) / sub.std(axis=0)
        assert out.features == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("value, n", [(7.0, 10), (100000000.1, 1000), (123456.789, 1000)])
    def test_constant_column_zeroed(self, rng, value, n):
        # Far from 0, rounding in the mean leaves a constant column a tiny
        # nonzero std; it must still map to 0, whatever the pool size.
        X = rng.normal(size=(n, 2))
        X[:, 1] = value
        ds = make_classification(X, rng.integers(0, 2, size=n))
        out = apply_standardization(ds, standardization_stats(ds, np.arange(n)))
        assert (out.features[:, 1] == 0.0).all()

    def test_onehot_columns_skipped_unless_requested(self):
        specs = (
            ColumnSpec("x", "numeric"),
            ColumnSpec("c=a", "categorical"),
            ColumnSpec("y", "label_class"),
        )
        X = np.array([[1.0, 1.0], [3.0, 0.0], [5.0, 1.0], [7.0, 0.0]])
        ds = Dataset(X, [0, 1, 0, 1], specs, class_names=("n", "p"))
        kept = apply_standardization(ds, standardization_stats(ds, np.arange(4)))
        assert kept.features[:, 1].tolist() == [1.0, 0.0, 1.0, 0.0]
        scaled = apply_standardization(ds, standardization_stats(ds, np.arange(4), include_onehot=True))
        assert scaled.features[:, 1] == pytest.approx((X[:, 1] - 0.5) / 0.5)

    def test_empty_stats_rows_rejected(self, rng):
        ds = make_classification(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            standardization_stats(ds, [])


class TestPca:
    def test_recovers_dominant_direction(self, rng):
        u = np.array([3.0, 4.0]) / 5.0
        X = rng.normal(size=(400, 1)) * 6.0 @ u[None, :] + rng.normal(size=(400, 2)) * 0.3
        model = pca_fit(X, 2)
        assert abs(model.components[0] @ u) > 0.99
        assert model.explained_variance_ratio[0] > 0.9
        assert model.explained_variance_ratio.sum() == pytest.approx(1.0)

    def test_components_orthonormal_and_signs_canonical(self, rng):
        X = rng.normal(size=(50, 6))
        model = pca_fit(X, 4)
        gram = model.components @ model.components.T
        assert gram == pytest.approx(np.eye(4), abs=1e-10)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_projection_formula(self, rng):
        X = rng.normal(size=(30, 5))
        model = pca_fit(X, 3)
        queries = rng.normal(size=(7, 5))
        want = (queries - model.mean) @ model.components.T * model.explained_variance_ratio
        assert np.array_equal(pca_project(model, queries), want)

    def test_ratios_scale_invariant(self, rng):
        X = rng.normal(size=(40, 4))
        a = pca_fit(X, 4).explained_variance_ratio
        b = pca_fit(X * 37.0, 4).explained_variance_ratio
        assert b == pytest.approx(a, rel=1e-9)
        # Power-of-two scales are exact, so the ratios must be too, however
        # small the total variance.
        for scale in (2.0**-40, 2.0**40):
            assert pca_fit(X * scale, 4).explained_variance_ratio.tolist() == a.tolist()

    def test_wide_matrix_path_matches_covariance_eigh(self, rng):
        # d > max(n, 128) exercises the Gram-matrix route; check it against
        # a direct covariance decomposition.
        n, d = 40, 150
        X = rng.normal(size=(n, d)) * np.linspace(3.0, 0.1, d)
        model = pca_fit(X, 5)
        centered = X - X.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / n)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        want_ratio = eigvals[:5] / eigvals.clip(0).sum()
        assert model.explained_variance_ratio == pytest.approx(want_ratio, rel=1e-8)
        for j in range(5):
            v = eigvecs[:, order[j]]
            assert abs(model.components[j] @ v) == pytest.approx(1.0, abs=1e-8)

    def test_rank_deficient_wide_data(self, rng):
        n, d = 5, 200
        X = rng.normal(size=(n, d))
        model = pca_fit(X, 5)  # centering leaves rank <= 4
        assert model.explained_variance_ratio[4] == 0.0
        assert (model.components[4] == 0.0).all()
        proj = pca_project(model, rng.normal(size=(3, d)))
        assert (proj[:, 4] == 0.0).all()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            pca_fit(rng.normal(size=5), 1)
        with pytest.raises(ValueError):
            pca_fit(rng.normal(size=(1, 5)), 1)
        with pytest.raises(ValueError):
            pca_fit(rng.normal(size=(10, 3)), 4)
        model = pca_fit(rng.normal(size=(10, 3)), 2)
        with pytest.raises(ValueError):
            pca_project(model, rng.normal(size=(4, 5)))
