"""End-to-end command line runs against library-derived oracles."""

import csv
import json

import numpy as np
import pytest

from dci_lab.cli import main
from dci_lab.dataset import apply_standardization, standardization_stats
from dci_lab.dci import DciParams, dci_scores
from dci_lab.neighbors import nearest_neighbors
from dci_lab.synthetic import three_class_points


def write_cfg(path, **pairs):
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return str(path)


def base_pairs(**extra):
    pairs = {"data.source": "synthetic", "data.name": "three-class", "data.n": "30"}
    pairs.update(extra)
    return pairs


class TestScore:
    def test_scores_match_library_pipeline(self, tmp_path, rng):
        queries = rng.normal(2.0, 2.0, size=(6, 2))
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in queries))
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **base_pairs(**{"score.query": str(qpath), "dci.k": "5"}),
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 0

        # Re-derive through the library: pool standardized over all rows,
        # queries mapped with the same stats.
        ds = three_class_points(10, 0)
        stats = standardization_stats(ds, np.arange(ds.n_rows))
        pool = apply_standardization(ds, stats)
        mean, inv = stats
        Q = (queries - mean) * inv
        idx, dist = nearest_neighbors(Q, pool.features, 5)
        want = dci_scores(pool.labels[idx], dist, 3, DciParams(k=5))

        lines = (tmp_path / "scores.csv").read_text().splitlines()
        assert lines[0] == "dci"
        got = np.array([float(v) for v in lines[1:]])
        assert got == pytest.approx(want, rel=1e-8)

    def test_header_only_query_file(self, tmp_path):
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,y\n")
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"score.query": str(qpath)})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "scores.csv").read_text() == "dci\n"

    def test_wrong_query_width_is_a_data_error(self, tmp_path, capsys):
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,y,z\n1,2,3\n")
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"score.query": str(qpath)})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_query_is_a_data_error(self, tmp_path, capsys, bad):
        qpath = tmp_path / "q.csv"
        qpath.write_text(f"x,y\n0.1,0.2\n{bad},0.3\n")
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"score.query": str(qpath)})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "non-finite value in query row 2" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()


class TestGrid:
    def test_writes_field_and_reruns_identically(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **base_pairs(
                **{
                    "grid.x_min": "-2",
                    "grid.x_max": "6",
                    "grid.y_min": "-2",
                    "grid.y_max": "5",
                    "grid.resolution": "8",
                    "dci.k": "5",
                }
            ),
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["grid", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["grid", "--config", cfg, "--out", str(out2)]) == 0
        body = (out1 / "field.csv").read_bytes()
        assert body == (out2 / "field.csv").read_bytes()
        lines = body.decode().splitlines()
        assert lines[0] == "x,y,dci" and len(lines) == 65

    def test_grid_needs_two_features(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **{
                "data.source": "synthetic",
                "data.name": "census",
                "data.n": "100",
                "grid.x_min": "0",
                "grid.x_max": "1",
                "grid.y_min": "0",
                "grid.y_max": "1",
            },
        )
        assert main(["grid", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "2 feature columns" in capsys.readouterr().err


SIM_PAIRS = {
    "data.source": "synthetic",
    "data.name": "three-class",
    "data.n": "60",
    "model.kind": "knn",
    "model.knn_k": "3",
    "experiment.metric": "accuracy",
    "experiment.initial_train_size": "10",
    "experiment.additions_per_update": "2",
    "experiment.n_updates": "2",
    "experiment.n_seeds": "2",
    "experiment.test_size": "15",
    "strategies": "random,dci-high",
    "dci.k": "5",
}


class TestSimulate:
    def test_outputs_and_reproducibility(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **SIM_PAIRS)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out2)]) == 0
        for name in ("curves.csv", "summary.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        rows = list(csv.reader((out1 / "curves.csv").read_text().splitlines()))
        assert rows[0] == ["strategy", "seed", "train_size", "metric", "value"]
        assert len(rows) == 1 + 2 * 2 * 3  # strategies x seeds x curve points
        assert {r[0] for r in rows[1:]} == {"random", "dci-high"}
        assert {r[1] for r in rows[1:]} == {"5", "6"}
        assert [r[2] for r in rows[1:4]] == ["10", "12", "14"]

        summary = list(csv.reader((out1 / "summary.csv").read_text().splitlines()))
        assert len(summary) == 1 + 2 * 3

        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["tool"] == "dci-lab" and manifest["seed"] == 5
        assert manifest["dataset"]["rows"] == 60
        assert len(manifest["dataset"]["sha256"]) == 64
        assert set(manifest["outputs"]) == {"random", "dci-high"}

    def test_seed_changes_results(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **SIM_PAIRS)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out1)])
        main(["simulate", "--config", cfg, "--seed", "99", "--out", str(out2)])
        assert (out1 / "curves.csv").read_bytes() != (out2 / "curves.csv").read_bytes()

    def test_preset_with_overrides(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **{
                "data.n": "200",
                "experiment.n_seeds": "1",
                "experiment.n_updates": "1",
                "experiment.test_size": "50",
            },
        )
        out = tmp_path / "out"
        code = main(
            ["simulate", "--preset", "mnist-small", "--config", cfg, "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["experiment.n_seeds"] == "1"
        assert manifest["config"]["data.name"] == "digits"
        rows = (out / "curves.csv").read_text().splitlines()
        assert len(rows) == 1 + 6 * 1 * 2  # six preset strategies, 2 points each

    def test_impossible_schedule_is_a_config_error(self, tmp_path, capsys):
        pairs = dict(SIM_PAIRS, **{"experiment.n_updates": "100"})
        cfg = write_cfg(tmp_path / "c.cfg", **pairs)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestAnalyze:
    def test_decile_files_per_size_and_scorer(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **base_pairs(
                **{
                    "data.n": "150",
                    "model.kind": "ensemble",
                    "model.n_trees": "5",
                    "analyze.train_sizes": "12,20",
                    "analyze.n_splits": "2",
                    "analyze.test_size": "60",
                    "analyze.alphas": "1.0,2.0",
                    "analyze.betas": "1.2",
                    "analyze.kinds": "max_prob,mean_std",
                    "dci.k": "5",
                }
            ),
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        for size in (12, 20):
            for label in ("max_prob", "mean_std", "dci-a1-b1.2", "dci-a2-b1.2"):
                path = out / f"decile_train{size}_{label}.csv"
                lines = path.read_text().splitlines()
                assert lines[0] == "decile,count,accuracy"
                assert len(lines) == 11

    def test_analyze_rejects_knn_model(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"model.kind": "knn"})
        )
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "ensemble" in capsys.readouterr().err


class TestErrorPaths:
    def test_requires_config_or_preset(self, capsys):
        assert main(["score"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", **{"data.vintage": "1999"})
        assert main(["score", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_query_file(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"score.query": str(tmp_path / "no.csv")})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_missing_dataset_file(self, tmp_path):
        spec = tmp_path / "c.spec"
        spec.write_text("x = numeric\ny = label_class\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **{
                "data.source": "csv",
                "data.csv": str(tmp_path / "absent.csv"),
                "data.colspec": str(spec),
                "score.query": str(tmp_path / "q.csv"),
            },
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_pool_cell_is_a_data_error(self, tmp_path, capsys, bad):
        spec = tmp_path / "c.spec"
        spec.write_text("x = numeric\ny = label_class\n")
        data = tmp_path / "d.csv"
        data.write_text(f"x,y\n0.5,a\n{bad},b\n1.5,a\n")
        qpath = tmp_path / "q.csv"
        qpath.write_text("x\n0.7\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **{
                "data.source": "csv",
                "data.csv": str(data),
                "data.colspec": str(spec),
                "score.query": str(qpath),
                "dci.k": "2",
            },
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert f"d.csv:3: non-finite value '{bad}'" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()
