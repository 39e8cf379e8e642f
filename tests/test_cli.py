"""End-to-end command line runs against library-derived oracles."""

import csv
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dci_lab import cli
from dci_lab.cli import dataset_fingerprint, main
from dci_lab.dataset import apply_standardization, load_idx, one_hot, standardization_stats, write_idx
from dci_lab.dci import DciParams, dci_scores
from dci_lab.models import fit_ensemble
from dci_lab.neighbors import nearest_neighbors
from dci_lab.synthetic import census_income, three_class_points, wine_quality


SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    def test_data_source_defaults_to_synthetic(self, tmp_path):
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,y\n0.5,0.5\n2.0,1.5\n")
        pairs = {"data.name": "three-class", "data.n": "60", "score.query": str(qpath)}
        outputs = []
        for name, extra in (("default", {}), ("explicit", {"data.source": "synthetic"})):
            cfg = write_cfg(tmp_path / f"{name}.cfg", **pairs, **extra)
            assert main(["score", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name / "scores.csv").read_bytes())
        assert outputs[0] == outputs[1]

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
        assert f"q.csv:3: non-finite value '{bad}' in numeric column 'x'" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    def test_first_bad_query_cell_in_row_order_is_named(self, tmp_path, capsys):
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,y\n0.1,0.2\n0.3,oops\nnan,0.4\n")
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"score.query": str(qpath)})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "q.csv:3: non-numeric token 'oops' in numeric column 'y'" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    def test_query_header_of_another_width_is_a_data_error(self, tmp_path, capsys):
        # The header must have the encoded width even when no row follows it.
        qpath = tmp_path / "q.csv"
        qpath.write_text("x\n")
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"score.query": str(qpath)})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "q.csv: header width 1, expected the encoded width 2" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    def test_empty_query_file(self, tmp_path):
        qpath = tmp_path / "q.csv"
        qpath.write_bytes(b"")
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"score.query": str(qpath)})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "scores.csv").read_text() == "dci\n"

    def test_scores_that_are_not_finite_are_a_data_error(self, tmp_path, capsys):
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,y\n0.5,0.5\n40,-40\n")
        pairs = {"score.query": str(qpath), "data.standardize": "false", "dci.alpha": "300"}
        cfg = write_cfg(tmp_path / "c.cfg", **base_pairs(**pairs))
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "not finite at alpha = 300" in capsys.readouterr().err
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

    def test_scores_that_are_not_finite_are_a_data_error(self, tmp_path, capsys):
        # Unstandardized points 40 units out: d^300 overflows.
        grid = {"grid.x_min": "-40", "grid.x_max": "40", "grid.y_min": "-40", "grid.y_max": "40"}
        pairs = {"data.standardize": "false", "dci.alpha": "300", "grid.resolution": "20"}
        cfg = write_cfg(tmp_path / "c.cfg", **base_pairs(**grid, **pairs))
        assert main(["grid", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "not finite at alpha = 300" in capsys.readouterr().err
        assert not (tmp_path / "field.csv").exists()

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

    @pytest.mark.parametrize("model", ["knn", "ensemble"])
    def test_strategies_together_equal_each_alone(self, tmp_path, model):
        # Every strategy of one run shares each seed's split and first
        # boundary; its rows must be those of a run of that strategy alone.
        labels = ["random", "dci-high", "dci-low-pca1", "uncertainty-max_prob"]
        pairs = dict(SIM_PAIRS, **{"model.kind": model, "model.n_trees": "3"})
        together = tmp_path / "all"
        cfg = write_cfg(tmp_path / "all.cfg", **dict(pairs, strategies=",".join(labels)))
        assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(together)]) == 0
        rows, summary = ["strategy,seed,train_size,metric,value"], ["strategy,train_size,mean,median,q25,q75"]
        for label in labels:
            out = tmp_path / label
            cfg = write_cfg(tmp_path / f"{label}.cfg", **dict(pairs, strategies=label))
            assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
            rows += (out / "curves.csv").read_text().splitlines()[1:]
            summary += (out / "summary.csv").read_text().splitlines()[1:]
        assert (together / "curves.csv").read_text() == "\n".join(rows) + "\n"
        assert (together / "summary.csv").read_text() == "\n".join(summary) + "\n"

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_class_auroc_test_set_is_a_config_error(self, tmp_path, capsys, threads):
        # With 3 test rows of a 60-row census pool, seed 3 draws one class
        # only; auroc is undefined there, and nothing is written.
        pairs = dict(SIM_PAIRS, **{"data.name": "census", "experiment.metric": "auroc", "experiment.test_size": "3"})
        pairs["experiment.n_seeds"] = "3"
        cfg = write_cfg(tmp_path / "c.cfg", **pairs)
        out = tmp_path / "out"
        argv = ["simulate", "--config", cfg, "--seed", "1", "--threads", threads, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: seed 3: auroc needs both classes in the 3 experiment.test_size rows" in err
        assert list(out.iterdir()) == []
        assert main([*argv[:4], "0", *argv[5:]]) == 0  # seeds 0-2 test on both classes

    def test_impossible_schedule_is_a_config_error(self, tmp_path, capsys):
        pairs = dict(SIM_PAIRS, **{"experiment.n_updates": "100"})
        cfg = write_cfg(tmp_path / "c.cfg", **pairs)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "labels, message",
        [(" , ", "at least one strategy"), ("random,dci-high,random", "duplicates")],
    )
    def test_strategy_list_must_be_nonempty_and_unique(self, tmp_path, capsys, labels, message):
        cfg = write_cfg(tmp_path / "c.cfg", **dict(SIM_PAIRS, strategies=labels))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # The PCA fit and every neighbour search run through BLAS, whose
        # summation order follows its thread count; the kNN lists and the
        # scores must not. Each run is its own interpreter, since BLAS reads
        # these variables when NumPy loads.
        pairs = {
            "data.source": "synthetic",
            "data.name": "digits",
            "data.n": "300",
            "model.kind": "knn",
            "model.knn_k": "5",
            "experiment.metric": "accuracy",
            "experiment.initial_train_size": "20",
            "experiment.additions_per_update": "20",
            "experiment.n_updates": "4",
            "experiment.test_size": "100",
            "strategies": "random,dci-high-pca5,uncertainty-max_prob",
            "dci.k": "5",
        }
        cfg = write_cfg(tmp_path / "c.cfg", **pairs)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        outputs = []
        for threads in ("1", "2"):
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"blas{threads}"
            code = "import sys; from dci_lab.cli import main; sys.exit(main(sys.argv[1:]))"
            argv = ["simulate", "--config", cfg, "--seed", "3", "--out", str(out), "--threads", "1"]
            result = subprocess.run(
                [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
            )
            assert result.returncode == 0, result.stderr
            outputs.append([(out / name).read_bytes() for name in ("curves.csv", "summary.csv")])
        assert outputs[0] == outputs[1]


class TestBlasThreads:
    # The BLAS thread count is process state, so each probe is its own
    # interpreter. It reads the count before and after one grid run.
    PROBE = (
        "import ctypes, glob, sys; from dci_lab import cli; "
        "blas = ctypes.CDLL(glob.glob(cli._OPENBLAS)[0]); "
        "before = blas.scipy_openblas_get_num_threads64_(); "
        "code = cli.main(sys.argv[1:]); "
        "print(before, blas.scipy_openblas_get_num_threads64_(), code)"
    )

    def probe(self, tmp_path, **blas_env):
        grid = {"grid.x_min": "-2", "grid.x_max": "6", "grid.y_min": "-2", "grid.y_max": "5"}
        cfg = write_cfg(tmp_path / "c.cfg", **base_pairs(**grid, **{"grid.resolution": "4"}))
        env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARS}
        env.update(blas_env, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        argv = ["grid", "--config", cfg, "--out", str(tmp_path)]
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0 and result.stderr == "", result.stderr
        before, after, code = map(int, result.stdout.split())
        assert code == 0
        return before, after

    bundled = pytest.mark.skipif(not glob.glob(cli._OPENBLAS), reason="NumPy without its bundled OpenBLAS")

    @bundled
    def test_the_cli_runs_blas_on_one_thread(self, tmp_path):
        assert self.probe(tmp_path)[1] == 1

    @bundled
    @pytest.mark.parametrize("name", cli._BLAS_THREAD_VARS)
    def test_a_count_set_in_the_environment_is_kept(self, tmp_path, name):
        before, after = self.probe(tmp_path, **{name: "2"})
        assert after == before

    def test_a_missing_library_is_one_line_on_stderr(self, tmp_path, monkeypatch, capsys):
        for name in cli._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(cli, "_OPENBLAS", str(tmp_path / "missing-*.so"))
        cfg = write_cfg(tmp_path / "c.cfg", **base_pairs(**{"score.query": str(tmp_path / "q.csv")}))
        (tmp_path / "q.csv").write_text("x,y\n1,2\n")
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == "dci-lab: cannot set BLAS to one thread; it runs at its default count\n"
        assert (tmp_path / "scores.csv").exists()


class TestDatasetFingerprint:
    # Digests of fixed pools, taken when the arrays were hashed through
    # byte copies; hashing their buffers must give the same bytes.
    @pytest.mark.parametrize(
        "pool, digest",
        [
            ("idx", "6ff2af4663e0f4d778e2a372121b48b6c64154d66efe43813ac92b2f69708b25"),
            ("census", "16946aa5721a1e6403b2dbe5e1a8d8cacbe33c93457e12af3cfe1ab0b04aa50e"),
            ("wine", "d5712a3bfe3b08ede1f0995d78051671f257cb919de5be6926e9eacb02386675"),
        ],
    )
    def test_hash_of_a_fixed_pool_is_unchanged(self, tmp_path, pool, digest):
        if pool == "idx":
            images = (np.arange(7 * 4 * 5) * 37 % 256).astype(np.uint8).reshape(7, 4, 5)
            write_idx(images, np.arange(7) % 10, tmp_path / "i.idx", tmp_path / "l.idx")
            ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        elif pool == "census":
            ds = one_hot(census_income(50, 1))
        else:
            ds = wine_quality(40, 2)
        assert dataset_fingerprint(ds) == digest


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

    def test_deciles_equal_committees_fitted_alone(self, tmp_path, monkeypatch):
        # One call per split grows the committees of every train size; the
        # decile files must equal those of one fit per (size, split).
        pairs = {"analyze.train_sizes": "12,30,20", "analyze.n_splits": "3", "analyze.kinds": "max_prob,mean_std"}
        cfg = write_cfg(tmp_path / "c.cfg", **dict(ANALYZE_PAIRS, **pairs))
        assert main(["analyze", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "together")]) == 0

        class Alone:
            def __init__(self, ds, model, seed, rows):
                self.fits = [fit_ensemble(ds.select_rows(r), model, seed) for r in rows]

            def committees(self, count):
                assert count == len(self.fits)
                return self.fits

        monkeypatch.setattr(cli, "fit_ensemble", Alone)
        assert main(["analyze", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "alone")]) == 0
        names = sorted(p.name for p in (tmp_path / "together").iterdir())
        assert len(names) == 3 * (3 + 2)  # sizes x (dci cells + kinds)
        assert names == sorted(p.name for p in (tmp_path / "alone").iterdir())
        for name in names:
            assert (tmp_path / "together" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    def test_analyze_rejects_knn_model(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"model.kind": "knn"})
        )
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "ensemble" in capsys.readouterr().err


NUMERIC_POOL = [
    (0.0, 0.0, 3.0), (1.0, 0.2, 3.0), (0.4, 1.1, 5.0), (2.0, 2.0, 5.0),
    (2.5, 0.3, 7.5), (0.1, 2.6, 3.0), (1.7, 1.2, 7.5), (3.0, 3.1, 5.0),
    (2.2, 2.9, -1.0), (0.8, 0.7, 3.0), (1.3, 2.4, 5.0), (2.9, 1.6, -1.0),
]


class TestNumericLabelPool:
    """score and grid code a numeric label by its distinct values; dci.k
    above the 12 pool rows is clamped to them."""

    def pool_pairs(self, tmp_path, **extra):
        spec = tmp_path / "pool.spec"
        spec.write_text("x = numeric\ny = numeric\nt = label_numeric\n")
        data = tmp_path / "pool.csv"
        data.write_text("x,y,t\n" + "".join(f"{a},{b},{t}\n" for a, b, t in NUMERIC_POOL))
        pairs = {
            "data.source": "csv",
            "data.csv": str(data),
            "data.colspec": str(spec),
            "data.standardize": "false",
            "dci.k": "20",
        }
        pairs.update(extra)
        return pairs

    def expected(self, points):
        pool = np.array(NUMERIC_POOL)
        codes = np.unique(pool[:, 2], return_inverse=True)[1]
        idx, dist = nearest_neighbors(points, pool[:, :2], 12)
        return dci_scores(codes[idx], dist, 4, DciParams(k=20))

    def test_score(self, tmp_path, rng):
        queries = rng.uniform(-0.5, 3.5, size=(7, 2))
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in queries.tolist()))
        cfg = write_cfg(
            tmp_path / "c.cfg", **self.pool_pairs(tmp_path, **{"score.query": str(qpath)})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 0
        want = [format(v + 0.0, ".9g") for v in self.expected(queries)]
        assert (tmp_path / "scores.csv").read_text().splitlines() == ["dci"] + want

    def test_grid(self, tmp_path):
        grid = {"grid.x_min": "-1", "grid.x_max": "4", "grid.y_min": "-1", "grid.y_max": "4"}
        cfg = write_cfg(
            tmp_path / "c.cfg", **self.pool_pairs(tmp_path, **grid, **{"grid.resolution": "6"})
        )
        assert main(["grid", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "field.csv").read_text().splitlines()[1:]
        points = np.array([[float(v) for v in r.split(",")[:2]] for r in rows])
        want = [format(v + 0.0, ".9g") for v in self.expected(points)]
        assert [r.split(",")[2] for r in rows] == want


ANALYZE_PAIRS = base_pairs(
    **{
        "data.n": "150",
        "model.kind": "ensemble",
        "model.n_trees": "3",
        "analyze.train_sizes": "12",
        "analyze.n_splits": "1",
        "analyze.test_size": "60",
        "analyze.kinds": "max_prob",
        "dci.k": "5",
    }
)


class TestConfigRanges:
    @pytest.mark.parametrize(
        "command, pairs",
        [
            ("analyze", {"analyze.n_splits": "0"}),
            ("analyze", {"analyze.train_sizes": "0"}),
            ("analyze", {"analyze.train_sizes": "12,-3"}),
            ("analyze", {"analyze.test_size": "-5"}),
            ("analyze", {"analyze.alphas": "0"}),
            ("analyze", {"analyze.betas": "1.2,-1"}),
            ("analyze", {"analyze.kinds": "mean_std", "model.n_trees": "1"}),
            ("analyze", {"analyze.kinds": "eq3_binary"}),
            ("analyze", {"analyze.kinds": "entropy"}),
            ("analyze", {"model.max_depth": "-1"}),
            ("simulate", {"model.kind": "ensemble", "model.max_depth": "-1"}),
            ("simulate", {"data.seed": "-3"}),
            ("analyze", {"data.seed": "-3"}),
            ("simulate", {"data.subsample": "40", "data.subsample_seed": "-1"}),
            ("simulate", {"data.name": "census", "data.n": "0"}),
            ("simulate", {"data.n": "0"}),
            ("simulate", {"data.n": "-5"}),
            ("simulate", {"data.n": "2"}),
            ("analyze", {"data.n": "2"}),
            ("simulate", {"data.n": "100"}),
        ],
    )
    def test_out_of_range_is_a_config_error(self, tmp_path, capsys, command, pairs):
        base = ANALYZE_PAIRS if command == "analyze" else SIM_PAIRS
        cfg = write_cfg(tmp_path / "c.cfg", **dict(base, **pairs))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("test_size", ["1", "5", "9"])
    def test_test_size_below_ten_is_a_config_error(self, tmp_path, capsys, monkeypatch, test_size):
        # Fewer than ten test rows cannot fill the deciles; the size is
        # rejected before any committee is fitted.
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the config was checked")

        monkeypatch.setattr(cli, "fit_ensemble", no_fit)
        cfg = write_cfg(tmp_path / "c.cfg", **dict(ANALYZE_PAIRS, **{"analyze.test_size": test_size}))
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
        assert "analyze.test_size" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_base_pairs_are_valid(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **ANALYZE_PAIRS)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0


def csv_score_files(tmp_path):
    """A csv-source score run: pool, colspec, query and config file paths."""
    files = {
        "d.csv": b"x,y\n0.5,a\n1.5,b\n2.5,a\n",
        "c.spec": b"x = numeric\ny = label_class\n",
        "q.csv": b"x\n0.7\n",
    }
    for name, body in files.items():
        (tmp_path / name).write_bytes(body)
    return write_cfg(
        tmp_path / "c.cfg",
        **{
            "data.source": "csv",
            "data.csv": str(tmp_path / "d.csv"),
            "data.colspec": str(tmp_path / "c.spec"),
            "score.query": str(tmp_path / "q.csv"),
            "dci.k": "2",
        },
    )


class TestErrorPaths:
    def test_requires_config_or_preset(self, capsys):
        assert main(["score"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_thread_count_below_one_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", **base_pairs())
        assert main(["simulate", "--config", cfg, "--threads", "0", "--out", str(tmp_path)]) == 2
        assert "config error: thread count must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path / "c.cfg", **(SIM_PAIRS if command == "simulate" else ANALYZE_PAIRS))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--seed", "-1", "--out", str(out)]) == 2
        assert "config error: seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_csv_header_name_is_a_data_error(self, tmp_path, capsys):
        spec = tmp_path / "c.spec"
        spec.write_text("age = numeric\njob = categorical\nincome = label_class\n")
        data = tmp_path / "d.csv"
        data.write_text("age,age,job,income\n30,31,clerk,low\n40,41,teacher,high\n")
        qpath = tmp_path / "q.csv"
        qpath.write_text("age\n35\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **{"data.source": "csv", "data.csv": str(data), "data.colspec": str(spec), "score.query": str(qpath)},
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "column 'age' appears twice in the header" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

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

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2), (3, 2, 0)])
    def test_idx_pair_without_pixels_is_a_data_error(self, tmp_path, capsys, shape):
        write_idx(np.zeros(shape, dtype=np.uint8), np.zeros(shape[0]), tmp_path / "i.idx", tmp_path / "l.idx")
        qpath = tmp_path / "q.csv"
        qpath.write_text("px0\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **{
                "data.source": "idx",
                "data.images": str(tmp_path / "i.idx"),
                "data.labels": str(tmp_path / "l.idx"),
                "score.query": str(qpath),
            },
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "i.idx: the file holds no pixels" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

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

    @pytest.mark.parametrize(
        "name, body, code, message",
        [
            ("d.csv", b"x,y\n0.5,a\n\xff,b\n", 3, "d.csv:3: not UTF-8 text"),
            ("c.spec", b"x = numeric\n# caf\xe9\ny = label_class\n", 3, "c.spec:2: not UTF-8 text"),
            ("q.csv", b"x\n\xe90.7\n", 3, "q.csv:2: not UTF-8 text"),
            ("c.cfg", b"data.source = csv\n# \xff\n", 2, "config error: cannot read config"),
            ("d.csv", b"x,y\n0.5," + b"a" * 131_073 + b"\n", 3, "d.csv:2: field larger than field limit"),
            ("q.csv", b"x\n0.7\n" + b"1" * 131_073 + b"\n", 3, "q.csv:3: field larger than field limit"),
        ],
    )
    def test_unreadable_text_file_exits_with_one_line(self, tmp_path, capsys, name, body, code, message):
        cfg = csv_score_files(tmp_path)
        (tmp_path / name).write_bytes(body)
        out = tmp_path / "out"
        assert main(["score", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert list(out.glob("*")) == []

    def test_stray_quote_is_a_data_error(self, tmp_path, capsys):
        # Read leniently, the open quote would swallow the remaining rows
        # into one class name and the run would exit 0.
        cfg = csv_score_files(tmp_path)
        (tmp_path / "d.csv").write_text('x,y\n1,a\n3,"b\n5,a\n7,b\n9,a\n')
        out = tmp_path / "out"
        assert main(["score", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "d.csv:3: unexpected end of data" in err and err.count("\n") == 1
        assert list(out.glob("*")) == []


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestOutputBytes:
    """The bytes of score, grid and analyze outputs on the small configs
    above, pinned so that a change of how they are computed shows."""

    def test_score(self, tmp_path, rng):
        queries = rng.normal(2.0, 2.0, size=(6, 2))
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in queries.tolist()))
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**{"score.query": str(qpath), "dci.k": "5"})
        )
        assert main(["score", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert sha256(tmp_path / "scores.csv") == (
            "e9701ec076fd0e2a76025fab0e4e980e0f6f3ce648b4e7eef74fbd3152e3ac27"
        )

    def test_grid(self, tmp_path):
        grid = {"grid.x_min": "-2", "grid.x_max": "6", "grid.y_min": "-2", "grid.y_max": "5"}
        cfg = write_cfg(
            tmp_path / "c.cfg", **base_pairs(**grid, **{"grid.resolution": "8", "dci.k": "5"})
        )
        assert main(["grid", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert sha256(tmp_path / "field.csv") == (
            "d6ce2579088a70916587098985989596310f799e05e0f2d0efe3f10ad3f8c10f"
        )

    def test_analyze(self, tmp_path):
        pairs = {
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
        cfg = write_cfg(tmp_path / "c.cfg", **base_pairs(**pairs))
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        got = {path.name: sha256(path) for path in sorted(out.iterdir())}
        assert got == {
            "decile_train12_dci-a1-b1.2.csv": "8d0d2ccfb2be3a60704a2edc693baa1a96a0fe9894825d2ee0f530415394b430",
            "decile_train12_dci-a2-b1.2.csv": "1944a9c8db9986dba2bff73a5b0f03ba109f03bad4ea418c72a78bd03658f66f",
            "decile_train12_max_prob.csv": "79caeb58f2140000d6bd663e301c544c97c5ebe6d740a0e2d150727f190953e1",
            "decile_train12_mean_std.csv": "1e237ce07b8a19bd066797ecdf239048948b14737ab3c991727d3d3ef1733e32",
            "decile_train20_dci-a1-b1.2.csv": "104e5cfc63196a7d1e8fef6ec28631a2bef8b34a1ec8a6699f3e2b1794111bc1",
            "decile_train20_dci-a2-b1.2.csv": "104e5cfc63196a7d1e8fef6ec28631a2bef8b34a1ec8a6699f3e2b1794111bc1",
            "decile_train20_max_prob.csv": "104e5cfc63196a7d1e8fef6ec28631a2bef8b34a1ec8a6699f3e2b1794111bc1",
            "decile_train20_mean_std.csv": "104e5cfc63196a7d1e8fef6ec28631a2bef8b34a1ec8a6699f3e2b1794111bc1",
        }

    @pytest.mark.parametrize(
        "pairs, digests",
        [
            pytest.param(
                dict(
                    SIM_PAIRS,
                    **{
                        "model.kind": "ensemble",
                        "model.n_trees": "3",
                        "strategies": "random,dci-low,dci-high-pca2,uncertainty-max_prob",
                    },
                ),
                (
                    "2814fa50c9aa55930f08b67da81a0d1634d89507572cfa2d04ac4d5e0bffd7d9",
                    "8c1a64e5d6792ee091d791c8ceae863c763e9d09b3d365e35eec8073e677338e",
                    "d6cec453eb5aa6a6e347870618509c03a245e849679212850f8d908582ac0870",
                ),
                id="three-class",
            ),
            pytest.param(
                dict(
                    SIM_PAIRS,
                    **{
                        "data.name": "wine",
                        "data.n": "120",
                        "model.kind": "ensemble",
                        "model.n_trees": "3",
                        "experiment.metric": "rmse",
                        "experiment.initial_train_size": "20",
                        "experiment.additions_per_update": "5",
                        "experiment.test_size": "30",
                        "strategies": "uncertainty-regression_std",
                    },
                ),
                (
                    "b99ee1b8193ea79c0c0e9048dcde274e83751007506dc0524c3b8210766888b0",
                    "4506aedbe93415965e1567359b5503a7d1e6e1bbef0efc6f0120d8eb6a719e5d",
                    "6f38a52502da03b49e23ffbff52aac3c77c5e1ab6d8a1f3b375864e9016b05a1",
                ),
                id="wine-rmse",
            ),
        ],
    )
    def test_simulate(self, tmp_path, pairs, digests):
        cfg = write_cfg(tmp_path / "c.cfg", **pairs)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        names = ("curves.csv", "summary.csv", "manifest.json")
        assert tuple(sha256(out / name) for name in names) == digests
