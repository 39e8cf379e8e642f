"""The ``dci-lab`` command line: score, grid, simulate, analyze.

Every command is a pure function of its input files, flags and seed; rerun
with the same inputs it rewrites byte-identical outputs. Exit codes: 0 on
success, 2 for configuration problems, 3 for unreadable or malformed data.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
from dataclasses import replace
from glob import glob
from pathlib import Path

import numpy as np

from . import __version__, synthetic
from .active import (
    _STREAM_ANALYZE_MODEL,
    _STREAM_ANALYZE_SPLIT,
    aggregate,
    check_uncertainty,
    run_many,
    seed_split,
    stream_seed,
    write_curves_csv,
    write_summary_csv,
)
from .config import PRESETS, Cfg, ConfigError, build, load_config, merge_config
from .dataset import (
    DataError,
    Dataset,
    apply_standardization,
    load_csv,
    load_idx,
    one_hot,
    parse_numbers,
    read_colspec,
    read_records,
    standardization_stats,
    write_csv,
)
from .dci import dci_field, pool_scores, write_field_csv
from .metrics import average_reports, decile_analysis, write_decile_csv
from .models import UNCERTAINTY, fit_ensemble, predict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# Variables through which a user sets the BLAS thread count, and the
# OpenBLAS that NumPy's wheels bundle.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS = str(Path(np.__file__).resolve().parent.parent / "numpy.libs" / "libscipy_openblas64_*.so")


def dataset_fingerprint(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update(str(ds.features.shape).encode())
    # Contiguous arrays are hashed through their buffers, without a copy.
    h.update(np.ascontiguousarray(ds.features))
    h.update(np.ascontiguousarray(ds.labels))
    return h.hexdigest()


def _build_raw_dataset(cfg: Cfg) -> Dataset:
    source = cfg.str("data.source", "synthetic", choices=("synthetic", "csv", "idx"))
    if source == "csv":
        specs = read_colspec(cfg.str("data.colspec"))
        return load_csv(cfg.str("data.csv"), specs)
    if source == "idx":
        return load_idx(cfg.str("data.images"), cfg.str("data.labels"))
    name = cfg.str("data.name", choices=("census", "wine", "three-class", "digits"))
    seed = cfg.int("data.seed", 0)
    n = cfg.int("data.n", {"census": 10000, "wine": 1599, "three-class": 300, "digits": 600}[name])
    if seed < 0:
        raise ConfigError("data.seed must be non-negative")
    step = 3 if name == "three-class" else 1  # three-class draws n / 3 rows per class
    if n < step or n % step:
        raise ConfigError(f"data.n must be a positive multiple of {step} for {name} (got {n})")
    if name == "census":
        return synthetic.census_income(n, seed)
    if name == "wine":
        return synthetic.wine_quality(n, seed)
    if name == "three-class":
        return synthetic.three_class_points(n // 3, seed)
    return synthetic.digits_dataset(n, seed)


def prepare_dataset(cfg: Cfg) -> tuple[Dataset, tuple[np.ndarray, np.ndarray] | None]:
    """Load, optionally subsample, encode and standardize the working pool.

    Standardization statistics come from the entire prepared pool, once;
    the stats are returned so queries can be mapped into the same space.
    """
    ds = _build_raw_dataset(cfg)
    sub = cfg.int("data.subsample", 0)
    if sub:
        if not 1 <= sub <= ds.n_rows:
            raise ConfigError(f"data.subsample must be in [1, {ds.n_rows}]")
        sub_seed = cfg.int("data.subsample_seed", 0)
        if sub_seed < 0:
            raise ConfigError("data.subsample_seed must be non-negative")
        rng = np.random.default_rng(sub_seed)
        ds = ds.select_rows(np.sort(rng.permutation(ds.n_rows)[:sub]))
    if cfg.bool("data.one_hot", True):
        ds = one_hot(ds)
    stats = None
    if cfg.bool("data.standardize", True):
        stats = standardization_stats(
            ds, np.arange(ds.n_rows), include_onehot=cfg.bool("data.standardize_onehot", False)
        )
        ds = apply_standardization(ds, stats)
    return ds, stats


def _read_query_matrix(path: str, n_features: int) -> np.ndarray:
    """A numeric CSV (header line first) in the pool's encoded feature space."""
    header, lines, rows = read_records(path)
    if not header:
        return np.empty((0, n_features))
    if len(header) != n_features:
        raise DataError(f"{path}: header width {len(header)}, expected the encoded width {n_features}")
    return parse_numbers(rows, path, lines, header)


def cmd_score(cfg: Cfg, out_dir: Path) -> None:
    ds, stats = prepare_dataset(cfg)
    params = build(cfg, "dci")
    Q = _read_query_matrix(cfg.str("score.query"), ds.n_features)
    if stats is not None:
        mean, inv = stats
        Q = (Q - mean) * inv
    (scores,) = pool_scores(ds.features, *ds.class_codes, Q, [params])
    write_csv(out_dir / "scores.csv", ["dci"], zip(scores))


def cmd_grid(cfg: Cfg, out_dir: Path) -> None:
    ds, _ = prepare_dataset(cfg)
    if ds.n_features != 2:
        raise DataError(f"grid rendering needs 2 feature columns, got {ds.n_features}")
    grid = build(cfg, "grid")
    field = dci_field(ds, grid, build(cfg, "dci"))
    write_field_csv(out_dir / "field.csv", grid, field)


def cmd_simulate(cfg: Cfg, out_dir: Path, seed: int, threads: int) -> None:
    ds, _ = prepare_dataset(cfg)
    exp = build(
        cfg, "experiment", dataset=ds, dci=build(cfg, "dci"), model=build(cfg, "model"),
        strategies=cfg.list("strategies", "random,dci-high"),
    )
    for s in range(seed, seed + exp.n_seeds):
        if exp.metric == "auroc" and np.unique(ds.labels[seed_split(exp, s)[0]]).size < 2:
            raise ConfigError(
                f"seed {s}: auroc needs both classes in the {exp.test_size} experiment.test_size rows"
            )
    curves = run_many(exp, base_seed=seed, threads=threads)
    write_curves_csv(out_dir / "curves.csv", curves)
    write_summary_csv(out_dir / "summary.csv", aggregate(curves))
    manifest = {
        "tool": "dci-lab",
        "version": __version__,
        "seed": seed,
        "config": cfg.values,
        "dataset": {"rows": ds.n_rows, "columns": ds.n_features, "sha256": dataset_fingerprint(ds)},
        "outputs": {label: {"curves": "curves.csv", "summary": "summary.csv"} for label in exp.strategies},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")


def cmd_analyze(cfg: Cfg, out_dir: Path, seed: int) -> None:
    ds, _ = prepare_dataset(cfg)
    if not ds.is_classification:
        raise ConfigError("analyze needs a class label (accuracy per decile)")
    model = build(cfg, "model")
    if model.kind != "ensemble":
        raise ConfigError("analyze scores committee uncertainties; use the ensemble model")
    train_sizes = cfg.ints("analyze.train_sizes", "10,15,20,50")
    n_splits = cfg.int("analyze.n_splits", 20)
    test_size = cfg.int("analyze.test_size", 0)
    alphas = cfg.floats("analyze.alphas", "1.0,1.5,2.0")
    betas = cfg.floats("analyze.betas", "1.2")
    kinds = cfg.list("analyze.kinds", "max_prob")
    if not train_sizes or min(train_sizes) < 1:
        raise ConfigError("analyze.train_sizes must list sizes of at least 1")
    if n_splits < 1:
        raise ConfigError("analyze.n_splits must be at least 1")
    if test_size < 0 or 0 < test_size < 10:
        raise ConfigError("analyze.test_size must be 0 (every row outside the split) or at least 10")
    base = build(cfg, "dci")
    try:
        for kind in kinds:
            check_uncertainty(kind, ds, model)
        dci_cells = [
            (f"dci-a{format(a, 'g')}-b{format(b, 'g')}",
             replace(base, alpha=a, beta=b))
            for a in alphas
            for b in betas
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    max_size = max(train_sizes)
    if max_size + max(test_size, 10) > ds.n_rows:
        raise ConfigError("train sizes plus test size exceed the pool")
    codes, n_classes = ds.class_codes

    # A split's train sets are prefixes of one permutation and share its
    # seed, so one call grows the committees of all its sizes.
    sizes = list(dict.fromkeys(train_sizes))
    reports = {(size, label): [] for size in sizes for label in [*(lab for lab, _ in dci_cells), *kinds]}
    for split in range(n_splits):
        rng = np.random.default_rng([seed, _STREAM_ANALYZE_SPLIT, split])
        perm = rng.permutation(ds.n_rows)
        model_seed = stream_seed(seed, _STREAM_ANALYZE_MODEL, split)
        fitted = fit_ensemble(ds, model, model_seed, rows=[perm[:size] for size in sizes])
        for size, ens in zip(sizes, fitted.committees(len(sizes))):
            train_idx = perm[:size]
            end = size + test_size if test_size else ds.n_rows
            test_idx = perm[size:end]
            per_member = predict(ens, ds.features[test_idx])
            correct = (per_member.mean(axis=0).argmax(axis=1) == ds.labels[test_idx]).astype(np.int64)
            for kind in kinds:
                reports[size, kind].append(decile_analysis(UNCERTAINTY[kind](per_member), correct))
            cells = pool_scores(
                ds.features[train_idx], codes[train_idx], n_classes, ds.features[test_idx],
                [params for _, params in dci_cells],
            )
            for (label, _), u in zip(dci_cells, cells):
                reports[size, label].append(decile_analysis(u, correct))
    for (size, label), collected in reports.items():
        write_decile_csv(out_dir / f"decile_train{size}_{label}.csv", average_reports(collected))


def _one_blas_thread() -> None:
    """Run BLAS on one thread, unless the environment sets its thread count.

    Seed runs fan out over processes (``--threads``), and BLAS threads in
    each would oversubscribe the cores. NumPy has loaded BLAS before the
    CLI runs, too late for the environment, so the bundled OpenBLAS is
    told at run time.
    """
    if any(name in os.environ for name in _BLAS_THREAD_VARS):
        return
    try:
        ctypes.CDLL(glob(_OPENBLAS)[0]).scipy_openblas_set_num_threads64_(1)
    except (IndexError, OSError, AttributeError):
        print("dci-lab: cannot set BLAS to one thread; it runs at its default count", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dci-lab",
        description="Distance-weighted class impurity scoring and active-learning runs.",
    )
    parser.add_argument("--version", action="version", version=f"dci-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "score": "score query rows against a labelled pool",
        "grid": "evaluate a 2-d score field over a grid",
        "simulate": "run seeded active-learning experiments",
        "analyze": "per-decile accuracy of model vs impurity uncertainty",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named base configuration")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="parallel seed runs (default 1)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _one_blas_thread()
    try:
        overrides = load_config(args.config) if args.config else {}
        if args.config is None and args.preset is None:
            raise ConfigError("provide --config, --preset, or both")
        cfg = Cfg(merge_config(args.preset, overrides))
        if args.threads < 1:
            raise ConfigError("thread count must be at least 1")
        if args.seed < 0:
            raise ConfigError("seed must be non-negative")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "score":
            cmd_score(cfg, out_dir)
        elif args.command == "grid":
            cmd_grid(cfg, out_dir)
        elif args.command == "simulate":
            cmd_simulate(cfg, out_dir, args.seed, args.threads)
        else:
            cmd_analyze(cfg, out_dir, args.seed)
    except ConfigError as exc:
        print(f"dci-lab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"dci-lab: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"dci-lab: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
