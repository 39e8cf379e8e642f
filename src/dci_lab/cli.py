"""The ``dci-lab`` command line: score, grid, simulate, analyze.

Every command is a pure function of its input files, flags and seed; rerun
with the same inputs it rewrites byte-identical outputs. Exit codes: 0 on
success, 2 for configuration problems, 3 for unreadable or malformed data.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, synthetic
from .active import (
    ExperimentConfig,
    aggregate,
    check_uncertainty,
    run_many,
    write_curves_csv,
    write_summary_csv,
)
from .config import (
    PRESETS,
    Cfg,
    ConfigError,
    build_dci_params,
    build_grid,
    build_model_config,
    load_config,
    merge_config,
    parse_strategies,
)
from .dataset import (
    DataError,
    Dataset,
    apply_standardization,
    load_csv,
    load_idx,
    one_hot,
    read_colspec,
    standardization_stats,
)
from .dci import dci_field, pool_scores, write_field_csv
from .metrics import average_reports, decile_analysis, write_decile_csv
from .models import UNCERTAINTY, fit_ensemble, predict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


@dataclass(frozen=True)
class RunManifest:
    """What a simulate invocation consumed and produced."""

    tool_version: str
    seed: int
    config: dict[str, str]
    dataset_rows: int
    dataset_columns: int
    dataset_sha256: str
    outputs: dict[str, dict[str, str]]

    def to_json(self) -> str:
        payload = {
            "tool": "dci-lab",
            "version": self.tool_version,
            "seed": self.seed,
            "config": dict(sorted(self.config.items())),
            "dataset": {
                "rows": self.dataset_rows,
                "columns": self.dataset_columns,
                "sha256": self.dataset_sha256,
            },
            "outputs": self.outputs,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dataset_fingerprint(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update(str(ds.features.shape).encode())
    # Contiguous arrays are hashed through their buffers, without a copy.
    h.update(np.ascontiguousarray(ds.features))
    h.update(np.ascontiguousarray(ds.labels))
    return h.hexdigest()


def _build_raw_dataset(cfg: Cfg) -> Dataset:
    source = cfg.str("data.source", choices=("synthetic", "csv", "idx"))
    if source == "csv":
        specs = read_colspec(cfg.str("data.colspec"))
        return load_csv(cfg.str("data.csv"), specs)
    if source == "idx":
        return load_idx(cfg.str("data.images"), cfg.str("data.labels"))
    name = cfg.str("data.name", choices=("census", "wine", "three-class", "digits"))
    seed = cfg.int("data.seed", 0)
    if name == "census":
        return synthetic.census_income(cfg.int("data.n", 10000), seed)
    if name == "wine":
        return synthetic.wine_quality(cfg.int("data.n", 1599), seed)
    if name == "three-class":
        return synthetic.three_class_points(cfg.int("data.n", 300) // 3, seed)
    return synthetic.digits_dataset(cfg.int("data.n", 600), seed)


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
        rng = np.random.default_rng(cfg.int("data.subsample_seed", 0))
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
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise DataError(f"cannot read query file {path}: {exc}") from exc
    if not rows:
        return np.empty((0, n_features))
    body = rows[1:]
    out = np.empty((len(body), n_features))
    for i, record in enumerate(body):
        if len(record) != n_features:
            raise DataError(
                f"{path}: query row {i + 1} has {len(record)} fields, "
                f"expected {n_features} (the encoded feature dimension)"
            )
        try:
            out[i] = [float(c) for c in record]
        except ValueError:
            raise DataError(f"{path}: non-numeric value in query row {i + 1}") from None
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: non-finite value in query row {bad[0] + 1}")
    return out


def cmd_score(cfg: Cfg, out_dir: Path) -> None:
    ds, stats = prepare_dataset(cfg)
    params = build_dci_params(cfg)
    Q = _read_query_matrix(cfg.str("score.query"), ds.n_features)
    if stats is not None:
        mean, inv = stats
        Q = (Q - mean) * inv
    (scores,) = pool_scores(ds.features, *ds.class_codes, Q, [params])
    lines = ["dci"] + [format(s + 0.0, ".9g") for s in scores]
    (out_dir / "scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_grid(cfg: Cfg, out_dir: Path) -> None:
    ds, _ = prepare_dataset(cfg)
    if ds.n_features != 2:
        raise DataError(f"grid rendering needs 2 feature columns, got {ds.n_features}")
    grid = build_grid(cfg)
    field = dci_field(ds, grid, build_dci_params(cfg))
    write_field_csv(out_dir / "field.csv", grid, field)


def cmd_simulate(cfg: Cfg, out_dir: Path, seed: int, threads: int) -> None:
    ds, _ = prepare_dataset(cfg)
    params = build_dci_params(cfg)
    model = build_model_config(cfg)
    try:
        exp = ExperimentConfig(
            dataset=ds,
            strategies=parse_strategies(cfg, params),
            model=model,
            metric=cfg.str("experiment.metric", choices=("auroc", "accuracy", "rmse")),
            initial_train_size=cfg.int("experiment.initial_train_size"),
            additions_per_update=cfg.int("experiment.additions_per_update", 1),
            n_updates=cfg.int("experiment.n_updates", 0),
            n_seeds=cfg.int("experiment.n_seeds", 1),
            candidate_batch_size=cfg.int("experiment.candidate_batch_size", 5),
            test_size=cfg.int("experiment.test_size"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    curves = run_many(exp, base_seed=seed, threads=threads)
    write_curves_csv(out_dir / "curves.csv", curves)
    write_summary_csv(out_dir / "summary.csv", aggregate(curves))
    manifest = RunManifest(
        tool_version=__version__,
        seed=seed,
        config=cfg.values,
        dataset_rows=ds.n_rows,
        dataset_columns=ds.n_features,
        dataset_sha256=dataset_fingerprint(ds),
        outputs={
            s.label: {"curves": "curves.csv", "summary": "summary.csv"} for s in exp.strategies
        },
    )
    (out_dir / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")


def _analyze_seed(seed: int, split: int) -> int:
    return int(np.random.SeedSequence([seed, 4, split]).generate_state(1)[0])


def cmd_analyze(cfg: Cfg, out_dir: Path, seed: int) -> None:
    ds, _ = prepare_dataset(cfg)
    if not ds.is_classification:
        raise ConfigError("analyze needs a class label (accuracy per decile)")
    model = build_model_config(cfg)
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
    if test_size < 0:
        raise ConfigError("analyze.test_size must be non-negative")
    base = build_dci_params(cfg)
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

    for size in train_sizes:
        reports: dict[str, list] = {label: [] for label, _ in dci_cells}
        reports.update({kind: [] for kind in kinds})
        for split in range(n_splits):
            rng = np.random.default_rng([seed, 3, split])
            perm = rng.permutation(ds.n_rows)
            train_idx = perm[:size]
            end = size + test_size if test_size else ds.n_rows
            test_idx = perm[size:end]
            train_ds = ds.select_rows(train_idx)
            ens = fit_ensemble(train_ds, model, _analyze_seed(seed, split))
            pred = predict(ens, ds.features[test_idx])
            correct = (pred.aggregate.argmax(axis=1) == ds.labels[test_idx]).astype(np.int64)
            for kind in kinds:
                u = np.asarray(UNCERTAINTY[kind](pred), dtype=np.float64)
                reports[kind].append(decile_analysis(u, correct))
            cells = pool_scores(
                train_ds.features, codes[train_idx], n_classes, ds.features[test_idx],
                [params for _, params in dci_cells],
            )
            for (label, _), u in zip(dci_cells, cells):
                reports[label].append(decile_analysis(u, correct))
        for label, collected in reports.items():
            write_decile_csv(
                out_dir / f"decile_train{size}_{label}.csv", average_reports(collected)
            )


def _thread_count(flag: int | None) -> int:
    if flag is not None:
        value = flag
    else:
        raw = os.environ.get("DCI_LAB_THREADS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"DCI_LAB_THREADS must be an integer (got {raw!r})") from None
    if value < 1:
        raise ConfigError("thread count must be at least 1")
    return value


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
            default=None,
            help="parallel seed runs (default: DCI_LAB_THREADS or 1)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = load_config(args.config) if args.config else {}
        if args.config is None and args.preset is None:
            raise ConfigError("provide --config, --preset, or both")
        cfg = Cfg(merge_config(args.preset, overrides))
        threads = _thread_count(args.threads)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "score":
            cmd_score(cfg, out_dir)
        elif args.command == "grid":
            cmd_grid(cfg, out_dir)
        elif args.command == "simulate":
            cmd_simulate(cfg, out_dir, args.seed, threads)
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
