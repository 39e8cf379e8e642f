"""Compare selection strategies on one of the built-in pools, library-side.

A quick-look companion to `dci-lab simulate`: runs the strategies for a few
seeds and prints the final-round metric per strategy. Scale is set by the
flags, so a full preset-sized benchmark and a 30-second smoke run use the
same code path.

Example (three-class toy, both score directions plus random):
  python scripts/selection_benchmark.py --pool three-class --n 300 \
      --strategies random,dci-high,dci-low --seeds 5
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from dci_lab.active import ExperimentConfig, ModelConfig, aggregate, run_many
from dci_lab.config import parse_strategy
from dci_lab.dataset import one_hot, standardize
from dci_lab.dci import DciParams
from dci_lab.synthetic import census_income, three_class_points, wine_quality

POOLS = {
    "three-class": lambda n, seed: three_class_points(max(n // 3, 1), seed=seed),
    "census": census_income,
    "wine": wine_quality,
}
METRICS = {"three-class": "accuracy", "census": "auroc", "wine": "rmse"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pool", choices=sorted(POOLS), default="three-class")
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--data-seed", type=int, default=11)
    ap.add_argument("--strategies", default="random,dci-high,dci-low")
    ap.add_argument("--initial", type=int, default=50)
    ap.add_argument("--additions", type=int, default=10)
    ap.add_argument("--updates", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--test-size", type=int, default=None)
    ap.add_argument("--trees", type=int, default=10)
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--beta", type=float, default=1.2)
    args = ap.parse_args()

    encoded = one_hot(POOLS[args.pool](args.n, args.data_seed))
    ds = standardize(encoded, np.arange(encoded.n_rows))
    metric = METRICS[args.pool]
    test_size = args.test_size if args.test_size is not None else ds.n_rows // 4
    params = DciParams(k=args.k, alpha=args.alpha, beta=args.beta)

    configs = [
        ExperimentConfig(
            dataset=ds,
            strategy=parse_strategy(label.strip(), params),
            model=ModelConfig(kind="ensemble", n_trees=args.trees),
            metric=metric,
            initial_train_size=args.initial,
            additions_per_update=args.additions,
            n_updates=args.updates,
            n_seeds=args.seeds,
            test_size=test_size,
        )
        for label in args.strategies.split(",")
    ]
    t0 = time.perf_counter()
    curves = run_many(configs)
    print(
        f"{args.pool}: {ds.n_rows} rows, metric {metric}, "
        f"schedule {args.initial} + {args.additions} x {args.updates}, "
        f"{args.seeds} seeds ({time.perf_counter() - t0:.1f}s)"
    )
    finals = {r.strategy: r for r in aggregate(curves)}  # each label's last row is its final size
    for config in configs:
        label = config.strategy.label
        final = [c.points[-1][1] for c in curves if c.strategy == label]
        print(f"  {label:28s} final {metric} mean {np.mean(final):.4f} median {finals[label].median:.4f}")


if __name__ == "__main__":
    main()
