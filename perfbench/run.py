"""The dci-lab benchmark: three workloads, end-to-end and per-module metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload census-committee --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

For one workload this makes the seeded input files, measures set-up time in
several fresh processes, runs whole rounds of the workload's ``dci-lab``
commands in one more fresh process for ``--seconds``, checks every round's
outputs, and prints each metric with its unit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-module metrics with
``--trace 1``). Run outputs go to ``.perfbench-out/`` at the repository
root; a traced run also writes ``trace.json`` there. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
BLAS_THREADS = "1"
SETUP_PROBES = 6  # fresh set-up-only processes, besides the workload process
CHILD_TIMEOUT_S = 150

DCI = {"dci.k": 20, "dci.alpha": 1.5, "dci.beta": 1.2}


@dataclass
class Plan:
    """What one workload runs and how its outputs are checked."""

    setup_config: str
    commands: list[list[str]]
    check: Callable[[Path], checks.CheckResult]


def _simulate_check(strategies, seed, cfg, metric, n_classes):
    schedule = [
        cfg["experiment.initial_train_size"] + i * cfg["experiment.additions_per_update"]
        for i in range(cfg["experiment.n_updates"] + 1)
    ]
    seeds = [seed + i for i in range(cfg["experiment.n_seeds"])]
    return lambda out: checks.check_simulate(out, strategies, seeds, schedule, metric, n_classes)


def plan_census_committee(seed: int, work: Path) -> Plan:
    pool = inputs.census_table(4000, seed)
    inputs.write_census_csv(pool, work / "pool.csv", work / "pool.colspec")
    strategies = ["random", "dci-high", "uncertainty-eq3_binary"]
    cfg = {
        "data.source": "csv",
        "data.csv": "pool.csv",
        "data.colspec": "pool.colspec",
        "model.kind": "ensemble",
        "model.n_trees": 10,
        "experiment.metric": "auroc",
        "experiment.initial_train_size": 400,
        "experiment.additions_per_update": 100,
        "experiment.n_updates": 4,
        "experiment.n_seeds": 2,
        "experiment.test_size": 1000,
        "strategies": ",".join(strategies),
        **DCI,
    }
    inputs.write_config(work / "simulate.cfg", cfg)
    return Plan(
        setup_config="simulate.cfg",
        commands=[["simulate", "--config", "simulate.cfg", "--seed", str(seed), "--out", "{out}", "--threads", "1"]],
        check=_simulate_check(strategies, seed, cfg, "auroc", 2),
    )


def plan_digits_knn(seed: int, work: Path) -> Plan:
    images, labels = inputs.digit_images(2000, seed)
    inputs.write_idx(images, labels, work / "images.idx", work / "labels.idx")
    strategies = ["random", "dci-high", "dci-high-pca10", "uncertainty-max_prob"]
    cfg = {
        "data.source": "idx",
        "data.images": "images.idx",
        "data.labels": "labels.idx",
        "data.standardize": "false",
        "model.kind": "knn",
        "model.knn_k": 10,
        "experiment.metric": "accuracy",
        "experiment.initial_train_size": 50,
        "experiment.additions_per_update": 50,
        "experiment.n_updates": 8,
        "experiment.n_seeds": 2,
        "experiment.test_size": 500,
        "strategies": ",".join(strategies),
        **DCI,
        "dci.k": 10,
    }
    inputs.write_config(work / "simulate.cfg", cfg)
    return Plan(
        setup_config="simulate.cfg",
        commands=[["simulate", "--config", "simulate.cfg", "--seed", str(seed), "--out", "{out}", "--threads", "1"]],
        check=_simulate_check(strategies, seed, cfg, "accuracy", 10),
    )


CENSUS_RANK_POOL = 10000
CENSUS_RANK_HELD_OUT = 1600
CENSUS_RANK_COPIES = 400
CENSUS_RANK_ORACLE_ROWS = 400
ANALYZE_SIZES = [50, 200, 1000]
ANALYZE_KINDS = ["max_prob", "eq3_binary", "mean_std"]
ANALYZE_ALPHAS = [1.0, 1.5, 2.0]
ANALYZE_DCI = [f"dci-a{format(a, 'g')}-b1.2" for a in ANALYZE_ALPHAS]
# eq3_binary is left out of the falling-accuracy property: with trees grown
# to purity every member votes 0 or 1, so it is -0.5 for every row and its
# deciles are test-set order (see CHANGES.md).
ANALYZE_FALLING = ["max_prob", "mean_std"] + ANALYZE_DCI


def plan_census_rank(seed: int, work: Path) -> Plan:
    pool = inputs.census_table(CENSUS_RANK_POOL, seed)
    inputs.write_census_csv(pool, work / "pool.csv", work / "pool.colspec")
    held_out = inputs.census_table(CENSUS_RANK_HELD_OUT, seed + 1_000_003)
    source = inputs.write_query_csv(pool, held_out, CENSUS_RANK_COPIES, seed, work / "query.csv")
    base = {"data.source": "csv", "data.csv": "pool.csv", "data.colspec": "pool.colspec", **DCI}
    inputs.write_config(work / "score.cfg", {**base, "score.query": "query.csv"})
    inputs.write_config(
        work / "analyze.cfg",
        {
            **base,
            "model.kind": "ensemble",
            "model.n_trees": 10,
            "analyze.train_sizes": ",".join(map(str, ANALYZE_SIZES)),
            "analyze.n_splits": 3,
            "analyze.test_size": 0,
            "analyze.kinds": ",".join(ANALYZE_KINDS),
            "analyze.alphas": ",".join(map(str, ANALYZE_ALPHAS)),
        },
    )
    n_queries = len(source)
    sample = sorted(
        np.random.default_rng([seed, 0x5A3]).choice(n_queries, CENSUS_RANK_ORACLE_ROWS, replace=False).tolist()
    )
    copies = {i for i in sample if source[i] >= 0}
    oracle = checks.oracle_scores(
        work / "pool.csv", work / "pool.colspec", work / "query.csv", sample,
        DCI["dci.k"], DCI["dci.alpha"], DCI["dci.beta"], 1e-12,
    )
    labels = ANALYZE_KINDS + ANALYZE_DCI
    test_size = {size: CENSUS_RANK_POOL - size for size in ANALYZE_SIZES}

    def check(out: Path) -> checks.CheckResult:
        res = checks.check_score(out, n_queries, oracle, copies)
        res.merge(checks.check_analyze(out, ANALYZE_SIZES, labels, ANALYZE_FALLING, test_size))
        return res

    return Plan(
        setup_config="score.cfg",
        commands=[
            ["score", "--config", "score.cfg", "--out", "{out}", "--threads", "1"],
            ["analyze", "--config", "analyze.cfg", "--seed", str(seed), "--out", "{out}", "--threads", "1"],
        ],
        check=check,
    )


PLANS = {
    "census-committee": plan_census_committee,
    "digits-knn": plan_digits_knn,
    "census-rank": plan_census_rank,
}


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_child(spec: dict, work: Path, name: str) -> dict:
    spec_path = work / f"{name}.spec.json"
    spec = {**spec, "result": str(work / f"{name}.result.json")}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
           "MKL_NUM_THREADS": BLAS_THREADS, "DCI_LAB_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        env=env, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench-out" / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = PLANS[workload](seed, work)
    spec = {
        "src": str(ROOT / "src"),
        "workdir": str(work),
        "setup_config": plan.setup_config,
        "commands": plan.commands,
        "seconds": seconds,
        "trace": trace,
    }
    setups = [run_child({**spec, "mode": "setup"}, work, f"setup{i}")["setup_s"] for i in range(SETUP_PROBES)]
    child = run_child({**spec, "mode": "workload"}, work, "workload")
    setups.append(child["setup_s"])

    rounds = child["rounds"] + child["traced_rounds"]
    result = checks.CheckResult()
    digests = set()
    for r in rounds:
        out = work / r["out"]
        if any(r["exit_codes"]):
            result.attempted += 1
            result.fail(("exit", r["out"]), f"{r['out']}: dci-lab exit codes {r['exit_codes']}")
            continue
        result.merge(plan.check(out))
        digests.add(output_digest(out))
    if len(digests) > 1:
        result.problems.append(f"rounds of one run gave {len(digests)} different outputs")

    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "digest": sorted(digests),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "check_info": result.info,
        "problems": result.problems[:20],
    }
    untraced = statistics.median(r["wall_s"] for r in child["rounds"])
    if trace:
        traced = child["traced_rounds"]
        values = {n: statistics.median(r["layers"][n] for r in traced) for n in traced[0]["layers"]}
        values["trace.run_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.run_s"] - untraced
        values["trace.self_sum_s"] = statistics.median(
            sum(v for n, v in r["layers"].items() if n.endswith(".self_s")) for r in traced
        )
        report["wrapped_references"] = child["wrapped_references"]
        report["layers"] = values
        report["traced_rounds"] = traced
        (work / "trace.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
        wanted = BENCHMARK["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": untraced,
            "peak_rss_mb": child["rounds"][0]["peak_rss_mb"],
        }
        wanted = BENCHMARK["end_to_end"]
    report["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report["correct"] = not result.problems
    report["attempted"] = result.attempted
    report["failed"] = result.failed
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one dci-lab benchmark workload, or all of them.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dci_lab" / "__init__.py").is_file():
        print(f"perfbench: no dci_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reports = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        reports.append(report)
        print(f"{workload} seed {args.seed}: {report['rounds']} rounds, BLAS threads {BLAS_THREADS}, "
              f"digest {','.join(report['digest'])}")
        for name, m in report["metrics"].items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        print(f"  attempted {report['attempted']} failed {report['failed']} correct {str(report['correct']).lower()}")
        for key, value in report["check_info"].items():
            print(f"  {key}: {value}")
        for line in report["problems"]:
            print(f"  problem: {line}")
    final = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": reports[0]["metrics"] if len(reports) == 1 else {
            f"{r['workload']}.{n}": m for r in reports for n, m in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
