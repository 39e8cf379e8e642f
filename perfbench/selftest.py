"""Self-test of the benchmark's output checks: corrupted outputs must fail.

Usage (from the repository root): python3 perfbench/selftest.py

Runs the census-committee round and the census-rank ``score`` command once,
in-process, confirms their outputs pass the checks, then feeds the checks
three corrupted copies and confirms each is reported: one score perturbed
by one part in a million, one curve row dropped, one summary mean changed.
Exits 0 only if the clean outputs pass and every corruption is caught.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import run  # noqa: E402  (sets up the import path for checks and inputs)
import checks  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
from dci_lab import cli  # noqa: E402

SEED = 1


def run_plan(workload: str, work: Path, commands: int | None = None) -> tuple[run.Plan, Path]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = run.PLANS[workload](SEED, work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in plan.commands[:commands]:
            if cli.main([a.replace("{out}", "clean") for a in argv]) != 0:
                raise SystemExit(f"{workload}: dci-lab {argv[0]} failed")
    finally:
        os.chdir(cwd)
    return plan, work / "clean"


def corrupt(clean: Path, name: str, edit) -> Path:
    bad = clean.parent / f"bad-{name}"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(clean, bad)
    path = bad / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return bad


def report(label: str, res: checks.CheckResult, want_fail: bool) -> bool:
    failed = bool(res.failed or res.problems)
    ok = failed == want_fail
    detail = res.problems[0] if res.problems else "no problems"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {res.failed} of {res.attempted} failed ({detail})")
    return ok


def main() -> int:
    base = run.ROOT / ".perfbench-out" / "selftest"
    results = []

    plan, clean = run_plan("census-committee", base / "census-committee")
    results.append(report("census-committee clean outputs", plan.check(clean), False))
    bad = corrupt(clean, "curves.csv", lambda lines: lines[:5] + lines[6:])
    results.append(report("one curve row dropped", plan.check(bad), True))

    def change_mean(lines):
        cells = lines[3].split(",")
        cells[2] = format(float(cells[2]) + 0.01, ".9g")
        return lines[:3] + [",".join(cells)] + lines[4:]

    bad = corrupt(clean, "summary.csv", change_mean)
    results.append(report("one summary mean changed", plan.check(bad), True))

    work = base / "census-rank"
    _, clean = run_plan("census-rank", work, commands=1)
    rows = list(range(40))
    oracle = checks.oracle_scores(
        work / "pool.csv", work / "pool.colspec", work / "query.csv", rows,
        run.DCI["dci.k"], run.DCI["dci.alpha"], run.DCI["dci.beta"], 1e-12,
    )
    n_queries = run.CENSUS_RANK_HELD_OUT + run.CENSUS_RANK_COPIES
    results.append(report("census-rank clean scores", checks.check_score(clean, n_queries, oracle, set()), False))

    # A row with no coincident neighbour and a score well above zero.
    row = next(i for i in rows if oracle[i] > 1e-3)

    def perturb(lines):
        lines[1 + row] = format(float(lines[1 + row]) * (1 + 1e-6), ".9g")
        return lines

    bad = corrupt(clean, "scores.csv", perturb)
    results.append(report("one score perturbed", checks.check_score(bad, n_queries, oracle, set()), True))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
