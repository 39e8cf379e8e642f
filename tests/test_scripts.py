"""Smoke runs of the scripts in scripts/, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def check(result):
    assert result.returncode == 0, result.stderr


def test_make_demo_data(tmp_path):
    check(run_script("make_demo_data.py", "--out", "demo", "--n", "60", cwd=tmp_path))
    names = {p.name for p in (tmp_path / "demo").iterdir()}
    assert names == {
        "points.csv",
        "points.colspec",
        "census.csv",
        "census.colspec",
        "digits-images.idx",
        "digits-labels.idx",
    }


def test_field_sweep(tmp_path):
    result = run_script(
        "field_sweep.py",
        "--out", "fields",
        "--alphas", "1,2",
        "--betas", "1.2",
        "--resolution", "12",
        "--n-per-class", "20",
        cwd=tmp_path,
    )
    check(result)
    out = tmp_path / "fields"
    assert {p.name for p in out.iterdir()} == {
        "pool.csv",
        "pool.colspec",
        "field_a1_b1.2.csv",
        "field_a2_b1.2.csv",
    }
    lines = (out / "field_a1_b1.2.csv").read_text().splitlines()
    assert lines[0] == "x,y,dci" and len(lines) == 1 + 12 * 12

