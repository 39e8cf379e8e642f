"""The Python examples of README.md run as written, in order, sharing one
namespace as a reader pasting them into one session would."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = python_blocks()
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["scores"].shape == (2,)
    assert (tmp_path / "field.csv").read_text().splitlines()[0] == "x,y,dci"
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    # Two strategies, each at train sizes 20, 30, ..., 70.
    assert [(label, size) for label, size, _ in printed] == [
        (label, str(size)) for label in ("dci-high", "random") for size in range(20, 71, 10)
    ]
