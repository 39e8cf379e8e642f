"""One fresh benchmark process: set up, then (optionally) run timed rounds.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the repository's ``src`` directory, the working directory, the
config whose pool is prepared for the set-up time, the ``dci-lab`` commands
of one round (``{out}`` stands for the round's output directory), the
seconds to measure, whether to trace, and where to write the result.

Set-up time runs from this process's first statement to a prepared pool:
importing dci_lab (and NumPy with it) and ``cli.prepare_dataset``. Rounds
run ``dci_lab.cli.main`` in-process, as the console script does. A traced
run alternates untraced rounds with rounds in which ``tracer.Tracer`` has
wrapped the program's functions.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
os.chdir(spec["workdir"])
sys.path.insert(0, spec["src"])

from dci_lab import cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
    sys.exit(f"dci_lab was imported from {cli.__file__}, not from {spec['src']}")

cfg = cli.Cfg(cli.merge_config(None, cli.load_config(spec["setup_config"])))
cli.prepare_dataset(cfg)
result = {"setup_s": time.perf_counter() - T0}


def run_round(index: int, tracer=None) -> dict:
    out = f"round{index}"
    t = time.perf_counter()
    codes = [cli.main([a.replace("{out}", out) for a in argv]) for argv in spec["commands"]]
    record = {"out": out, "wall_s": time.perf_counter() - t, "exit_codes": codes}
    if index == 0:
        # The high-water mark after set-up and one round is what one
        # invocation of each command costs; later rounds only add allocator
        # fragmentation, which grows with the round count.
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.flat()
        tracer.reset()
    return record


def median_wall(records: list[dict]) -> float:
    return statistics.median(r["wall_s"] for r in records) if records else 0.0


if spec["mode"] == "workload":
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        result["wrapped_references"] = len(tracer.patches)
    rounds: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    # Whole rounds while another fits in the time (at least one). A traced
    # run alternates untraced and traced rounds, so both see the same
    # warm-up and the same drift of the machine.
    while not rounds or (
        time.perf_counter() - start + median_wall(rounds) + median_wall(traced) <= float(spec["seconds"])
    ):
        rounds.append(run_round(len(rounds) + len(traced)))
        if tracer is not None:
            tracer.install()
            traced.append(run_round(len(rounds) + len(traced), tracer))
            tracer.uninstall()
    result["rounds"] = rounds
    result["traced_rounds"] = traced

Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
