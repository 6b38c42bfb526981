"""Cold-start times: fresh-process runs of the command-line interface.

    python3 scripts/cold_start.py [ROOT ...]

Each ROOT is a checkout of this repository (default: the one holding this
script). Give two, such as a parent commit unpacked with `git archive` and
this tree, to compare them. For each of solve, dg, predict, region-map and
oracle-check it times `python3 -m moralbargain.cli CMD` in a fresh
interpreter, with the root's src/ on PYTHONPATH, seven times per root, one
run at a time; the roots alternate, in the given order on even repetitions
and reversed on odd ones. Prints one JSON object: per root and command, the
median and range of the wall seconds and the sha256 of the stdout of each
run (one value when every run printed the same bytes).

Per-operation times of a workload's first and later rounds need no extra
run: perfbench/run.py prints them in its detail line (rounds[i].ops).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parents[1]
RUNS = 7
CLI_COMMANDS = {
    "solve": ["solve", "--alpha", "0.5", "--kappa", "0.3"],
    "dg": ["dg", "--alpha", "0.5", "--beta", "0.2", "--kappa", "0.3"],
    "predict": ["predict", "--estimates", "data/test_sample.csv"],
    "region-map": ["region-map"],
    "oracle-check": ["oracle-check"],
}


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def cli_times(roots) -> dict:
    samples = {str(r): {c: [] for c in CLI_COMMANDS} for r in roots}
    digests = {str(r): {c: set() for c in CLI_COMMANDS} for r in roots}
    for i in range(RUNS):
        for root in roots if i % 2 == 0 else roots[::-1]:
            for name, argv in CLI_COMMANDS.items():
                t0 = time.perf_counter()
                done = subprocess.run([sys.executable, "-m", "moralbargain.cli", *argv],
                                      cwd=root, env=_env(root), capture_output=True, check=True)
                samples[str(root)][name].append(time.perf_counter() - t0)
                digests[str(root)][name].add(hashlib.sha256(done.stdout).hexdigest())
    return {root: {name: {"median": statistics.median(vals), "min": min(vals), "max": max(vals),
                          "runs": vals, "stdout_sha256": sorted(digests[root][name])}
                   for name, vals in per.items()}
            for root, per in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("roots", nargs="*", type=Path, default=[HERE_ROOT], metavar="ROOT")
    args = parser.parse_args(argv)
    roots = [r.resolve() for r in args.roots]
    print(json.dumps({"runs": RUNS, "roots": [str(r) for r in roots],
                      "cli": cli_times(roots)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
