"""Benchmark of the moralbargain package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src. A run
sets the workload up (timed, as setup_s), then measures whole rounds of
the workload's operations until the next round would end after S
seconds; there is always at least one round. Every output is checked.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of one traced round with --trace 1.
See README.md in this directory.
"""

import os

# One thread of its own: no BLAS or OpenMP pools behind numpy and scipy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# the names of workloads.WORKLOADS; that module imports numpy, whose import set-up times
WORKLOADS = ("theory-sweep", "equilibrium-oracle", "estimation")
# set-up is timed in this process and in this many more fresh processes; the median is reported
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


class SetupError(Exception):
    pass


def import_package():
    """Import moralbargain from this checkout's src/, never from anywhere else."""
    pkg = SRC / "moralbargain"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no package at {pkg}")
    sys.path.insert(0, str(SRC))
    import moralbargain
    import moralbargain.cli  # noqa: F401
    import moralbargain.io  # noqa: F401
    import moralbargain.kernels  # noqa: F401
    import moralbargain.mixture  # noqa: F401

    if Path(moralbargain.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"moralbargain imported from {moralbargain.__file__}, not {pkg}")
    return moralbargain


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs."""
    mb = import_package()
    import workloads

    return workloads.WORKLOADS[workload](mb, seed, workdir)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured by this script in --setup-probe mode."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def run_round(wl, clock, tracer=None) -> dict:
    """One pass over the workload's operations, each timed and then checked."""
    wl.reset()
    per_op = {}
    wall = raw_wall = 0.0
    attempted = failed = wrong = 0
    for op in wl.ops():
        attempted += 1
        run = op.run if tracer is None else (lambda op=op: tracer.operation(op.name, op.run))
        if tracer is not None:
            tracer.active = True
        try:
            out, raw, cal = clock.time(run)
        except Exception:
            failed += 1
            print(f"operation {op.name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        per_op[op.name] = {"s": cal, "raw_s": raw}
        wall += cal
        raw_wall += raw
        try:
            problems = op.check(out)
        except Exception as exc:  # a check that cannot read the output fails the operation
            problems = [f"{op.name}: check raised {exc!r}"]
        if problems:
            failed += 1
            wrong += 1
            for line in problems:
                print(f"CHECK FAILED {line}", file=sys.stderr)
    return dict(attempted=attempted, failed=failed, wrong=wrong, wall_s=wall,
                raw_wall_s=raw_wall, ops=per_op)


def environment(mb) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_use_numba": getattr(mb.kernels, "USE_NUMBA", None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    clock.start()
    try:
        try:
            wl, _, setup_s = clock.time(lambda: set_up(args.workload, args.seed, workdir))
            clock.numpy = sys.modules["numpy"]
            if args.setup_probe:
                print(repr(setup_s))
                return 0
            clock.stop()  # the probes run alone
            setup_samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                         for _ in range(SETUP_PROBES)]
            clock.start()
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        env = environment(wl.mb)

        rounds = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(wl, clock))
            took = time.perf_counter() - t0
            if args.trace or time.perf_counter() - start + took > args.seconds:
                break

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            rounds.append(run_round(wl, clock, tracer))
        clock.stop()
        env["speed_p50"] = statistics.median(clock.speeds)

        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        correct = all(r["wrong"] == 0 for r in rounds)
        detail = {"workload": args.workload, "seed": args.seed, "env": env,
                  "setup_samples_s": setup_samples,
                  "rounds": [{k: r[k] for k in ("wall_s", "raw_wall_s", "ops")}
                             for r in rounds]}
        if tracer is not None:
            layer, missing = tracer.metrics(rounds[-1]["wall_s"], rounds[0]["wall_s"])
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "env": env})
            detail.update(trace_file=str(trace_path.relative_to(ROOT)), missing_metrics=missing)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
        print(json.dumps(detail))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
