"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {paper_calls,hot_burst,fleet_stream}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
same inputs with spans around every layer boundary and prints the
per-layer ledger.  A human-readable report comes first; the last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

The metric names and units are the ones ``BENCHMARK.json`` declares.
The exit code is 0 only when every selection matched the oracle and
every check held.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is imported anywhere (the
# fleet worker inherits the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_calls", "hot_burst", "fleet_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_metrics(outcome, declared: list) -> dict:
    """Exactly the declared metrics, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return {m["name"]: {"value": float(outcome.metrics[m["name"]]),
                        "unit": m["unit"]} for m in declared}


def report(outcome, metrics: dict) -> None:
    for line in outcome.lines:
        print(line)
    print(f"[{outcome.name}] attempted={outcome.attempted} "
          f"served={outcome.served} failed={outcome.failed} "
          f"selection mismatches={outcome.mismatches}")
    for error in outcome.errors:
        print(f"[{outcome.name}] failed request: {error}")
    for description, ok in outcome.checks:
        print(f"[{outcome.name}] check {'ok  ' if ok else 'FAIL'} "
              f"{description}")
    for name, entry in metrics.items():
        print(f"[{outcome.name}] {name:32s} {entry['value']:14.4f} "
              f"{entry['unit']}")


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for spawned fleet
    workers, and wait for it, so that no process outlives the run."""
    from multiprocessing import resource_tracker

    with contextlib.suppress(AttributeError, OSError):
        resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    manifest = load_manifest()
    sys.path[:0] = [src, ROOT]
    from perfbench.workloads import run

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        outcome = asyncio.run(asyncio.wait_for(
            run(args.workload, args.seed, args.seconds, bool(args.trace),
                workdir), RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))
        stop_resource_tracker()
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = result_metrics(outcome, declared)
    report(outcome, metrics)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed + outcome.mismatches,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
