"""Benchmark entry point: one workload, one seed, one trace mode.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload estimate-1m --seed 1 --seconds 15 --trace 0

Workloads: ``estimate-1m``, ``serve-hot``, ``churn-serve`` (see
``BENCHMARK.json`` for why each exists).  The program is imported from
``src/`` of the checkout; nothing is installed.

Two worker processes run per invocation, one after the other, each
single-threaded (NumPy/BLAS pools pinned to one thread):

* the measured run, under ``--trace`` and ``PYTHONHASHSEED=0``;
* a check run — set-up and the checked prefix only — under the other trace
  mode and ``PYTHONHASHSEED=1``.

The run is correct only if both pass the correctness gate and their output
digests and deterministic metrics are identical.  Standard output ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("estimate-1m", "serve-hot", "churn-serve")
#: Wall-clock budget for both workers together.
TIMEOUT_S = 170
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _worker(args: argparse.Namespace, mode: str, trace: int, hash_seed: int, timeout: float) -> dict[str, Any]:
    env = dict(os.environ)
    env.update({name: "1" for name in _THREAD_VARS})
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--mode", mode,
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)

    deadline = time.monotonic() + TIMEOUT_S
    try:
        main_run = _worker(args, "full", args.trace, 0, deadline - time.monotonic())
        check_run = _worker(args, "check", 1 - args.trace, 1, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = list(main_run["problems"]) + [f"check run: {p}" for p in check_run["problems"]]
    if main_run["digest"] != check_run["digest"]:
        problems.append("output digest differs between the traced and untraced runs")
    if main_run["deterministic"] != check_run["deterministic"]:
        problems.append(
            "deterministic metrics differ between runs: "
            f"{main_run['deterministic']} vs {check_run['deterministic']}"
        )
    correct = not problems

    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in declared[section]}
    measured = main_run["metrics"]
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}

    attempted, failed = main_run["attempted"], main_run["failed"]
    samples = main_run["samples"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"  timed operations {samples['ops']}; latency tail is p{samples['tail_percentile']:g} "
        f"with {samples['beyond_tail']} samples beyond it"
    )
    for kind in sorted(attempted):
        print(f"  {kind}: attempted {attempted[kind]}, failed {failed.get(kind, 0)}")
    for error in main_run["errors"]:
        print(f"  error: {error}")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"  digest {main_run['digest']}  checks {main_run['checks']} + {check_run['checks']}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
