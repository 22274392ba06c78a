"""Steadiness check: run one workload k times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload store-sharded --runs 10 [--seed 1]
        [--seconds 15]

Runs ``perfbench/run.py --trace 0`` once per seed ``seed .. seed+runs-1``
and prints, for every end-to-end metric, the median, the quartiles
(``statistics.quantiles`` with ``n=4``) and ``(q3 - q1) / median``, plus
the failed share and the machine facts of
:func:`repro.bench.hardware_context`.  The bounds in ``BENCHMARK.json``
are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from inputs import use_checkout_source  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((BENCH_DIR.parent / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    args = parser.parse_args(argv)
    use_checkout_source()
    from repro.bench import hardware_context

    values: dict = {}
    shares, walls = [], []
    for seed in range(args.seed, args.seed + args.runs):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        walls.append(time.perf_counter() - started)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f}s, {result['attempted']} ops, "
              f"{result['failed']} failed", file=sys.stderr)

    print(json.dumps({"hardware": hardware_context(), "workload": args.workload,
                      "runs": args.runs, "seconds": args.seconds,
                      "run_wall_s_max": max(walls)}))
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, series in sorted(values.items()):
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:28} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
