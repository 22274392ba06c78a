"""End-to-end benchmark over the four user paths of the CLAN reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload market-sweep --seed 1 --seconds 15 --trace 0

The parent process builds the workload's inputs (``--seed`` decides
them) several times and keeps the median as ``setup_s``, then starts one
load-generating process that takes the inputs in, runs a warm-up round
and then whole rounds of operations, one in flight, until ``--seconds``
have passed.  It spools every output to a file; the parent checks them
all once that process has exited, so no checker state ever sits in the
process whose peak memory is reported.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import ROOT, use_checkout_source  # noqa: E402
from probe import corrected, probe  # noqa: E402

#: How often set-up is repeated; ``setup_s`` is the median build.
SETUP_REPEATS = 5
#: The load-generating process ends within this many seconds of the
#: run's start; checking its outputs afterwards takes at most ~20 s more.
WORKER_DEADLINE = 140.0
WORK_DIR = ROOT / ".perfbench_work"
#: Where the load-generating process spools each output for the checks.
SPOOL = "outputs.pickle"
#: The timed process (and the CLI processes it starts) run with one
#: fixed string-hash seed, so set iteration order inside the program is
#: the same in every run instead of adding its own run-to-run spread.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
TRACE_DIR = ROOT / ".perfbench_out"

#: Per-layer metrics that are the self time of one span name, in ms per op.
SELF_TIME_METRICS = {
    "engine.mine_ms": "engine.mine",
    "engine.prepare_ms": "engine.prepare",
    "api.envelope_ms": "api.envelope",
    "storage.decode_ms": "storage.decode",
    "sharding.count_merge_ms": "sharding.mine_sharded",
    "session.run_ms": "session.run",
    "cache.access_ms": "cache.access",
    "runlog.checkpoint_ms": "runlog.checkpoint",
    "runlog.fingerprint_ms": "runlog.fingerprint",
    "runlog.cache_save_ms": "runlog.cache_save",
    "runlog.envelope_io_ms": "runlog.envelope_io",
    "service.submit_ms": "service.submit",
    "service.queue_wait_ms": "service.queue_wait",
    "service.result_ms": "service.result",
    "cli.import_ms": "cli.import",
    "io.parse_ms": "io.parse",
    "cli.mine_ms": "cli.mine",
    "io.write_ms": "io.write",
    "trace.unattributed_ms": "op",
}
END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_ref_s": "1/s", "op_p50_ref_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in SELF_TIME_METRICS},
    "engine.prefixes_visited": "count",
    "engine.nodes_per_s": "1/s",
    "storage.decode_calls": "count",
    "storage.import_s": "s",
    "sharding.candidates_ms": "ms",
    "runlog.checkpoint_writes": "count",
    "runlog.cache_bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "wall.ops_per_s": "1/s",
    "wall.op_p50_ms": "ms",
    "host.probe_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_pct": "%",
}


# ----------------------------------------------------------------------
# The load-generating process
# ----------------------------------------------------------------------
def attempt(workload, op, spool, tracer=None) -> float:
    """Run one operation and spool its output for the checks; wall seconds.

    The spool holds one ``(op, error, output)`` record per operation;
    ``error`` says why an operation that raised has failed.
    """
    from tracing import OP

    begin = time.perf_counter()
    try:
        output, error = workload.run(op, tracer), None
    except Exception as exc:  # an operation that raises has failed
        output, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.add(OP, begin, end)
    if error is None:
        try:
            output = workload.collect(op, output)
        except Exception as exc:
            output, error = None, f"{type(exc).__name__}: {exc}"
    pickle.dump((op, error, output), spool)
    return end - begin


def timed_phase(workload, seconds: float, spool, tracer=None):
    """Whole rounds of operations until ``seconds`` have passed.

    Returns ``[(wall_seconds, probe_seconds), ...]``, one per operation.
    """
    ops = workload.round()
    records = []
    started = time.perf_counter()
    while True:
        for op in ops:
            reference = probe()
            if tracer is not None:
                tracer.op_id += 1
            records.append((attempt(workload, op, spool, tracer), reference))
        if time.perf_counter() - started >= seconds:
            return records


def peak_rss_mb() -> float:
    """Peak resident memory of this process and the processes it waited for.

    This process's own peak is ``VmHWM``: the high-water mark of the
    address space it got at exec.  Its ``ru_maxrss`` would not do, since
    Linux folds the parent's high-water mark into a child's at exec, and
    the parent's is the set-up builds'.  The children (the CLI processes
    of cli-cold) start from this process, which imports neither
    ``repro`` nor the checks, so what exec folds into theirs is no more
    than a bare interpreter's.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    return max(own, children) / 1024.0


def layer_metrics(tracer, n_ops: int, counters: dict) -> dict:
    """Per-op means of self times and counts from the traced phase."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    totals = defaultdict(float)
    for times in tracer.self_times().values():
        for name, seconds in times.items():
            totals[name] += seconds
    metrics = {m: 1000.0 * totals[name] / n_ops for m, name in SELF_TIME_METRICS.items()}
    engine_seconds = candidates = 0.0
    for span_id, name, start, end, parent, _op in spans:
        if not name.startswith("engine.") or (
            parent in by_id and by_id[parent][1].startswith("engine.")
        ):
            continue
        if name == "engine.mine":
            engine_seconds += end - start
        while parent in by_id:
            if by_id[parent][1] == "sharding.mine_sharded":
                candidates += end - start
                break
            parent = by_id[parent][4]
    prefixes = tracer.counters["engine.prefixes_visited"]
    ops = [s for s in spans if s[1] == "op"]
    metrics.update({
        "engine.prefixes_visited": prefixes / n_ops,
        "engine.nodes_per_s": prefixes / engine_seconds if engine_seconds else 0.0,
        "sharding.candidates_ms": 1000.0 * candidates / n_ops,
        "storage.decode_calls": sum(s[1] == "storage.decode" for s in spans) / n_ops,
        "runlog.checkpoint_writes": tracer.counters["runlog.checkpoint_writes"] / n_ops,
        "runlog.cache_bytes": tracer.counters["runlog.cache_bytes"] / n_ops,
        "trace.op_ms": 1000.0 * sum(s[3] - s[2] for s in ops) / n_ops,
    })
    for name in ("cache.hits", "cache.misses"):
        metrics[name] = counters.get(name, 0.0) / n_ops
    return metrics


def corrected_p50_ms(records) -> float:
    return 1000.0 * statistics.median(corrected(w, p) for w, p in records)


def worker(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](Path(args.workdir), args.seed, args.tiny)
    before = probe()
    started = time.perf_counter()
    workload.load()
    load_wall = time.perf_counter() - started
    out = {"load_s": corrected(load_wall, (before + probe()) / 2)}
    with open(Path(args.workdir, SPOOL), "wb") as spool:
        try:
            for op in workload.warmup():
                attempt(workload, op, spool)
            if args.trace:
                from tracing import Tracer, install_program_spans

                plain = timed_phase(workload, args.seconds / 2, spool)
                tracer = Tracer()
                install_program_spans(tracer)
                counters = workload.counters()
                traced = timed_phase(workload, args.seconds / 2, spool, tracer)
                after = workload.counters()
                tracer.unpatch()
                tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
                layers = layer_metrics(
                    tracer, len(traced), {k: after[k] - counters[k] for k in counters}
                )
                p50 = corrected_p50_ms(plain)
                layers.update({
                    "wall.ops_per_s": len(plain) / sum(w for w, _ in plain),
                    "wall.op_p50_ms": 1000.0 * statistics.median(w for w, _ in plain),
                    "host.probe_ms": 1000.0 * statistics.median(p for _, p in plain),
                    "trace.overhead_pct": 100.0 * (corrected_p50_ms(traced) / p50 - 1.0),
                })
                out["layers"] = layers
            else:
                out["ops"] = timed_phase(workload, args.seconds, spool)
        finally:
            workload.close()
    out["peak_rss_mb"] = peak_rss_mb()
    Path(args.workdir, "result.json").write_text(json.dumps(out))
    return 0


def check_outputs(workload, path: Path) -> list:
    """Check every spooled output: one entry per operation, None or why it failed."""
    log = []
    with open(path, "rb") as spool:
        while True:
            try:
                op, error, output = pickle.load(spool)
            except EOFError:
                return log
            if error is None:
                try:
                    error = workload.check(op, output)
                except Exception as exc:  # malformed output
                    error = f"check raised {type(exc).__name__}: {exc}"
            log.append(error)


# ----------------------------------------------------------------------
# The parent: set-up, one load-generating process, the result line
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    The CPUs of a shared host run at different speeds that drift
    independently; the probe corrects an operation only when both run
    on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args) -> int:
    deadline = time.perf_counter() + WORKER_DEADLINE
    use_checkout_source()
    pin_to_one_cpu()
    from checks import REFERENCE_PATH
    from workloads import WORKLOADS

    if not REFERENCE_PATH.is_file():
        print(f"error: missing {REFERENCE_PATH}", file=sys.stderr)
        return 2
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, args.tiny)
        import repro.graphdb.storage  # noqa: F401  (import is not set-up)
        import repro.io  # noqa: F401
        import repro.stockmarket  # noqa: F401

        builds, raw = [], defaultdict(list)
        for _ in range(SETUP_REPEATS):
            before = probe()
            started = time.perf_counter()
            timings = workload.build()
            wall = time.perf_counter() - started
            builds.append(corrected(wall, (before + probe()) / 2))
            for name, value in timings.items():
                raw[name].append(value)
        setup_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"set-up peak RSS (this process, not reported): {setup_peak:.1f} MB",
              file=sys.stderr)
        command = [
            sys.executable, str(Path(__file__).resolve()), "--role", "worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir),
        ] + (["--tiny"] if args.tiny else [])
        try:
            done = subprocess.run(command, stdout=sys.stderr, env=WORKER_ENV,
                                  timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            print("error: the load-generating process ran out of time", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"error: the load-generating process exited {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads((workdir / "result.json").read_text())
        started = time.perf_counter()
        workload.prepare_checks()
        log = check_outputs(workload, workdir / SPOOL)
        print(f"checked {len(log)} outputs in {time.perf_counter() - started:.1f} s",
              file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [e for e in log if e is not None]
    for error in errors[:5]:
        print(f"failed: {error}", file=sys.stderr)

    if args.trace:
        units = PER_LAYER_UNITS
        values = dict(result["layers"])
        values["storage.import_s"] = (
            statistics.median(raw["storage.import_s"]) if raw["storage.import_s"] else 0.0
        )
    else:
        units = END_TO_END_UNITS
        ops = result["ops"]
        fixed = [corrected(w, p) for w, p in ops]
        values = {
            "setup_s": statistics.median(builds) + result["load_s"],
            "ops_per_ref_s": len(fixed) / sum(fixed),
            "op_p50_ref_ms": 1000.0 * statistics.median(fixed),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": len(log),
        "failed": len(errors),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(values.items())
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("market-sweep", "store-sharded", "service-jobs", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own tests")
    parser.add_argument("--role", choices=("parent", "worker"), default="parent",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "worker":
        use_checkout_source()
        return worker(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
