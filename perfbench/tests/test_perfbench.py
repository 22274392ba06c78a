"""The benchmark's own tests: tiny runs of every workload, and its checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from inputs import LabelView, use_checkout_source  # noqa: E402

use_checkout_source()

import run  # noqa: E402
from checks import check_fig1, check_market, load_reference  # noqa: E402
from tracing import OP, attribute  # noqa: E402
from workloads import WORKLOADS, MarketSweep  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = last_json(bench("--workload", workload, "--seed", "3",
                             "--seconds", "0.1", "--trace", "0", "--tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_adds_up(workload):
    result = last_json(bench("--workload", workload, "--seed", "3",
                             "--seconds", "0.2", "--trace", "1", "--tiny"))
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # Layer self times plus the unattributed rest are the op wall time.
    layers = sum(metrics[m] for m in run.SELF_TIME_METRICS)
    assert layers == pytest.approx(metrics["trace.op_ms"], rel=1e-9)


def test_attribution_sums_to_the_op_and_prefers_the_inner_span():
    spans = [
        (9, OP, 0.0, 10.0, None, 1),
        (1, "outer", 1.0, 6.0, None, 1),
        (2, "inner", 2.0, 3.0, 1, 1),
        (3, "other-thread", 5.0, 12.0, None, 1),  # runs past the op: clipped
    ]
    times = attribute(spans)
    assert times == pytest.approx(
        {OP: 1.0, "outer": 3.0, "inner": 1.0, "other-thread": 5.0})
    assert sum(times.values()) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# A tampered result is counted as failed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    """A real closed result on the tiny SM-0.95 database, with its context."""
    from repro.core.api import MiningRequest, execute_request
    from repro.stockmarket import stock_market_database

    database = stock_market_database(0.95, scale="tiny", seed=7)
    view = LabelView.of(database)
    reference = load_reference()["tiny/0.95"]
    assert reference["digest"] == view.digest()
    result = execute_request(database, MiningRequest(min_sup="90%"))
    found = [(p.labels, p.support, p.transactions, dict(p.witnesses)) for p in result]
    return view, reference["closed"]["90%"], result.min_sup, found


def test_untampered_result_passes(mined):
    view, closed, abs_sup, found = mined
    assert check_market(view, closed, "closed", abs_sup, found) is None


def test_dropped_pattern_fails(mined):
    view, closed, abs_sup, found = mined
    assert "missing" in check_market(view, closed, "closed", abs_sup, found[1:])


def test_altered_support_fails(mined):
    view, closed, abs_sup, found = mined
    labels, support, tids, witnesses = found[0]
    tampered = [(labels, support + 1, tids, witnesses)] + found[1:]
    assert "recount" in check_market(view, closed, "closed", abs_sup, tampered)


def test_closed_result_is_not_maximal(mined):
    view, closed, abs_sup, found = mined
    assert "not maximal" in check_market(view, closed, "maximal", abs_sup, found)


def test_fig1_check_rejects_a_scaled_wrong_support():
    good = [(("a", "b", "c", "d"), 8, tuple(range(8)), None),
            (("b", "d", "e"), 8, tuple(range(8)), None)]
    assert check_fig1(good, 4, 8) is None
    assert check_fig1(good[:1], 4, 8) is not None
    assert check_fig1([good[0], (("b", "d", "e"), 7, tuple(range(7)), None)], 4, 8)


def test_tampered_operation_counts_as_failed(tmp_path):
    class Tampered(MarketSweep):
        def run(self, op, tracer=None):
            text = super().run(op, tracer)
            envelope = json.loads(text)
            envelope["result"]["patterns"] = envelope["result"]["patterns"][1:]
            return json.dumps(envelope)

    workload = Tampered(tmp_path, seed=5, tiny=True)
    workload.build()
    workload.load()
    with open(tmp_path / run.SPOOL, "wb") as spool:
        records = run.timed_phase(workload, 0.0, spool)
    workload.prepare_checks()
    log = run.check_outputs(workload, tmp_path / run.SPOOL)
    assert len(records) == len(log) == len(workload.round())
    assert all(error is not None for error in log)


def test_load_generating_process_imports_no_parent_only_module():
    # The reported peak memory is the load-generating process's own, so
    # the heavy modules only the parent needs must stay out of it.
    code = ("import sys; sys.argv = ['run.py']; import run, workloads; "
            "print(sorted({'repro', 'hashlib', 'http.client'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR,
                          stdout=subprocess.PIPE, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "market-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
