"""The four workloads: their inputs, one round of operations, and checks.

A workload is driven in three steps.  :meth:`Workload.build` runs in the
benchmark's parent process and writes the inputs.  :meth:`Workload.load`
runs in the load-generating process and takes the inputs in through the
program.  :meth:`Workload.round` is the fixed list of operations every
round repeats; :meth:`Workload.run` performs one of them (the timed
part) and :meth:`Workload.collect` turns its raw output into what is
spooled.  Back in the parent, after the load-generating process has
exited, :meth:`Workload.prepare_checks` builds the checker's view of the
inputs and :meth:`Workload.check` checks each spooled output.  So the
process whose peak memory is reported holds neither the set-up builds
nor any checker state.

The program is always reached through module attributes looked up at
call time (``api.execute_request``, ``sharding.mine_sharded``), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from checks import (
    absolute_support, check_fig1, check_market, from_envelope,
    from_pattern_lines, load_reference,
)
from inputs import (
    BENCH_DIR, SRC, SUPPORTS, THETAS, LabelView, market_databases,
    replicated_example,
)
from tracing import Tracer

TASKS = ("closed", "maximal", "topk")
TOP_K = 10


def _request(task: str, spec: str, **options):
    from repro.core.api import MiningRequest

    return MiningRequest(
        min_sup=spec, task=task, k=TOP_K if task == "topk" else None, **options
    )


def _save_tve(database, path: Path) -> None:
    from repro.io import gspan_format

    gspan_format.save_database(database, path)


class Workload:
    """One set of inputs and the operations the benchmark repeats on it."""

    name = ""

    def __init__(self, workdir: Path, seed: int, tiny: bool = False) -> None:
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny

    def build(self) -> Dict[str, float]:
        """Write the inputs; returns raw set-up timings by metric name."""
        raise NotImplementedError

    def load(self) -> None:
        """Take the inputs in through the program (counted as set-up)."""

    def prepare_checks(self) -> None:
        """Build the checker's own view of the inputs (in the parent)."""

    def round(self) -> list:
        """The operations of one round, in the seed's order."""
        raise NotImplementedError

    def warmup(self) -> list:
        """Operations run (and checked) once before timing starts."""
        return self.round()

    def run(self, op, tracer: Optional[Tracer] = None):
        raise NotImplementedError

    def collect(self, op, output):
        """The output to spool for :meth:`check` (not timed)."""
        return output

    def check(self, op, output) -> Optional[str]:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Program-side counters read before and after the traced phase."""
        return {}

    def close(self) -> None:
        pass

    def _shuffled(self, ops: list) -> list:
        random.Random(self.seed).shuffle(ops)
        return ops


class _MarketChecks:
    """Recount and reference checks shared by the market workloads."""

    def _market_inputs(self, scale: str, thetas, views: Dict[float, LabelView]) -> None:
        reference = load_reference()
        self.views = views
        self.reference = {}
        for theta in thetas:
            entry = reference[f"{scale}/{theta:.2f}"]
            if entry["digest"] != views[theta].digest():
                raise RuntimeError(
                    f"reference for {scale} SM-{theta:.2f} does not match the "
                    "generated database; rerun perfbench/make_reference.py"
                )
            self.reference[theta] = entry["closed"]

    def _check_result(self, theta: float, task: str, spec: str,
                      result: dict) -> Optional[str]:
        """Check an envelope's result section."""
        view = self.views[theta]
        abs_sup = absolute_support(spec, len(view))
        if result["min_sup"] != abs_sup:
            return f"min_sup {result['min_sup']} != {abs_sup}"
        return check_market(view, self.reference[theta][spec], task, abs_sup,
                            from_envelope(result), TOP_K)


# ----------------------------------------------------------------------
class MarketSweep(Workload, _MarketChecks):
    """``execute_request`` in memory, no cache: the paper's Fig. 6(a) sweep."""

    name = "market-sweep"
    scale = "small"

    @property
    def thetas(self):
        return THETAS[-1:] if self.tiny else THETAS

    def _path(self, theta: float) -> Path:
        return self.workdir / f"SM-{theta:.2f}.tve"

    def build(self) -> Dict[str, float]:
        for theta, db in market_databases(self.seed, self.scale, self.thetas).items():
            _save_tve(db, self._path(theta))
        return {}

    def load(self) -> None:
        from repro.io import gspan_format

        self.dbs = {t: gspan_format.open_database(self._path(t)) for t in self.thetas}

    def prepare_checks(self) -> None:
        self._market_inputs(self.scale, self.thetas,
                            {t: LabelView.read_tve(self._path(t)) for t in self.thetas})

    def round(self) -> list:
        return self._shuffled(
            [(t, spec, task) for t in self.thetas for spec in SUPPORTS for task in TASKS]
        )

    def warmup(self) -> list:
        # Per-database indexes are built once per database, as for any
        # library caller mining one database repeatedly.
        return [(t, SUPPORTS[0], "closed") for t in self.thetas]

    def run(self, op, tracer=None):
        from repro.core import api

        theta, spec, task = op
        request = _request(task, spec, use_cache=False)
        result = api.execute_request(self.dbs[theta], request)
        return api.MiningResultEnvelope.from_result(request, result).to_json()

    def check(self, op, output) -> Optional[str]:
        theta, spec, task = op
        return self._check_result(theta, task, spec, json.loads(output)["result"])


# ----------------------------------------------------------------------
class StoreSharded(Workload):
    """Out-of-core ``mine_sharded`` over a SQLite store of Fig. 1 ×1024."""

    name = "store-sharded"

    @property
    def factor(self) -> int:
        return 32 if self.tiny else 1024

    @property
    def shard_size(self) -> int:
        return 16 if self.tiny else 128

    #: The store's decode cache: batches of 16 transactions, 2 resident.
    DECODE_CACHE = {"batch_size": 16, "max_batches": 2}

    @property
    def store(self) -> Path:
        return self.workdir / "fig1.sqlite"

    def build(self) -> Dict[str, float]:
        from repro.graphdb import storage

        database = replicated_example(self.seed, self.factor)
        self.store.unlink(missing_ok=True)
        started = time.perf_counter()
        storage.import_graphs(self.store, iter(database), name=database.name).close()
        return {"storage.import_s": time.perf_counter() - started}

    def round(self) -> list:
        return [self.factor]

    def run(self, op, tracer=None):
        from repro.core import sharding
        from repro.graphdb import GraphDatabase, SqliteGraphSource

        request = _request("closed", 2 * self.factor, collect_witnesses=False)
        source = SqliteGraphSource(self.store, **self.DECODE_CACHE)
        try:
            result = sharding.mine_sharded(
                GraphDatabase(source=source), request, shard_size=self.shard_size
            )
        finally:
            source.close()
        return [(p.labels, p.support, p.transactions, None) for p in result]

    def check(self, op, output) -> Optional[str]:
        return check_fig1(output, self.factor, 2 * self.factor)


# ----------------------------------------------------------------------
class ServiceJobs(Workload, _MarketChecks):
    """A closed-loop client of ``MiningService``: POST a job, GET its result."""

    name = "service-jobs"
    scale = "tiny"
    theta = 0.93
    TENANTS = ("tenant-a", "tenant-b")

    @property
    def tve(self) -> Path:
        return self.workdir / f"SM-{self.theta:.2f}.tve"

    def build(self) -> Dict[str, float]:
        database = market_databases(self.seed, self.scale, (self.theta,))[self.theta]
        _save_tve(database, self.tve)
        return {}

    def load(self) -> None:
        from repro.io import gspan_format
        from repro.service import MiningService

        database = gspan_format.open_database(self.tve)
        state = self.workdir / "service-state"
        shutil.rmtree(state, ignore_errors=True)
        self.service = MiningService(database, state, max_concurrency=1)
        self.host, self.port = self.service.start_in_thread()

    def prepare_checks(self) -> None:
        self._market_inputs(self.scale, (self.theta,),
                            {self.theta: LabelView.read_tve(self.tve)})

    def round(self) -> list:
        # 95% and 100% are the same count on 11 transactions, so six of
        # the nine jobs are cheap: the median job sits inside that
        # cluster instead of between two clusters.
        specs = ("100%",) if self.tiny else ("100%", "95%", "90%")
        jobs = self._shuffled([(task, spec) for spec in specs for task in TASKS])
        return [(task, spec, self.TENANTS[i % 2]) for i, (task, spec) in enumerate(jobs)]

    def _call(self, method: str, path: str, body: Optional[str] = None,
              headers: Optional[dict] = None):
        import http.client  # here, so that the other workloads never load it

        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def run(self, op, tracer=None):
        task, spec, tenant = op
        submitted = time.perf_counter()
        status, reply = self._call("POST", "/v1/jobs", _request(task, spec).to_json(),
                                   {"X-Clan-Tenant": tenant})
        replied = time.perf_counter()
        if status != 202:
            return status, None, reply
        job = json.loads(reply)["id"]
        result_status, body = self._call("GET", f"/v1/jobs/{job}/result?wait=1")
        if tracer is not None:
            done = time.perf_counter()
            tracer.add("service.submit", submitted, replied)
            sessions = [s for s in tracer.spans
                        if s[1] == "session.run" and s[5] == tracer.op_id]
            if sessions:
                tracer.add("service.queue_wait", replied, sessions[-1][2])
                tracer.add("service.result", sessions[-1][3], done)
        return status, result_status, body

    def check(self, op, output) -> Optional[str]:
        task, spec, _tenant = op
        status, result_status, body = output
        if (status, result_status) != (202, 200):
            return f"HTTP {status}/{result_status}: {body[:200]!r}"
        payload = json.loads(body)
        if payload["job"]["state"] != "done":
            return f"job state {payload['job']['state']}"
        return self._check_result(self.theta, task, spec, payload["result"])

    def counters(self) -> Dict[str, float]:
        cache = json.loads(self._call("GET", "/v1/stats")[1])["cache"]
        return {"cache.hits": cache["hits"], "cache.misses": cache["misses"]}

    def close(self) -> None:
        self.service.stop_in_thread()


# ----------------------------------------------------------------------
class CliCold(Workload, _MarketChecks):
    """``clan mine`` from a cold interpreter to patterns on disk.

    The load generator here never imports ``repro``, so the peak memory
    measured is the CLI's.
    """

    name = "cli-cold"
    scale = "small"
    theta = 0.95

    @property
    def tve(self) -> Path:
        return self.workdir / f"SM-{self.theta:.2f}.tve"

    @property
    def output(self) -> Path:
        return self.workdir / "patterns.txt"

    @property
    def spans(self) -> Path:
        return self.workdir / "cli-spans.json"

    def build(self) -> Dict[str, float]:
        database = market_databases(self.seed, self.scale, (self.theta,))[self.theta]
        _save_tve(database, self.tve)
        return {}

    def prepare_checks(self) -> None:
        view = LabelView.read_tve(self.tve)
        self._market_inputs(self.scale, (self.theta,), {self.theta: view})
        self.labels = set().union(*view.transactions)

    def round(self) -> list:
        # Three cheap runs (11 of 11 transactions) and two dearer ones
        # (10 of 11): an odd round whose median is one cheap run.
        if self.tiny:
            return [("closed", "100%")]
        return self._shuffled([("closed", s) for s in SUPPORTS] + [("maximal", "100%")])

    def run(self, op, tracer=None):
        task, spec = op
        args = ["mine", str(self.tve), "--min-sup", spec, "--output", str(self.output)]
        if task == "maximal":
            args.append("--maximal")
        if tracer is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(self.spans), *args]
        done = subprocess.run(command, env=dict(os.environ, PYTHONPATH=str(SRC)),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        if tracer is not None and done.returncode == 0:
            recorded = json.loads(self.spans.read_text())
            for name, start, end in recorded["spans"]:
                tracer.add(name, start, end)
            for name, value in recorded["counters"].items():
                tracer.count(name, value)
        return done.returncode, done.stderr

    def collect(self, op, output):
        code, stderr = output
        if code != 0:
            return code, stderr, None
        text = self.output.read_text(encoding="utf-8")
        self.output.unlink()  # the next run must write its own
        return code, stderr, text

    def check(self, op, output) -> Optional[str]:
        code, stderr, text = output
        if code != 0:
            return f"clan mine exited {code}: {stderr[-200:]!r}"
        task, spec = op
        found = from_pattern_lines(text, self.labels)
        view = self.views[self.theta]
        return check_market(view, self.reference[self.theta][spec], task,
                            absolute_support(spec, len(view)), found)


WORKLOADS = {w.name: w for w in (MarketSweep, StoreSharded, ServiceJobs, CliCold)}
