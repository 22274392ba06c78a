"""In-memory spans around the program's public entry points.

The traced run wraps entry points of ``repro`` at run time (``src/`` is
never edited), records one span per call — name, start, end, parent,
op id — in memory, and turns them into per-layer *self times* when the
run ends.  Self time follows one rule that makes the layers add up:
every instant of an operation belongs to the most recently started span
still open at that instant (the operation's own span when no layer is
open, which is ``trace.unattributed_ms``).  Spans from other threads —
the service's job thread — take part by their timestamps, so the rule
needs no parent links; parents are still recorded for the span file.

Timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans written by a CLI subprocess
(:mod:`cli_shim`) line up with the operation span of the parent.
"""

from __future__ import annotations

import functools
import gzip
import heapq
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

OP = "op"

Span = Tuple[int, str, float, float, Optional[int], int]  # id, name, start, end, parent, op


class Tracer:
    """Collects spans; one operation is in flight at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (synthetic or subprocess)."""
        self.spans.append((self._new_id(), name, start, end, None, self.op_id))

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call; ``after(result)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = tracer._new_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`unpatch`."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            original = raw
            traced = classmethod(self.wrap(name, raw.__func__, after))
        else:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- analysis -------------------------------------------------------
    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Per op: seconds of self time per span name (``op`` = unattributed)."""
        by_op: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            by_op[span[5]].append(span)
        return {op: attribute(spans) for op, spans in by_op.items() if op > 0}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            for span_id, name, start, end, parent, op in self.spans:
                stream.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")


def install_engine_spans(tracer: Tracer) -> None:
    """Wrap the engine, its index warm-up and the envelope.

    Functions are patched where their callers look them up at call
    time: a class attribute, or the module global a caller reads.
    """
    from repro.core import api, engine
    from repro.graphdb import core_index, database, storage

    def count_prefixes(result) -> None:
        tracer.count("engine.prefixes_visited", result.statistics.prefixes_visited)

    tracer.patch(engine.MiningEngine, "mine", "engine.mine", count_prefixes)
    # Index and kernel warm-up: eager prepare(), and the lazy builds
    # mine() falls into when nothing prepared the engine.
    tracer.patch(engine.MiningEngine, "prepare", "engine.prepare")
    tracer.patch(core_index.PseudoDatabase, "__init__", "engine.prepare")
    tracer.patch(database.GraphDatabase, "label_supports", "engine.prepare")
    tracer.patch(storage, "build_label_space", "engine.prepare")
    tracer.patch(api.MiningResultEnvelope, "from_result", "api.envelope")
    tracer.patch(api.MiningResultEnvelope, "to_json", "api.envelope")


def install_program_spans(tracer: Tracer) -> None:
    """:func:`install_engine_spans` plus storage, shards, sessions, service."""
    from repro.core import cache, session, sharding
    from repro.graphdb import slab, storage
    from repro.io import runlog
    from repro.service import server

    def count_cache_bytes(path) -> None:
        tracer.count("runlog.cache_bytes", path.stat().st_size)

    install_engine_spans(tracer)
    tracer.patch(slab, "build_slab_space", "engine.prepare")
    tracer.patch(storage, "decode_graph", "storage.decode")
    tracer.patch(sharding, "mine_sharded", "sharding.mine_sharded")
    tracer.patch(session.MiningSession, "run", "session.run")
    tracer.patch(cache.MiningCache, "lookup", "cache.access")
    tracer.patch(cache.MiningCache, "store", "cache.access")
    # A checkpoint is built by the session, then written by runlog.
    tracer.patch(session.MiningSession, "checkpoint", "runlog.checkpoint")
    tracer.patch(server, "save_checkpoint", "runlog.checkpoint",
                 lambda _: tracer.count("runlog.checkpoint_writes"))
    tracer.patch(runlog, "database_fingerprint", "runlog.fingerprint")
    tracer.patch(server, "save_cache", "runlog.cache_save", count_cache_bytes)
    tracer.patch(server, "save_envelope", "runlog.envelope_io")
    tracer.patch(server, "open_envelope", "runlog.envelope_io")


def attribute(spans: List[Span]) -> Dict[str, float]:
    """Self time per span name within one operation.

    The op span bounds the operation; other spans are clipped to it.
    Each instant goes to the most recently started open span, so the
    returned values sum exactly to the op span's duration.
    """
    ops = [s for s in spans if s[1] == OP]
    if len(ops) != 1:
        raise ValueError(f"expected one op span, got {len(ops)}")
    lo, hi = ops[0][2], ops[0][3]
    events = []
    for span_id, name, start, end, _parent, _op in spans:
        start, end = max(start, lo), min(end, hi)
        if end > start or name == OP:
            events.append((start, 1, span_id, name))
            events.append((end, 0, span_id, name))
    events.sort(key=lambda e: (e[0], e[1]))
    totals: Dict[str, float] = defaultdict(float)
    # (-start, -id, id, name): the latest start wins, and on a tie the
    # span entered last (the inner one); the op span always loses.
    open_heap: List[Tuple[float, int, int, str]] = []
    closed = set()
    last = lo
    for when, is_start, span_id, name in events:
        while open_heap and open_heap[0][2] in closed:
            heapq.heappop(open_heap)
        if open_heap and when > last:
            totals[open_heap[0][3]] += when - last
        last = when
        if is_start:
            key = float("inf") if name == OP else -when
            heapq.heappush(open_heap, (key, -span_id, span_id, name))
        else:
            closed.add(span_id)
    return dict(totals)
