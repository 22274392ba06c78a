"""Regenerate ``reference/market_closed.json`` by brute force.

The completeness check of the market workloads compares every mined
result against closed cliques found by exhaustive clique enumeration,
not by the miner.  Enumerating every clique of every transaction is
out of reach on the market graphs (SM-0.90 holds cliques of 35
vertices, ~7e10 sub-cliques), so the enumeration runs over
*intersection graphs* instead: for each set S of ``abs_sup``
transactions, the graph of labels present and pairwise adjacent in
every transaction of S.  A label set with support >= ``abs_sup`` is a
clique of the intersection graph of any ``abs_sup`` of its supporting
transactions, and every clique of an intersection graph has support
>= ``abs_sup``, so the union of their cliques is exactly the frequent
set.  :func:`repro.baselines.bruteforce.pattern_supports` enumerates
them; supports are then recounted on the transactions themselves and
the closure filter keeps label sets with no one-label superset of
equal support.  Run from the root of a checkout::

    python3 perfbench/make_reference.py

It takes about 10 s (9.6 s and 11.0 s on the 2-CPU x86_64 host of the
README's reference figures).  It is needed again only when the market
generator changes: the benchmark refuses a reference whose database
digest does not match.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import (  # noqa: E402
    BENCH_DIR, MARKET_SEED, SUPPORTS, THETAS, LabelView, use_checkout_source,
)

REFERENCE = BENCH_DIR / "reference" / "market_closed.json"
SCALES = ("tiny", "small")


def frequent_label_sets(view: LabelView, abs_sup: int) -> dict:
    """Every label set with support >= abs_sup, mapped to its support."""
    from repro.baselines.bruteforce import pattern_supports
    from repro.graphdb import Graph, GraphDatabase

    intersections = GraphDatabase()
    for members in itertools.combinations(range(len(view)), abs_sup):
        adjacency = [view.transactions[t] for t in members]
        common = sorted(set.intersection(*(set(a) for a in adjacency)))
        index = {label: i for i, label in enumerate(common)}
        edges = [
            (index[u], index[v])
            for u in common for v in adjacency[0][u]
            if u < v and v in index and all(v in a[u] for a in adjacency)
        ]
        intersections.add(Graph.from_edges(dict(enumerate(common)), edges))
    return {
        labels: len(view.supporting(labels))
        for labels in pattern_supports(intersections)
    }


def closed_at(frequent: dict) -> list:
    """Label sets with no one-label superset of equal support."""
    dominated = set()
    for labels, support in frequent.items():
        for i in range(len(labels)):
            sub = labels[:i] + labels[i + 1:]
            if sub and frequent.get(sub) == support:
                dominated.add(sub)
    return sorted(
        [list(labels), support]
        for labels, support in frequent.items() if labels not in dominated
    )


def main() -> int:
    use_checkout_source()
    from repro.core.support import parse_support
    from repro.stockmarket import stock_market_series

    payload = {
        "method": "repro.baselines.bruteforce.pattern_supports over "
                  "abs_sup-wise intersection graphs; supports recounted",
        "data_seed": MARKET_SEED,
        "databases": {},
    }
    for scale in SCALES:
        databases = stock_market_series(THETAS, scale=scale, seed=MARKET_SEED)
        for theta, db in zip(THETAS, databases):
            started = time.perf_counter()
            view = LabelView.of(db)
            closed, by_sup = {}, {}
            for spec in SUPPORTS:
                abs_sup = db.absolute_support(parse_support(spec))
                if abs_sup not in by_sup:
                    by_sup[abs_sup] = closed_at(frequent_label_sets(view, abs_sup))
                closed[spec] = by_sup[abs_sup]
            payload["databases"][f"{scale}/{theta:.2f}"] = {
                "digest": view.digest(),
                "transactions": len(view),
                "closed": closed,
            }
            print(f"{scale} SM-{theta:.2f}: "
                  + ", ".join(f"{s} {len(c)} closed" for s, c in closed.items())
                  + f" ({time.perf_counter() - started:.1f}s)", flush=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
