"""Workload inputs, built from ``--seed`` and nothing else.

Every input the benchmark hands the program is made here:

* the paper's six Figure 6(a) market databases (data seed 7, so the
  brute-force reference in ``reference/`` applies), with the
  transaction order of each database shuffled by the run seed;
* the paper's Figure 1 example replicated ×1024, shuffled by the run
  seed and imported into a SQLite store.

The benchmark's own files never import ``repro`` from anywhere but the
checkout's ``src/`` directory: :func:`use_checkout_source` fails the
run when that directory is missing.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Dict, FrozenSet, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The paper's six market thresholds and the Fig. 6(a) support sweep.
THETAS = (0.90, 0.91, 0.92, 0.93, 0.94, 0.95)
SUPPORTS = ("100%", "95%", "90%", "85%")
#: The market generator's data seed; the brute-force reference was
#: generated for it.
MARKET_SEED = 7

#: Figure 1: the closed cliques at support 2 of the two-graph example.
FIG1_ANSWER = {("a", "b", "c", "d"): 2, ("b", "d", "e"): 2}


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` or stop the run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def shuffled(database, rng: random.Random, name: str):
    """A copy of ``database`` with its transactions in a random order."""
    from repro.graphdb import GraphDatabase

    order = list(range(len(database)))
    rng.shuffle(order)
    return GraphDatabase(
        [database[tid].copy(graph_id=new) for new, tid in enumerate(order)],
        name=name,
    )


def market_databases(seed: int, scale: str, thetas: Sequence[float]) -> Dict[float, object]:
    """The Fig. 6(a) databases, each with a seed-shuffled transaction order.

    The generator's in-process cache is cleared first, so every call
    pays for the whole build.
    """
    from repro.stockmarket import datasets

    datasets.clear_cache()
    rng = random.Random(seed)
    series = datasets.stock_market_series(thetas, scale=scale, seed=MARKET_SEED)
    return {
        theta: shuffled(db, rng, f"SM-{theta:.2f}")
        for theta, db in zip(thetas, series)
    }


def replicated_example(seed: int, factor: int):
    """Figure 1's database replicated ``factor`` times, order shuffled."""
    from repro.graphdb import paper_example_database

    base = paper_example_database().replicate(factor)
    return shuffled(base, random.Random(seed), f"fig1-x{factor}")


# ----------------------------------------------------------------------
# The checker's own view of a database
# ----------------------------------------------------------------------
class LabelView:
    """Per-transaction label adjacency, for recounting without ``repro``.

    Only valid when labels are unique inside each transaction (market
    graphs carry one ticker per vertex): a clique pattern is then a
    label set, and a transaction supports it exactly when every pair of
    its labels is adjacent there.
    """

    def __init__(self, transactions: List[Dict[str, FrozenSet[str]]],
                 vertex_labels: List[Dict[int, str]]) -> None:
        self.transactions = transactions
        self.vertex_labels = vertex_labels

    @classmethod
    def of(cls, database) -> "LabelView":
        """The view of a loaded ``repro`` database."""
        return cls.build((graph.labels(), graph.edges()) for graph in database)

    @classmethod
    def read_tve(cls, path: Path) -> "LabelView":
        """The view of a ``t/v/e`` file, parsed here rather than by ``repro``."""
        graphs: list = []
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                kind, *fields = line.split()
                if kind == "t":
                    graphs.append(({}, []))
                elif kind == "v":
                    graphs[-1][0][int(fields[0])] = fields[1]
                elif kind == "e":
                    graphs[-1][1].append((int(fields[0]), int(fields[1])))
        return cls.build(graphs)

    @classmethod
    def build(cls, graphs) -> "LabelView":
        """From ``(vertex -> label, edge list)`` pairs, one per transaction."""
        transactions, vertex_labels = [], []
        for labels, edges in graphs:
            if len(set(labels.values())) != len(labels):
                raise ValueError("LabelView needs unique labels per transaction")
            adjacency = {label: set() for label in labels.values()}
            for u, v in edges:
                adjacency[labels[u]].add(labels[v])
                adjacency[labels[v]].add(labels[u])
            transactions.append({k: frozenset(v) for k, v in adjacency.items()})
            vertex_labels.append(dict(labels))
        return cls(transactions, vertex_labels)

    def __len__(self) -> int:
        return len(self.transactions)

    def digest(self) -> str:
        """Order-free digest: identical for any shuffle of the transactions."""
        import hashlib  # here: the load-generating process never loads it

        rows = sorted(
            json.dumps(sorted((k, sorted(v)) for k, v in t.items()))
            for t in self.transactions
        )
        return hashlib.sha256("\n".join(rows).encode()).hexdigest()

    def supporting(self, labels: Tuple[str, ...]) -> Tuple[int, ...]:
        """Transactions in which the labels form a clique."""
        wanted = set(labels)
        out = []
        for tid, adjacency in enumerate(self.transactions):
            if all(
                label in adjacency and wanted - {label} <= adjacency[label]
                for label in labels
            ):
                out.append(tid)
        return tuple(out)

    def common_neighbours(self, labels: Tuple[str, ...], tid: int) -> FrozenSet[str]:
        """Labels adjacent to every label of the pattern in one transaction."""
        adjacency = self.transactions[tid]
        common = None
        for label in labels:
            common = adjacency[label] if common is None else common & adjacency[label]
        return frozenset(common or ())
