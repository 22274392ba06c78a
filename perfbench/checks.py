"""Output checks that do not copy the program's output.

Each check returns ``None`` when the output is right and a one-line
reason when it is not; the benchmark counts an operation whose output
fails a check as failed.  The market checks rest on three independent
sources:

* a recount on the graphs themselves (:class:`inputs.LabelView`): with
  unique ticker labels a transaction supports a pattern exactly when
  every pair of its labels is adjacent there;
* the method's own properties: a closed pattern has no one-label
  extension of equal support (Lemma 4.3), a maximal one has no frequent
  one-label extension, and top-k returns the k largest closed patterns;
* the brute-force reference in ``reference/market_closed.json``, for
  completeness.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from inputs import BENCH_DIR, FIG1_ANSWER, LabelView

REFERENCE_PATH = BENCH_DIR / "reference" / "market_closed.json"

Labels = Tuple[str, ...]
#: (labels, support, transactions or None, witnesses or None)
Found = Tuple[Labels, int, Optional[Tuple[int, ...]], Optional[Dict[int, Tuple[int, ...]]]]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["databases"]


def absolute_support(spec: str, n_transactions: int) -> int:
    """``"90%"`` of ``n`` transactions as a count (rounded up)."""
    fraction = float(spec.rstrip("%")) / 100.0
    return max(1, math.ceil(fraction * n_transactions - 1e-9))


def from_envelope(result: dict) -> List[Found]:
    """Patterns of an envelope's ``result`` section."""
    return [
        (tuple(p["labels"]), int(p["support"]), tuple(p["transactions"]),
         {int(t): tuple(w) for t, w in p["witnesses"].items()})
        for p in result["patterns"]
    ]


def from_pattern_lines(text: str, known: Iterable[str]) -> List[Found]:
    """Patterns of a ``clan mine --output`` file (``A.B.C:support``).

    Multi-character labels are joined by dots; a body without a dot is
    one label when the database has that label.
    """
    known = set(known)
    found = []
    for line in text.splitlines():
        if not line.strip():
            continue
        body, _, support = line.rpartition(":")
        labels = tuple(body.split(".")) if "." in body or body in known else tuple(body)
        found.append((labels, int(support), None, None))
    return found


def check_market(
    view: LabelView,
    reference_closed: Sequence[Sequence],
    task: str,
    abs_sup: int,
    found: List[Found],
    k: Optional[int] = None,
) -> Optional[str]:
    """Check one market result against recounts, properties and reference."""
    sets = [frozenset(labels) for labels, *_ in found]
    if len(set(sets)) != len(found):
        return "duplicate patterns"
    for (labels, support, tids, witnesses), label_set in zip(found, sets):
        if len(label_set) != len(labels):
            return f"repeated label in {labels}"
        recount = view.supporting(labels)
        if support != len(recount):
            return f"{'.'.join(labels)}: support {support}, recount {len(recount)}"
        if support < abs_sup:
            return f"{'.'.join(labels)}: support {support} below {abs_sup}"
        if tids is not None and tuple(tids) != recount:
            return f"{'.'.join(labels)}: transactions differ from recount"
        for tid, vertices in (witnesses or {}).items():
            names = Counter(view.vertex_labels[tid].get(v) for v in vertices)
            if tid not in recount or names != Counter(labels):
                return f"{'.'.join(labels)}: bad witness in transaction {tid}"
        extensions = Counter()
        for tid in recount:
            extensions.update(view.common_neighbours(labels, tid))
        if task in ("closed", "topk") and any(
            n == support for n in extensions.values()
        ):
            return f"{'.'.join(labels)}: an extension keeps the support (not closed)"
        if task == "maximal" and any(n >= abs_sup for n in extensions.values()):
            return f"{'.'.join(labels)}: a frequent extension exists (not maximal)"
    closed = {frozenset(labels): support for labels, support in reference_closed}
    got = {s: f[1] for s, f in zip(sets, found)}
    if task == "closed":
        expected = closed
    elif task == "maximal":
        expected = {
            s: n for s, n in closed.items() if not any(s < other for other in closed)
        }
    else:
        if any(closed.get(s) != n for s, n in got.items()):
            return "a top-k pattern is not a closed pattern of the reference"
        want = sorted((len(s) for s in closed), reverse=True)[:k]
        have = sorted((len(s) for s in got), reverse=True)
        return None if have == want else f"top-k sizes {have[:5]}... != {want[:5]}..."
    if got != expected:
        missing = len(set(expected) - set(got))
        extra = len(set(got) - set(expected))
        return f"{missing} reference patterns missing, {extra} unexpected"
    return None


def check_fig1(found: List[Found], factor: int, n_transactions: int) -> Optional[str]:
    """The Fig. 1 answer, supports scaled by the replication factor."""
    want = {labels: support * factor for labels, support in FIG1_ANSWER.items()}
    got = {labels: support for labels, support, _, _ in found}
    if got != want:
        return f"patterns {sorted(got.items())} != {sorted(want.items())}"
    everyone = tuple(range(n_transactions))
    if any(tids != everyone for _, _, tids, _ in found):
        return "a pattern is not supported by every replicated transaction"
    return None
