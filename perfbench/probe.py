"""Host-speed reference probe and the correction it feeds.

On a shared host the same pure-Python loop drifts by about ±20% in
epochs of ~20 s, and CPU time drifts with wall time, so the drift is
the host's speed rather than visible steal.  The benchmark therefore
runs this probe immediately before every operation (and around every
set-up) and reports each operation's *host-corrected* time::

    corrected = wall × P_REF / p

where ``p`` is the adjacent probe's time and :data:`P_REF` is fixed
here.  The probe touches no ``repro`` code and allocates nothing the
program's heap or caches can affect: integer arithmetic on small ints
in a fixed loop.  It runs the loop :data:`PROBE_REPEATS` times and keeps
the fastest, which rejects a preemption that lands inside one repeat.
"""

from __future__ import annotations

import time

#: Loop length of one probe repeat; ~0.5 ms on the reference host.
PROBE_ITERATIONS = 6_000
PROBE_REPEATS = 3
#: The reference probe time (seconds): corrected times read as if every
#: operation had run at the speed this probe time stands for.
P_REF = 0.0005


def _spin(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


def probe() -> float:
    """Seconds one probe repeat takes now (best of the repeats)."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        _spin(PROBE_ITERATIONS)
        best = min(best, time.perf_counter() - started)
    return best


def corrected(wall: float, probe_seconds: float) -> float:
    """``wall`` rescaled to the reference host speed."""
    return wall * P_REF / probe_seconds
