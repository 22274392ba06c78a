"""``clan`` with spans: the traced form of ``python -m repro``.

Usage: ``python3 perfbench/cli_shim.py SPANS_FILE mine ARGS...``

Times the import of the CLI, wraps the entry points the ``mine``
command goes through (input parse, the mining call, the engine, the
pattern writer), runs ``repro.cli.main`` on the remaining arguments and
writes ``{"spans": [[name, start, end], ...], "counters": {...}}`` to
``SPANS_FILE``.
Interpreter start-up before this file runs is left to the caller's
operation span, where it shows as unattributed time.
"""

import json
import sys
import time
from pathlib import Path

from tracing import Tracer, install_engine_spans

if __name__ == "__main__":
    tracer = Tracer()
    started = time.perf_counter()
    import repro.cli  # noqa: E402

    tracer.add("cli.import", started, time.perf_counter())
    from repro.core import api
    from repro.io import gspan_format, patterns

    install_engine_spans(tracer)
    tracer.patch(gspan_format, "open_database", "io.parse")
    tracer.patch(api, "execute_request", "cli.mine")
    tracer.patch(patterns, "save_result", "io.write")
    code = repro.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps({
        "spans": [[name, start, end] for _id, name, start, end, _p, _op in tracer.spans],
        "counters": tracer.counters,
    }))
    sys.exit(code)
