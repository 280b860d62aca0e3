"""One pass of CLI invocations in a fresh interpreter.

    python3 worker.py SRC_DIR TRACE < invocations.json

Reads a JSON list of argv lists on stdin, imports commsem.cli from SRC_DIR,
then runs every argv through commsem.cli.main in this process, one after
the other, with stdout and stderr captured.  With TRACE = 1 the layers are
wrapped first (see spans.py).  Prints one JSON object: the outputs, the time
of each invocation, the CLOCK_MONOTONIC reading when the import finished
(the parent subtracts its spawn time), the peak resident memory of this
process, and the spans of a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    traced = sys.argv[2] == "1"
    invocations = json.load(sys.stdin)
    sys.path.insert(0, src)
    from commsem import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"commsem.cli came from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(cli)

    records = []
    for index, argv in enumerate(invocations):
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.invocation = index
                    with tracer.span("cli", argv=argv):
                        code = cli.main(argv)
            except Exception:  # a crash is recorded as a failed invocation
                code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        records.append(
            {
                "argv": argv,
                "exit": code,
                "seconds": seconds,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "error": error,
            }
        )
    result = {
        "ready_at": ready_at,
        "invocations": records,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else [],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
