"""Run one ``ncycle`` CLI call in a fresh interpreter with layer tracing on.

Usage: python3 perfbench/traced_cli.py <ncycle arguments...>

Behaves like ``python -m ncycle`` (same stdout and exit code) and writes one
line ``PERFBENCH-TRACE <json>`` to stderr: the start-up time (from the
parent's ``PERFBENCH_SPAWN`` wall-clock stamp to the first line here), the
``import ncycle.cli`` time, and the tracer summary of the call.
"""

import time

_STARTED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    t0 = time.perf_counter()
    from ncycle import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    rc = cli.main(sys.argv[1:])
    sys.stdout.flush()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "startup_s": _STARTED - spawn,
        "import_s": import_s,
        "child_cpu_s": kids.ru_utime + kids.ru_stime,
        "trace": tracer.summary(),
    }
    print("PERFBENCH-TRACE " + json.dumps(record), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
