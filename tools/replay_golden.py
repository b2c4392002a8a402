"""Replay the calls recorded in ``perfbench/golden.json`` and check their bytes.

Each key of the file is one CLI call.  It runs in this process through
``ncycle.cli.main``, must exit 0, and the sha256 prefix of its stdout must
equal the recorded digest.  Simulate output does not depend on the worker
count, so the calls may run at any ``NCYCLE_THREADS``.  Prints each mismatch
and the count of matches, and exits 1 if any call differs.

Usage: PYTHONPATH=src python3 tools/replay_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from checks import digest, load_golden  # noqa: E402

from ncycle import cli  # noqa: E402


def mismatches(keys: list[str]) -> list[str]:
    """The keys whose call exits non-zero or whose stdout differs from its digest."""
    golden = load_golden()
    bad = []
    for key in keys:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(key.split())
        if rc != 0 or digest(buf.getvalue().encode()) != golden[key]:
            bad.append(key)
    return bad


def main() -> int:
    keys = sorted(load_golden())
    bad = mismatches(keys)
    for key in bad:
        print(f"mismatch: {key}")
    print(f"{len(keys) - len(bad)} of {len(keys)} digests matched")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
