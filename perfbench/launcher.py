"""Start ``repro.serve.run_daemon`` with the layer wrappers installed.

The traced ``served-crowd`` run launches the daemon through this file
instead of ``python -m repro serve``: it wraps the layers first, serves
the default scenario until SIGTERM (which ``run_daemon`` turns into a
clean shutdown), then writes the per-layer span totals as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--unix", required=True)
    parser.add_argument("--log", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--skip", action="append", default=[])
    args = parser.parse_args()

    log = spans.SpanLog()
    spans.install(log, skip=tuple(args.skip))
    from repro.serve import run_daemon

    with open(args.log, "w") as fh:
        run_daemon(None, unix_path=args.unix, log=fh)
    with open(args.spans, "w") as fh:
        json.dump(log.totals(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
