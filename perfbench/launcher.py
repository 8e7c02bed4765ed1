"""Start the serve daemon with its layers timed from outside.

Installs the span wrappers of :func:`spans.install_service`, then runs
``repro.service.app.run_service`` exactly as ``python -m repro serve
--port 0`` does (same defaults, same ``serving on`` line), and writes the
spans as JSON when the daemon has drained.

usage: python perfbench/launcher.py SPANS_OUT
"""

from __future__ import annotations

import logging
import sys

from spans import Recorder, install_service


def main() -> int:
    rec = Recorder()
    install_service(rec)
    from repro.service.app import run_service

    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")

    def ready(port: int) -> None:
        print(f"serving on http://127.0.0.1:{port}", flush=True)

    try:
        return run_service("127.0.0.1", 0, ready=ready)
    finally:
        rec.dump(sys.argv[1])


if __name__ == "__main__":
    raise SystemExit(main())
