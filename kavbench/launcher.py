"""Start ``repro serve`` with the outside-in tracing wrappers installed.

Usage: ``python kavbench/launcher.py TOTALS.json SERVE-ARGS...``

Installs :mod:`tracing` wrappers, then calls the CLI entry point exactly as
``python -m repro serve SERVE-ARGS...`` would.  When the server exits (after
a SIGTERM drain), the raw span totals are written to ``TOTALS.json``.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, install, totals


def main(argv) -> int:
    out_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    status = cli_main(["serve", *serve_args])
    with open(out_path, "w") as handle:
        json.dump(totals(tracer), handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
