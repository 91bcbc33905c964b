"""Run the mscheme command line with the per-layer wrappers installed.

    python traced_cli.py STATS_FILE ARG...

Behaves as ``python -m mscheme.cli ARG...`` (same stdout, stderr and exit
code) and writes the span statistics and the seconds spent in
``mscheme.cli.main`` to STATS_FILE as JSON.
"""

import json
import sys
import time

import mscheme.cli
import tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    started = time.perf_counter()
    try:
        return mscheme.cli.main(argv)
    finally:
        main_s = time.perf_counter() - started
        tr.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tr.snapshot(), "main_s": main_s}, fh)


if __name__ == "__main__":
    sys.exit(main())
