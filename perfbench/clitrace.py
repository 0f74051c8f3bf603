"""Run one multsum CLI command with tracing wrappers installed.

    python perfbench/clitrace.py SPANS.json -- <multsum arguments>

Behaves like `python -m multsum.cli <arguments>` and also writes the spans it
recorded to SPANS.json.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer  # sys.path[0] is this directory


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: clitrace.py SPANS.json -- <multsum arguments>")
    import multsum.cli

    tracer = Tracer()
    tracer.install()
    try:
        return multsum.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
