"""Traced stand-in for `python -m mcpa.cli`: times the package import,
installs the span wrappers, runs mcpa.cli.main and writes the spans.

    python3 bench/cli_child.py SPANS_JSON --config CONFIG [mcpa options]

An exception escaping main() still escapes here (traceback, exit 1), after
the spans are written, so exit codes match the untraced process.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

start = time.perf_counter()
import mcpa  # noqa: E402
import mcpa.cli  # noqa: E402

import_s = time.perf_counter() - start

from spans import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    begin = time.perf_counter()
    try:
        return mcpa.cli.main(argv)
    finally:
        main_s = time.perf_counter() - begin
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "main_s": main_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
