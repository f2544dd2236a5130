"""Run the ``wcrte`` command line with spans recorded.

``tracecli.py SPANS_FILE ARGS...`` behaves like ``python -m wcrte ARGS...``
and writes the recorded spans to SPANS_FILE as JSON when the command ends.
"""

import json
import sys
from dataclasses import asdict

import tracing
import wcrte.cli

if __name__ == "__main__":
    rec = tracing.SpanRecorder()
    tracing.install(rec)
    try:
        code = wcrte.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in rec.spans], fh)
    sys.exit(code)
