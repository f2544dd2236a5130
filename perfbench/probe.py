"""Set-up time probe: import wcrte and build one workload's configuration.

Run in a fresh interpreter as ``probe.py <workload> <seed>``; prints
``{"setup_s": seconds}``. The clock starts after the interpreter and this
script's own standard-library imports, so it covers the package only.
"""

import json
import sys
import time

import spec

t0 = time.perf_counter()
import wcrte  # noqa: E402  (timed on purpose)

spec.build_config(wcrte, sys.argv[1], int(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - t0}))
