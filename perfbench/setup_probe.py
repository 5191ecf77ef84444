"""Set-up probe, run in a fresh interpreter: import ccdlab, parse the config
given as the only argument, resolve it. Prints the import time as JSON."""

import json
import sys
import time

start = time.perf_counter()
import ccdlab  # noqa: E402
from ccdlab import harness  # noqa: E402

import_s = time.perf_counter() - start
harness.resolve(ccdlab.parse_config(sys.argv[1]))
print(json.dumps({"import_s": import_s}))
