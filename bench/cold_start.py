"""Run one CLI job in this fresh interpreter, as a command-line user would.

Usage: python3 cold_start.py SRC_DIR SUBCOMMAND --config PATH --out DIR ...

Prints one JSON line with the import time of ``subfinsler.cli`` and the
job's exit code.  The caller times the whole process from outside.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from subfinsler import cli  # noqa: E402

import_s = time.perf_counter() - t0
code = cli.main(sys.argv[2:])
print(json.dumps({"import_s": import_s, "code": code}))
