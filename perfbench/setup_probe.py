"""Time one fresh-interpreter set-up: import, parse, build laws, fill tables.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py <workload>
Prints one JSON object with ``setup_s`` and ``table_fill_s``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import chaosmoments  # noqa: E402,F401
from workload import WORKLOADS, warm  # noqa: E402

if __name__ == "__main__":
    _, table_fill_s = warm(WORKLOADS[sys.argv[1]].config_text())
    setup_s = time.perf_counter() - T0
    print(json.dumps({"setup_s": setup_s, "table_fill_s": table_fill_s}))
