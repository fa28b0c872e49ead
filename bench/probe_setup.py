"""One cold set-up, timed in a fresh interpreter.

Usage: python3 probe_setup.py SRC_DIR [EDGE_LIST]

Imports ``halting_cascade`` from SRC_DIR and, given EDGE_LIST, parses it
with ``load_edge_list``. Prints the CPU seconds spent after interpreter
start-up, raw (``cpu_s``) and in reference seconds (``setup_s``), using the
reference kernel run right after the set-up.
"""
import json
import sys
from time import process_time

start = process_time()
sys.path.insert(0, sys.argv[1])
import halting_cascade  # noqa: E402

if len(sys.argv) > 2:
    halting_cascade.load_edge_list(sys.argv[2])
cpu_s = process_time() - start

import refspeed  # noqa: E402

refspeed.kernel_seconds()  # the first pass pays for numpy's first calls
kernel_s = refspeed.kernel_block(0.03)
print(json.dumps({"setup_s": refspeed.at_reference(cpu_s, kernel_s), "cpu_s": cpu_s}))
