"""Set-up probe, run in a fresh interpreter by run.py to time `setup_s`.

Usage: python3 probe.py SRC_DIR FIXTURE...

Imports tropcomplex from SRC_DIR, parses every fixture and builds its
structure (what a workload keeps resident), then prints "ready".
"""

import sys

sys.path.insert(0, sys.argv[1])

import tropcomplex  # noqa: E402

for path in sys.argv[2:]:
    tropcomplex.load_fixture_file(path).structure()
print("ready", flush=True)
