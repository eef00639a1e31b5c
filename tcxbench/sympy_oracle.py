"""Invariant factors by sympy, run in a child process during set-up.

Reads a JSON list of integer matrices on stdin and prints, for each, the
list of its nonzero invariant factors.  It runs in its own interpreter so
that sympy's import stays out of the benchmark process's memory and time.
"""

import json
import sys

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors


def main():
    out = []
    for rows in json.load(sys.stdin):
        facs = invariant_factors(Matrix(rows), domain=ZZ)
        out.append([int(f) for f in facs if f != 0])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
