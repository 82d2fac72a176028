#!/usr/bin/env python3
"""Fail when BENCH_exact_solvers.json shows an exact-solver regression.

    python3 bench/gate_exact_solvers.py [BENCH_exact_solvers.json]

Written by ablation_exact_solvers.  Exits 1 when a cell of size <= 18
(every Table I size) has no modular solution within the budget
(modular_seconds < 0), or when Bareiss finished and the two solutions are
not bit-identical (identical: false); prints each failing cell.
"""
import json
import sys


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_exact_solvers.json"
    with open(path) as f:
        cells = json.load(f)["cells"]
    failures = []
    for c in cells:
        if c["size"] <= 18 and c["modular_seconds"] < 0:
            failures.append("%s: modular solve timed out" % c["model"])
        if c["bareiss_seconds"] >= 0 and not c["identical"]:
            failures.append("%s: modular and Bareiss solutions differ"
                            % c["model"])
    for line in failures:
        print("FAIL " + line)
    print("%d cells checked, %d failures" % (len(cells), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
