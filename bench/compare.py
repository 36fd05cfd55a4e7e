"""Compare two sets of benchmark result documents by their medians.

    python3 bench/compare.py --base .bench_build/results/a*.json --new b*.json

The documents are those bench/run.py writes to .bench_build/results/.  When
the two sets differ in whether gmpy2 was in use, mbf._rat ran on another
scalar type, so no gain or regression is reported: the comparison is
flagged and the exit code is 1.  Otherwise each metric's medians are shown,
and each end-to-end metric is checked against its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    gmpy2 = {doc["env"]["gmpy2"] for doc in base + new}
    if len(gmpy2) > 1:
        print("FLAGGED: gmpy2 is in use in some results and not in others; "
              "mbf._rat used another scalar type, so no gain or regression is reported")
        return 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    names = [n for n in base[0]["metrics"] if all(n in d["metrics"] for d in base + new)]
    for name in names:
        b = statistics.median(d["metrics"][name]["value"] for d in base)
        n = statistics.median(d["metrics"][name]["value"] for d in new)
        change = (n - b) / b if b else float("nan")
        verdict = ""
        m = specs.get(name, {})
        if "bound" in m:
            worse = change if m["better"] == "lower" else -change
            verdict = "worse beyond bound" if worse > m["bound"] else "within bound"
        print(f"{name:36s} {b:14.6g} -> {n:14.6g} {change:+8.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
