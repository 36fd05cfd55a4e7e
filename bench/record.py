"""Record the expected output digests of every operation a workload can draw.

    python3 bench/record.py [WORKLOAD ...]

Writes ``bench/expected/<workload>.json``.  Run it only on code whose
outputs are known to be right (the digests were recorded from the seed
code); the benchmark counts any later difference as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, digest  # noqa: E402


def record(name: str, scratch: str) -> dict:
    digests = {}
    for op in WORKLOADS[name].universe(scratch):
        digests[op.id] = digest(op.run())
    return {"workload": name, "digests": dict(sorted(digests.items()))}


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=HERE) as scratch:
            doc = record(name, scratch)
        with open(os.path.join(HERE, "expected", f"{name}.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(doc['digests'])} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
