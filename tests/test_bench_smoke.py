"""One operation of each kind the benchmark runs, against its recorded digest.

`bench/workloads.py` reaches `mbf` through the entry points its operations
call (`fusion.fuse`, `bifact.morphism_equal(..., 2 * d)`,
`fusion.PSObject(d, S).underlying`, `fusion.verify_group_like`,
`fusion.solve_fusing_2x2`, `cli.main`, ...).  Deleting or changing one of
them breaks the benchmark without touching its traced labels, which is all
`test_bench_labels.py` sees.  These tests import the workloads file (nothing
under `bench/` is written), run a single operation of each kind from the
workloads' universes and compare the SHA-256 of its output with
`bench/expected/<workload>.json`.
"""

import json
import os
import types

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_workloads():
    # compiled from source, so no bytecode cache is written under bench/
    path = os.path.join(BENCH, "workloads.py")
    module = types.ModuleType("bench_workloads")
    module.__file__ = path
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), vars(module))
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload,op_id", [
    ("fusion-d4", "0,1|3"),
    ("hom-sectors", "d=5 0,1->0,1,2"),
    ("junctions", "group_like d=5 1,2,3"),
    ("junctions", "fusing d=4"),
    ("cft-cli", "cft fusing --d 4"),
])
def test_operation_matches_recorded_digest(workload, op_id, tmp_path):
    with open(os.path.join(BENCH, "expected", f"{workload}.json")) as fh:
        expected = json.load(fh)["digests"]
    ops = {op.id: op for op in workloads.WORKLOADS[workload].universe(str(tmp_path))}
    assert workloads.digest(ops[op_id].run()) == expected[op_id]
