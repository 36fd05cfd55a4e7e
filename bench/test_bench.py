"""Self-tests of the benchmark: its correctness check and its tracer.

    python3 -m pytest -q bench/test_bench.py

They run a few operations of a workload in worker processes and take a few
seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _worker(tmp_path, workload, *flags, name="out.json"):
    out = tmp_path / name
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", "7",
         "--t0", repr(time.monotonic()), "--out", str(out), "--scratch", str(tmp_path), *flags],
        env=dict(os.environ, PYTHONHASHSEED="0"), check=True, timeout=170,
    )
    return json.loads(out.read_text())


def test_wrong_digest_counts_as_failure(tmp_path):
    good = _worker(tmp_path, "cft-cli", "--limit", "12")
    assert good["attempted"] == 12 and good["failures"] == []

    expected = json.loads(open(os.path.join(HERE, "expected", "cft-cli.json")).read())
    victim = good["ops"][3]
    expected["digests"][victim] = "0" * 64
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(expected))
    bad = _worker(tmp_path, "cft-cli", "--limit", "12", "--expected", str(wrong))
    assert [f["op"] for f in bad["failures"]] == [victim]
    assert len(bad["failures"]) / bad["attempted"] > 0


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    docs = []
    for n in (1, 2):
        spans = tmp / f"spans{n}.json"
        doc = _worker(tmp, "fusion-d4", "--limit", "6", "--trace", "--spans", str(spans),
                      name=f"out{n}.json")
        doc["spans"] = json.loads(spans.read_text())["spans"]
        docs.append(doc)
    return docs


def test_traced_counts_repeat(traced_pair):
    a, b = traced_pair
    assert a["failures"] == [] and b["failures"] == []
    assert a["call_counts"] == b["call_counts"]
    counts = lambda doc: {k: v for k, v in doc["layers"].items() if not k.endswith(("_s", ".s"))
                          and "hit_ratio" not in k}
    assert counts(a) == counts(b)
    # every fusion pair settles its homotopy witness through three op_equal tiers
    layers = a["layers"]
    assert layers["bifact.op_equal.calls"] == 6 * 6
    for tier in ("exact_structural", "exact_generator", "verified_to_cutoff"):
        assert layers[f"bifact.op_equal.{tier}"] == 2 * 6


def test_self_times_are_consistent(traced_pair):
    for doc in traced_pair:
        selfs = {k: v for k, v in doc["layers"].items() if k.endswith(".self_s")}
        assert all(v >= 0 for v in selfs.values())
        assert sum(selfs.values()) / doc["layer_time_scale"] <= doc["wall_s"]
        children = {}
        for sid, parent, _name, start, end, own in doc["spans"]:
            children.setdefault(parent, []).append(end - start)
        for sid, _parent, _name, start, end, own in doc["spans"]:
            assert 0 <= own <= end - start
            assert own + sum(children.get(sid, [])) <= end - start + 1e-9


def test_benchmark_json_names_every_metric(traced_pair):
    spec = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import worker

    traced = set(traced_pair[0]["layers"]) | set(worker.kernel_probes()) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cft-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
