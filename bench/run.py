"""Benchmark of the mbf workbench: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
Python process (bench/worker.py), one operation at a time, and checks every
output against its recorded digest.

--trace 0 repeats passes while another one fits in S seconds, with a few
processes that only do set-up before and after them, and reports the
end-to-end metrics.
--trace 1 runs one untraced pass with the kernel probes and one traced pass,
and reports the per-layer metrics plus the tracing overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds the environment and the details; the
full document, and for --trace 1 the span records, go to .bench_build/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("fusion-d4", "hom-sectors", "junctions", "cft-cli")
END_TO_END = {"wall_ref_s": "s", "op_p50_ref_ms": "ms", "op_p90_ref_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
SETUP_ONLY_RUNS = 8
TIME_LIMIT_S = 170  # a run must end within 180 s


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    suffix = metric.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "overhead_s": "s", "us": "us", "ms": "ms",
            "hit_ratio": "1"}.get(suffix, "count")


class Runner:
    """Starts worker processes for one run and collects their documents."""

    def __init__(self, workload: str, seed: int, scratch: str):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def worker(self, *flags) -> dict:
        self.count += 1
        out = os.path.join(self.scratch, f"worker{self.count}.json")
        # a fixed hash seed keeps set iteration, and so the traced call counts, repeatable
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.monotonic()
        subprocess.run(
            [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
             "--t0", repr(t0), "--out", out, "--scratch", self.scratch, *flags],
            env=env, stdout=sys.stderr, check=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        with open(out) as fh:
            doc = json.load(fh)
        doc["process_s"] = time.monotonic() - t0
        return doc


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed_run(runner: Runner, seconds: int):
    # set-up samples are spread over the run, half before the passes and half
    # after, so that they meet the machine at several speeds
    setups = [runner.worker("--setup-only") for _ in range(SETUP_ONLY_RUNS // 2)]
    start = time.monotonic()
    passes = [runner.worker()]
    while time.monotonic() - start + passes[-1]["process_s"] <= seconds:
        passes.append(runner.worker())
    setups += passes
    setups += [runner.worker("--setup-only") for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
    ref_ms = [1e3 * t for p in passes for t in p["ref_latencies_s"]]
    raw_ms = [1e3 * t for p in passes for t in p["latencies_s"]]
    metrics = {
        "wall_ref_s": statistics.median(sum(p["ref_latencies_s"]) for p in passes),
        "op_p50_ref_ms": quantile(ref_ms, 0.5),
        "op_p90_ref_ms": quantile(ref_ms, 0.9),
        "setup_s": statistics.median(p["setup_ref_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    details = {
        "passes": len(passes), "setup_samples": len(setups), "latency_samples": len(raw_ms),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "raw_setup_s": statistics.median(p["setup_s"] for p in setups),
        "op_p50_ms": quantile(raw_ms, 0.5),
        "op_p90_ms": quantile(raw_ms, 0.9),
        "probe_ms_median": 1e3 * statistics.median(t for p in passes for t in p["probes_s"]),
    }
    return passes, metrics, details


def traced_run(runner: Runner, spans_path: str):
    plain = runner.worker("--probes")
    traced = runner.worker("--trace", "--spans", spans_path)
    metrics = dict(traced["layers"])
    metrics.update(plain["kernel_probes"])
    traced_s, plain_s = sum(traced["ref_latencies_s"]), sum(plain["ref_latencies_s"])
    metrics["trace.overhead_s"] = traced_s - plain_s
    details = {"untraced_wall_ref_s": plain_s, "traced_wall_ref_s": traced_s,
               "spans": spans_path, "call_counts": traced["call_counts"]}
    return [plain, traced], metrics, details


def git_sha():
    """HEAD of the checkout, read from .git directly; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mbf", "__init__.py")):
        print(f"error: no mbf sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for sub in ("results", "trace"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        runner = Runner(args.workload, args.seed, scratch)
        if args.trace:
            spans = os.path.join(BUILD, "trace", f"{tag}.spans.json")
            passes, metrics, details = traced_run(runner, spans)
        else:
            passes, metrics, details = timed_run(runner, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    env = dict(passes[0]["env"], cpu_count=os.cpu_count(), git_sha=git_sha(),
               platform=platform.platform())
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "details": details,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }
    with open(os.path.join(BUILD, "results", f"{tag}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps({k: doc[k] for k in ("workload", "seed", "env", "fail_ratio", "failures", "details")
                      if k != "details" or not args.trace}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
