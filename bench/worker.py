"""One benchmark pass in a fresh Python process; run by bench/run.py.

A fresh process means ``_RING_CACHE``, ``_PHI_CACHE``, ``MBF._tcache`` and
the ``cft`` ``lru_cache``s start empty, as they do for each ``mbf`` call, so
filling them is part of the measured time.  The pass imports mbf, builds the
workload's operations from the seed and loads the expected digests (set-up),
then runs every operation once, one at a time, checking each output.  It
writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per-layer metric -> traced callable whose call count it reports
CALLS = {
    "exactalg.cyclo_mul.calls": "exactalg:Cyclo.__mul__",
    "exactalg.cyclo_inverse.calls": "exactalg:Cyclo.inverse",
    "polycalc.poly_mul.calls": "polycalc:MultiPoly.__mul__",
    "polycalc.divmod_in_var.calls": "polycalc:MultiPoly.divmod_in_var",
    "linalg.echelon_insert.calls": "linalg:Echelon.insert",
    "linalg.rref.calls": "linalg:rref",
    "bifact.op_equal.calls": "bifact:op_equal",
    "bifact.apply_basis.calls": "bifact:Operator.apply_basis",
    "bifact.normalized.calls": "bifact:Operator.normalized",
    "bifact.tensor_obj.calls": "bifact:tensor_obj",
    "bifact.ps_object.calls": "bifact:ps_object",
    "graded.hom_space.calls": "graded:hom_space",
    "fusion.junctions_init.calls": "fusion:Junctions.__init__",
    "cft.sixj.calls": "cft:sixj",
}
# per-layer metric -> traced callable whose inclusive time it reports
SECONDS = {
    "polycalc.divmod_in_var.s": "polycalc:MultiPoly.divmod_in_var",
    "bifact.op_equal.s": "bifact:op_equal",
    "bifact.ps_object.s": "bifact:ps_object",
    "graded.hom_space.s": "graded:hom_space",
    "fusion.reduce_tensor.s": "fusion:reduce_tensor",
    "fusion.decompose_into_PS.s": "fusion:decompose_into_PS",
    "fusion.junctions_init.s": "fusion:Junctions.__init__",
    "cft.pentagon_check.s": "cft:pentagon_check",
}
TIER_METRICS = ("exact_structural", "exact_multiplier", "exact_generator", "verified_to_cutoff")
SELF_LAYERS = ("exactalg", "polycalc", "linalg", "bifact", "graded", "fusion", "cft", "compare", "cli")


def layer_metrics(tracer, speed: float) -> dict:
    """Every per-layer metric of a traced pass; times are multiplied by
    `speed`, the pass's factor to reference speed."""
    from mbf import cft

    out = {name: tracer.count(label) for name, label in CALLS.items()}
    out.update({name: speed * tracer.seconds(label) for name, label in SECONDS.items()})
    out.update({f"bifact.op_equal.{t}": tracer.counters.get(t, 0) for t in TIER_METRICS})
    out["graded.sectors_nonzero"] = tracer.counters.get("sectors_nonzero", 0)
    info = cft._brace2.cache_info()
    looked_up = info.hits + info.misses
    out["cft.brace_cache.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
    out.update({f"{layer}.self_s": speed * tracer.layer_self(layer) for layer in SELF_LAYERS})
    return out


def environment() -> dict:
    """What decides the scalar arithmetic: mbf._rat switches to gmpy2 silently."""
    import platform

    import mpmath
    from mbf._rat import Rat

    return {"python": platform.python_version(), "gmpy2": Rat.__module__.startswith("gmpy2"),
            "rat_type": f"{Rat.__module__}.{Rat.__name__}", "mpmath": mpmath.__version__}


# probe time that counts as the reference speed; close to its median on a
# 2-vCPU Intel Xeon VM, so reference-speed times read near raw times there
REFERENCE_PROBE_S = 0.004
PROBE_WINDOW_S = 0.5


def speed_probe() -> float:
    """Time of a fixed piece of pure-Python work: the machine's speed right now.

    On a shared host the speed of one CPU swings by up to 2x within seconds.
    Dividing each operation's latency by the probes taken around it removes
    most of that swing.  The work mixes bytecode, int and dict operations and
    Fraction arithmetic, as mbf does, and touches no mbf code, so a change to
    mbf cannot move it.
    """
    from fractions import Fraction

    gc_was_on = gc.isenabled()
    gc.disable()  # a collection of the last operation's garbage is not speed
    try:
        t = time.perf_counter()
        acc, table = 0, {}
        for i in range(16000):
            acc += (i * 7) % 13
            table[i & 255] = acc
        f = Fraction(1, 3)
        for i in range(250):
            f = f * Fraction(i + 2, i + 1) - Fraction(1, i + 5)
        return time.perf_counter() - t
    finally:
        if gc_was_on:
            gc.enable()


def reference_latencies(spans, probes):
    """Each operation's latency at reference speed.

    `spans` are the (start, end) times of the operations and `probes` the
    (time, duration) of the speed probes taken between them.  An operation
    is scaled by the median probe within PROBE_WINDOW_S of it, which always
    includes the two probes around it.  Back-to-back probes differ by about
    5 % at the interquartile range, while the speed itself swings over
    seconds, so a window of many probes follows the swing with less noise.
    """
    times = [t for t, _ in probes]
    out = []
    for start, end in spans:
        lo = min(bisect.bisect_left(times, start - PROBE_WINDOW_S), bisect.bisect_right(times, start) - 1)
        hi = max(bisect.bisect_right(times, end + PROBE_WINDOW_S), bisect.bisect_left(times, end) + 1)
        speed = statistics.median(d for _, d in probes[max(lo, 0):hi])
        out.append((end - start) * REFERENCE_PROBE_S / speed)
    return out


def _ref_time(fn, reps: int, blocks: int = 15) -> float:
    """Median time of one call of `fn` at reference speed.

    Each block is a speed probe followed by `reps` calls.
    """
    times = []
    for _ in range(blocks):
        probe = speed_probe()
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t) / reps * REFERENCE_PROBE_S / probe)
    return statistics.median(times)


def kernel_probes() -> dict:
    """The ROADMAP's kernel starting figures, at fixed inputs, untraced,
    at reference speed."""
    from fractions import Fraction

    from mbf.exactalg import Cyclo
    from mbf.polycalc import Ring

    phi7 = 6
    a = Cyclo(7, [Fraction(i + 1, i + 2) for i in range(phi7)])
    b = Cyclo(7, [Fraction(2 * i - 5, 3 * i + 1) for i in range(phi7)])
    ring = Ring(("a", "x1", "b"), 7)
    p = ring.p_S([0, 1, 2], "a", "x1") + ring.p_S([3], "x1", "b")
    q = ring.p_S([4, 5], "x1", "b") * ring.var("a") + ring.p_S([1, 6], "a", "b")
    x12 = ring.var("x1") ** 12
    modulus = ring.p_S([0, 2, 3], "x1", "b")
    return {
        "exactalg.cyclo_mul_q7.us": 1e6 * _ref_time(lambda: a * b, 100),
        "polycalc.poly_mul_3var.us": 1e6 * _ref_time(lambda: p * q, 20),
        "polycalc.divmod_x12.ms": 1e3 * _ref_time(lambda: x12.divmod_in_var(modulus, "x1"), 2),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--out", required=True, help="where to write the result document")
    ap.add_argument("--scratch", required=True, help="directory for temporary report files")
    ap.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    ap.add_argument("--trace", action="store_true", help="run the pass under the tracer")
    ap.add_argument("--spans", help="with --trace, write the span records here")
    ap.add_argument("--probes", action="store_true", help="run the kernel probes after the pass")
    ap.add_argument("--expected", help="digest file (default: bench/expected/<workload>.json)")
    ap.add_argument("--limit", type=int, help="run only the first N operations")
    args = ap.parse_args(argv)

    # -- set-up: imports, inputs from the seed, expected outputs
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    ops = workload.build(random.Random(args.seed), args.scratch)[: args.limit]
    expected_path = args.expected or os.path.join(HERE, "expected", f"{args.workload}.json")
    with open(expected_path) as fh:
        expected = json.load(fh)["digests"]
    setup_s = time.monotonic() - args.t0
    speed = statistics.median(speed_probe() for _ in range(3))
    doc = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
           "setup_ref_s": setup_s * REFERENCE_PROBE_S / speed, "env": environment()}
    if args.setup_only:
        _write(args.out, doc)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()

    spans, probes, failures = [], [], []

    def probe():
        t = time.perf_counter()
        probes.append((t, speed_probe()))

    probe()
    for op in ops:
        t = time.perf_counter()
        try:
            text = tracer.root_call(workload.op_layer, op.run) if tracer else op.run()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        spans.append((t, time.perf_counter()))
        probe()
        if error is None and digest(text) != expected.get(op.id):
            error = "output digest differs from the recorded one"
        if error is not None:
            failures.append({"op": op.id, "error": error})
    latencies = [end - start for start, end in spans]
    ref_latencies = reference_latencies(spans, probes)
    probe_s = [d for _, d in probes]

    if tracer is not None:
        tracer.uninstall()
        doc["layer_time_scale"] = REFERENCE_PROBE_S / statistics.median(probe_s)
        doc["layers"] = layer_metrics(tracer, doc["layer_time_scale"])
        doc["call_counts"] = tracer.call_counts()
        if args.spans:
            tracer.write_spans(args.spans)
    doc.update({
        "ops": [op.id for op in ops],
        "latencies_s": latencies,
        "ref_latencies_s": ref_latencies,
        "probes_s": probe_s,
        "wall_s": sum(latencies),
        "attempted": len(ops),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if args.probes:
        doc["kernel_probes"] = kernel_probes()
    _write(args.out, doc)
    return 0


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
