"""The four benchmark workloads: their operations and canonical outputs.

Every workload is a fixed universe of operations.  The seed only chooses the
order of the operations and, for ``hom-sectors``, which sample of the
universe is drawn.  Each operation returns a canonical text; its SHA-256 is
compared against the digest recorded from the seed code in
``bench/expected/<workload>.json``.

The mbf modules are reached through module attributes (``fusion.fuse``, not
``from mbf.fusion import fuse``) so that the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from typing import Callable, NamedTuple

from mbf import bifact, cft, cli, compare, fusion, graded
from mbf._rat import rat_str


class Op(NamedTuple):
    id: str
    run: Callable[[], str]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _rotated(d: int, start: int, size: int) -> tuple:
    return tuple(sorted((start + i) % d for i in range(size)))


def _set_id(S) -> str:
    return ",".join(map(str, S))


# -- fusion-d4 ----------------------------------------------------------------

FUSION_D = 4


def _fusion_pair(d: int, S1, S2) -> str:
    """One iteration of compare.fusion_rule_compare(d, verify_homotopy=True)."""
    key = lambda s: (len(s), s)
    rt, lg_ms = fusion.fuse(d, S1, S2, check=True)
    product = cft.mm_fuse(compare._set_to_label(d, S1), compare._set_to_label(d, S2))
    cft_ms = sorted((compare._label_to_set(lab) for lab in product), key=key)
    gap = rt.incl.compose(rt.proj) - bifact.Morphism.identity(rt.original)
    eq, mode = bifact.morphism_equal(rt.homotopy.delta(), gap, 2 * d)
    return _canon({
        "left": list(S1),
        "right": list(S2),
        "lg": [list(s) for s in lg_ms],
        "cft": [list(s) for s in cft_ms],
        "match": sorted(lg_ms, key=key) == cft_ms,
        "homotopy_witness": bool(eq),
        "homotopy_mode": mode,
    })


def _fusion_universe(scratch: str):
    sets = compare.consecutive_sets(FUSION_D)
    return [Op(f"{_set_id(S1)}|{_set_id(S2)}", lambda a=S1, b=S2: _fusion_pair(FUSION_D, a, b))
            for S1, S2 in itertools.product(sets, repeat=2)]


def fusion_d4(rng: random.Random, scratch: str):
    ops = _fusion_universe(scratch)
    rng.shuffle(ops)
    return ops


# -- hom-sectors ----------------------------------------------------------------


def _hom_pair(d: int, S, T) -> str:
    """What `mbf hom --d d --source S --target T` reports, minus the header."""
    hs = graded.hom_space(fusion.PSObject(d, S).underlying, fusion.PSObject(d, T).underlying)
    return _canon({
        "total_dim": hs.total_dim(),
        "charges": [rat_str(q) for q in hs.charges()],
        "sectors": hs.to_json()["sectors"],
    })


def _hom_op(d: int, S, T) -> Op:
    return Op(f"d={d} {_set_id(S)}->{_set_id(T)}", lambda: _hom_pair(d, S, T))


def _hom_universe(scratch: str):
    return [_hom_op(d, S, T) for d in (4, 5)
            for S, T in itertools.product(compare.consecutive_sets(d), repeat=2)]


def hom_sectors(rng: random.Random, scratch: str):
    """104 pairs: 2 rotations of each of the 36 rotation classes at d = 4,
    and 2 pairs of each of the 16 (|S|, |T|) size classes at d = 5.

    Stratifying the draw keeps the total work nearly the same for every seed
    while the seed still changes which defects are paired.
    """
    ops = []
    d = 4
    for ls, lt, shift in itertools.product(range(1, d), range(1, d), range(d)):
        for start in rng.sample(range(d), 2):
            ops.append(_hom_op(d, _rotated(d, start, ls), _rotated(d, start + shift, lt)))
    d = 5
    for ls, lt in itertools.product(range(1, d), range(1, d)):
        cands = list(itertools.product(range(d), range(d)))
        for s, t in rng.sample(cands, 2):
            ops.append(_hom_op(d, _rotated(d, s, ls), _rotated(d, t, lt)))
    rng.shuffle(ops)
    return ops


# -- junctions --------------------------------------------------------------------


def _junction_universe(scratch: str):
    ops = [Op(f"group_like d={d} {i},{j},{k}",
              lambda d=d, i=i, j=j, k=k: str(fusion.verify_group_like(d, i, j, k)))
           for d in (3, 5) for i, j, k in itertools.product(range(d), repeat=3)]
    ops += [Op(f"fusing d={d}", lambda d=d: _canon(fusion.solve_fusing_2x2(d).to_json()))
            for d in range(4, 13)]
    return ops


def junctions(rng: random.Random, scratch: str):
    ops = _junction_universe(scratch)
    rng.shuffle(ops)
    return ops


# -- cft-cli ------------------------------------------------------------------------


def _cli_argvs():
    """119 invocations.  The k = 5 table and the k = 6 pentagons are left
    out: they took 5.6 of the 9 s a pass took with them, and a shorter pass
    lets a run take the median of several passes."""
    for k in range(1, 5):
        yield ["cft", "sixj", "--k", str(k)]
    for k, prec in itertools.product(range(1, 6), (128, 256)):
        yield ["cft", "pentagon", "--k", str(k), "--precision", str(prec)]
    for d in range(4, 13):
        yield ["cft", "fusing", "--d", str(d)]
    for d in range(4, 8):
        for u in range(d - 1):
            yield ["cft", "spectrum", "--d", str(d), "--u", str(u)]
            yield ["cft", "spectrum", "--d", str(d), "--u", str(u), "--chiral-only"]
    # single symbols, admissible and not, spread over the label cube of each level
    for k in range(1, 7):
        cube = list(itertools.product(range(k + 1), repeat=6))
        for labels in cube[7 :: len(cube) // 10][:10]:
            yield ["sixj", "--k", str(k), "--labels", ",".join(map(str, labels))]


def _cli_op(argv, scratch: str) -> Op:
    def run():
        path = os.path.join(scratch, "report.out")
        rc = cli.main(argv + ["--out", path])
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
        return f"exit {rc}\n{text}"
    return Op(" ".join(argv), run)


def _cli_universe(scratch: str):
    return [_cli_op(argv, scratch) for argv in _cli_argvs()]


def cft_cli(rng: random.Random, scratch: str):
    ops = _cli_universe(scratch)
    rng.shuffle(ops)
    return ops


# -- registry -------------------------------------------------------------------------


class Workload(NamedTuple):
    op_layer: str  # the layer an operation's own body belongs to in the trace
    build: Callable  # (rng, scratch dir) -> the ops of one run, in order
    universe: Callable  # (scratch dir) -> every op the seed can draw


WORKLOADS = {
    "fusion-d4": Workload("compare", fusion_d4, _fusion_universe),
    "hom-sectors": Workload("bench", hom_sectors, _hom_universe),
    "junctions": Workload("bench", junctions, _junction_universe),
    "cft-cli": Workload("bench", cft_cli, _cli_universe),
}
