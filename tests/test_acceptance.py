"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they print).  Each criterion states its own tolerance and time budget; a
criterion that cannot meet them fails loudly rather than silently relaxing.
"""

import collections
import itertools
import json
import random
import time
from fractions import Fraction

from mpmath import mp

from mbf import cft
from mbf._rat import Rat
from mbf.bifact import (
    DEFAULT_CUTOFF,
    fermat_potential,
    pentagon_check,
    ps_object,
    triangle_check,
    unit_object,
    validate_mbf,
)
from mbf.cli import _run_monoidal_suite, main
from mbf.compare import fusion_rule_compare, ratio_compare
from mbf.exactalg import Cyclo
from mbf.fusion import (
    DETERMINED,
    verify_fusing_up_to_homotopy,
    verify_group_like,
    verify_sign,
)
from mbf.graded import hom_space
from mbf.polycalc import Ring


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def _expected_F(d):
    eta, one = Cyclo.root(d, 1), Cyclo.one(d)
    s = (eta + one).inverse()
    e2 = eta * eta
    return [[-eta * s, e2 * s], [(e2 + eta + one) * s, e2 * s]]


def test_criterion_01_exact_fusing_matrix(capsys):
    worst = 0.0
    for d in range(4, 13):
        t0 = time.time()
        code = main(["fusing", "--d", str(d)])
        doc = json.loads(capsys.readouterr().out)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert code == 0
        want = [[str(e) for e in row] for row in _expected_F(d)]
        assert doc["report"]["F"] == want, f"d={d}"
        assert doc["report"]["determined_entries"] == [list(p) for p in DETERMINED]
    with capsys.disabled():
        _report(
            1,
            worst < 10.0,
            f"2x2 fusing matrix exact in Q(zeta_d) for d=4..12 from the four "
            f"determined entries; slowest d took {worst:.2f}s (< 10s)",
        )


def test_criterion_02_ratio_embedding(capsys):
    t0 = time.time()
    results = [ratio_compare(d, tol=1e-10) for d in range(4, 13)]
    elapsed = time.time() - t0
    ok = all(r["pass"] for r in results) and elapsed < 5.0
    dev = max(r["lg_vs_closed"] for r in results)
    with capsys.disabled():
        _report(
            2,
            ok,
            f"exact ratio matches -1/(1+2cos(2pi/d)) within 1e-10 for d=4..12 "
            f"(max deviation {dev:.2e}) in {elapsed:.2f}s (< 5s)",
        )


def test_criterion_03_cft_matrix_and_gauge(capsys):
    worst_entry = 0.0
    tables = {}
    with mp.workprec(200):
        for d in range(4, 13):
            F = cft.cft_fusing_examples(d, "twoByTwo")
            tables[d] = F
            diag = 1 / (2 * mp.cospi(mp.mpf(1) / d))
            off = mp.sqrt(
                mp.sinpi(mp.mpf(1) / d) * mp.sinpi(mp.mpf(3) / d)
            ) / mp.sinpi(mp.mpf(2) / d)
            closed = ((-diag, off), (off, diag))
            dev = max(
                float(abs(F[i][j] - closed[i][j])) for i in (0, 1) for j in (0, 1)
            )
            worst_entry = max(worst_entry, dev)
    rng = random.Random(42)
    worst_gauge = 0.0
    with mp.workprec(200):
        for trial in range(100):
            d = 4 + trial % 9
            F = tables[d]
            base = cft.fusing_ratio(F)
            scalars = [
                complex(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))
                for _ in range(6)
            ]
            moved = cft.fusing_ratio(cft.gauge_transform(F, scalars))
            worst_gauge = max(worst_gauge, float(abs(moved - base)))
    ok = worst_entry <= 1e-10 and worst_gauge <= 1e-12
    with capsys.disabled():
        _report(
            3,
            ok,
            f"6j x torus table matches closed forms within 1e-10 for d=4..12 "
            f"(worst {worst_entry:.2e}) and the ratio is gauge invariant to "
            f"1e-12 under 100 random rescalings (worst {worst_gauge:.2e})",
        )


def test_criterion_04_scalar_examples(capsys):
    t0 = time.time()
    for d in (3, 5, 7):
        one = Cyclo.one(d)
        for i, j, k in itertools.product(range(d), repeat=3):
            assert verify_group_like(d, i, j, k) == one, (d, i, j, k)
        assert cft.cft_fusing_examples(d, "groupLike") == 1
    for d in (4, 6, 8, 10):
        expected_int = (-1) ** ((d - 2) // 2)
        one = Cyclo.one(d)
        lg = verify_sign(d)
        assert lg == (one if expected_int == 1 else -one), d
        assert cft.cft_fusing_examples(d, "sign") == expected_int, d
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(
            4,
            True,
            "group-like scalar is exactly 1 for all d^3 triples at d=3,5,7 and "
            "the interface sign is exactly (-1)^((d-2)/2) at d=4,6,8,10, "
            f"identically on both sides; {elapsed:.1f}s",
        )


def test_criterion_05_unit_endomorphisms(capsys):
    for d in range(3, 11):
        P0 = ps_object(d, (0,))
        hs = hom_space(P0, P0)
        charges = sorted(
            itertools.chain.from_iterable([s.charge] * s.dim for s in hs.sectors)
        )
        assert charges == [Rat(2 * i, d) for i in range(d - 1)], d
        assert hs.total_dim() == d - 1
        assert len(cft.defect_spectrum(d, 0, chiral_only=True)) == d - 1, d
    with capsys.disabled():
        _report(
            5,
            True,
            "endomorphisms of the unit defect have dimension d-1 with exact "
            "charges {2i/d} for d=3..10, matching the chiral spectrum count",
        )


def test_criterion_06_monoidal_coherence(capsys):
    t0 = time.time()
    modes = collections.Counter()
    for d in (3, 4, 5):
        checks = _run_monoidal_suite(d)
        assert all(c["ok"] for c in checks), [c for c in checks if not c["ok"]]
        modes.update(c["mode"] for c in checks)
        objs = {"P0": ps_object(d, (0,)), "P1": ps_object(d, (1,)),
                "P01": ps_object(d, (0, 1))}
        if d >= 4:
            objs["P012"] = ps_object(d, (0, 1, 2))
        tuples = [("P0", "P1", "P0", "P1"), ("P01", "P0", "P1", "P01"),
                  ("P0", "P01", "P01", "P0"), ("P01", "P01", "P01", "P01")]
        if d >= 4:
            tuples.append(("P012", "P0", "P01", "P1"))
        for tup in tuples:
            r = pentagon_check(*(objs[n] for n in tup))
            assert r["ok"] and r["mode"] == "exact-structural", (d, tup, r)
        for x, y in itertools.product(objs, repeat=2):
            r = triangle_check(objs[x], objs[y])
            assert r["ok"] and r["mode"] == "exact-structural", (d, x, y, r)
    elapsed = time.time() - t0
    # verified-to-cutoff is a pointwise sweep, evidence and not a proof, so
    # the line reports which op_equal tier settled each suite check (the
    # charge-zero check has none: it compares charges)
    total = sum(modes.values())
    names = {"": "no equality tier (charges)",
             "verified-to-cutoff": f"verified-to-cutoff (pointwise to degree {DEFAULT_CUTOFF})"}
    tally = ", ".join(f"{names.get(mode, mode)} on {n}" for mode, n in modes.most_common())
    with capsys.disabled():
        _report(
            6,
            elapsed < 60.0,
            f"pentagon and triangle hold as exact matrix identities over the "
            f"singleton/consecutive samples at d=3,4,5; of the {total} suite checks "
            f"(unit isomorphisms, homotopy conditions, transfer lemma, coherence) "
            f"all pass: {tally}; {elapsed:.1f}s (< 60s)",
        )


def test_criterion_07_multivariable_units(capsys):
    t0 = time.time()
    ring2 = Ring(("x", "y"), 2)
    quadric = unit_object(ring2.var("x") ** 2 + ring2.var("y") ** 2)
    rep = validate_mbf(quadric)
    assert rep.ok and rep.mode == "exact"
    d0 = [[str(p) for p in row] for row in quadric.d0.matrix()]
    d1 = [[str(p) for p in row] for row in quadric.d1.matrix()]
    assert d0 == [["a1 + b1", "-a2 + b2"], ["a2 + b2", "a1 - b1"]]
    assert d1 == [["a1 - b1", "a2 - b2"], ["-a2 - b2", "a1 + b1"]]
    ring3 = Ring(("x", "y"), 3)
    rep = validate_mbf(unit_object(ring3.var("x") ** 3 + ring3.var("y") ** 3))
    assert rep.ok and rep.mode == "exact"
    ring33 = Ring(("x", "y", "u"), 3)
    w = ring33.var("x") ** 3 + ring33.var("y") ** 3 + ring33.var("u") ** 3
    I3 = unit_object(w)
    assert I3.m0.rank == 4 and I3.m1.rank == 4
    rep = validate_mbf(I3)
    assert rep.ok and rep.mode == "exact"
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(
            7,
            elapsed < 5.0,
            f"multi-variable unit objects validate exactly for x^2+y^2, "
            f"x^3+y^3, x^3+y^3+u^3 and the two-variable 4x4 display matches "
            f"block for block; {elapsed:.1f}s (< 5s)",
        )


def test_criterion_08_fusion_rule_equivalence(capsys):
    counts = {}
    modes = collections.Counter()
    for d in (4, 5, 6):
        rep = fusion_rule_compare(d, verify_homotopy=True)
        assert rep["pass"], d
        assert rep["mismatches"] == 0 and rep["witness_failures"] == 0
        counts[d] = rep["pairs"]
        modes.update(row["homotopy_mode"] for row in rep["rows"])
    assert counts == {4: 144, 5: 400, 6: 900}
    total = sum(counts.values())
    # verified-to-cutoff is a pointwise sweep, evidence and not a proof, so
    # the line reports which op_equal tier settled each witness
    tally = "; ".join(f"{mode} on {n} of {total} pairs" for mode, n in sorted(modes.items()))
    if "verified-to-cutoff" in modes:
        tally += ", pointwise to degree 2d"
    with capsys.disabled():
        _report(
            8,
            True,
            "tensor decompositions agree with coset fusion for every "
            "consecutive pair at d=4,5,6 (144/400/900 pairs) with the retract "
            f"identity exact; homotopy witness: {tally}",
        )


def test_criterion_09_homotopy_completion(capsys):
    for d in (5, 7):
        rep = verify_fusing_up_to_homotopy(d)
        assert rep.homotopy_entries, d
        assert all(e["status"] == "witness" for e in rep.homotopy_entries), d
    vetoes = 0
    for pos in ((0, 0), (1, 1)):
        rep = verify_fusing_up_to_homotopy(5, perturb=pos)
        if any(e["status"] == "no" for e in rep.homotopy_entries):
            vetoes += 1
    with capsys.disabled():
        _report(
            9,
            vetoes == 2,
            "all residual fusing entries carry homotopy witnesses at d=5,7 and "
            "each deliberate matrix perturbation is rejected with a certified no",
        )


def test_criterion_10_property_suites(capsys):
    # field axioms on a fixed sample in Q(zeta_5) and Q(zeta_7)
    for n in (5, 7):
        one = Cyclo.one(n)
        xs = [Cyclo.root(n, 1), Cyclo.root(n, 2) + one, Cyclo.root(n, 3) - one]
        for a, b, c in itertools.permutations(xs, 3):
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
        for a in xs:
            assert a * a.inverse() == one
    # differentials square to the potential
    for d, S in ((5, (0, 2)), (6, (1, 2, 3))):
        rep = validate_mbf(ps_object(d, S))
        assert rep.ok and rep.mode == "exact"
    # complementary root products rebuild the potential
    for d in (5, 8):
        ring = Ring(("a", "b"), d)
        a, b = ring.var("a"), ring.var("b")
        S = [0, 2]
        comp = [i for i in range(d) if i not in S]
        assert ring.p_S(S, "a", "b") * ring.p_S(comp, "a", "b") == a**d - b**d
    # coset fusion associativity on a fixed sample
    labs = cft.mm_labels(5)
    for x, y, z in itertools.product(labs[::7], labs[::11], labs[::13]):
        left = sorted(w for v in cft.mm_fuse(x, y) for w in cft.mm_fuse(v, z))
        right = sorted(w for v in cft.mm_fuse(y, z) for w in cft.mm_fuse(x, v))
        assert left == right
    # 6j pentagon residuals at 128 bits
    worst = max(cft.pentagon_check(k) for k in (1, 2, 3))
    ok = worst < 1e-18
    with capsys.disabled():
        _report(
            10,
            ok,
            f"field axioms, delta^2 = W, complementary root products, coset "
            f"associativity and 6j pentagon residuals (worst {worst:.2e} < "
            f"1e-18 for k <= 3) all hold",
        )
