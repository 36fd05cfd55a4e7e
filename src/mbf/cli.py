"""Command-line front end: subcommand dispatch, JSON/CSV reports, exit codes.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic (no timestamps, sorted keys); every report embeds the package
version and the parameters that shaped it.  Set-valued arguments accept comma
residues ("0,1,2") or the consecutive shorthand start+len ("0+3" = {0,1,2}).
6j labels on the command line are doubled spins in brace order a,b,e,d,c,f,
so "1,1,0,1,1,2" is {1/2 1/2 0; 1/2 1/2 1}.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from fractions import Fraction

from mpmath import mp

from . import VerificationError, __version__
from ._rat import parse_rat, rat_str
from .bifact import (
    DEFAULT_CUTOFF,
    Morphism,
    fermat_potential,
    homotopy_psi,
    morphism_equal,
    pentagon_check as mbf_pentagon_check,
    ps_object,
    rxa_lemma_check,
    triangle_check,
    unit_coincidence_check,
    unit_isos,
    unit_isos_inverse,
    unit_object,
    validate_mbf,
)
from .cft import (
    DEFAULT_PREC,
    cft_fusing_examples,
    defect_spectrum,
    chiral_charge,
    fusing_ratio,
    fusing_ratio_closed_form,
    pentagon_check as sixj_pentagon_check,
    sixj,
)
from .compare import fusion_rule_compare, ratio_compare, spectrum_compare
from .fusion import fuse, solve_fusing_2x2, verify_fusing_up_to_homotopy
from .graded import hom_space, zero_charge_structure_check

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# argument helpers and report emission


def parse_set(text: str, d: int):
    """Residue set from "0,1,2" or consecutive shorthand "0+3"."""
    text = text.strip()
    if "+" in text:
        start_s, _, len_s = text.partition("+")
        start, length = int(start_s), int(len_s)
        if length < 1:
            raise ValueError(f"length in {text!r} must be >= 1")
        return tuple(sorted((start + i) % d for i in range(length)))
    items = {int(tok) % d for tok in text.split(",") if tok.strip()}
    if not items:
        raise ValueError("empty residue set")
    return tuple(sorted(items))


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _degree(text: str) -> int:
    """--d: the degree d of W = x^d, at least 2."""
    return _int_at_least(text, 2)


def _level(text: str) -> int:
    """--k: the level k of the 6j symbols, at least 0."""
    return _int_at_least(text, 0)


def _precision(text: str) -> int:
    """--precision: working precision in bits, at least 53 (a double); the
    reports print floats and the numeric self-checks compare to 1e-12, which
    lower precisions cannot reach."""
    return _int_at_least(text, 53)


def _charge(text: str):
    """--charge: an exact rational 'p' or 'p/q' with q nonzero."""
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational p or p/q, got {text!r}") from None


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_json(doc: dict, out: str | None = None):
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def emit_csv(header, rows, out: str | None = None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write(buf.getvalue(), out)


def _document(command: str, params: dict, payload: dict, ok: bool) -> dict:
    doc = {"version": __version__, "command": command, "pass": bool(ok)}
    doc.update(params)
    doc.update(payload)
    return doc


# ---------------------------------------------------------------------------
# verify monoidal


def _run_monoidal_suite(d: int):
    checks = []

    def add(name, ok, mode=""):
        checks.append({"name": name, "ok": bool(ok), "mode": mode})

    unit = unit_object(fermat_potential(d))
    rep = validate_mbf(unit)
    add("unit-object-valid", bool(rep) and rep.mode == "exact", rep.mode)

    uc = unit_coincidence_check(d)
    uc_modes = (uc["lam_after_laminv"]["mode"], uc["rho_after_laminv"]["mode"])
    uc_exact = all(m.startswith("exact") for m in uc_modes)
    add("unit-maps-coincide-on-unit", uc["ok"], "exact" if uc_exact else "verified-to-cutoff")

    for S in ((0,), (0, 1)):
        D = ps_object(d, S)
        tag = "P" + "".join(map(str, S))
        lam, rho = unit_isos(D)
        lam_i, rho_i = unit_isos_inverse(D)
        ident = Morphism.identity(D)
        eq_l, m_l = morphism_equal(lam.compose(lam_i), ident)
        eq_r, m_r = morphism_equal(rho.compose(rho_i), ident)
        add(f"unit-iso-roundtrip-{tag}", eq_l and eq_r, f"{m_l};{m_r}")
        for side, iso, inv in (("left", lam, lam_i), ("right", rho, rho_i)):
            psi = homotopy_psi(D, side)
            gap = inv.compose(iso) - Morphism.identity(psi.src)
            eq, mode = morphism_equal(gap, psi.delta())
            add(f"homotopy-condition-{side}-{tag}", eq, mode)

    P0 = ps_object(d, (0,))
    P1 = ps_object(d, (1 % d,))
    P01 = ps_object(d, (0, 1))
    tri = triangle_check(P0, P1)
    add("triangle-singletons", tri["ok"], tri["mode"])
    tri2 = triangle_check(P01, P1)
    add("triangle-consecutive", tri2["ok"], tri2["mode"])
    pent = mbf_pentagon_check(P0, P1, P0, P1)
    add("pentagon-singletons", pent["ok"], pent["mode"])
    pent2 = mbf_pentagon_check(P01, P0, P1, P01)
    add("pentagon-consecutive", pent2["ok"], pent2["mode"])

    rxa = rxa_lemma_check(d)
    for item in ("i", "ii", "iii"):
        add(f"transfer-lemma-{item}", rxa[item]["ok"], rxa[item]["mode"])

    zc = zero_charge_structure_check(d)
    add("coherence-maps-charge-zero", zc["ok"])
    return checks


def cmd_verify(args) -> int:
    checks = _run_monoidal_suite(args.d)
    ok = all(c["ok"] for c in checks)
    doc = _document(
        "verify monoidal",
        {"d": args.d, "cutoff": DEFAULT_CUTOFF},
        {"checks": checks},
        ok,
    )
    emit_json(doc, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# fusing / hom / fuse


def cmd_fusing(args) -> int:
    if args.verify_homotopy:
        rep = verify_fusing_up_to_homotopy(args.d)
        ok = all(e["status"] == "witness" for e in rep.homotopy_entries)
    else:
        rep = solve_fusing_2x2(args.d)
        ok = True
    doc = _document(
        "fusing",
        {"d": args.d},
        {"report": rep.to_json(), "homotopy_verified": bool(args.verify_homotopy)},
        ok,
    )
    emit_json(doc, args.out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_hom(args) -> int:
    source = parse_set(args.source, args.d)
    target = parse_set(args.target, args.d)
    charge = "all" if args.all or args.charge is None else args.charge
    hs = hom_space(ps_object(args.d, source), ps_object(args.d, target), charge=charge)
    doc = _document(
        "hom",
        {
            "d": args.d,
            "source": list(source),
            "target": list(target),
            "charge": "all" if charge == "all" else rat_str(charge),
        },
        {
            "total_dim": hs.total_dim(),
            "charges": [rat_str(q) for q in hs.charges()],
            "sectors": hs.to_json()["sectors"],
        },
        True,
    )
    emit_json(doc, args.out)
    return EXIT_OK


def cmd_fuse(args) -> int:
    left = parse_set(args.left, args.d)
    right = parse_set(args.right, args.d)
    rt, summands = fuse(args.d, left, right, check=True)
    doc = _document(
        "fuse",
        {"d": args.d, "left": list(left), "right": list(right)},
        {
            "summands": [list(s) for s in summands],
            "reduced_rank": [rt.reduced.m0.rank, rt.reduced.m1.rank],
            "construction_checks": "exact",
        },
        True,
    )
    emit_json(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cft subcommands


def _sixj_digits(precision: int) -> int:
    # bits to decimal digits, floored a little to avoid noise in the tail
    return max(10, int(precision * 0.301) - 2)


def cmd_cft(args) -> int:
    if args.cftcmd == "sixj":
        k, prec = args.k, args.precision
        digits = _sixj_digits(prec)
        rows = []
        for doubled in itertools.product(range(k + 1), repeat=6):
            v = sixj(k, *(Fraction(x, 2) for x in doubled), prec=prec)
            if not v.admissible:
                continue
            with mp.workprec(prec):
                rows.append(list(doubled) + [mp.nstr(v.value, digits)])
        emit_csv(["a", "b", "e", "d", "c", "f", "value"], rows, args.out)
        return EXIT_OK

    if args.cftcmd == "pentagon":
        res = sixj_pentagon_check(args.k, prec=args.precision)
        ok = res <= args.tol
        doc = _document(
            "cft pentagon",
            {"k": args.k, "precision": args.precision, "tol": args.tol},
            {"max_residual": res},
            ok,
        )
        emit_json(doc, args.out)
        return EXIT_OK if ok else EXIT_FAIL

    if args.cftcmd == "fusing":
        d, prec, tol = args.d, args.precision, args.tol
        F = cft_fusing_examples(d, "twoByTwo", prec=prec)
        with mp.workprec(prec):
            diag = 1 / (2 * mp.cospi(mp.mpf(1) / d))
            off = mp.sqrt(mp.sinpi(mp.mpf(1) / d) * mp.sinpi(mp.mpf(3) / d)) / mp.sinpi(
                mp.mpf(2) / d
            )
            closed = ((-diag, off), (off, diag))
            entry_dev = max(
                float(abs(F[i][j] - closed[i][j])) for i in (0, 1) for j in (0, 1)
            )
            ratio = fusing_ratio(F)
            target = fusing_ratio_closed_form(d)
            ratio_dev = float(abs(ratio - target))
        payload = {
            "F": [[float(F[i][j]) for j in (0, 1)] for i in (0, 1)],
            "entry_deviation": entry_dev,
            "ratio": float(ratio),
            "ratio_closed_form": float(target),
            "ratio_deviation": ratio_dev,
            "group_like_scalar": cft_fusing_examples(d, "groupLike"),
        }
        if d % 2 == 0:
            payload["sign_scalar"] = cft_fusing_examples(d, "sign", prec=prec)
        ok = entry_dev <= tol and ratio_dev <= tol and payload["group_like_scalar"] == 1
        doc = _document(
            "cft fusing", {"d": d, "precision": prec, "tol": tol}, payload, ok
        )
        emit_json(doc, args.out)
        return EXIT_OK if ok else EXIT_FAIL

    if args.cftcmd == "spectrum":
        pairs = defect_spectrum(args.d, args.u, n=args.n, chiral_only=args.chiral_only)
        payload = {"count": len(pairs), "pairs": [[str(x), str(y)] for x, y in pairs]}
        if args.chiral_only:
            payload["charges"] = [
                rat_str(chiral_charge(args.d, x.l) + chiral_charge(args.d, y.l))
                for x, y in pairs
            ]
        doc = _document(
            "cft spectrum",
            {"d": args.d, "u": args.u, "n": args.n, "chiral_only": args.chiral_only},
            payload,
            True,
        )
        emit_json(doc, args.out)
        return EXIT_OK
    raise AssertionError(f"unhandled cft subcommand {args.cftcmd!r}")


# ---------------------------------------------------------------------------
# compare subcommands


def _d_range(args) -> list:
    if args.d is not None:
        return [args.d]
    if args.d_min is None or args.d_max is None:
        raise ValueError("give either --d or both --d-min and --d-max")
    if args.d_max < args.d_min:
        raise ValueError("--d-max must be >= --d-min")
    return list(range(args.d_min, args.d_max + 1))


def cmd_compare(args) -> int:
    if args.cmpcmd == "ratio":
        results = [ratio_compare(d, args.tol) for d in _d_range(args)]
        ok = all(r["pass"] for r in results)
        doc = _document("compare ratio", {"tol": args.tol}, {"results": results}, ok)
    elif args.cmpcmd == "spectrum":
        us = range(args.d - 1) if args.u is None else [args.u]
        results = [spectrum_compare(args.d, u) for u in us]
        ok = all(r["pass"] for r in results)
        doc = _document("compare spectrum", {"d": args.d}, {"results": results}, ok)
    else:
        result = fusion_rule_compare(args.d, verify_homotopy=args.verify_homotopy)
        ok = result["pass"]
        doc = _document("compare fusion", {"d": args.d}, {"result": result}, ok)
    emit_json(doc, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# top-level sixj evaluation


def cmd_sixj(args) -> int:
    doubled = [int(tok) for tok in args.labels.split(",")]
    if len(doubled) != 6:
        raise ValueError("--labels needs six comma-separated doubled spins")
    v = sixj(args.k, *(Fraction(x, 2) for x in doubled), prec=args.precision)
    with mp.workprec(args.precision):
        _write(mp.nstr(v.value, _sixj_digits(args.precision)) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _add_out(p):
    p.add_argument("--out", help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mbf",
        description="Exact defect workbench for x^d with a numeric CFT mirror.",
    )
    p.add_argument("--version", action="version", version=f"mbf {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    vp = sub.add_parser("verify", help="coherence verification suites")
    vsub = vp.add_subparsers(dest="what", required=True)
    vm = vsub.add_parser("monoidal", help="pentagon/triangle/unit-iso/homotopy suite")
    vm.add_argument("--d", type=_degree, required=True)
    _add_out(vm)
    vm.set_defaults(func=cmd_verify)

    fp = sub.add_parser("fusing", help="solve the 2x2 fusing matrix exactly")
    fp.add_argument("--d", type=_degree, required=True)
    fp.add_argument("--verify-homotopy", action="store_true")
    _add_out(fp)
    fp.set_defaults(func=cmd_fusing)

    hp = sub.add_parser("hom", help="cohomology of graded morphisms between defects")
    hp.add_argument("--d", type=_degree, required=True)
    hp.add_argument("--source", required=True, help='residue set, e.g. "0,1" or "0+2"')
    hp.add_argument("--target", required=True)
    hg = hp.add_mutually_exclusive_group()
    hg.add_argument("--charge", type=_charge, help='single R-charge sector, e.g. "2/5"')
    hg.add_argument("--all", action="store_true", help="every sector (default)")
    _add_out(hp)
    hp.set_defaults(func=cmd_hom)

    up = sub.add_parser("fuse", help="reduce a tensor product and decompose it")
    up.add_argument("--d", type=_degree, required=True)
    up.add_argument("--left", required=True)
    up.add_argument("--right", required=True)
    _add_out(up)
    up.set_defaults(func=cmd_fuse)

    cp = sub.add_parser("cft", help="quantum 6j and coset data")
    csub = cp.add_subparsers(dest="cftcmd", required=True)
    c1 = csub.add_parser("sixj", help="CSV table of admissible 6j values")
    c1.add_argument("--k", type=_level, required=True)
    c1.add_argument("--precision", type=_precision, default=DEFAULT_PREC)
    _add_out(c1)
    c2 = csub.add_parser("pentagon", help="largest pentagon residual at level k")
    c2.add_argument("--k", type=_level, required=True)
    c2.add_argument("--precision", type=_precision, default=DEFAULT_PREC)
    c2.add_argument("--tol", type=float, default=1e-18)
    _add_out(c2)
    c3 = csub.add_parser("fusing", help="worked 2x2 example against closed forms")
    c3.add_argument("--d", type=_degree, required=True)
    c3.add_argument("--precision", type=_precision, default=DEFAULT_PREC)
    c3.add_argument("--tol", type=float, default=1e-10)
    _add_out(c3)
    c4 = csub.add_parser("spectrum", help="defect-changing spectrum labels")
    c4.add_argument("--d", type=_degree, required=True)
    c4.add_argument("--u", type=int, default=0)
    c4.add_argument("--n", type=int, default=0)
    c4.add_argument("--chiral-only", action="store_true")
    _add_out(c4)
    for c in (c1, c2, c3, c4):
        c.set_defaults(func=cmd_cft)

    mp_ = sub.add_parser("compare", help="cross-verification of the two sides")
    msub = mp_.add_subparsers(dest="cmpcmd", required=True)
    m1 = msub.add_parser("ratio", help="gauge-invariant fusing ratio")
    m1.add_argument("--d", type=_degree)
    m1.add_argument("--d-min", type=_degree)
    m1.add_argument("--d-max", type=_degree)
    m1.add_argument("--tol", type=float, default=1e-10)
    _add_out(m1)
    m2 = msub.add_parser("spectrum", help="defect-changing charge multisets")
    m2.add_argument("--d", type=_degree, required=True)
    m2.add_argument("--u", type=int)
    _add_out(m2)
    m3 = msub.add_parser("fusion", help="fusion rules under the label dictionary")
    m3.add_argument("--d", type=_degree, required=True)
    m3.add_argument("--verify-homotopy", action="store_true")
    _add_out(m3)
    for m in (m1, m2, m3):
        m.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sixj", help="evaluate one 6j symbol (doubled-spin labels)")
    sp.add_argument("--k", type=_level, required=True)
    sp.add_argument(
        "--labels",
        required=True,
        help="six doubled spins a,b,e,d,c,f; e.g. 1,1,0,1,1,2",
    )
    sp.add_argument("--precision", type=_precision, default=DEFAULT_PREC)
    _add_out(sp)
    sp.set_defaults(func=cmd_sixj)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL if isinstance(exc, VerificationError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
