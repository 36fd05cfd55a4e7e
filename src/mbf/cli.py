"""Command-line front end: subcommand dispatch, JSON/CSV reports, exit codes.

Every handler returns (text, ok): its whole report and its verdict.  `main`
alone writes the text, to --out or stdout, and turns ok into the exit code.
Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic (no timestamps, sorted keys); every report embeds the package
version and the parameters that shaped it.  Set-valued arguments accept comma
residues ("0,1,2") or the consecutive shorthand start+len ("0+3" = {0,1,2}).
6j labels on the command line are doubled spins in brace order a,b,e,d,c,f,
so "1,1,0,1,1,2" is {1/2 1/2 0; 1/2 1/2 1}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import VerificationError, __version__
from ._rat import parse_rat, rat_str
from .bifact import (
    DEFAULT_CUTOFF,
    Morphism,
    fermat_potential,
    homotopy_psi,
    joint_mode,
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
    admissible_sixj_labels,
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


def _degree_from_three(text: str) -> int:
    """--d of `verify monoidal`, `cft spectrum` and `compare spectrum`: at
    least 3.  The monoidal suite builds P_{0,1}, which at d = 2 is the whole
    residue set and no defect, and the coset labels [l, m, s] of level d - 2
    (`cft.MMLabel`) need d >= 3."""
    return _int_at_least(text, 3)


def _compare_fusion_degree(text: str) -> int:
    """--d of `compare fusion`: 3..8, the range `fusion_rule_compare`
    supports (its runtime grows fast with d)."""
    value = _degree_from_three(text)
    if value > 8:
        raise argparse.ArgumentTypeError(f"must be <= 8 (runtime grows fast), got {value}")
    return value


def _fusing_degree(text: str) -> int:
    """--d of `fusing`, `cft fusing` and `compare ratio` (with --d-min and
    --d-max): at least 4, since the worked 2x2 fusing example couples three
    copies of P_{0,1} into P_{1,2}, which needs d >= 4."""
    return _int_at_least(text, 4)


def _level(text: str) -> int:
    """--k: the level k of the 6j symbols, at least 0."""
    return _int_at_least(text, 0)


def _precision(text: str) -> int:
    """--precision: working precision in bits, at least 53 (a double); the
    reports print floats and the numeric self-checks compare to 1e-12, which
    lower precisions cannot reach."""
    return _int_at_least(text, 53)


def _labels(text: str) -> tuple:
    """--labels: six comma-separated doubled spins, each an integer >= 0."""
    labels = tuple(_int_at_least(tok, 0) for tok in text.split(","))
    if len(labels) != 6:
        raise argparse.ArgumentTypeError(f"expected six doubled spins, got {len(labels)}")
    return labels


def _tolerance(text: str) -> float:
    """--tol: a finite number >= 0.  nan or inf would print as invalid JSON,
    and no residual lies below a negative bound."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _charge(text: str):
    """--charge: an exact rational 'p' or 'p/q' with q nonzero."""
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational p or p/q, got {text!r}") from None


def _report(command: str, params: dict, payload: dict, ok: bool) -> tuple[str, bool]:
    """The JSON report of one run and its verdict, as a handler returns them."""
    ok = bool(ok)
    doc = {"version": __version__, "command": command, "pass": ok}
    doc.update(params)
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", ok


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
    add("unit-maps-coincide-on-unit", uc["ok"], joint_mode(uc_modes))

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


def cmd_verify(args) -> tuple[str, bool]:
    checks = _run_monoidal_suite(args.d)
    return _report("verify monoidal", {"d": args.d, "cutoff": DEFAULT_CUTOFF},
                   {"checks": checks}, all(c["ok"] for c in checks))


# ---------------------------------------------------------------------------
# fusing / hom / fuse


def cmd_fusing(args) -> tuple[str, bool]:
    if args.verify_homotopy:
        rep = verify_fusing_up_to_homotopy(args.d)
        ok = all(e["status"] == "witness" for e in rep.homotopy_entries)
    else:
        rep = solve_fusing_2x2(args.d)
        ok = True
    payload = {"report": rep.to_json(), "homotopy_verified": bool(args.verify_homotopy)}
    return _report("fusing", {"d": args.d}, payload, ok)


def cmd_hom(args) -> tuple[str, bool]:
    source = parse_set(args.source, args.d)
    target = parse_set(args.target, args.d)
    charge = "all" if args.all or args.charge is None else args.charge
    hs = hom_space(ps_object(args.d, source), ps_object(args.d, target), charge=charge)
    return _report(
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


def cmd_fuse(args) -> tuple[str, bool]:
    left = parse_set(args.left, args.d)
    right = parse_set(args.right, args.d)
    rt, summands = fuse(args.d, left, right, check=True)
    return _report(
        "fuse",
        {"d": args.d, "left": list(left), "right": list(right)},
        {
            "summands": [list(s) for s in summands],
            "reduced_rank": [rt.reduced.m0.rank, rt.reduced.m1.rank],
            "construction_checks": "exact",
        },
        True,
    )


# ---------------------------------------------------------------------------
# cft subcommands


def _sixj_digits(precision: int) -> int:
    # bits to decimal digits, floored a little to avoid noise in the tail
    return max(10, int(precision * 0.301) - 2)


def cmd_cft_sixj(args) -> tuple[str, bool]:
    import mpmath

    # the labels are integers and mpmath.nstr prints no comma, so no field needs quoting
    k, prec = args.k, args.precision
    digits = _sixj_digits(prec)
    lines = ["a,b,e,d,c,f,value\n"]
    for doubled in admissible_sixj_labels(k):
        v = sixj(k, *doubled, prec=prec)
        with mpmath.workprec(prec):
            lines.append(",".join(map(str, doubled)) + f",{mpmath.nstr(v, digits)}\n")
    return "".join(lines), True


def cmd_cft_pentagon(args) -> tuple[str, bool]:
    res = sixj_pentagon_check(args.k, prec=args.precision)
    return _report("cft pentagon", {"k": args.k, "precision": args.precision, "tol": args.tol},
                   {"max_residual": res}, res <= args.tol)


def cmd_cft_fusing(args) -> tuple[str, bool]:
    import mpmath

    d, prec, tol = args.d, args.precision, args.tol
    F = cft_fusing_examples(d, "twoByTwo", prec=prec)
    with mpmath.workprec(prec):
        diag = 1 / (2 * mpmath.cospi(mpmath.mpf(1) / d))
        off = (mpmath.sqrt(mpmath.sinpi(mpmath.mpf(1) / d) * mpmath.sinpi(mpmath.mpf(3) / d))
               / mpmath.sinpi(mpmath.mpf(2) / d))
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
    return _report("cft fusing", {"d": d, "precision": prec, "tol": tol}, payload, ok)


def cmd_cft_spectrum(args) -> tuple[str, bool]:
    pairs = defect_spectrum(args.d, args.u, n=args.n, chiral_only=args.chiral_only)
    payload = {"count": len(pairs), "pairs": [[str(x), str(y)] for x, y in pairs]}
    if args.chiral_only:
        payload["charges"] = [
            rat_str(chiral_charge(args.d, x.l) + chiral_charge(args.d, y.l))
            for x, y in pairs
        ]
    params = {"d": args.d, "u": args.u, "n": args.n, "chiral_only": args.chiral_only}
    return _report("cft spectrum", params, payload, True)


# ---------------------------------------------------------------------------
# compare subcommands


def _d_range(args) -> list:
    if args.d is not None:
        if args.d_min is not None or args.d_max is not None:
            raise ValueError("--d cannot be combined with --d-min or --d-max")
        return [args.d]
    if args.d_min is None or args.d_max is None:
        raise ValueError("give either --d or both --d-min and --d-max")
    if args.d_max < args.d_min:
        raise ValueError("--d-max must be >= --d-min")
    return list(range(args.d_min, args.d_max + 1))


def cmd_compare_ratio(args) -> tuple[str, bool]:
    results = [ratio_compare(d, args.tol) for d in _d_range(args)]
    return _report("compare ratio", {"tol": args.tol}, {"results": results},
                   all(r["pass"] for r in results))


def cmd_compare_spectrum(args) -> tuple[str, bool]:
    us = range(args.d - 1) if args.u is None else [args.u]
    results = [spectrum_compare(args.d, u) for u in us]
    return _report("compare spectrum", {"d": args.d}, {"results": results},
                   all(r["pass"] for r in results))


def cmd_compare_fusion(args) -> tuple[str, bool]:
    result = fusion_rule_compare(args.d, verify_homotopy=args.verify_homotopy)
    return _report("compare fusion", {"d": args.d}, {"result": result}, result["pass"])


# ---------------------------------------------------------------------------
# top-level sixj evaluation


def cmd_sixj(args) -> tuple[str, bool]:
    import mpmath

    v = sixj(args.k, *args.labels, prec=args.precision)
    with mpmath.workprec(args.precision):
        return mpmath.nstr(v, _sixj_digits(args.precision)) + "\n", True


# ---------------------------------------------------------------------------
# parser wiring


def _finish(p, func):
    """The last flag of every subcommand, and the handler that runs it."""
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mbf` parser, built on the first call and shared by every later one
    in the process, so `main` pays for the argparse tree once.

    - Callers must not add arguments to it: every later `main` would see them.
    - Each subcommand's handler is bound (`set_defaults(func=...)`) when the
      tree is first built; replacing a `cmd_*` function afterwards does not
      reach it.
    - argparse keeps no state between `parse_args` calls: each call starts
      from a fresh namespace, each subparser parses into its own fresh
      namespace, and the help formatter is created, reading the terminal
      width, on every format call.
    """
    p = argparse.ArgumentParser(
        prog="mbf",
        description="Exact defect workbench for x^d with a numeric CFT mirror.",
    )
    p.add_argument("--version", action="version", version=f"mbf {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    vp = sub.add_parser("verify", help="coherence verification suites")
    vsub = vp.add_subparsers(dest="what", required=True)
    vm = vsub.add_parser("monoidal", help="pentagon/triangle/unit-iso/homotopy suite")
    vm.add_argument("--d", type=_degree_from_three, required=True)
    _finish(vm, cmd_verify)

    fp = sub.add_parser("fusing", help="solve the 2x2 fusing matrix exactly")
    fp.add_argument("--d", type=_fusing_degree, required=True)
    fp.add_argument("--verify-homotopy", action="store_true")
    _finish(fp, cmd_fusing)

    hp = sub.add_parser("hom", help="cohomology of graded morphisms between defects")
    hp.add_argument("--d", type=_degree, required=True)
    hp.add_argument("--source", required=True, help='residue set, e.g. "0,1" or "0+2"')
    hp.add_argument("--target", required=True)
    hg = hp.add_mutually_exclusive_group()
    hg.add_argument("--charge", type=_charge, help='single R-charge sector, e.g. "2/5"')
    hg.add_argument("--all", action="store_true", help="every sector (default)")
    _finish(hp, cmd_hom)

    up = sub.add_parser("fuse", help="reduce a tensor product and decompose it")
    up.add_argument("--d", type=_degree, required=True)
    up.add_argument("--left", required=True)
    up.add_argument("--right", required=True)
    _finish(up, cmd_fuse)

    cp = sub.add_parser("cft", help="quantum 6j and coset data")
    csub = cp.add_subparsers(dest="cftcmd", required=True)
    c1 = csub.add_parser("sixj", help="CSV table of admissible 6j values")
    c1.add_argument("--k", type=_level, required=True)
    c1.add_argument("--precision", type=_precision, default=DEFAULT_PREC)
    _finish(c1, cmd_cft_sixj)
    c2 = csub.add_parser("pentagon", help="largest pentagon residual at level k")
    c2.add_argument("--k", type=_level, required=True)
    c2.add_argument("--precision", type=_precision, default=DEFAULT_PREC)
    c2.add_argument("--tol", type=_tolerance, default=1e-18)
    _finish(c2, cmd_cft_pentagon)
    c3 = csub.add_parser("fusing", help="worked 2x2 example against closed forms")
    c3.add_argument("--d", type=_fusing_degree, required=True)
    c3.add_argument("--precision", type=_precision, default=DEFAULT_PREC)
    c3.add_argument("--tol", type=_tolerance, default=1e-10)
    _finish(c3, cmd_cft_fusing)
    c4 = csub.add_parser("spectrum", help="defect-changing spectrum labels")
    c4.add_argument("--d", type=_degree_from_three, required=True)
    c4.add_argument("--u", type=int, default=0)
    c4.add_argument("--n", type=int, default=0)
    c4.add_argument("--chiral-only", action="store_true")
    _finish(c4, cmd_cft_spectrum)

    mp_ = sub.add_parser("compare", help="cross-verification of the two sides")
    msub = mp_.add_subparsers(dest="cmpcmd", required=True)
    m1 = msub.add_parser("ratio", help="gauge-invariant fusing ratio")
    m1.add_argument("--d", type=_fusing_degree)
    m1.add_argument("--d-min", type=_fusing_degree)
    m1.add_argument("--d-max", type=_fusing_degree)
    m1.add_argument("--tol", type=_tolerance, default=1e-10)
    _finish(m1, cmd_compare_ratio)
    m2 = msub.add_parser("spectrum", help="defect-changing charge multisets")
    m2.add_argument("--d", type=_degree_from_three, required=True)
    m2.add_argument("--u", type=int)
    _finish(m2, cmd_compare_spectrum)
    m3 = msub.add_parser("fusion", help="fusion rules under the label dictionary")
    m3.add_argument("--d", type=_compare_fusion_degree, required=True)
    m3.add_argument("--verify-homotopy", action="store_true")
    _finish(m3, cmd_compare_fusion)

    sp = sub.add_parser("sixj", help="evaluate one 6j symbol (doubled-spin labels)")
    sp.add_argument("--k", type=_level, required=True)
    sp.add_argument(
        "--labels",
        type=_labels,
        required=True,
        help="six doubled spins a,b,e,d,c,f; e.g. 1,1,0,1,1,2",
    )
    sp.add_argument("--precision", type=_precision, default=DEFAULT_PREC)
    _finish(sp, cmd_sixj)
    return p


def main(argv=None) -> int:
    """Run one subcommand; the only code that writes a report or picks the
    exit code.  A `ValueError` or an --out that cannot be written exits 2
    and a `VerificationError` exits 1, both with nothing written."""
    args = build_parser().parse_args(argv)
    try:
        text, ok = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL if isinstance(exc, VerificationError) else EXIT_USAGE
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
