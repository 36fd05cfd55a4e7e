"""Cross-checks between the exact defect algebra and its numeric CFT mirror.

Three comparisons, each deterministic and side-effect free:

* ``ratio_compare``: the gauge-invariant combination F00 F22/(F02 F20) of the
  2x2 fusing matrix.  The exact cyclotomic value is embedded numerically and
  held against the closed form -1/(1 + 2 cos(2 pi/d)) and against the product
  of quantum 6j and torus data.
* ``spectrum_compare``: R-charge multisets of defect-changing spectra.  One
  side is the cohomology of graded morphisms out of the unit defect, the other
  the total charges of chiral primary pairs.  Convention pinned here: the pair
  carrying [u+l, u+l, 0] on the left and [l, l, 0] on the right contributes
  the charge sum (u+l)/d + l/d = (u+2l)/d.
* ``fusion_rule_compare``: tensor-product decompositions of consecutive-index
  defects against coset fusion under the label dictionary
  [l, l+2m, 0] <-> P_{m, ..., m+l}.

Verdicts are plain dicts ready for JSON emission.  A mismatch is reported in
the ``pass`` field, never raised; only malformed input raises.  Numeric
comparisons are always exact-versus-numeric at an explicit tolerance recorded
in the output, and agreement is reported as evidence (pass/fail per check),
not as proof.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from mpmath import mp

from ._rat import rat_str
from .bifact import Morphism, morphism_equal, ps_object
from .cft import (
    DEFAULT_PREC,
    cft_fusing_examples,
    chiral_charge,
    defect_spectrum,
    fusing_ratio,
    fusing_ratio_closed_form,
    mm_fuse,
    mm_normalize,
)
from .fusion import fuse, solve_fusing_2x2
from .graded import hom_space


def ratio_compare(d: int, tol: float = 1e-10) -> dict:
    """Gauge-invariant fusing ratio, three ways, compared at tolerance tol.

    The exact side comes out of the 2x2 fusing solve; the closed form is
    `fusing_ratio_closed_form`; the third value multiplies 6j symbols with
    torus signs.  All three are evaluated at `DEFAULT_PREC` bits.  The report
    never raises on disagreement.
    """
    if d < 4:
        raise ValueError("the 2x2 fusing example needs d >= 4")
    report = solve_fusing_2x2(d)
    exact = report.ratio_exact
    with mp.workprec(DEFAULT_PREC):
        lg = exact.to_complex(DEFAULT_PREC)
        closed = fusing_ratio_closed_form(d)
        cft_ratio = fusing_ratio(cft_fusing_examples(d, "twoByTwo", prec=DEFAULT_PREC))
        lg_vs_closed = float(abs(lg - closed))
        cft_vs_closed = float(abs(cft_ratio - closed))
        lg_vs_cft = float(abs(lg - cft_ratio))
    ok = lg_vs_closed <= tol and cft_vs_closed <= tol
    return {
        "check": "fusing-ratio",
        "d": d,
        "tol": tol,
        "lg_exact": str(exact),
        "lg_numeric": float(mp.re(lg)),
        "closed_form": float(closed),
        "cft_numeric": float(cft_ratio),
        "lg_vs_closed": lg_vs_closed,
        "cft_vs_closed": cft_vs_closed,
        "lg_vs_cft": lg_vs_cft,
        "pass": ok,
    }


def spectrum_compare(d: int, u: int) -> dict:
    """Charge multisets of the spectrum from the unit defect to P_{0..u}.

    Both sides are computed, neither is hardcoded: the morphism side lists
    every cohomology sector charge with multiplicity, the coset side sums the
    chiral charges of each spectrum pair.  A `u` outside 0..d−2 raises
    ValueError, as in `cft.defect_spectrum`.
    """
    if not 0 <= u <= d - 2:
        raise ValueError(f"u={u} outside 0..{d - 2}")
    hs = hom_space(ps_object(d, (0,)), ps_object(d, range(u + 1)))
    lg_charges = sorted(
        itertools.chain.from_iterable([s.charge] * s.dim for s in hs.sectors)
    )
    pairs = defect_spectrum(d, u, chiral_only=True)
    cft_charges = sorted(
        chiral_charge(d, x.l) + chiral_charge(d, y.l) for x, y in pairs
    )
    return {
        "check": "spectrum",
        "d": d,
        "u": u,
        "lg_charges": [rat_str(q) for q in lg_charges],
        "cft_charges": [rat_str(q) for q in cft_charges],
        "pass": lg_charges == cft_charges,
    }


def consecutive_sets(d: int) -> List[Tuple[int, ...]]:
    """All proper consecutive residue sets mod d, every size and start."""
    out = []
    for size in range(1, d):
        for start in range(d):
            out.append(tuple(sorted((start + i) % d for i in range(size))))
    return out


def _set_to_label(d: int, S: Tuple[int, ...]):
    # S = {m, ..., m+l} mod d corresponds to [l, l+2m, 0]; recover the start
    # from any rotation by finding the unique gap in the complement
    k = len(S)
    sset = set(S)
    starts = [i for i in S if (i - 1) % d not in sset]
    if len(starts) != 1 or any((starts[0] + j) % d not in sset for j in range(k)):
        raise ValueError(f"{set(S)} is not consecutive mod {d}")
    m = starts[0]
    return mm_normalize(d, k - 1, (k - 1 + 2 * m) % (2 * d), 0)


def _label_to_set(lab) -> Tuple[int, ...]:
    # [u, n, 0] with n = u + 2m corresponds to P over {m, ..., m+u}
    if lab.s != 0:
        raise ValueError(f"{lab} carries no consecutive-defect counterpart")
    m = ((lab.m - lab.l) // 2) % lab.d
    return tuple(sorted((m + i) % lab.d for i in range(lab.l + 1)))


def fusion_rule_compare(d: int, verify_homotopy: bool = False) -> dict:
    """Tensor decompositions against coset fusion for all consecutive pairs.

    Every reduction is checked exactly (`fuse`): the retract identity and
    the grading on each pair; the validity of the reduced object and its
    summands in full on the first pair of each rotation orbit, and on each
    later pair, k rotations on, by one exact check that its reduced object
    is Δ·ρ^k(R)·Δ⁻¹ for the first one's R and Δ = diag(ζ^(kj)) over the
    copies x^j (`fuse` gives the proof).  verify_homotopy
    additionally confirms the homotopy witness for the other composite on
    each pair.  That witness
    reaches `morphism_equal`'s pointwise sweep, capped at total degree 2d, as
    the report's `homotopy_cutoff` records; each copy stops at its
    shift-annihilator order (2 to 4 at d = 4), and the label stays
    "verified-to-cutoff".
    """
    if not 3 <= d <= 8:
        raise ValueError("supported range is 3 <= d <= 8 (runtime grows fast)")
    sets = consecutive_sets(d)
    key = lambda s: (len(s), s)
    rows = []
    mismatches = witness_failures = 0
    for S1, S2 in itertools.product(sets, repeat=2):
        rt, lg_ms = fuse(d, S1, S2, check=True)
        product = mm_fuse(_set_to_label(d, S1), _set_to_label(d, S2))
        cft_ms = sorted((_label_to_set(lab) for lab in product), key=key)
        match = sorted(lg_ms, key=key) == cft_ms
        if not match:
            mismatches += 1
        row = {
            "left": list(S1),
            "right": list(S2),
            "lg": [list(s) for s in lg_ms],
            "cft": [list(s) for s in cft_ms],
            "match": match,
        }
        if verify_homotopy:
            gap = rt.incl.compose(rt.proj) - Morphism.identity(rt.original)
            eq, mode = morphism_equal(rt.homotopy.delta(), gap, 2 * d)
            row["homotopy_witness"] = bool(eq)
            row["homotopy_mode"] = mode
            if not eq:
                witness_failures += 1
        rows.append(row)
    return {
        "check": "fusion-rules",
        "d": d,
        "pairs": len(rows),
        "mismatches": mismatches,
        "homotopy_checked": verify_homotopy,
        "homotopy_cutoff": 2 * d if verify_homotopy else None,
        "witness_failures": witness_failures if verify_homotopy else None,
        "rows": rows,
        "pass": mismatches == 0 and witness_failures == 0,
    }
