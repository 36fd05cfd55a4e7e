"""Defect fusion for the potentials t^d.

Everything in this module lives over the family of rank-(1,1) defects
P_S = (p_{S^c}, p_S) with S a proper subset of residues mod d.  It provides

* the explicit junction morphisms between such defects, built from slot
  words: the group-like family `lam` and the sign pair `f_pair` (functions of
  d alone, built unchecked; `verify_group_like` and `verify_sign` read the
  scalar between their two bracketings from one probe image, and
  morphism_equal decides), and in `Junctions` the six one-to-many junctions
  ``A[1]`` .. ``A[6]``, each checked on construction to be delta-closed and
  of charge zero against the charges of its endpoints (`bifact.ps_object`
  grades every P_S);
* extraction of the exact 2x2 fusing matrix from the one-to-many junction
  relations (`solve_fusing_2x2`), plus homotopy verification of the entries
  that do not hold on the nose (`verify_fusing_up_to_homotopy`);
* finite-rank contraction of a tensor product with a rank-(1,1) right
  factor (`reduce_tensor`), with inclusion/projection/homotopy data and the
  grading of the reduced object;
* decomposition of a finite-rank two-slot factorisation into P_S summands
  (`decompose_into_PS`), and `fuse`, which reduces and decomposes P_S ⊗ P_T.

Two process memos: `_lam`, a functools cache, holds one group-like junction
per (d, i mod d, j mod d); `_ORBITS`, a dict, holds the first pair of each
rotation orbit that `fuse` checked in full, with its reduced object and
summands.  A later pair of the orbit, k rotations on, is checked against
them: its reduced object must be the first one's rotated by ρ^k and
conjugated by the diagonal Δ = diag(ζ^(kj)) that `fuse`'s docstring
derives.  It is a dict because its value records which member came first,
and it drops an orbit once every distinct member of it has been fused, so
it holds only the orbits still open.

Entry layout of the 8x2 junction relations
------------------------------------------
Both sides of the one-to-many relations are even morphisms from a
rank-(1,1) source K into the triple product T = P⊗(P⊗P).  Displayed as an
8x2 matrix, column 1 is the even source generator and column 2 the odd
one.  Rows 1-4 are the even copies of T and rows 5-8 the odd ones,
ordered by which tensor factors carry the odd index (even: none, XY, XZ,
YZ; odd: X, Y, Z, XYZ):

    display row : 1       2       3       4       5       6       7       8
    T copy      : X0Y0Z0  X1Y1Z0  X1Y0Z1  X0Y1Z1  X1Y0Z0  X0Y1Z0  X0Y0Z1  X1Y1Z1

Since the sides are even, only (rows 1-4, col 1) and (rows 5-8, col 2) can
be nonzero.  The four positions (1,1), (5,2), (6,2), (7,2) determine the
fusing matrix exactly; the remaining four hold up to homotopy only (at
d = 4 every entry happens to hold on the nose).
"""

from __future__ import annotations

import functools

from . import VerificationError
from .exactalg import Cyclo
from .polycalc import MultiPoly, NotDivisibleError
from .bifact import (
    MBF,
    Morphism,
    Operator,
    SlotShape,
    Word,
    associator,
    associator_inv,
    joint_mode,
    mbf_from_polys,
    morphism_equal,
    ps_object,
    slot_map,
    tensor_copy,
    tensor_mor,
    tensor_obj,
    validate_mbf,
    w_coeff,
    w_collapse,
    w_insert,
    w_then_mul,
    w_quo,
    w_rem,
)
from .graded import NotHomogeneous, graded_validate, is_null_homotopic, morphism_charge
from . import linalg


class PSObject:
    """`underlying` is `ps_object(d, S)`.  Only the benchmark's workloads
    still build P_S through this class; everything else calls `ps_object`."""

    __slots__ = ("underlying",)

    def __init__(self, d: int, S):
        self.underlying = ps_object(d, S)


def _closed_and_chargeless(phi: Morphism, name: str):
    ok, mode = phi.is_closed()
    if not ok or joint_mode([mode]) != "exact":
        raise VerificationError(f"{name}: not exactly delta-closed ({mode})")
    q = morphism_charge(phi)
    if q is NotHomogeneous or q != 0:
        raise VerificationError(f"{name}: charge {q!r}, expected 0")


def m_word(d: int, j: int) -> Word:
    """Merge the middle slot rightward with twist eta^j per power."""
    return w_collapse(SlotShape(3, 1, d), 1, Cyclo.root(d, j), "left")


def m_prime_word(d: int, j: int) -> Word:
    """Merge the middle slot leftward with twist eta^{-j} per power."""
    return w_collapse(SlotShape(3, 1, d), 0, Cyclo.root(d, -j), "right")


def lam(d: int, i: int, j: int) -> Morphism:
    """The group-like junction P_i ⊗ P_j → P_{i+j}, acting by m_word(d, j)
    on the Y0 columns.  Unchecked.

    It depends on i and j mod d only, and a morphism is immutable, so there
    is one per (d, i mod d, j mod d) and process (`_lam`)."""
    return _lam(d, i % d, j % d)


@functools.cache
def _lam(d: int, i: int, j: int) -> Morphism:
    T = tensor_obj(ps_object(d, [i]), ps_object(d, [j]))
    K = ps_object(d, [(i + j) % d])
    m = m_word(d, j)
    return Morphism(T, K, 0, Operator(T.m0, K.m0, {(0, 0): (m,)}),
                    Operator(T.m1, K.m1, {(0, 0): (m,)}))


def f_pair(d: int):
    """The sign pair for even d: (P_A, P_B, F_l, F_r), with F_l : P_A ⊗ P_B → P_B
    and F_r : P_B ⊗ P_A → P_B, where P_A is the (d-1)-element defect and P_B
    the half-set one.  Unchecked."""
    h = d // 2
    P_A = ps_object(d, [(h + 1 + t) % d for t in range(d - 1)])
    P_B = ps_object(d, range(h))
    TL = tensor_obj(P_A, P_B)
    TR = tensor_obj(P_B, P_A)
    m, mp = m_word(d, h), m_prime_word(d, h)
    sign = Cyclo.from_rat(d, (-1) ** (h - 1))
    F_l = Morphism(TL, P_B, 0, Operator(TL.m0, P_B.m0, {(0, 1): (mp,)}),
                   Operator(TL.m1, P_B.m1, {(0, 0): (mp.scaled(sign),)}))
    F_r = Morphism(TR, P_B, 0, Operator(TR.m0, P_B.m0, {(0, 1): (m,)}),
                   Operator(TR.m1, P_B.m1, {(0, 1): (m,)}))
    return P_A, P_B, F_l, F_r


class Junctions:
    """The one-to-many defect junctions for W = t^d.

    For d >= 4 the dict ``A`` holds the six junctions used by the 2x2 fusing
    computation, keyed 1..6; for d = 3 it is empty.  Every morphism is
    verified delta-closed (exactly) and of charge 0 on construction.
    """

    # (I, J, K) index sets of A[n]: a junction P_K -> P_I ⊗ P_J
    A_SETS = {
        1: ((0, 1), (0, 1), (1,)),
        2: ((0, 1), (0, 1), (0, 1, 2)),
        3: ((0, 1), (1,), (1, 2)),
        4: ((0, 1), (0, 1, 2), (1, 2)),
        5: ((1,), (0, 1), (1, 2)),
        6: ((0, 1, 2), (0, 1), (1, 2)),
    }

    def __init__(self, d: int):
        if d < 3:
            raise ValueError("need d >= 3")
        self.d = d
        self.A: dict = {}
        if d >= 4:
            self._build_a_collection()
        for n, mor in self.A.items():
            _closed_and_chargeless(mor, f"A{n}")

    def _build_a_collection(self):
        d = self.d
        J = w_insert(SlotShape(2, 1, d), 1)
        ring = J.dst.ring()
        one = Cyclo.one(d)
        e = lambda k: Cyclo.root(d, k)

        def lin(ca, cx, cb):
            return (
                ring.monomial({"a": 1}, ca)
                + ring.monomial({"x1": 1}, cx)
                + ring.monomial({"b": 1}, cb)
            )

        # rows (1,1), (3,2), (4,2) of each 4x2 display, as multiplier polys
        rows = {
            1: (lin(one, -(e(1) + one), e(1)),
                ring.const(one),
                ring.const(-e(1))),
            2: (ring.const(one),
                lin(one, e(1) + one, -(e(2) + e(1) + one)),
                lin(e(2) + e(1) + one, -(e(2) + e(1)), -e(2))),
            3: (ring.const(one),
                ring.const(one),
                lin(e(1) + one, -e(1), -e(2))),
            4: (lin(e(-1) + e(-2), -(one + e(-1) + e(-2)), one),
                lin(e(-1) + e(-2), (one + e(-1)) * (e(1) + one).inverse(),
                    -(e(1) + one + e(-1))),
                ring.const(-one)),
            5: (ring.const(one),
                lin(one, e(1), -(e(2) + e(1))),
                ring.const(e(2))),
            6: (lin(one, -(e(2) + e(1) + one), e(2) + e(1)),
                ring.const(one),
                lin(-(e(3) + e(2) + e(1)), e(3), e(4) + e(3))),
        }
        full = set(range(d))
        for n, (iset, jset, kset) in self.A_SETS.items():
            r11, r32, r42 = rows[n]
            # the (2,1) row is forced by closedness and must divide exactly
            num = (r42 * ring.p_S(sorted(full - set(iset)), "a", "x1")
                   - r32 * ring.p_S(sorted(full - set(jset)), "x1", "b"))
            r21 = num.exact_divide(ring.p_S(sorted(kset), "a", "b"))
            K = ps_object(d, kset)
            T = tensor_obj(ps_object(d, iset), ps_object(d, jset))
            legs = [{(row, 0): (w_then_mul(J, poly),) for row, poly in enumerate(col)
                     if not poly.is_zero()} for col in ((r11, r21), (r32, r42))]
            self.A[n] = Morphism(K, T, 0, Operator(K.m0, T.m0, legs[0]),
                                 Operator(K.m1, T.m1, legs[1]))


# -- proportionality of composite junctions ------------------------------------


def _probes(shape: SlotShape):
    yield {}
    for v in shape.internal_names():
        yield {v: 1}
        yield {v: 2}


def _first_nonzero_entry(L: Morphism, R: Morphism):
    """The entries (of L, of R) at the first probe image where R is non-zero;
    L is evaluated at that probe only."""
    for opL, opR in ((L.opE, R.opE), (L.opO, R.opO)):
        for j in range(opR.src.rank):
            for exps in _probes(opR.src.shape):
                for i, pR in enumerate(opR.apply_basis(j, exps)):
                    if not pR.is_zero():
                        return opL.apply_basis(j, exps)[i], pR
    raise ValueError("right side vanishes on all probes")


def proportionality_scalar(L: Morphism, R: Morphism):
    """The exact scalar c with L = c*R, plus the equality mode: c is read
    from the first probe image where R is non-zero, at R's leading exponent,
    and morphism_equal(L, c*R) alone decides.

    "Sides not proportional" is a failed verification, so it raises
    VerificationError (exit 1 in `mbf`): the callers compare two bracketings
    the theory says are proportional, and an L with no term to read c from,
    or a morphism_equal that tells L from c*R, refutes that computation.  A
    parity mismatch or a right side that vanishes on every probe leaves no
    scalar to check and stays a plain ValueError about the input.
    """
    if L.parity != R.parity:
        raise ValueError("parity mismatch")
    pL, pR = _first_nonzero_entry(L, R)
    exps, coeff = pR.leading_term()
    if exps not in pL.terms:
        raise VerificationError("sides not proportional")
    c = pL.terms[exps] * coeff.inverse()
    eq, mode = morphism_equal(L, R.scale(c))
    if not eq:
        raise VerificationError(f"sides not proportional ({mode})")
    return c, mode


def verify_group_like(d: int, i: int, j: int, k: int) -> Cyclo:
    """Scalar relating the two bracketings of lam-composites; must be 1."""
    Pi, Pj, Pk = (ps_object(d, [t]) for t in (i, j, k))
    left = (lam(d, i, (j + k) % d)
            .compose(tensor_mor(Morphism.identity(Pi), lam(d, j, k)))
            .compose(associator(Pi, Pj, Pk)))
    right = lam(d, (i + j) % d, k).compose(tensor_mor(lam(d, i, j), Morphism.identity(Pk)))
    c, _ = proportionality_scalar(left, right)
    return c


def verify_sign(d: int) -> Cyclo:
    """Scalar relating the two bracketings of the F pair: (-1)^{(d-2)/2}."""
    if d < 4 or d % 2:
        raise ValueError("need even d >= 4")
    A, B, F_l, F_r = f_pair(d)
    left = (F_l
            .compose(tensor_mor(Morphism.identity(A), F_r))
            .compose(associator(A, B, A)))
    right = F_r.compose(tensor_mor(F_l, Morphism.identity(A)))
    c, _ = proportionality_scalar(left, right)
    return c


# -- the 2x2 fusing matrix ------------------------------------------------------


# display positions (row, column) per the layout in the module docstring:
# the DETERMINED entries hold on the nose, the others up to homotopy
DETERMINED = ((1, 1), (5, 2), (6, 2), (7, 2))
HOMOTOPY_POSITIONS = ((2, 1), (3, 1), (4, 1), (8, 2))
# display row -> parities of the factors X, Y, Z of its copy of T
_DISPLAY_PARITIES = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1),
                     (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def _determined_copies(P: MBF) -> list:
    """(parity leg, copy) in T = P⊗(P⊗P) of each DETERMINED position, read
    through `tensor_copy` from the factor parities of its display row."""
    PP = tensor_obj(P, P)
    out = []
    for row, _ in DETERMINED:
        x, y, z = _DISPLAY_PARITIES[row - 1]
        inner = tensor_copy(P, P, y, 0, z, 0)
        out.append(((x + y + z) % 2, tensor_copy(P, PP, x, 0, (y + z) % 2, inner)))
    return out


class FusingReport:
    """Exact 2x2 fusing matrix plus entry bookkeeping."""

    __slots__ = ("d", "F", "determined_entries", "homotopy_entries",
                 "ratio_exact", "ratio_numeric")

    def __init__(self, d, F, determined_entries, homotopy_entries,
                 ratio_exact, ratio_numeric):
        self.d = d
        self.F = F
        self.determined_entries = determined_entries
        self.homotopy_entries = homotopy_entries
        self.ratio_exact = ratio_exact
        self.ratio_numeric = ratio_numeric

    def to_json(self):
        return {
            "d": self.d,
            "F": [[str(c) for c in row] for row in self.F],
            "determined_entries": [list(p) for p in self.determined_entries],
            "homotopy_entries": [dict(e) for e in self.homotopy_entries],
            "ratio_exact": str(self.ratio_exact),
            "ratio_numeric": self.ratio_numeric,
        }

    def __repr__(self):
        return f"FusingReport(d={self.d}, ratio={self.ratio_numeric})"


def _fusing_composites(d: int):
    """The four composite junctions of the 2x2 relations, from checked
    junctions.

    Returns (P, L1, L2, X, Y): both relations read L_i = f_i0*X + f_i2*Y
    as even morphisms P_{1,2} -> P ⊗ (P ⊗ P) with P = P_{0,1}.
    """
    if d < 4:
        raise ValueError("need d >= 4")
    A = Junctions(d).A
    P = ps_object(d, (0, 1))
    ident = Morphism.identity(P)
    assoc = associator(P, P, P)
    L1 = assoc.compose(tensor_mor(A[1], ident)).compose(A[5])
    L2 = assoc.compose(tensor_mor(A[2], ident)).compose(A[6])
    X = tensor_mor(ident, A[1]).compose(A[3])
    Y = tensor_mor(ident, A[2]).compose(A[4])
    return P, L1, L2, X, Y


def _entry_polys(mor: Morphism):
    """Generator images of the two legs, as (leg, row) -> poly."""
    return {leg: [row[0] for row in op.matrix()]
            for leg, op in enumerate((mor.opE, mor.opO))}


def _solve_pair(d, copies, polyL, polyX, polyY):
    """Exact (f0, f2) with polyL = f0*polyX + f2*polyY at every (leg, row)
    of `copies`: one sparse row {0: x, 1: y, 2: l} per monomial, read back
    from the reduced row echelon form."""
    ech = linalg.Echelon()
    for leg, r in copies:
        pL, pX, pY = polyL[leg][r].terms, polyX[leg][r].terms, polyY[leg][r].terms
        for e in sorted(set(pL) | set(pX) | set(pY)):
            ech.insert({k: p[e] for k, p in enumerate((pX, pY, pL)) if e in p})
    reduced = ech.reduced()
    pivots = [c for c, _ in reduced]
    if pivots[:2] != [0, 1]:
        raise VerificationError("fusing system underdetermined")
    if 2 in pivots:  # a pivot in the constants column
        raise VerificationError("fusing system inconsistent")
    z = Cyclo.zero(d)
    return reduced[0][1].get(2, z), reduced[1][1].get(2, z)


def _fusing_report(d, P, L1, L2, X, Y) -> FusingReport:
    """The exact 2x2 matrix solved from the composites of `_fusing_composites`."""
    copies = _determined_copies(P)
    pX, pY = _entry_polys(X), _entry_polys(Y)
    f00, f02 = _solve_pair(d, copies, _entry_polys(L1), pX, pY)
    f20, f22 = _solve_pair(d, copies, _entry_polys(L2), pX, pY)
    F = [[f00, f02], [f20, f22]]
    ratio = f00 * f22 * (f02 * f20).inverse()
    z = ratio.to_complex(96)
    if abs(z.imag) > 1e-20:
        raise VerificationError("fusing ratio should be real")
    return FusingReport(d, F, list(DETERMINED), [], ratio, float(z.real))


def solve_fusing_2x2(d: int) -> FusingReport:
    """Solve the on-the-nose entries of the 2x2 junction relations exactly."""
    return _fusing_report(d, *_fusing_composites(d))


# -- finite-rank reduction of tensor products -----------------------------------


class ReducedTensor:
    """Contraction of a 3-slot tensor product to a finite-rank 2-slot object.

    incl : reduced -> original and proj : original -> reduced satisfy
    proj∘incl = id exactly; homotopy h (odd) satisfies
    delta(h) = incl∘proj - id, so the two objects are homotopy equivalent.
    `reduce_tensor(check=True)` checks the exact invariants;
    `compare.fusion_rule_compare` checks the homotopy witness.
    `reduced` is graded: its copy u·x^j carries the charge of A-copy u, plus
    that of B's even copy, plus j.
    """

    __slots__ = ("original", "reduced", "incl", "proj", "homotopy")

    def __init__(self, original, reduced, incl, proj, homotopy):
        self.original = original
        self.reduced = reduced
        self.incl = incl
        self.proj = proj
        self.homotopy = homotopy


def reduce_tensor(Am: MBF, Bm: MBF, check: bool = True) -> ReducedTensor:
    """Contract Am ⊗ Bm to finite rank; Bm must be rank (1,1), and both
    factors graded.

    The middle slot is eliminated by division with remainder by the
    monic-in-x entry of B's d1, so the reduced generators are the A-copies
    times the x-powers below its degree.  Each entry of A's differentials
    times each such power is divided once: the remainder gives the reduced
    differential, the quotient the correction in incl.  With `check`, the
    reduced object must be exactly valid, proj∘incl = id must hold exactly
    and the reduced grading must be valid, in that order; the first that
    fails raises VerificationError.
    """
    if Am.shape.nslots != 2 or Bm.shape.nslots != 2:
        raise ValueError("factors must be 2-slot objects")
    if Bm.m0.rank != 1 or Bm.m1.rank != 1:
        raise ValueError("right factor must have rank (1,1)")
    d = Am.shape.conductor
    T = tensor_obj(Am, Bm)
    sh3, sh2 = T.shape, Am.shape
    r3, r2 = sh3.ring(), sh2.ring()
    # A sits on the first two slots of the glued chain, B on the last two
    q1 = Bm.d1.matrix()[0][0].rename(slot_map(sh2, sh3, lambda s: s + 1), r3)
    g = q1.degree_in("x1")
    lead = q1.coefficients_in("x1").get(g)
    if g < 1 or lead is None or lead.constant_value() != Cyclo.one(d):
        raise ValueError("right d1 entry must be monic in its left variable")

    a_names = slot_map(sh2, sh3, lambda s: s)
    rA0, rA1 = Am.m0.rank, Am.m1.rank
    dA0, dA1 = ([[p.rename(a_names, r3) for p in row] for row in op.matrix()]
                for op in (Am.d0, Am.d1))

    xpow = [r3.monomial({"x1": j}) for j in range(g)]
    ins = w_insert(sh2, 1)
    at = lambda p, u, k: tensor_copy(Am, Bm, p, u, k, 0)  # copy u of A_p beside B_k

    # one division per entry (v, u) of dA_p and power x^j: the remainder's
    # x-coefficients fill column (u, j) of the reduced d_p, and the quotient
    # is incl's correction on the complementary block (negated out of odd
    # copies), beside the generator (u, j) |-> copy_u * x^j; incl is then an
    # exact chain map
    blocks, cells = [], []
    for p, (dmat, rsrc, rdst) in enumerate(((dA0, rA0, rA1), (dA1, rA1, rA0))):
        rows = [[r2.zero() for _ in range(rsrc * g)] for _ in range(rdst * g)]
        leg = {}
        for u in range(rsrc):
            for j in range(g):
                col = u * g + j
                leg[at(p, u, 0), col] = (w_then_mul(ins, xpow[j]),)
                for v in range(rdst):
                    if dmat[v][u].is_zero():
                        continue
                    quo, rem = (dmat[v][u] * xpow[j]).divmod_in_var(q1, "x1")
                    for m, cp in rem.coefficients_in("x1").items():
                        rows[v * g + m][col] = cp.rename({}, r2)
                    if not quo.is_zero():
                        leg[at(1 - p, v, 1), col] = (w_then_mul(ins, -quo if p else quo),)
        blocks.append(rows)
        cells.append(leg)

    cB = Bm.charges(0)[0]
    grading = [[c + cB + j for c in Am.charges(p) for j in range(g)] for p in (0, 1)]
    reduced = mbf_from_polys(sh2, *blocks, Am.w, grading)
    incl = Morphism(reduced, T, 0, *(
        Operator(reduced.component(p), T.component(p), cells[p]) for p in (0, 1)))

    # proj: remainder coefficients on the ⊗B0 blocks, zero on the rest
    rem_coeff = lambda m: (w_rem(sh3, q1, "x1").then(w_coeff(sh3, "x1", m)),)
    proj = Morphism(T, reduced, 0, *(
        Operator(T.component(p), reduced.component(p),
                 {(u * g + m, at(p, u, 0)): rem_coeff(m) for u in range(rank) for m in range(g)})
        for p, rank in ((0, rA0), (1, rA1))))

    # odd homotopy: division quotients from A_p B0 to A_p B1
    quo = w_quo(sh3, q1, "x1")
    negated = (quo.scaled(-Cyclo.one(d)),)
    h0 = Operator(T.m0, T.m1, {(at(0, u, 1), at(0, u, 0)): negated for u in range(rA0)})
    h1 = Operator(T.m1, T.m0, {(at(1, u, 1), at(1, u, 0)): (quo,) for u in range(rA1)})
    homotopy = Morphism(T, T, 1, h0, h1)
    rt = ReducedTensor(T, reduced, incl, proj, homotopy)
    if check:
        _check_reduction(rt)
    return rt


def _check_reduction(rt: ReducedTensor, valid: bool = False):
    """`reduce_tensor`'s checks, in order: the reduced object is exactly
    valid (skipped when `valid`, for an object proved valid otherwise),
    proj∘incl = id exactly, and the reduced grading is valid.  The first
    that fails raises VerificationError."""
    reduced = rt.reduced
    if not valid:
        rep = validate_mbf(reduced)
        if not rep or rep.mode != "exact":
            raise VerificationError(f"reduced object invalid: {rep.violations}")
    eq, mode = morphism_equal(rt.proj.compose(rt.incl), Morphism.identity(reduced))
    if not eq or joint_mode([mode]) != "exact":
        raise VerificationError("proj∘incl is not the identity")
    if not graded_validate(reduced)["ok"]:
        raise VerificationError("reduced grading invalid")


# -- decomposition into P_S summands --------------------------------------------


def _is_unit(p: MultiPoly):
    c = p.constant_value()
    return c is not None and not c.is_zero()


def _line_quotients(p: MultiPoly, mat, i: int, j: int):
    """The quotients by p of the other non-zero entries of row i and column
    j of `mat`, as ({j': M[i][j'] / p}, {i': M[i'][j] / p}), or None if p
    does not divide one of them.  A unit p is inverted once and multiplies;
    any other p divides each entry once, and stops at the first that does
    not divide."""
    row = {jp: q for jp, q in enumerate(mat[i]) if jp != j and not q.is_zero()}
    col = {ip: r[j] for ip, r in enumerate(mat) if ip != i and not r[j].is_zero()}
    c = p.constant_value()
    if c is not None:
        inv = c.inverse()
        return ({jp: q * inv for jp, q in row.items()},
                {ip: q * inv for ip, q in col.items()})
    try:
        return ({jp: q.exact_divide(p) for jp, q in row.items()},
                {ip: q.exact_divide(p) for ip, q in col.items()})
    except NotDivisibleError:
        return None


def _find_pivot(mat, constants_only: bool):
    """(i, j, quotients) of the first unit of `mat`, else, unless
    `constants_only`, of the first entry of least degree that divides its
    row and column (`_line_quotients`); None if there is neither.  A
    candidate whose row or column holds a non-zero entry of lower total
    degree is passed over undivided: over a domain a multiple of p has at
    least p's degree."""
    best = None
    for i, row in enumerate(mat):
        for j, p in enumerate(row):
            if p.is_zero():
                continue
            if _is_unit(p):
                return i, j, _line_quotients(p, mat, i, j)
            if constants_only:
                continue
            deg = sum(p.leading_term()[0])
            if best is None or deg < best[0]:
                if any(0 <= q.total_degree() < deg for q in row) or any(
                        0 <= r[j].total_degree() < deg for r in mat):
                    continue
                quotients = _line_quotients(p, mat, i, j)
                if quotients is not None:
                    best = (deg, i, j, quotients)
    return None if best is None else best[1:]


def _clear_pivot(M, P, i: int, j: int, quotients):
    """Zero row i and column j of M around pivot (i,j), updating partner P.

    Column op C_{j'} -= beta*C_j on M pairs with row op R_j += beta*R_{j'}
    on P; row op R_{i'} -= gamma*R_i pairs with column op C_i += gamma*C_{i'}.
    `quotients` = (beta, gamma) are the quotients by the pivot of the
    other non-zero entries of row i and column j, computed once by
    `_find_pivot` while it tested the pivot; the clearing divides nothing.
    They stay valid: the column ops leave column j alone, and each changes
    row i only in its own column.  Outside the pivot, row i and column j
    become zero by the quotients' definition, so they are set, not
    computed, and a product with a zero entry is skipped.
    """
    beta, gamma = quotients
    zero = M[i][j].ring.zero()
    for jp, b in beta.items():
        for ip in gamma:  # the other rows with a non-zero entry in column j
            row = M[ip]
            row[jp] = row[jp] - b * row[j]
        M[i][jp] = zero
        Pj = P[j]
        for k, x in enumerate(P[jp]):
            if not x.is_zero():
                Pj[k] = Pj[k] + b * x
    for ip, g in gamma.items():
        M[ip][j] = zero
        for row in P:
            x = row[ip]
            if not x.is_zero():
                row[i] = row[i] + g * x


def _drop(mat, row: int, col: int):
    return [[p for j, p in enumerate(r) if j != col]
            for i, r in enumerate(mat) if i != row]


def _assert_split(P, j: int, i: int, what: str):
    for k, p in enumerate(P[j]):
        if k != i and not p.is_zero():
            raise VerificationError(f"{what}: partner row not split after clearing")
    for row in (P[k] for k in range(len(P)) if k != j):
        if not row[i].is_zero():
            raise VerificationError(f"{what}: partner column not split after clearing")


def _defect_lines(p: MultiPoly, roots: list) -> tuple:
    """S with p = c·∏_{i∈S}(a − ζ^i b) for a non-zero pivot p, read off the
    values p(ζ^i, 1) at `roots` = [ζ^0, ..., ζ^(d-1)]; the test and its
    proof are in `decompose_into_PS`.  VerificationError if p is no such
    product, or if S is empty or every residue."""
    d = len(roots)
    # over (a, b), a term of a form of degree k is c·a^(e_a)·b^(k - e_a)
    ia = p.ring.index("a")
    k = p.homogeneous_degree()
    S = None
    if k is not None:
        terms = [(e[ia], c) for e, c in p.terms.items()]
        zero = Cyclo.zero(d)
        S = tuple(i for i in range(d)
                  if sum((c * roots[i * ea % d] for ea, c in terms), zero).is_zero())
    if S is None or len(S) != k:
        raise VerificationError(f"block does not factor into defect lines: {p}")
    if not S or len(S) == d:
        raise VerificationError(f"block is not a proper defect: {p}")
    return S


def decompose_into_PS(D: MBF):
    """Multiset of index sets S with D ≃ ⊕ P_S (plus contractible pieces).

    Invertible constant entries are stripped by exact elimination; surviving
    pivots must clear their row and column by exact division and then factor
    into distinct (a - eta^i b) terms.  A residual block with no such pivot,
    a partner row or column left unsplit by the clearing, and a pivot that
    does not factor into defect lines or factors into none or all of them are
    failed verifications: each raises VerificationError (exit 1 in `mbf`),
    since the input passed the shape checks and it is the claim that it
    splits into P_S summands that this elimination could not confirm.  Input
    that is not an MBF is a TypeError, and input that is not a 2-slot object
    a plain ValueError; the differentials are read through their generator
    matrices.

    The factor test evaluates; it divides nothing.  A pivot p ≠ 0 factors
    into defect lines, p = c·∏_{i∈S}(a − ζ^i b) with c ≠ 0 and S a set,
    exactly when p is homogeneous of some degree k, its a^k coefficient
    p(1, 0) is non-zero, and exactly k of the values p(ζ^i, 1), i < d,
    vanish; S is that zero set.  Proof: such a product has all three
    properties.  Conversely, a homogeneous p gives the one-variable
    polynomial p(t, 1) = Σ_e c_e t^(e_a), non-zero since distinct terms of p
    have distinct e_a, of degree at most k, with t^k coefficient p(1, 0).
    Having k distinct roots ζ^i (i ∈ S), it has degree exactly k (so the
    second condition follows from the other two and is not tested apart),
    the ζ^i are all its roots, each simple, and
    p(t, 1) = p(1, 0)·∏_{i∈S}(t − ζ^i).  Homogeneity gives
    p(a, b) = b^k p(a/b, 1) = p(1, 0)·∏_{i∈S}(a − ζ^i b).  Each value is
    Σ_e c_e ζ^(i·e_a) over the d roots built once per call, so a pivot
    with m terms costs d·m scalar products and no polynomial division,
    where trial division by each of the d lines made d exact divisions.
    Each entry of a pivot's row and column is divided by the pivot at most
    once, while the pivot is tested (`_line_quotients`), and a unit pivot
    is inverted once and divides nothing.
    """
    if not isinstance(D, MBF):
        raise TypeError("expected an MBF")
    if D.shape.nslots != 2:
        raise ValueError("decomposition expects a 2-slot object")
    d = D.shape.conductor
    B = [list(r) for r in D.d1.matrix()]
    A = [list(r) for r in D.d0.matrix()]
    pivots = []
    while B and B[0]:
        hit = None
        for constants_only in (True, False):
            for M, P, tag in ((B, A, "d1"), (A, B, "d0")):
                found = _find_pivot(M, constants_only)
                if found is not None:
                    hit = (M, P, tag, found)
                    break
            if hit:
                break
        if hit is None:
            shown = [[str(p) for p in row] for row in B]
            raise VerificationError(f"residual block not factorable: {shown}")
        M, P, tag, (i, j, quotients) = hit
        _clear_pivot(M, P, i, j, quotients)
        _assert_split(P, j, i, tag)
        pivot, partner = M[i][j], P[j][i]
        if not _is_unit(pivot):
            pivots.append(pivot if tag == "d1" else partner)
        if tag == "d1":
            B, A = _drop(B, i, j), _drop(A, j, i)
        else:
            A, B = _drop(A, i, j), _drop(B, j, i)
    roots = [Cyclo.root(d, i) for i in range(d)]
    out = [_defect_lines(p, roots) for p in pivots]
    return sorted(out, key=lambda s: (len(s), s))


# process: (d, the least member of a pair's rotation orbit) -> (the rotation
# offset of the first member fused in full, its reduced object, validated
# exactly, its summand multiset, and the set of offsets of the members fused
# so far).  A dict, not a functools cache: the value records which member
# came first, and a cache on the least member would reduce that member once
# more.  An entry is dropped once every distinct member of its orbit is fused.
_ORBITS: dict = {}


def _orbit(d: int, left, right) -> tuple:
    """(the least of the pairs (left + j, right + j), k, n) with the pair
    equal to that least member plus k, every residue shifted mod d, and n the
    number of distinct pairs in the orbit: d, or fewer for a periodic pair."""
    pair = tuple(tuple(sorted({i % d for i in S})) for S in (left, right))
    members = [tuple(tuple(sorted((i + j) % d for i in S)) for S in pair) for j in range(d)]
    least = min(members)
    return least, -members.index(least) % d, len(set(members))


def _fused(key: tuple, k: int, n: int):
    """Record that the member at offset k of the orbit `key` is fused, and
    drop the orbit's entry once all n of its distinct members are."""
    fused = _ORBITS[key][3]
    fused.add(k)
    if len(fused) == n:
        del _ORBITS[key]


def _rotation_conjugate(R: MBF, D: MBF, k: int) -> bool:
    """Whether D = Δ·ρ^k(R)·Δ⁻¹ on both components, for Δ = diag(ζ^(kj))
    over the copies j, where ρ^k is the ring map fixing a and sending b to
    ζ^(2k)·b.  R and D are reduced objects of rank-(1,1) factors, so copy j
    is x^j (`fuse` derives Δ).

    Entry (m, j) of each differential of D must be ζ^(k(m−j)) times ρ^k of
    R's: the term c·b^e of R's entry scaled by ζ^(k(2e+m−j)), term by term.
    Only the rows of the four differentials are read; nothing is inverted
    and no object is built.
    """
    if D.shape != R.shape or D.w != R.w or (D.m0.rank, D.m1.rank) != (R.m0.rank, R.m1.rank):
        return False
    d = D.shape.conductor
    ib = D.shape.ring().index("b")
    roots = [Cyclo.root(d, k * n) for n in range(d)]
    return all(
        pD.terms.keys() == pR.terms.keys()
        and all(pD.terms[e] == c * roots[(2 * e[ib] + m - j) % d] for e, c in pR.terms.items())
        for opD, opR in ((D.d0, R.d0), (D.d1, R.d1))
        for m, (rowD, rowR) in enumerate(zip(opD.matrix(), opR.matrix()))
        for j, (pD, pR) in enumerate(zip(rowD, rowR)))


def fuse(d: int, left, right, check: bool = True):
    """Reduce P_left ⊗ P_right, checked as `reduce_tensor` with `check`, and
    decompose the reduced object: (ReducedTensor, multiset).

    The pair is reduced unchecked once, and takes one of two paths.  With
    `check`, the pairs (left + j, right + j) form one rotation orbit, and
    the first member fused in full is kept in `_ORBITS` until every
    distinct member of the orbit has been fused.  A later member,
    k rotations on, is transported: proj∘incl = id and the grading are
    checked on it as always, but in place of `validate_mbf` and
    `decompose_into_PS` one exact check, `_rotation_conjugate`, finds its
    reduced object D equal to Δ·ρ^k(R)·Δ⁻¹ for the first member's R, and
    the summands are R's shifted by 2k.  Every other pair, a failed check
    included, takes the full path: `_check_reduction` (with `check`), then
    `decompose_into_PS`, then (with `check`) `_ORBITS.setdefault`, so an
    orbit keeps the first member that succeeded.  A member fused after its
    orbit's entry was dropped takes the full path and opens a new entry.

    The diagonal.  Let ρ fix a and send x to ζx and b to ζ²b.  It maps
    a − ζ^i x to a − ζ^(i+1) x and x − ζ^i b to ζ·(x − ζ^(i+1) b), so
    ρ^k maps each entry p_T(a, x) of A = P_{S1} to p_{T+k}(a, x) exactly,
    and each entry p_T(x, b) of B = P_{S2} to ζ^(k|T|)·p_{T+k}(x, b): the
    entries of the rotated pair, P_{S1+k} and P_{S2+k}.  Copy j of the
    reduced object is x^j, and its entry (m, j) is the x^m coefficient of
    the remainder of f·x^j by B's d1 entry q, monic in x, for the entry f
    of A: f·x^j = Q·q + Σ_m r_m(a, b)·x^m.  Applying ρ^k gives
    f′·ζ^(kj)·x^j = ρ^k(Q)·ζ^(kg)·q′ + Σ_m ρ^k(r_m)·ζ^(km)·x^m, with f′
    and q′ the rotated pair's entries and g the degree of q.  The remainder
    by the monic q′ is unique, so the rotated pair's entry (m, j) is
    ζ^(k(m−j))·ρ^k(r_m): its reduced object is Δ·ρ^k(R)·Δ⁻¹ with
    Δ = diag(ζ^(kj)) on both components.

    Proof that a passed check is sound.  Let ρ now act on C[a, b].
    * ρ^k is a ring automorphism of C[a, b] fixing a^d − b^d = W(a) − W(b),
      so ρ^k(R) is a factorisation of it: ρ^k(R.d1)·ρ^k(R.d0) =
      ρ^k((W(a) − W(b))·I), likewise on D1.
    * Δ is one invertible constant diagonal, so conjugating by it keeps
      this: D.d1·D.d0 = Δ·ρ^k(R.d1)·ρ^k(R.d0)·Δ⁻¹ = (W(a) − W(b))·I, and
      likewise on D1.  So D is exactly valid, and (Δ, Δ) is an even
      isomorphism ρ^k(R) → D.
    * ρ^k(P_T) = P_{T+2k} exactly: a − ζ^i b goes to a − ζ^(i+2k) b, so
      p_T goes to p_{T+2k} and p_{T^c} to p_{(T+2k)^c}.
    * ρ^k maps R's isomorphism with ⊕P_T plus contractible pieces onto one
      of ρ^k(R) ≅ D with ⊕P_{T+2k} plus contractible pieces.  By
      Krull–Schmidt the summand multiset is unique, so it is the multiset
      `decompose_into_PS` would find on D; sorted, it is the same list.
    """
    rt = reduce_tensor(ps_object(d, left), ps_object(d, right), check=False)
    least, k, n = _orbit(d, left, right)
    key = (d, least)
    first = _ORBITS.get(key) if check else None
    if first is not None:
        k0, R, summands, _ = first
        if _rotation_conjugate(R, rt.reduced, (k - k0) % d):
            _check_reduction(rt, valid=True)
            _fused(key, k, n)
            shifted = (tuple(sorted((i + 2 * (k - k0)) % d for i in T)) for T in summands)
            return rt, sorted(shifted, key=lambda s: (len(s), s))
    if check:
        _check_reduction(rt)
    summands = decompose_into_PS(rt.reduced)
    if check:
        _ORBITS.setdefault(key, (k, rt.reduced, summands, set()))
        _fused(key, k, n)
    return rt, summands


# -- homotopy verification of the remaining fusing entries ----------------------


def verify_fusing_up_to_homotopy(d: int, perturb=None) -> FusingReport:
    """Check that the solved 2x2 matrix closes both relations up to homotopy.

    The defect (relation minus its exact right side) is transported through
    the contraction maps to a finite-rank endpoint, where the charge-sector
    witness search is complete, so a "no" verdict is a certificate.  The
    transported defect has a 2-slot source, so its closedness is settled in
    an exact `op_equal` tier and no degree cutoff is involved.  With
    `perturb=(r, c)` the matrix entry at that position is shifted by 1
    first; any perturbation must produce at least one "no".
    """
    P, L1, L2, X, Y = _fusing_composites(d)
    report = _fusing_report(d, P, L1, L2, X, Y)
    F = [row[:] for row in report.F]
    if perturb is not None:
        r, c = perturb
        F[r][c] = F[r][c] + Cyclo.one(d)

    r1 = reduce_tensor(P, P)
    r2 = reduce_tensor(r1.reduced, P)
    assoc_inv = associator_inv(P, P, P)
    transport = (r2.proj
                 .compose(tensor_mor(r1.proj, Morphism.identity(P)))
                 .compose(assoc_inv))

    entries = []
    for eqno, L, f0, f2 in ((1, L1, F[0][0], F[0][1]), (2, L2, F[1][0], F[1][1])):
        delta = L - X.scale(f0) - Y.scale(f2)
        moved = transport.compose(delta)  # matrix-held: both ends on one 2-slot chain
        ok, mode = moved.is_closed()
        if not ok:
            raise VerificationError(f"transported defect not closed ({mode})")
        witness = is_null_homotopic(moved)
        status = "witness" if witness is not None else "no"
        for pos in HOMOTOPY_POSITIONS:
            entries.append({"pos": list(pos), "equation": eqno, "status": status})
    return FusingReport(d, F, report.determined_entries, entries,
                        report.ratio_exact, report.ratio_numeric)
