"""R-charge structure for the x^d defect family.

The charges live on the objects: `bifact.MBF.grading` holds one charge per
copy of each component.  `ps_object` and the one-variable `unit_object`
grade themselves, tensor products add the charges of their factors, and
`fusion.reduce_tensor` grades the reduced object.  This module reads them.

Charges are exact rationals in units of q_x = 2/d (the charge of the chain
variable).  In these units the differentials carry charge d/2 and an even
morphism block entry a^m b^n from generator j to generator i carries
q_x * (m + n + c_target(i) - c_source(j)).  Every function here takes the
charges from the objects or the endpoints of the morphism it is given, and
an ungraded object raises ValueError.

Hom spaces are computed sector by sector: homogeneity forces the total
degree of every block entry, so each charge sector is a finite linear
problem over the cyclotomic field.  Every entry of δ is a copied or
negated differential coefficient, so δ is read as sparse columns straight
from each object's coefficients (`_delta_columns`): residues mod p, reduced
once per object (`bifact.differential_residues`), or `Cyclo` values.  Both
go to the one sparse elimination, `linalg.Echelon`.  A sector whose ranks
over F_p account for every ansatz variable is proved empty; the others are
solved exactly (closedness nullspace modulo the image of the odd ansatz),
and only the exact solve reports a non-empty sector (`_solve_sector`).
"""

from __future__ import annotations

import functools
import math
import operator

from . import VerificationError
from ._rat import Rat, rat_str
from .exactalg import Cyclo, modular_prime
from .linalg import Echelon, nullspace, rank_mod_p, solve
from .bifact import (
    MBF,
    Morphism,
    Operator,
    PCoeff,
    PMul,
    PQuo,
    PSubst,
    PTDiv,
    associator,
    differential_residues,
    ps_object,
    unit_isos,
    validate_mbf,
    w_mul,
)


class _NotHomogeneous:
    """Sentinel: the morphism mixes charge sectors."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotHomogeneous"

    def __bool__(self):
        return False


NotHomogeneous = _NotHomogeneous()


def graded_validate(D: MBF):
    """Every differential must carry charge d/2 in q_x units, read word by
    word against the charges of its endpoints (`operator_charge_units`).

    An `MBF` is immutable, so the report is memoised on the object, as
    `validate_mbf`'s is.
    """
    if D._graded_report is None:
        half = Rat(D.shape.conductor, 2)
        violations = []
        c0, c1 = D.charges(0), D.charges(1)
        for name, op, csrc, cdst in (("d0", D.d0, c0, c1), ("d1", D.d1, c1, c0)):
            q = operator_charge_units(op, csrc, cdst)
            if q is not None and q != half:
                violations.append({"which": name, "charge": str(q)})
        object.__setattr__(D, "_graded_report", {"ok": not violations, "violations": violations})
    return D._graded_report


# -- charges of operators and morphisms --------------------------------------


def _word_charge_units(word):
    """Charge shift of one generator word in q_x units; None if inhomogeneous."""
    total = Rat(0)
    for prim in word.prims:
        if isinstance(prim, PMul):
            h = prim.poly.homogeneous_degree()
            if h is None:
                return None
            total += h
        elif isinstance(prim, PSubst):
            pass
        elif isinstance(prim, PTDiv):
            total -= 1
        elif isinstance(prim, PQuo):
            g = prim.modulus.homogeneous_degree()
            if g is None:
                return None
            if prim.part == "quo":
                total -= g
        elif isinstance(prim, PCoeff):
            total -= prim.k
        else:
            return None
    return total


def operator_charge_units(op, src_units, dst_units):
    """Common q_x-unit charge of all words of an operator, or the sentinel.

    A matrix-held operator (`Operator.matrix_held`) is read entry by entry:
    a non-zero entry's charge is its homogeneous degree, the charge of the
    one normal-form word its cell holds.  Returns None for a structurally
    zero operator (any charge fits).
    """
    if op.matrix_held:
        charges = ((i, j, p.homogeneous_degree())
                   for i, row in enumerate(op.matrix()) for j, p in enumerate(row) if p)
    else:
        charges = ((i, j, _word_charge_units(w))
                   for (i, j), words in op.normalized().cells.items() for w in words)
    found = None
    for i, j, wc in charges:
        if wc is None:
            return NotHomogeneous
        q = wc + dst_units[i] - src_units[j]
        if found is None:
            found = q
        elif q != found:
            return NotHomogeneous
    return found


def morphism_charge(phi: Morphism):
    """Exact R-charge of a homogeneous morphism (in actual units, q_x = 2/d),
    read against the charges of its endpoints.

    Zero morphisms report charge 0; mixed sectors give NotHomogeneous.
    """
    source, target = phi.src, phi.dst
    d = source.shape.conductor
    qE = operator_charge_units(phi.opE, source.charges(0), target.charges(phi.parity))
    qO = operator_charge_units(phi.opO, source.charges(1), target.charges(1 + phi.parity))
    if qE is NotHomogeneous or qO is NotHomogeneous:
        return NotHomogeneous
    if qE is None and qO is None:
        return Rat(0)
    if qE is not None and qO is not None and qE != qO:
        return NotHomogeneous
    units = qE if qE is not None else qO
    return units * Rat(2, d)


def zero_charge_structure_check(d: int):
    """The associator and unit maps carry R-charge zero."""
    report = {"checks": [], "ok": True}

    def record(name, phi):
        q = morphism_charge(phi)
        ok = q == 0 if q is not NotHomogeneous else False
        report["checks"].append({"which": name, "charge": str(q), "ok": ok})
        if not ok:
            report["ok"] = False

    lam, rho = unit_isos(ps_object(d, [0, 1]))
    record("lambda", lam)
    record("rho", rho)
    ps = [ps_object(d, [i]) for i in range(min(3, d))]
    record("associator", associator(ps[0], ps[1 % len(ps)], ps[2 % len(ps)]))

    # negative control: one entry of lambda scaled by a must be flagged
    cells = dict(lam.opE.cells)
    cells[0, 0] = [w.then(w_mul(w.dst, w.dst.ring().parse("a"))) for w in cells.get((0, 0), ())]
    bad = Operator(lam.opE.src, lam.opE.dst, cells)
    marred = Morphism(lam.src, lam.dst, 0, bad, lam.opO)
    q = morphism_charge(marred)
    flagged = q is NotHomogeneous
    report["checks"].append(
        {"which": "negative-control", "charge": str(q), "ok": flagged}
    )
    if not flagged:
        report["ok"] = False
    return report


# -- hom spaces ---------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _blocks(gs: MBF, gt: MBF, parity: int) -> tuple:
    """(L, blocks): the (leg, i, j, L·(c_src[j] − c_tgt[i])) of every block
    entry of a parity-`parity` morphism gs -> gt, with L the least common
    denominator of both objects' charges, so that every offset is an int.

    A block entry of charge u (q_x units) has degree u + c_src[j] − c_tgt[i];
    with the offsets scaled by L, `_Ansatz` and `hom_space` find the degrees
    of a sector by integer arithmetic.
    """
    charges = [c for D in (gs, gt) for leg in (0, 1) for c in D.charges(leg)]
    scale = math.lcm(*(c.denominator for c in charges))
    blocks = tuple((leg, i, j, int((cj - ci) * scale))
                   for leg in (0, 1)
                   for i, ci in enumerate(gt.charges(leg + parity))
                   for j, cj in enumerate(gs.charges(leg)))
    return scale, blocks


class _Ansatz:
    """Finite monomial basis of one parity-leg pair at fixed charge."""

    def __init__(self, gs: MBF, gt: MBF, parity: int, units: Rat):
        self.gs = gs
        self.gt = gt
        self.parity = parity % 2
        self.ring = gs.shape.ring()
        self.vars = []  # (leg, i, j, m, n)
        scale, blocks = _blocks(gs, gt, self.parity)
        if scale % units.denominator:
            return  # no block entry of an integral degree
        u = units.numerator * (scale // units.denominator)
        for leg, i, j, offset in blocks:
            deg, rest = divmod(u + offset, scale)
            if rest or deg < 0:
                continue
            # a-power descending so canonical representatives prefer a^k
            for m in range(deg, -1, -1):
                self.vars.append((leg, i, j, m, deg - m))

    def __len__(self):
        return len(self.vars)

    def legs_for(self, coeffs) -> tuple:
        """The rows of the two legs' matrices for a coefficient vector."""
        ring = self.ring
        shapes = []
        for leg in (0, 1):
            rows = len(self.gt.charges(leg + self.parity))
            cols = len(self.gs.charges(leg))
            shapes.append([[ring.zero() for _ in range(cols)] for _ in range(rows)])
        for c, (leg, i, j, m, n) in zip(coeffs, self.vars):
            if isinstance(c, Cyclo) and c.is_zero():
                continue
            mono = ring.monomial({"a": m, "b": n}, c)
            shapes[leg][i][j] = shapes[leg][i][j] + mono
        return shapes[0], shapes[1]

    def morphism(self, coeffs) -> Morphism:
        return Morphism.from_poly_blocks(self.gs, self.gt, self.parity, *self.legs_for(coeffs))


def _terms(D: MBF) -> tuple:
    """(d0, d1) as rows of {exponents: Cyclo}, the layout of
    `differential_residues`."""
    return tuple(tuple(tuple(poly.terms for poly in row) for row in op.matrix())
                 for op in (D.d0, D.d1))


def _residues(gs: MBF, gt: MBF):
    """(p, source tables, target tables) of `differential_residues` at
    `modular_prime(d)`, or None when p divides a denominator of either."""
    src, tgt = differential_residues(gs), differential_residues(gt)
    if src is None or tgt is None:
        return None
    return modular_prime(gs.shape.conductor)[0], src, tgt


def _delta_columns(ansatz: _Ansatz, index: dict, residues=None) -> list:
    """δ(e_k) of every ansatz basis vector e_k, as a sparse column {row: value}.

    Row r is the coordinate (leg, i, j, exponents of a, b) of δ that `index`
    maps to r; coordinates missing from `index` are appended in order of
    first use.  With D the source and E the target differentials,
    δφ = E∘φ − (−1)^p φ∘D (`Morphism.delta`).  For e_k = a^m b^n at row i,
    column j of leg L: column i of E out of component L+p, shifted by (m, n),
    goes into column j of leg L, and row j of D out of component 1−L, shifted
    the same way and times −(−1)^p, goes into row i of leg 1−L.  The two
    parts never share a coordinate, so every entry is a copied or negated
    differential coefficient: a `Cyclo` by default, or with `residues` from
    `_residues` its residue mod p, negated as p − v (0 stays 0).
    """
    src, tgt, p = ansatz.gs, ansatz.gt, ansatz.parity
    if residues is None:
        neg, D, E = operator.neg, _terms(src), _terms(tgt)
    else:
        prime, D, E = residues
        neg = lambda v: -v % prime  # noqa: E731
    columns = []
    for leg, i, j, m, n in ansatz.vars:
        col = {}
        for r, row in enumerate(E[(leg + p) % 2]):
            for (ea, eb), v in row[i].items():
                col[index.setdefault((leg, r, j, (ea + m, eb + n)), len(index))] = v
        for c, terms in enumerate(D[1 - leg][j]):
            for (ea, eb), v in terms.items():
                col[index.setdefault((1 - leg, i, c, (ea + m, eb + n)), len(index))] = (
                    neg(v) if p == 0 else v)
        columns.append(col)
    return columns


def _rows(columns, nrows: int) -> list:
    """The sparse rows of the matrix with `nrows` rows and sparse `columns`."""
    rows = [{} for _ in range(nrows)]
    for k, col in enumerate(columns):
        for r, v in col.items():
            rows[r][k] = v
    return rows


def _image_columns(ansatz: _Ansatz, lower: _Ansatz, residues=None) -> list:
    """delta of every basis vector of `lower`, the opposite-parity ansatz
    d/2 charge units below `ansatz`, as sparse columns in `ansatz`
    coordinates (`_delta_columns`)."""
    coords = {(leg, i, j, (m, n)): t for t, (leg, i, j, m, n) in enumerate(ansatz.vars)}
    columns = _delta_columns(lower, coords, residues)
    if len(coords) != len(ansatz):
        raise VerificationError("delta image left the charge sector")
    return columns


class HomSector:
    __slots__ = ("charge", "dim", "representatives")

    def __init__(self, charge, dim, representatives):
        self.charge = charge
        self.dim = dim
        self.representatives = representatives


class HomSpace:
    __slots__ = ("sectors",)

    def __init__(self, sectors):
        self.sectors = sectors

    def total_dim(self) -> int:
        return sum(s.dim for s in self.sectors)

    def charges(self):
        return [s.charge for s in self.sectors]

    def to_json(self):
        return {
            "sectors": [
                {
                    "charge": rat_str(s.charge),
                    "dim": s.dim,
                    "basis": [
                        {
                            "even": [[str(p) for p in row] for row in rep.opE.matrix()],
                            "odd": [[str(p) for p in row] for row in rep.opO.matrix()],
                        }
                        for rep in s.representatives
                    ],
                }
                for s in self.sectors
            ],
        }


def _solve_sector(gs: MBF, gt: MBF, units: Rat, parity: int = 0):
    """(dim, representatives) of the charge-u cohomology, exact; gs and gt
    must be factorisations of one potential (`hom_space` checks this).

    With n ansatz variables, M the matrix of delta on the ansatz and I the
    delta images of the opposite-parity ansatz d/2 units lower, a sector is
    first tried for an emptiness certificate modulo a prime.  M and I are
    reduced entry by entry: every entry is a copied or negated differential
    coefficient (`_delta_columns`), so their sparse columns over F_p are read
    straight from each object's residues (`_residues`).  `rank_mod_p` of
    those columns is a lower bound on the rank over Q(zeta_d): zeta -> r is
    a ring map on the entries, so each minor mod p is the image of the same
    minor.  If rank_p(M) = n, the closed space is 0.  Otherwise,
    delta^2 = (W_target - W_source)·id = 0 puts span I inside ker M, so
    dim H_u = n - rank M - rank I <= n - rank_p(M) - rank_p(I), and
    rank_p(M) + rank_p(I) = n proves the sector empty.  In every other case,
    or when p divides a denominator of either object's coefficients, the
    sector is solved exactly from the `Cyclo` columns of M and I: ker M from
    their sparse rows (`_rows`), modulo span I (`Echelon`).  The exact solve
    alone reports a dimension > 0 or a representative.
    """
    ansatz = _Ansatz(gs, gt, parity, units)
    n = len(ansatz)
    if not n:
        return 0, []
    d = gs.shape.conductor
    residues = _residues(gs, gt)
    if residues is not None:
        low = rank_mod_p(_delta_columns(ansatz, {}, residues), residues[0])
        if low == n:
            return 0, []
    lower = _Ansatz(gs, gt, 1 - parity, units - Rat(d, 2))
    if residues is not None:
        low_image = rank_mod_p(_image_columns(ansatz, lower, residues), residues[0])
        if low + low_image == n:
            return 0, []
    image = _image_columns(ansatz, lower)
    index = {}
    columns = _delta_columns(ansatz, index)
    closed = nullspace(_rows(columns, len(index)), d, ncols=n)
    if not closed:
        return 0, []
    ech = Echelon()
    for col in image:
        ech.insert(col)
    reps = [ansatz.morphism(vecv) for vecv in closed if ech.insert(vecv)]
    return len(reps), reps


def _charge_window(gs: MBF, gt: MBF, parity: int) -> Rat:
    """Inclusive upper bound, in q_x units, on the charge of a non-zero class
    of H(X, Y) of the given parity, X = gs and Y = gt.

    Lower bound: every block entry of a morphism is a polynomial of degree
    >= 0, so a homogeneous non-zero morphism Y -> X of parity p has charge at
    least L(Y, X), the least c_X(leg + p)[i] - c_Y(leg)[j] over both legs.

    Upper bound: for graded matrix factorisations of W = a^d - b^d (two
    variables of charge q_x = 2/d) the Serre functor is the shift [2], which
    keeps the parity, followed by a charge shift of ĉ = Σ(1 - q_i) = 2 - 4/d,
    that is d - 2 in q_x units (the boundary pairing of Kapustin and Li,
    "D-branes in Landau-Ginzburg models and algebraic geometry", JHEP 2003;
    Murfet, "Residues and duality for singularity categories of isolated
    Gorenstein singularities", Compositio 2013).  So
    H^q(X, Y) ≅ H^(ĉ-q)(Y, X)^* with the same parity, and a non-zero class
    of H(X, Y) has ĉ - q >= L(Y, X), i.e. q <= (d - 2) - L(Y, X).
    """
    low = min(cx - cy for leg in (0, 1)
              for cx in gs.charges(leg + parity) for cy in gt.charges(leg))
    return gs.shape.conductor - 2 - low


def hom_space(gs: MBF, gt: MBF, charge="all", parity: int = 0) -> HomSpace:
    """Cohomology classes of morphisms gs -> gt, per exact charge sector;
    both objects must be graded, and a differential off charge d/2 in its
    object's grading (`graded_validate`) raises VerificationError.  So does
    an object that is not an exact factorisation of its potential
    (`validate_mbf` not ok with mode "exact") or a pair of different
    potentials: the emptiness certificate of `_solve_sector` rests on
    delta^2 = 0, which holds when both are factorisations of one W.

    `charge` is an actual R-charge (rational), whose sector is kept even when
    empty, or "all", which solves exactly the sectors inside the proved Serre
    window: every charge deg + c_target(i) - c_source(j) with deg >= 0 up to
    `_charge_window`, and keeps the non-empty ones.  The window is proved
    for every pair of graded 2-slot objects: entries of degree >= 0 bound the
    charge of Y -> X from below by L(Y, X), and Serre duality,
    H^q(X, Y) ≅ H^(ĉ-q)(Y, X)^* with ĉ = 2 - 4/d and the same parity
    (Kapustin and Li, JHEP 2003; Murfet, Compositio 2013), turns that into
    q <= ĉ - L(Y, X); `_charge_window` spells the argument out.

    Between rank-one defects P_S -> P_T, with A = S & T, B = S - T,
    C = T - S and D the residues in neither, a closed even morphism is
    (p_C h, p_B h) and it is exact iff h lies in (p_A, p_D); a closed odd one
    is (p_D k, p_A k), exact iff k lies in (p_B, p_C).  So the even classes
    have dimension |A|*|D| and the odd ones |B|*|C|.
    """
    for D in (gs,) if gs is gt else (gs, gt):
        rep = graded_validate(D)
        if not rep["ok"]:
            raise VerificationError(f"differential off charge d/2: {rep['violations']}")
        rep = validate_mbf(D)
        if not rep.ok or rep.mode != "exact":
            raise VerificationError(
                f"not an exact factorisation of its potential ({rep.mode}): {rep.violations}")
    if gs.w != gt.w:
        raise VerificationError("source and target potentials differ")
    d = gs.shape.conductor
    qx = Rat(2, d)
    if charge == "all":
        scale, blocks = _blocks(gs, gt, parity % 2)
        top = int(_charge_window(gs, gt, parity) * scale)
        todo = [Rat(u, scale) for u in sorted({deg * scale - offset
                                               for *_, offset in blocks
                                               for deg in range((top + offset) // scale + 1)})]
    else:
        todo = [Rat(charge) / qx]
    sectors = []
    for units in todo:
        dim, reps = _solve_sector(gs, gt, units, parity)
        if dim > 0 or charge != "all":
            sectors.append(HomSector(units * qx, dim, reps))
    return HomSpace(sectors)


def is_null_homotopic(phi: Morphism):
    """Exact witness psi with delta(psi) = phi, or None (a certified No).

    phi must be a charge-homogeneous map between graded 2-slot objects, read
    through its generator matrices; homogeneity makes the forced-sector
    ansatz complete, so failure is a proof.
    """
    legs = (phi.opE.matrix(), phi.opO.matrix())
    if not any(p for pm in legs for row in pm for p in row):
        return Morphism.zero(phi.src, phi.dst, 1 + phi.parity)
    q = morphism_charge(phi)
    if q is NotHomogeneous:
        raise ValueError("morphism mixes charge sectors")
    d = phi.src.shape.conductor
    units = q / Rat(2, d)
    half = Rat(d, 2)
    lower = _Ansatz(phi.src, phi.dst, 1 + phi.parity, units - half)
    if not len(lower):
        return None
    index = {}
    columns = _delta_columns(lower, index)
    rhs = {}
    for leg, pm in enumerate(legs):
        for i, row in enumerate(pm):
            for j, poly in enumerate(row):
                for e, c in poly.terms.items():
                    rhs[index.setdefault((leg, i, j, e), len(index))] = c
    sol = solve(_rows(columns, len(index)), rhs, d, ncols=len(lower))
    if sol is None:
        return None
    return lower.morphism(sol)
