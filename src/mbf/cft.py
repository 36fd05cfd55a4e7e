"""Quantum 6j-symbols and coset label combinatorics for minimal-model defects.

Three ingredient categories enter.  The su(2) block at level k carries the
quantum 6j-symbols built from q-numbers [n] = sin(pi n/(k+2))/sin(pi/(k+2)).
The rational torus block of order 2N contributes twist and braiding phases and
a sign-valued fusing cocycle.  Labels [l, m, s] of the level d-2 coset obey
the parity rule l+m+s even and the identification
[l, m, s] = [d-2-l, m+d, s+2]; fusion adds the torus parts and couples the
su(2) parts in steps of two.

Numerical policy: 6j labels are doubled spins (ints), and 6j values are
mpmath floats evaluated at a configurable bit precision (default 128).
Admissible entries forced by a unit label in one of the outer slots are
exactly mpf(1), so coherence sweeps can assert them with equality instead of
a tolerance.  Inadmissible label combinations give value 0 rather than an
error, which keeps pentagon sweeps free of special cases.

mpmath is loaded on the first numeric call: each function that computes a
float imports it when it runs.  The label algebra (`su2_fuse`,
`admissible_sixj_labels`, `MMLabel` and the `mm_*` functions,
`chiral_charge`, `defect_spectrum`) imports nothing numeric, and the
exact-side commands never load it.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from operator import itemgetter

from . import VerificationError
from ._rat import Rat

DEFAULT_PREC = 128

# extra working bits so that returned digits are stable at the nominal precision
_GUARD_BITS = 30


# ---------------------------------------------------------------------------
# q-numbers


@functools.lru_cache(maxsize=None)
def qnum(k: int, n: int, prec: int = DEFAULT_PREC):
    """The q-number [n] at level k, as an mpmath float.

    [n] = sin(pi n/(k+2)) / sin(pi/(k+2)).  Multiples of k+2 give an exact
    zero rather than a rounded sine.  Memoised per (k, n, prec): the value
    is rounded at prec + _GUARD_BITS whatever the ambient precision, so one
    evaluation serves every caller.
    """
    import mpmath

    if k < 0:
        raise ValueError("level must be >= 0")
    n = int(n)
    if n % (k + 2) == 0:
        return mpmath.mpf(0)
    with mpmath.workprec(prec + _GUARD_BITS):
        return +(mpmath.sinpi(mpmath.mpf(n) / (k + 2)) / mpmath.sinpi(mpmath.mpf(1) / (k + 2)))


@functools.lru_cache(maxsize=None)
def _qfacts(k: int, prec: int) -> list:
    """[0]!, [1]!, ... at level k, as far as `qfact` has extended them."""
    import mpmath

    return [mpmath.mpf(1)]


def qfact(k: int, n: int, prec: int = DEFAULT_PREC):
    """The q-factorial [n]! at level k, with [0]! = 1."""
    import mpmath

    k, n, prec = int(k), int(n), int(prec)
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    facts = _qfacts(k, prec)  # a loop, not a recursion: no depth limit at large k
    while len(facts) <= n:
        with mpmath.workprec(prec + _GUARD_BITS):
            facts.append(+(facts[-1] * qnum(k, len(facts), prec)))
    return facts[n]


# ---------------------------------------------------------------------------
# su(2) level k: brace symbol and fusing-matrix entries


def _admissible2(k: int, x2: int, y2: int, z2: int) -> bool:
    """Level-k admissibility of a spin triple, arguments doubled."""
    if min(x2, y2, z2) < 0 or max(x2, y2, z2) > k:
        return False
    if (x2 + y2 + z2) % 2:
        return False
    return abs(x2 - y2) <= z2 <= x2 + y2 and x2 + y2 + z2 <= 2 * k


@functools.lru_cache(maxsize=None)
def _tri2(k: int, x2: int, y2: int, z2: int, prec: int):
    # sqrt([-x+y+z]! [x-y+z]! [x+y-z]! / [x+y+z+1]!), arguments doubled
    import mpmath

    with mpmath.workprec(prec + _GUARD_BITS):
        num = (
            qfact(k, (-x2 + y2 + z2) // 2, prec)
            * qfact(k, (x2 - y2 + z2) // 2, prec)
            * qfact(k, (x2 + y2 - z2) // 2, prec)
        )
        return +mpmath.sqrt(num / qfact(k, (x2 + y2 + z2) // 2 + 1, prec))


@functools.lru_cache(maxsize=None)
def _brace2(k, a2, b2, e2, d2, c2, f2, prec):
    """{a b e; d c f} with doubled arguments; 0 when inadmissible."""
    import mpmath

    triads = ((a2, b2, e2), (a2, c2, f2), (c2, e2, d2), (d2, b2, f2))
    if not all(_admissible2(k, *t) for t in triads):
        return mpmath.mpf(0)
    with mpmath.workprec(prec + _GUARD_BITS):
        delta = mpmath.mpf(1)
        for x2, y2, z2 in triads:
            delta *= _tri2(k, x2, y2, z2, prec)
        weight = mpmath.sqrt(qnum(k, e2 + 1, prec) * qnum(k, f2 + 1, prec))
        # a+b-c-d is an integer for admissible labels, so the sign is well defined
        sign_exp = (a2 + b2 - c2 - d2) // 2 - e2
        zmin = max(
            (a2 + b2 + e2) // 2,
            (a2 + c2 + f2) // 2,
            (b2 + d2 + f2) // 2,
            (c2 + d2 + e2) // 2,
        )
        zmax = min(
            (a2 + b2 + c2 + d2) // 2,
            (a2 + d2 + e2 + f2) // 2,
            (b2 + c2 + e2 + f2) // 2,
        )
        acc = mpmath.mpf(0)
        for z in range(zmin, zmax + 1):
            if z + 1 >= k + 2:
                continue  # [z+1]! contains the vanishing q-number [k+2]
            den = (
                qfact(k, z - (a2 + b2 + e2) // 2, prec)
                * qfact(k, z - (a2 + c2 + f2) // 2, prec)
                * qfact(k, z - (b2 + d2 + f2) // 2, prec)
                * qfact(k, z - (c2 + d2 + e2) // 2, prec)
                * qfact(k, (a2 + b2 + c2 + d2) // 2 - z, prec)
                * qfact(k, (a2 + d2 + e2 + f2) // 2 - z, prec)
                * qfact(k, (b2 + c2 + e2 + f2) // 2 - z, prec)
            )
            acc += (-1) ** z * qfact(k, z + 1, prec) / den
        return +((-1) ** sign_exp * weight * delta * acc)


def sixj(k, a, b, e, d, c, f, prec: int = DEFAULT_PREC):
    """The brace symbol {a b e; d c f} at level k, as an mpmath float.

    The labels are doubled spins (ints), in brace order: 1 is spin 1/2.
    Inadmissible labels, those above k included, give 0.  In the spins, the
    symbol is the product of the four triangle factors Delta(a,b,e),
    Delta(a,c,f), Delta(c,e,d), Delta(d,b,f), the weight sqrt([2e+1][2f+1]),
    the sign (-1)^(a+b-c-d-2e) and the alternating z-sum over q-factorials.
    The symbol is invariant under exchanging the upper and lower entries in
    any two of the three columns (but not under column permutations, which
    reweight it).
    """
    labels = (a, b, e, d, c, f)
    if not all(isinstance(x, int) for x in labels):
        raise ValueError(f"6j labels are doubled spins (ints), got {labels!r}")
    k = int(k)
    if k < 0:
        raise ValueError("level must be >= 0")
    return _brace2(k, *labels, int(prec))


def su2_fusing(k, r, s, t, u, p, q, prec: int = DEFAULT_PREC):
    """Fusing-matrix entry F^(rst)u_pq of the level-k su(2) block, as an
    mpmath float.

    Doubled-spin labels 0..k.  Equals the brace symbol `sixj(k, t, s, p, r,
    u, q)`, that is {t/2 s/2 p/2; r/2 u/2 q/2}.  A unit label among r, s, t
    forces the entry to a Kronecker pattern; those entries come back as
    exactly mpf(1) (admissibility already encodes the deltas, so every
    admissible forced entry is 1).  Inadmissible entries are 0.
    """
    import mpmath

    for x in (r, s, t, u, p, q):
        if not isinstance(x, int):
            raise ValueError(f"6j labels are doubled spins (ints), got {x!r}")
        if not 0 <= x <= k:
            raise ValueError(f"label {x} outside 0..{k}")
    if 0 in (r, s, t):
        triads = ((t, s, p), (t, u, q), (u, p, r), (r, s, q))
        return mpmath.mpf(1 if all(_admissible2(k, *tr) for tr in triads) else 0)
    return _brace2(k, t, s, p, r, u, q, prec)


def su2_fuse(k: int, i: int, j: int) -> tuple[int, ...]:
    """Fusion channels of labels i, j at level k: |i-j| .. min(i+j, 2k-i-j)."""
    for x in (i, j):
        if not 0 <= x <= k:
            raise ValueError(f"label {x} outside 0..{k}")
    return tuple(range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2))


def admissible_sixj_labels(k: int):
    """Yield every doubled (a, b, e, d, c, f) in 0..k whose four triads
    (a, b, e), (a, c, f), (c, e, d), (d, b, f) are admissible at level k,
    in the lexicographic order of ``itertools.product(range(k + 1), repeat=6)``.

    e and c run over the channels of (a, b) and (e, d), f over those of
    (a, c) filtered by (d, b, f), so no inadmissible tuple is built: a triad
    is admissible exactly when its third label is a channel of the other two.
    """
    labels = range(k + 1)
    for a, b in itertools.product(labels, repeat=2):
        for e in su2_fuse(k, a, b):
            for d in labels:
                for c in su2_fuse(k, e, d):
                    for f in su2_fuse(k, a, c):
                        if _admissible2(k, d, b, f):
                            yield (a, b, e, d, c, f)


# ---------------------------------------------------------------------------
# torus block of order 2N


def u1_data(N: int, kind: str, *labels: int, prec: int = DEFAULT_PREC):
    """Twist, braiding or fusing datum of the order-2N torus block.

    theta(k) = exp(-pi i k^2/(2N)); R(k, l) = exp(-pi i k l/(2N));
    F(r, s, t) = (-1)^(r sigma(s+t)) with sigma(x) = 1 iff x >= 2N.
    Labels must lie in range(2N).  F is exact and returned as an int, so
    mpmath is imported only for theta and R: F is called in loops.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    arity = {"theta": 1, "R": 2, "F": 3}
    if kind not in arity:
        raise ValueError(f"kind must be one of {sorted(arity)}, got {kind!r}")
    if len(labels) != arity[kind]:
        raise ValueError(f"{kind} takes {arity[kind]} label(s), got {len(labels)}")
    labels = tuple(int(x) for x in labels)
    for x in labels:
        if not 0 <= x < 2 * N:
            raise ValueError(f"label {x} outside range(2N={2 * N})")
    if kind == "F":
        r, s, t = labels
        sigma = 1 if s + t >= 2 * N else 0
        return (-1) ** (r * sigma)
    import mpmath

    with mpmath.workprec(prec + _GUARD_BITS):
        if kind == "theta":
            (kk,) = labels
            return +mpmath.expjpi(mpmath.mpf(-(kk * kk)) / (2 * N))
        kk, ll = labels
        return +mpmath.expjpi(mpmath.mpf(-(kk * ll)) / (2 * N))


def u1_cocycle_check(N: int) -> bool:
    """Exact pentagon sweep for the torus sign cocycle at order 2N.

    psi(a, b, c) = F(a, b, c) must satisfy
    psi(b,c,d) psi(a,[b+c],d) psi(a,b,c) = psi(a,b,[c+d]) psi([a+b],c,d)
    over all of (Z_2N)^4, in integer arithmetic.
    """
    M = 2 * N

    def psi(r, s, t):
        return u1_data(N, "F", r, s, t)

    for a, b, c, d in itertools.product(range(M), repeat=4):
        lhs = psi(b, c, d) * psi(a, (b + c) % M, d) * psi(a, b, c)
        rhs = psi(a, b, (c + d) % M) * psi((a + b) % M, c, d)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# coset labels [l, m, s]


class MMLabel(tuple):
    """Canonical label [l, m, s] of the level d-2 coset.

    Construct through mm_normalize; direct construction expects an already
    canonical triple (0 <= l <= d-2, m reduced mod 2d, s in {0, 1}, parity
    even).  An immutable tuple (d, l, m, s): equality, hash and order are
    those of the tuple.
    """

    __slots__ = ()

    def __new__(cls, d: int, l: int, m: int, s: int):
        if d < 3:
            raise ValueError("d must be >= 3")
        if not 0 <= l <= d - 2:
            raise ValueError(f"l={l} outside 0..{d - 2}")
        if not 0 <= m < 2 * d:
            raise ValueError(f"m={m} not reduced mod {2 * d}")
        if s not in (0, 1):
            raise ValueError(f"s={s} is not the preferred orbit representative")
        if (l + m + s) % 2:
            raise ValueError("parity: l+m+s must be even")
        return tuple.__new__(cls, (d, l, m, s))

    d = property(itemgetter(0))
    l = property(itemgetter(1))
    m = property(itemgetter(2))
    s = property(itemgetter(3))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return "MMLabel(d={!r}, l={!r}, m={!r}, s={!r})".format(*self)

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.l, self.m, self.s)

    def dual(self) -> "MMLabel":
        """Charge conjugate label [l, -m, -s]."""
        return mm_normalize(self.d, self.l, -self.m, -self.s)

    def __str__(self) -> str:
        return f"[{self.l},{self.m},{self.s}]"


def mm_normalize(d: int, l: int, m: int, s: int) -> MMLabel:
    """Canonical orbit representative of (l, m, s).

    The orbit is {(l, m, s), (d-2-l, m+d, s+2)}; exactly one member has
    s in {0, 1} and that one is returned.  (A lexicographic tie-break would
    apply if both did, but the two s values always differ by 2 mod 4.)
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if not 0 <= l <= d - 2:
        raise ValueError(f"l={l} outside 0..{d - 2}")
    m %= 2 * d
    s %= 4
    if (l + m + s) % 2:
        raise ValueError("parity: l+m+s must be even")
    if s >= 2:
        l, m, s = d - 2 - l, (m + d) % (2 * d), s - 2
    return MMLabel(d, l, m, s)


def mm_labels(d: int) -> list[MMLabel]:
    """All canonical labels at a given d, sorted; there are (d-1)*2d of them."""
    out = []
    for l in range(d - 1):
        for m in range(2 * d):
            s = (l + m) % 2
            out.append(MMLabel(d, l, m, s))
    return sorted(out)


def mm_fuse(x: MMLabel, y: MMLabel) -> list[MMLabel]:
    """Fusion product as a sorted list of canonical labels.

    The su(2) parts couple as `su2_fuse` at level k = d - 2; the torus parts
    add.  Distinct channels land on distinct orbits, so the result is
    multiplicity free.
    """
    if x.d != y.d:
        raise ValueError("labels live at different d")
    d = x.d
    return sorted(mm_normalize(d, u, x.m + y.m, x.s + y.s)
                  for u in su2_fuse(d - 2, x.l, y.l))


def chiral_charge(d: int, l: int) -> Rat:
    """U(1) charge l/d of the chiral primary in the representation [l, l, 0]."""
    if not 0 <= l <= d - 2:
        raise ValueError(f"l={l} outside 0..{d - 2}")
    return Rat(l, d)


def defect_spectrum(
    d: int, u: int, n: int = 0, chiral_only: bool = False
) -> list[tuple[MMLabel, MMLabel]]:
    """Bosonic defect-changing spectrum from [0, 2n, 0] to [u, u+2n, 0].

    Returns (left, right) label pairs.  A pair (x, y) belongs to the full
    spectrum when the target channel t occurs in the fusion of x with the
    m-reflected y.  The target is the single channel of dual(source) fused
    with the destination; it always comes out as [u, u, 0], which makes the
    n-independence a checked fact rather than an assumption.

    The pairs are found with one fusion per x, not one per (x, y): by the
    symmetry N_{x,z}^t = N_{dual(x),t}^z of the fusion rules (Verlinde,
    Nucl. Phys. B300, 1988), t occurs in x (x) z exactly when z occurs in
    dual(x) (x) t.  Here that is plain: su(2) level-k admissibility of a spin
    triple is symmetric in the triple, and the torus parts add.  The
    m-reflection is an involution on canonical labels, so the partners of x
    are the reflections of dual(x) (x) t, sorted in the order of mm_labels.

    With chiral_only the list restricts to the pairs carrying chiral
    primaries, ([u+l, u+l, 0], [l, l, 0]) for 0 <= l <= d-u-2.
    """
    if not 0 <= u <= d - 2:
        raise ValueError(f"u={u} outside 0..{d - 2}")
    src = mm_normalize(d, 0, 2 * n, 0)
    dst = mm_normalize(d, u, u + 2 * n, 0)
    fused = mm_fuse(src.dual(), dst)
    if fused != [mm_normalize(d, u, u, 0)]:
        raise VerificationError(f"target channel must be [u,u,0], got {[str(c) for c in fused]}")
    target = fused[0]
    if chiral_only:
        return [
            (mm_normalize(d, u + l, u + l, 0), mm_normalize(d, l, l, 0))
            for l in range(d - u - 1)
        ]
    return [
        (x, y)
        for x in mm_labels(d)
        for y in sorted(mm_normalize(d, z.l, -z.m, z.s) for z in mm_fuse(x.dual(), target))
    ]


# ---------------------------------------------------------------------------
# worked fusing examples and the gauge action


def cft_fusing_examples(d: int, which: str, prec: int = DEFAULT_PREC):
    """Three worked fusing computations in the defect category at level d-2.

    which = "groupLike": the scalar relating the two bracketings of a triple
      of group-like defects [0,2i,0], computed for every (i,j,k) in (Z_d)^3
      from the su(2) unit entry and the torus cocycle; all d^3 values agree
      and the common exact integer is returned.
    which = "sign": the scalar for ([d-2,0,0] x [f,f,0]) x [d-2,0,0] with
      f = d/2-1, for even d >= 4; a numerically evaluated 6j-symbol snapped
      to the nearest integer after a doubled-precision drift check.
    which = "twoByTwo": the 2x2 matrix coupling three copies of [1,1,0] into
      [1,3,0], rows and columns indexed by the middle su(2) channel p, q in
      {0, 2}; returned as a nested tuple of mpmath floats.
    """
    import mpmath

    if d < 3:
        raise ValueError("d must be >= 3")
    k = d - 2
    if which == "groupLike":
        unit = su2_fusing(k, 0, 0, 0, 0, 0, 0, prec=prec)
        if unit != 1:
            raise VerificationError(f"su(2) unit entry is {unit}, not 1")
        unit = int(unit)
        values = {
            unit * u1_data(d, "F", 2 * i % (2 * d), 2 * j % (2 * d), 2 * kk % (2 * d))
            for i, j, kk in itertools.product(range(d), repeat=3)
        }
        if len(values) != 1:
            raise VerificationError(f"group-like scalars are not constant: {sorted(values)}")
        return values.pop()
    if which == "sign":
        if d % 2 or d < 4:
            raise ValueError("the sign example needs even d >= 4")
        f = d // 2 - 1
        torus = u1_data(d, "F", 0, f, 0)
        with mpmath.workprec(2 * prec + _GUARD_BITS):
            val = su2_fusing(k, k, f, k, f, f, f, prec=prec) * torus
            check = su2_fusing(k, k, f, k, f, f, f, prec=2 * prec) * torus
            snapped = int(mpmath.nint(val))
            tol = mpmath.mpf("1e-10")
            bad = abs(val - snapped) > tol or abs(check - snapped) > tol
        if bad:
            raise VerificationError(f"sign example failed to settle on an integer: {val}")
        return snapped
    if which == "twoByTwo":
        if d < 4:
            raise ValueError("the 2x2 example needs d >= 4")
        torus = u1_data(d, "F", 1, 1, 1)

        def entry(p, q, bits):
            return su2_fusing(k, 1, 1, 1, 1, p, q, prec=bits) * torus

        rows = []
        for p in (0, 2):
            row = []
            for q in (0, 2):
                v = entry(p, q, prec)
                with mpmath.workprec(2 * prec + _GUARD_BITS):
                    drift = abs(v - entry(p, q, 2 * prec))
                if drift > mpmath.mpf("1e-12"):
                    raise VerificationError(f"entry ({p},{q}) drifts by {drift} under re-evaluation")
                row.append(v)
            rows.append(tuple(row))
        return tuple(rows)
    raise ValueError(f"unknown example {which!r}")


def fusing_ratio(F):
    """The rescaling-invariant combination F00 F22 / (F02 F20) of a 2x2 table."""
    return F[0][0] * F[1][1] / (F[0][1] * F[1][0])


def fusing_ratio_closed_form(d: int):
    """-1/(1 + 2 cos(2 pi/d)), the value of `fusing_ratio` on the twoByTwo
    example, at the current mpmath precision."""
    import mpmath

    return -1 / (1 + 2 * mpmath.cospi(mpmath.mpf(2) / d))


def gauge_transform(F, scalars: Sequence):
    """Rescale the six junction-basis vectors entering the twoByTwo example.

    scalars = (g1, ..., g6) multiply, in order, the basis vectors for
      (1,1)(0,2)->(1,3),  (1,1)(2,2)->(1,3),  (0,2)(1,1)->(1,3),
      (2,2)(1,1)->(1,3),  (1,1)(1,1)->(0,2),  (1,1)(1,1)->(2,2).
    The entries transform as
      F00 -> (g3/g1) F00            F02 -> (g4 g6)/(g1 g5) F02
      F20 -> (g3 g5)/(g2 g6) F20    F22 -> (g4/g2) F22
    which leaves fusing_ratio unchanged.  All scalars must be nonzero.
    """
    if len(scalars) != 6:
        raise ValueError("exactly six rescaling constants are required")
    g1, g2, g3, g4, g5, g6 = scalars
    if any(g == 0 for g in scalars):
        raise ValueError("rescaling constants must be nonzero")
    return (
        (g3 / g1 * F[0][0], g4 * g6 / (g1 * g5) * F[0][1]),
        (g3 * g5 / (g2 * g6) * F[1][0], g4 / g2 * F[1][1]),
    )


# ---------------------------------------------------------------------------
# pentagon sweep


def pentagon_residuals(k: int, prec: int = DEFAULT_PREC):
    """Yield ((a, b, c, d, e), residual) over admissible fused 4-tuples.

    For each way of fusing a x b x c x d into e the identity
      F^(abl)e_kq F^(qcd)e_lm = sum_h F^(bcd)k_lh F^(ahd)e_km F^(abc)m_hq
    must hold for all channel choices; the reported residual is the largest
    |lhs - rhs| over the channels of that 5-tuple.  Every label runs over
    0..k.

    The sweep works on raw mpmath values (`_mpf_` tuples) with the libmp
    calls that the mpf operators make, at prec + _GUARD_BITS and
    round-to-nearest whatever the ambient precision.  Rounding is not
    associative, so the fixed order is what keeps the residual bits: lhs is
    one product, rhs sums (F F) F from zero over h in channel order, and the
    worst |lhs - rhs| is replaced only by a strictly larger one.
    """
    import mpmath
    from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_gt, mpf_mul, mpf_sub, round_nearest

    wp, rnd = prec + _GUARD_BITS, round_nearest
    labels = range(k + 1)
    fuse = {(i, j): su2_fuse(k, i, j) for i in labels for j in labels}
    fset = {ij: frozenset(ch) for ij, ch in fuse.items()}
    cache = {}

    def F(r, s, t, u, p, q):
        key = (r, s, t, u, p, q)
        if key not in cache:
            cache[key] = su2_fusing(k, r, s, t, u, p, q, prec=prec)._mpf_
        return cache[key]

    for a, b, c, d, e in itertools.product(labels, repeat=5):
        worst = fzero
        seen = False
        for l in fuse[c, d]:
            for kk in fuse[b, l]:
                if e not in fset[a, kk]:
                    continue
                for q in fuse[a, b]:
                    for m in fuse[q, c]:
                        if e not in fset[m, d]:
                            continue
                        seen = True
                        lhs = mpf_mul(F(a, b, l, e, kk, q), F(q, c, d, e, l, m), wp, rnd)
                        rhs = fzero
                        for h in fuse[b, c]:
                            term = mpf_mul(F(b, c, d, kk, l, h), F(a, h, d, e, kk, m), wp, rnd)
                            rhs = mpf_add(rhs, mpf_mul(term, F(a, b, c, m, h, q), wp, rnd), wp, rnd)
                        diff = mpf_abs(mpf_sub(lhs, rhs, wp, rnd), wp, rnd)
                        if mpf_gt(diff, worst):
                            worst = diff
        if seen:
            yield (a, b, c, d, e), mpmath.make_mpf(worst)


def pentagon_check(k: int, prec: int = DEFAULT_PREC) -> float:
    """Largest pentagon residual over every 5-tuple (0.0 if none)."""
    import mpmath

    best = mpmath.mpf(0)
    for _tuple, res in pentagon_residuals(k, prec):
        if res > best:
            best = res
    return float(best)
