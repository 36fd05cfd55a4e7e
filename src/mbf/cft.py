"""Quantum 6j-symbols and coset label combinatorics for minimal-model defects.

Three ingredient categories enter.  The su(2) block at level k carries the
quantum 6j-symbols built from q-numbers [n] = sin(pi n/(k+2))/sin(pi/(k+2)).
The rational torus block of order 2N contributes twist and braiding phases and
a sign-valued fusing cocycle.  Labels [l, m, s] of the level d-2 coset obey
the parity rule l+m+s even and the identification
[l, m, s] = [d-2-l, m+d, s+2]; fusion adds the torus parts and couples the
su(2) parts in steps of two.

Numerical policy: 6j values are evaluated with mpmath at a configurable bit
precision (default 128).  Entries forced by a unit label in one of the outer
slots are returned as exact integers, so coherence sweeps can assert them
with equality instead of a tolerance.  Inadmissible label combinations give
value 0 with ``admissible=False`` rather than an error, which keeps pentagon
sweeps free of special cases.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from mpmath import mp

from . import VerificationError
from ._rat import Rat

DEFAULT_PREC = 128

# extra working bits so that returned digits are stable at the nominal precision
_GUARD_BITS = 30


# ---------------------------------------------------------------------------
# q-numbers


def qnum(k: int, n: int, prec: int = DEFAULT_PREC):
    """The q-number [n] at level k, as an mpmath float.

    [n] = sin(pi n/(k+2)) / sin(pi/(k+2)).  Multiples of k+2 give an exact
    zero rather than a rounded sine.
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    n = int(n)
    if n % (k + 2) == 0:
        return mp.mpf(0)
    with mp.workprec(prec + _GUARD_BITS):
        return +(mp.sinpi(mp.mpf(n) / (k + 2)) / mp.sinpi(mp.mpf(1) / (k + 2)))


@functools.lru_cache(maxsize=None)
def _qfact(k: int, n: int, prec: int):
    if n == 0:
        return mp.mpf(1)
    with mp.workprec(prec + _GUARD_BITS):
        return +(_qfact(k, n - 1, prec) * qnum(k, n, prec))


def qfact(k: int, n: int, prec: int = DEFAULT_PREC):
    """The q-factorial [n]! at level k, with [0]! = 1."""
    n = int(n)
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    return _qfact(int(k), n, int(prec))


# ---------------------------------------------------------------------------
# su(2) level k: brace symbol and fusing-matrix entries


def _doubled(x) -> int:
    # accepts 1, Fraction(1,2), 0.5; rejects anything that is not a half-integer
    q = Fraction(x)
    two = 2 * q
    if two.denominator != 1:
        raise ValueError(f"not a half-integer: {x!r}")
    return int(two)


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
    with mp.workprec(prec + _GUARD_BITS):
        num = (
            qfact(k, (-x2 + y2 + z2) // 2, prec)
            * qfact(k, (x2 - y2 + z2) // 2, prec)
            * qfact(k, (x2 + y2 - z2) // 2, prec)
        )
        return +mp.sqrt(num / qfact(k, (x2 + y2 + z2) // 2 + 1, prec))


@functools.lru_cache(maxsize=None)
def _brace2(k, a2, b2, e2, d2, c2, f2, prec):
    """{a b e; d c f} with doubled arguments, or None when inadmissible."""
    triads = ((a2, b2, e2), (a2, c2, f2), (c2, e2, d2), (d2, b2, f2))
    if not all(_admissible2(k, *t) for t in triads):
        return None
    with mp.workprec(prec + _GUARD_BITS):
        delta = mp.mpf(1)
        for x2, y2, z2 in triads:
            delta *= _tri2(k, x2, y2, z2, prec)
        weight = mp.sqrt(qnum(k, e2 + 1, prec) * qnum(k, f2 + 1, prec))
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
        acc = mp.mpf(0)
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


@dataclass(frozen=True)
class SixJValue:
    """A brace-symbol evaluation; echoes its inputs.

    ``value`` is an mpmath float (exact integer 0 or 1 in forced cases) and
    ``admissible`` records whether the four coupling triples pass the level
    truncation.  Inadmissible symbols carry value 0.
    """

    k: int
    labels: Tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]
    value: object
    admissible: bool

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        a, b, e, d, c, f = self.labels
        flag = "" if self.admissible else ", inadmissible"
        return f"SixJValue(k={self.k}, {{{a} {b} {e}; {d} {c} {f}}} = {self.value}{flag})"


def sixj(k, a, b, e, d, c, f, prec: int = DEFAULT_PREC) -> SixJValue:
    """The brace symbol {a b e; d c f} at level k, half-integer arguments.

    Products of the four triangle factors Delta(a,b,e), Delta(a,c,f),
    Delta(c,e,d), Delta(d,b,f), the weight sqrt([2e+1][2f+1]), the sign
    (-1)^(a+b-c-d-2e) and the alternating z-sum over q-factorials.  The
    symbol is invariant under exchanging the upper and lower entries in any
    two of the three columns (but not under column permutations, which
    reweight it).
    """
    k = int(k)
    if k < 0:
        raise ValueError("level must be >= 0")
    labels = tuple(Fraction(x) for x in (a, b, e, d, c, f))
    doubled = tuple(_doubled(x) for x in labels)
    raw = _brace2(k, *doubled, int(prec))
    if raw is None:
        return SixJValue(k, labels, mp.mpf(0), False)
    return SixJValue(k, labels, raw, True)


def su2_fusing(k, r, s, t, u, p, q, prec: int = DEFAULT_PREC) -> SixJValue:
    """Fusing-matrix entry F^(rst)u_pq of the level-k su(2) block.

    Integer labels 0..k.  Equals the brace symbol of the halved labels,
    {t/2 s/2 p/2; r/2 u/2 q/2}.  A unit label among r, s, t forces the entry
    to a Kronecker pattern; those entries come back as exact 1 (admissibility
    already encodes the deltas, so every admissible forced entry is 1).
    """
    ints = (int(r), int(s), int(t), int(u), int(p), int(q))
    r, s, t, u, p, q = ints
    for x in ints:
        if not 0 <= x <= k:
            raise ValueError(f"label {x} outside 0..{k}")
    labels = tuple(Fraction(x, 2) for x in (t, s, p, r, u, q))
    triads = ((t, s, p), (t, u, q), (u, p, r), (r, s, q))
    if not all(_admissible2(k, *tr) for tr in triads):
        return SixJValue(k, labels, mp.mpf(0), False)
    if 0 in (r, s, t):
        return SixJValue(k, labels, mp.mpf(1), True)
    return sixj(k, *labels, prec=prec)


def su2_fuse(k: int, i: int, j: int) -> Tuple[int, ...]:
    """Fusion channels of labels i, j at level k: |i-j| .. min(i+j, 2k-i-j)."""
    for x in (i, j):
        if not 0 <= x <= k:
            raise ValueError(f"label {x} outside 0..{k}")
    return tuple(range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2))


# ---------------------------------------------------------------------------
# torus block of order 2N


def u1_data(N: int, kind: str, *labels: int, prec: int = DEFAULT_PREC):
    """Twist, braiding or fusing datum of the order-2N torus block.

    theta(k) = exp(-pi i k^2/(2N)); R(k, l) = exp(-pi i k l/(2N));
    F(r, s, t) = (-1)^(r sigma(s+t)) with sigma(x) = 1 iff x >= 2N.
    Labels must lie in range(2N).  F is exact and returned as an int.
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
    with mp.workprec(prec + _GUARD_BITS):
        if kind == "theta":
            (kk,) = labels
            return +mp.expjpi(mp.mpf(-(kk * kk)) / (2 * N))
        kk, ll = labels
        return +mp.expjpi(mp.mpf(-(kk * ll)) / (2 * N))


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


@dataclass(frozen=True, order=True)
class MMLabel:
    """Canonical label [l, m, s] of the level d-2 coset.

    Construct through mm_normalize; direct construction expects an already
    canonical triple (0 <= l <= d-2, m reduced mod 2d, s in {0, 1}, parity
    even).
    """

    d: int
    l: int
    m: int
    s: int

    def __post_init__(self):
        d, l, m, s = self.d, self.l, self.m, self.s
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

    @property
    def triple(self) -> Tuple[int, int, int]:
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


def mm_labels(d: int) -> List[MMLabel]:
    """All canonical labels at a given d, sorted; there are (d-1)*2d of them."""
    out = []
    for l in range(d - 1):
        for m in range(2 * d):
            s = (l + m) % 2
            out.append(MMLabel(d, l, m, s))
    return sorted(out)


def mm_fuse(x: MMLabel, y: MMLabel) -> List[MMLabel]:
    """Fusion product as a sorted list of canonical labels.

    The su(2) parts couple from |l-l'| to min(l+l', 2d-4-l-l') in steps of
    two; the torus parts add.  Distinct channels land on distinct orbits, so
    the result is multiplicity free.
    """
    if x.d != y.d:
        raise ValueError("labels live at different d")
    d = x.d
    top = min(x.l + y.l, 2 * d - 4 - x.l - y.l)
    return sorted(
        mm_normalize(d, u, x.m + y.m, x.s + y.s)
        for u in range(abs(x.l - y.l), top + 1, 2)
    )


def chiral_charge(d: int, l: int) -> Rat:
    """U(1) charge l/d of the chiral primary in the representation [l, l, 0]."""
    if not 0 <= l <= d - 2:
        raise ValueError(f"l={l} outside 0..{d - 2}")
    return Rat(l, d)


def defect_spectrum(
    d: int, u: int, n: int = 0, chiral_only: bool = False
) -> List[Tuple[MMLabel, MMLabel]]:
    """Bosonic defect-changing spectrum from [0, 2n, 0] to [u, u+2n, 0].

    Returns (left, right) label pairs.  A pair (x, y) belongs to the full
    spectrum when the target channel occurs in the fusion of x with the
    m-reflected y.  The target is the single channel of dual(source) fused
    with the destination; it always comes out as [u, u, 0], which makes the
    n-independence a checked fact rather than an assumption.

    With chiral_only the list restricts to the pairs carrying chiral
    primaries, ([u+l, u+l, 0], [l, l, 0]) for 0 <= l <= d-u-2.
    """
    if not 0 <= u <= d - 2:
        raise ValueError(f"u={u} outside 0..{d - 2}")
    src = mm_normalize(d, 0, 2 * n, 0)
    dst = mm_normalize(d, u, u + 2 * n, 0)
    fused = mm_fuse(src.dual(), dst)
    assert fused == [mm_normalize(d, u, u, 0)], "target channel must be [u,u,0]"
    target = fused[0]
    if chiral_only:
        return [
            (mm_normalize(d, u + l, u + l, 0), mm_normalize(d, l, l, 0))
            for l in range(d - u - 1)
        ]
    labels = mm_labels(d)
    pairs = []
    for x in labels:
        for y in labels:
            reflected = mm_normalize(d, y.l, -y.m, y.s)
            if target in mm_fuse(x, reflected):
                pairs.append((x, y))
    return pairs


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
    if d < 3:
        raise ValueError("d must be >= 3")
    k = d - 2
    if which == "groupLike":
        unit = su2_fusing(k, 0, 0, 0, 0, 0, 0, prec=prec)
        assert unit.value == 1
        values = {
            int(unit.value) * u1_data(d, "F", 2 * i % (2 * d), 2 * j % (2 * d), 2 * kk % (2 * d))
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
        with mp.workprec(2 * prec + _GUARD_BITS):
            val = su2_fusing(k, k, f, k, f, f, f, prec=prec).value * torus
            check = su2_fusing(k, k, f, k, f, f, f, prec=2 * prec).value * torus
            snapped = int(mp.nint(val))
            bad = abs(val - snapped) > mp.mpf("1e-10") or abs(check - snapped) > mp.mpf("1e-10")
        if bad:
            raise VerificationError(f"sign example failed to settle on an integer: {val}")
        return snapped
    if which == "twoByTwo":
        if d < 4:
            raise ValueError("the 2x2 example needs d >= 4")
        torus = u1_data(d, "F", 1, 1, 1)

        def entry(p, q, bits):
            return su2_fusing(k, 1, 1, 1, 1, p, q, prec=bits).value * torus

        rows = []
        for p in (0, 2):
            row = []
            for q in (0, 2):
                v = entry(p, q, prec)
                with mp.workprec(2 * prec + _GUARD_BITS):
                    drift = abs(v - entry(p, q, 2 * prec))
                if drift > mp.mpf("1e-12"):
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
    return -1 / (1 + 2 * mp.cospi(mp.mpf(2) / d))


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


def pentagon_residuals(
    k: int, sample: Optional[Iterable[int]] = None, prec: int = DEFAULT_PREC
):
    """Yield ((a, b, c, d, e), residual) over admissible fused 4-tuples.

    For each way of fusing a x b x c x d into e the identity
      F^(abl)e_kq F^(qcd)e_lm = sum_h F^(bcd)k_lh F^(ahd)e_km F^(abc)m_hq
    must hold for all channel choices; the reported residual is the largest
    |lhs - rhs| over the channels of that 5-tuple.  Outer labels are drawn
    from sample (default all of 0..k); channel and summation labels always
    run over the full label set.
    """
    labels = range(k + 1)
    if sample is None:
        outer = tuple(labels)
    else:
        outer = tuple(sorted(set(int(x) for x in sample)))
        for x in outer:
            if not 0 <= x <= k:
                raise ValueError(f"label {x} outside 0..{k}")
    fuse = {(i, j): su2_fuse(k, i, j) for i in labels for j in labels}
    fset = {ij: frozenset(ch) for ij, ch in fuse.items()}
    cache = {}

    def F(r, s, t, u, p, q):
        key = (r, s, t, u, p, q)
        if key not in cache:
            cache[key] = su2_fusing(k, r, s, t, u, p, q, prec=prec).value
        return cache[key]

    for a, b, c, d, e in itertools.product(outer, repeat=5):
        # the residual arithmetic itself must run at working precision, not
        # at whatever the ambient mpmath context happens to be
        with mp.workprec(prec + _GUARD_BITS):
            worst = mp.mpf(0)
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
                            lhs = F(a, b, l, e, kk, q) * F(q, c, d, e, l, m)
                            rhs = mp.mpf(0)
                            for h in fuse[b, c]:
                                rhs += F(b, c, d, kk, l, h) * F(a, h, d, e, kk, m) * F(a, b, c, m, h, q)
                            diff = abs(lhs - rhs)
                            if diff > worst:
                                worst = diff
        if seen:
            yield (a, b, c, d, e), worst


def pentagon_check(
    k: int, sample: Optional[Iterable[int]] = None, prec: int = DEFAULT_PREC
) -> float:
    """Largest pentagon residual over the sampled 5-tuples (0.0 if none)."""
    best = mp.mpf(0)
    for _tuple, res in pentagon_residuals(k, sample, prec):
        if res > best:
            best = res
    return float(best)
