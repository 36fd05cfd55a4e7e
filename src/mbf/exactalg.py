"""Exact scalar arithmetic: cyclotomic fields Q(zeta_n), numeric only on request.

Nothing here touches a float except the numeric embedding
``Cyclo.to_complex``, which imports mpmath on its first call; the exact-side
commands never load it.

An element of Q(zeta_n) is stored as an integer polynomial over one common
denominator, the layout of FLINT's ``fmpq_poly``: ``num`` is a tuple of phi(n)
Python ints, the coefficients in the power basis 1, t, ..., t^{phi(n)-1} of
Q[t]/(Phi_n(t)), and ``den`` is a positive int; the value is
sum(num[i] * t^i) / den.  Working modulo the cyclotomic polynomial Phi_n
(rather than t^n - 1) keeps the representation a field with canonical
equality.  Phi_n is monic with integer coefficients, so reducing a product
modulo Phi_n never leaves the integers.

The form is canonical: ``gcd(den, *num) == 1``, and zero is
``((0,) * phi(n), 1)``.  Equal values therefore have equal ``(n, den, num)``,
which is what ``==`` and ``hash`` compare.  Rationals (``_rat.Rat``) appear
only at the edges: the constructor, ``coeffs`` and printing.  The field
inverse is integral too: the product of the other Galois conjugates over the
norm.

Reduction modulo a prime: with p ≡ 1 (mod n) and r a root of Phi_n in F_p,
zeta_n -> r is a ring map Z[zeta_n] -> F_p, and it extends to every value
whose ``den`` is prime to p.  ``modular_prime(n)`` fixes one (p, r) per
conductor and ``Cyclo.reduce_mod`` applies it.
``bifact.differential_residues`` reduces each object's differential
coefficients with it once, and ``graded`` ranks δ columns read from those
residues with the sparse elimination that also solves over Q(zeta_n)
(``linalg.rank_mod_p``), for lower bounds on ranks.

Values are immutable, so an operation may return an operand (a product with
a factor 1 returns the other factor) and sharing across threads is safe.  Every memo (Phi_n, the (p, r) rule, the reduction rows,
the unit and the bounded memo of irrational inverses) is a ``functools``
cache, which is thread-safe and reports its size and hits through
``cache_info()``.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache, reduce
from operator import add, mul, sub

from ._rat import Rat, rat_str

DEFAULT_PRECISION_BITS = 128


class ConductorMismatch(ValueError):
    """Raised when mixing elements of different cyclotomic fields."""


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    # Dense long division by a monic den (every caller divides by a Phi_d),
    # so integer input stays integral.
    num = list(num)
    dn = len(den) - 1
    q = [0] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dn] = c
        for j, d in enumerate(den):
            num[i - dn + j] -= c * d
    return _poly_trim(q), _poly_trim(num)


@cache
def cyclotomic_poly(n: int) -> tuple:
    """Dense integer coefficients (low to high) of Phi_n, by exact division.

    Phi_n = (t^n - 1) / prod_{d | n, d < n} Phi_d, recursively; results cached.
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_poly(d))
            if rem:
                raise AssertionError(f"Phi_{d} must divide t^{n}-1 exactly")
    return tuple(num)


def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, deterministic below
    3.18 * 10^23 (Sorenson and Webster, Math. Comp. 2017)."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    s, odd = 0, m - 1
    while not odd & 1:
        s, odd = s + 1, odd >> 1
    for a in _MR_BASES:
        x = pow(a, odd, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@cache
def modular_prime(n: int) -> tuple:
    """(p, r) for reducing Q(zeta_n) modulo a prime; memoised per conductor.

    p is the least prime above 2^31 with p ≡ 1 (mod n), so F_p holds the n-th
    roots of unity, and r = g^((p-1)/n) for the least g >= 2 with
    Phi_n(r) ≡ 0 (mod p), a primitive n-th root of unity.
    """
    p = -(-2 ** 31 // n) * n + 1  # least k·n + 1 above 2^31
    while not _is_prime(p):
        p += n
    phi = cyclotomic_poly(n)
    g = 2
    while True:
        r = pow(g, (p - 1) // n, p)
        if sum(c * pow(r, i, p) for i, c in enumerate(phi)) % p == 0:
            return p, r
        g += 1


@cache
def _reduction_rows(n: int) -> tuple:
    """Row k: the non-zero (j, c) of t^(phi+k) mod Phi_n = sum c*t^j, for k
    up to phi-2.  Integers, since Phi_n is monic over Z."""
    phi = euler_phi(n)
    out = []
    for k in range(max(0, phi - 1)):
        _, rem = _poly_divmod([0] * (phi + k) + [1], cyclotomic_poly(n))
        out.append(tuple((j, c) for j, c in enumerate(rem) if c))
    return tuple(out)


def _normalized(n: int, num: tuple, den: int) -> "Cyclo":
    # divide out the content gcd(den, *num); den > 0, len(num) == phi(n)
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return _raw(n, num, den)


def _from_ints(n: int, ints: list, den: int) -> "Cyclo":
    """sum ints[i]*t^i / den for any length of ints (reduced mod Phi_n)."""
    phi = euler_phi(n)
    if len(ints) > phi:
        _, ints = _poly_divmod(ints, cyclotomic_poly(n))
    return _normalized(n, tuple(ints) + (0,) * (phi - len(ints)), den)


class Cyclo:
    """An element of Q(zeta_n): integers ``num`` mod Phi_n over ``den``."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        """From rational coefficients of 1, t, t^2, ... (any length)."""
        rats = [Rat(c) for c in coeffs]
        den = math.lcm(*(r.denominator for r in rats)) if rats else 1
        c = _from_ints(n, [r.numerator * (den // r.denominator) for r in rats], den)
        _set_n(self, n)
        _set_num(self, c.num)
        _set_den(self, c.den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclo is immutable")

    @property
    def coeffs(self) -> tuple:
        """The phi(n) power-basis coefficients as Rat."""
        den = self.den
        return tuple(Rat(c, den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rat(n: int, value) -> "Cyclo":
        if type(value) is not int:
            value = Rat(value)
        tail = (0,) * (euler_phi(n) - 1)
        return _raw(n, (value.numerator,) + tail, value.denominator)

    @staticmethod
    def zero(n: int) -> "Cyclo":
        return _raw(n, (0,) * euler_phi(n), 1)

    @staticmethod
    @cache
    def one(n: int) -> "Cyclo":
        # values are immutable, so one per conductor serves every caller
        return Cyclo.from_rat(n, 1)

    @staticmethod
    def root(n: int, k: int = 1) -> "Cyclo":
        """zeta_n^k as a field element."""
        k %= n
        return _from_ints(n, [0] * k + [1], 1)

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "Cyclo"):
        if self.n != other.n:
            raise ConductorMismatch(
                f"conductor mismatch: {self.n} vs {other.n}"
            )

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self):
        """The value as a Rat if it lies in Q, else None."""
        if any(self.num[1:]):
            return None
        return Rat(self.num[0], self.den)

    def reduce_mod(self, p: int, r: int):
        """The image in F_p under zeta_n -> r (a root of Phi_n mod p), as an
        int in [0, p), or None when p divides ``den``."""
        den = self.den
        if den % p == 0:
            return None
        acc = 0
        for c in reversed(self.num):
            acc = (acc * r + c) % p
        return acc if den == 1 else acc * pow(den, -1, p) % p

    # -- ring/field ops ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            self._check(other)
            return other
        if isinstance(other, int) or type(other) is Rat:
            return Cyclo.from_rat(self.n, other)
        return None

    # The binary operators test for the common case, a Cyclo of the same
    # conductor, before calling _coerce.

    def __add__(self, other):
        o = other
        if o.__class__ is not Cyclo or o.n != self.n:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = tuple(map(add, self.num, o.num))
            return _raw(self.n, num, 1) if da == 1 else _normalized(self.n, num, da)
        num = tuple(a * db + b * da for a, b in zip(self.num, o.num))
        return _normalized(self.n, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.n, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = other
        if o.__class__ is not Cyclo or o.n != self.n:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = tuple(map(sub, self.num, o.num))
            return _raw(self.n, num, 1) if da == 1 else _normalized(self.n, num, da)
        num = tuple(a * db - b * da for a, b in zip(self.num, o.num))
        return _normalized(self.n, num, da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other
        if o.__class__ is not Cyclo or o.n != self.n:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        a, b = self.num, o.num
        if any(a[1:]) and any(b[1:]):
            den = self.den * o.den
            phi = len(a)
            out = [0] * (2 * phi - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b, i):
                        out[j] += ca * cb
            head = out[:phi]
            for row, c in zip(_reduction_rows(self.n), out[phi:]):
                if c:
                    for j, rc in row:
                        head[j] += c * rc
            num = tuple(head)
        else:
            # a rational factor (most products): the other factor itself
            # when it is 1, else the other vector scaled
            x, r = (o, self) if any(b[1:]) else (self, o)
            c, rd = r.num[0], r.den
            if c == 1:
                if rd == 1:
                    return x
                num = x.num
            else:
                num = tuple([v * c for v in x.num])
            den = x.den * rd
        return _raw(self.n, num, 1) if den == 1 else _normalized(self.n, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Field inverse: the product of the other Galois conjugates over the norm.

        With x = N/den and sigma_j the automorphism t -> t^j (gcd(j, n) = 1),
        N * prod_{j != 1} sigma_j(N) is the norm of N, a non-zero integer, so
        1/x = den * prod_{j != 1} sigma_j(N) / norm, all in integers.
        An irrational inverse is memoised (`_irrational_inverse`).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        n, num, den = self.n, self.num, self.den
        if not any(num[1:]):
            sign = -1 if num[0] < 0 else 1
            return _raw(n, (sign * den,) + num[1:], sign * num[0])
        return _irrational_inverse(n, num, den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclo.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int) or type(other) is Rat:
            other = Cyclo.from_rat(self.n, other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.den, self.num))

    def __bool__(self):
        return not self.is_zero()

    # -- conversions -------------------------------------------------------

    def to_complex(self, precision_bits: int = DEFAULT_PRECISION_BITS):
        """Numeric embedding zeta_n -> exp(2*pi*i/n) at the given precision,
        as an mpmath complex; mpmath is imported when this runs."""
        import mpmath

        with mpmath.workprec(precision_bits):
            zeta = mpmath.e ** (2j * mpmath.pi / self.n)
            acc = mpmath.mpc(0)
            for c in reversed(self.coeffs):
                acc = acc * zeta + mpmath.mpf(c.numerator) / c.denominator
            return acc

    def __repr__(self):
        sym = f"z{self.n}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(rat_str(c))
            else:
                mono = sym if i == 1 else f"{sym}^{i}"
                parts.append(mono if c == 1 else f"{rat_str(c)}*{mono}")
        return " + ".join(parts) if parts else "0"


_set_n, _set_num, _set_den = Cyclo.n.__set__, Cyclo.num.__set__, Cyclo.den.__set__


# The same few irrational values are inverted again and again (lead
# coefficients of divisors, unit pivots): in a d = 7 sample of 300 fusion
# decompositions, 1,280 such inverses took 103 distinct values.  Bounded,
# since the values themselves are not.
@lru_cache(maxsize=4096)
def _irrational_inverse(n: int, num: tuple, den: int) -> Cyclo:
    conjugates = []
    for j in range(2, n):
        if math.gcd(j, n) == 1:
            ints = [0] * n
            for i, c in enumerate(num):
                ints[i * j % n] += c
            conjugates.append(_from_ints(n, ints, 1))
    others = reduce(mul, conjugates)
    norm = (_raw(n, num, 1) * others).num[0]
    if norm < 0:
        norm, den = -norm, -den
    return _normalized(n, tuple(c * den for c in others.num), norm)


def _raw(n: int, num: tuple, den: int) -> Cyclo:
    # internal fast path: (num, den) must already be canonical
    self = object.__new__(Cyclo)
    _set_n(self, n)
    _set_num(self, num)
    _set_den(self, den)
    return self
