"""Exact scalar arithmetic: rationals, cyclotomic fields Q(zeta_n), numeric embedding.

Elements of Q(zeta_n) are stored as coefficient vectors of length phi(n) in the
power basis 1, t, ..., t^{phi(n)-1} of Q[t]/(Phi_n(t)), with Phi_n the n-th
cyclotomic polynomial.  Working modulo Phi_n (rather than t^n - 1) keeps the
representation a field with canonical equality.

Values are immutable; all operations return fresh objects, so sharing across
threads is safe.  The Phi_n cache is filled idempotently (recomputation yields
the identical value), which is harmless under concurrent first use.
"""

from __future__ import annotations

import math

import mpmath

from ._rat import RAT_ONE, RAT_ZERO, Rat, parse_rat, rat_str

DEFAULT_PRECISION_BITS = 128

_PHI_CACHE: dict[int, tuple] = {}


class ConductorMismatch(ValueError):
    """Raised when mixing elements of different cyclotomic fields."""


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    # Dense long division in Q[t]; den must be non-zero.
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    q = [RAT_ZERO] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = c / lead
        q[i - dn] = f
        for j, d in enumerate(den):
            num[i - dn + j] -= f * d
    return _poly_trim(q), _poly_trim(num)


def cyclotomic_poly(n: int) -> tuple:
    """Dense coefficients (low to high) of Phi_n, computed by exact division.

    Phi_n = (t^n - 1) / prod_{d | n, d < n} Phi_d, recursively; results cached.
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    cached = _PHI_CACHE.get(n)
    if cached is not None:
        return cached
    num = [RAT_ZERO] * (n + 1)
    num[0] = -RAT_ONE
    num[n] = RAT_ONE
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_poly(d)))
            if rem:
                raise AssertionError(f"Phi_{d} must divide t^{n}-1 exactly")
    result = tuple(num)
    _PHI_CACHE[n] = result
    return result


def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


_RED_ROWS: dict = {}


def _reduction_rows(n: int) -> tuple:
    """Row k: coefficients of t^(phi+k) mod Phi_n, for k up to phi-2."""
    rows = _RED_ROWS.get(n)
    if rows is None:
        phi = euler_phi(n)
        den = list(cyclotomic_poly(n))
        out = []
        for k in range(max(0, phi - 1)):
            num = [RAT_ZERO] * (phi + k) + [RAT_ONE]
            _, rem = _poly_divmod(num, den)
            rem = list(rem) + [RAT_ZERO] * (phi - len(rem))
            out.append(tuple(rem))
        rows = tuple(out)
        _RED_ROWS[n] = rows
    return rows


class Cyclo:
    """An element of Q(zeta_n), canonical coefficient vector mod Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        phi = euler_phi(n)
        cs = list(coeffs)
        if len(cs) > phi:
            _, cs = _poly_divmod(cs, list(cyclotomic_poly(n)))
        cs += [RAT_ZERO] * (phi - len(cs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(Rat(c) for c in cs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclo is immutable")

    @classmethod
    def _raw(cls, n: int, coeffs: tuple) -> "Cyclo":
        # internal fast path: coeffs must already be canonical (length phi, Rat)
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rat(n: int, value) -> "Cyclo":
        return Cyclo(n, [Rat(value)])

    @staticmethod
    def zero(n: int) -> "Cyclo":
        return Cyclo(n, [])

    @staticmethod
    def one(n: int) -> "Cyclo":
        return Cyclo(n, [RAT_ONE])

    @staticmethod
    def root(n: int, k: int = 1) -> "Cyclo":
        """zeta_n^k as a field element."""
        k %= n
        c = [RAT_ZERO] * (k + 1)
        c[k] = RAT_ONE
        return Cyclo(n, c)

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "Cyclo"):
        if self.n != other.n:
            raise ConductorMismatch(
                f"conductor mismatch: {self.n} vs {other.n}; lift explicitly"
            )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        """The value as a Rat if it lies in Q, else None."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else RAT_ZERO

    # -- ring/field ops ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            self._check(other)
            return other
        if isinstance(other, int) or type(other) is type(RAT_ONE):
            return Cyclo.from_rat(self.n, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo._raw(self.n, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._raw(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo._raw(self.n, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        phi = len(a)
        if phi == 1:
            return Cyclo._raw(self.n, (a[0] * b[0],))
        out = [RAT_ZERO] * (2 * phi - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                out[i + j] += ca * cb
        head = out[:phi]
        rows = _reduction_rows(self.n)
        for k in range(phi, 2 * phi - 1):
            c = out[k]
            if c == 0:
                continue
            row = rows[k - phi]
            for j, rc in enumerate(row):
                if rc != 0:
                    head[j] += c * rc
        return Cyclo._raw(self.n, tuple(head))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Field inverse via the extended Euclidean algorithm against Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        r = self.is_rational()
        if r is not None:
            return Cyclo.from_rat(self.n, RAT_ONE / r)
        # invariants: s0*self + t0*Phi = r0, s1*self + t1*Phi = r1 (t's untracked)
        r0, r1 = list(cyclotomic_poly(self.n)), _poly_trim(list(self.coeffs))
        s0, s1 = [], [RAT_ONE]
        while len(r1) > 1:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            qs1 = [RAT_ZERO] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, cq in enumerate(q):
                for j, cs in enumerate(s1):
                    qs1[i + j] += cq * cs
            new_s = [RAT_ZERO] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(qs1):
                new_s[i] -= c
            s0, s1 = s1, _poly_trim(new_s)
        if not r1:
            raise ZeroDivisionError("element not invertible (zero divisor?)")
        lead = r1[0]
        return Cyclo(self.n, [c / lead for c in s1])

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
        if isinstance(other, (int,)) or type(other) is type(RAT_ONE):
            other = Cyclo.from_rat(self.n, other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    # -- conversions -------------------------------------------------------

    def lift(self, m: int) -> "Cyclo":
        """Lift into Q(zeta_m) for n | m (zeta_n = zeta_m^(m/n))."""
        if m % self.n:
            raise ConductorMismatch(f"{self.n} does not divide {m}")
        step = m // self.n
        out = Cyclo.zero(m)
        for i, c in enumerate(self.coeffs):
            if c != 0:
                out = out + Cyclo.root(m, i * step) * Cyclo.from_rat(m, c)
        return out

    def to_complex(self, precision_bits: int = DEFAULT_PRECISION_BITS):
        """Numeric embedding zeta_n -> exp(2*pi*i/n) at the given precision."""
        with mpmath.workprec(precision_bits):
            zeta = mpmath.e ** (2j * mpmath.pi / self.n)
            acc = mpmath.mpc(0)
            for c in reversed(self.coeffs):
                acc = acc * zeta + mpmath.mpf(c.numerator) / c.denominator
            return acc

    def to_json(self) -> dict:
        return {"conductor": self.n, "coeffs": [rat_str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "Cyclo":
        return Cyclo(data["conductor"], [parse_rat(s) for s in data["coeffs"]])

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


def real_value(x, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Evaluate a Cyclo (or pass through mpf) as a real number, checking the
    imaginary part vanishes to precision."""
    if isinstance(x, Cyclo):
        z = x.to_complex(precision_bits)
        with mpmath.workprec(precision_bits):
            if abs(z.imag) > mpmath.mpf(2) ** (8 - precision_bits):
                raise ValueError(f"value has non-negligible imaginary part: {z}")
            return z.real
    return x

