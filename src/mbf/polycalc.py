"""Sparse multivariate polynomials over Q(zeta_n), with the exact-division
and divided-difference machinery the bimodule calculus needs.

A Ring fixes an ordered variable tuple and a cyclotomic conductor; a MultiPoly
is a canonical sparse map {exponent tuple -> Cyclo} with no zero coefficients.
Term order everywhere is graded lexicographic in the ring's variable order.

Every ring map (`subst_scale`, `rename`) is one substitution plan, a tuple
of (source index, target index or None, scalar or None for 1) per variable
(`subst_plan`), applied by one loop (`MultiPoly.substituted`); a caller
that applies one map many times keeps its plan.  `rename` builds its plan
without a scalar.  `product_terms` is the one product of term dicts: a
one-term factor can make no two terms meet and no coefficient vanish, so it
is a single pass, and on either path a unit coefficient is copied, not
multiplied.  `Ring.p_S` places the coefficients of a root product,
computed once per process for each conductor and sequence of residues
(`_root_product`, a functools cache), on any pair of variables.

Textual form: terms joined by ' + ' / ' - ', factors joined by '*', powers with
'^', e.g. '3/2*a^2*x1*b'.  The primitive root of the ring's conductor prints
as 'z' (so 'a - z*b' at conductor 3 means a - zeta_3 b).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from functools import cache
from operator import add

from ._rat import Rat, rat_str
from .exactalg import Cyclo


class NotDivisibleError(ValueError):
    """Exact division failed; carries the offending remainder (and partial quotient).

    The message is formatted when it is read: a divisibility test catches
    the error without reading it."""

    def __init__(self, remainder, quotient=None):
        super().__init__(remainder)
        self.remainder = remainder
        self.quotient = quotient

    def __str__(self):
        return f"division left a non-zero remainder: {self.remainder}"


class RingMismatch(ValueError):
    pass


class Ring:
    """Polynomial ring Q(zeta_conductor)[vars], variables ordered as given.

    Its hash and its zero exponent tuple are computed when it is built.
    Each interned slot shape builds its ring once, so the two rings of a
    product or a division are nearly always one object, and
    `MultiPoly._check` tests that first."""

    __slots__ = ("vars", "conductor", "_index", "_hash", "_zero_exp")

    def __init__(self, variables: Iterable[str], conductor: int = 1):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names: {vs}")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(vs)})
        object.__setattr__(self, "_hash", hash((vs, conductor)))
        object.__setattr__(self, "_zero_exp", (0,) * len(vs))

    def __setattr__(self, *a):
        raise AttributeError("Ring is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.vars == other.vars
            and self.conductor == other.conductor
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Ring({list(self.vars)}, zeta_{self.conductor})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not in ring {self.vars}") from None

    # -- element constructors ----------------------------------------------

    def coerce_scalar(self, c) -> Cyclo:
        if isinstance(c, Cyclo):
            if c.n != self.conductor:
                raise RingMismatch(
                    f"scalar conductor {c.n} vs ring conductor {self.conductor}"
                )
            return c
        return Cyclo.from_rat(self.conductor, c)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c) -> "MultiPoly":
        cc = self.coerce_scalar(c)
        return MultiPoly(self, {} if cc.is_zero() else {self._zero_exp: cc})

    def var(self, name: str) -> "MultiPoly":
        e = [0] * len(self.vars)
        e[self.index(name)] = 1
        return MultiPoly(self, {tuple(e): Cyclo.one(self.conductor)})

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "MultiPoly":
        e = [0] * len(self.vars)
        for name, k in exps.items():
            e[self.index(name)] = k
        c = self.coerce_scalar(coeff)
        return MultiPoly(self, {} if c.is_zero() else {tuple(e): c})

    def root(self, k: int = 1) -> Cyclo:
        return Cyclo.root(self.conductor, k)

    def parse(self, text: str) -> "MultiPoly":
        return _parse_poly(self, text)

    def p_S(self, residues: Iterable[int], v1: str = "a", v2: str = "b") -> "MultiPoly":
        """prod_{i in S} (v1 - zeta^i v2), the basic factor polynomials of x^d - y^d.

        The coefficients come from `_root_product`, computed once per process
        for each conductor and sequence of residues; here they are only
        placed on the exponents of v1 and v2 (which must differ, else
        ValueError), in the term order of multiplying the factors in turn."""
        i1, i2 = self.index(v1), self.index(v2)
        if i1 == i2:
            raise ValueError(f"p_S needs two distinct variables, got {v1!r} twice")
        n = self.conductor
        terms = {}
        e = list(self._zero_exp)
        for k, j, c in _root_product(n, tuple(i % n for i in residues)):
            e[i1], e[i2] = k, j
            terms[tuple(e)] = c
        return MultiPoly._raw(self, terms)


@cache
def _root_product(n: int, residues: tuple) -> tuple:
    """The terms of prod_{i in residues} (v1 - zeta_n^i v2) on exponent pairs,
    ((power of v1, power of v2, coefficient), ...), computed on the first
    call for each conductor and residues mod it.  Each factor runs the
    recurrence c_j <- c_j - zeta^i c_{j-1} (c_j the coefficient of v1^(m-j) v2^j)
    through `product_terms`, so the terms come in the order that multiplying
    the factors in turn gives: descending powers of v1, except that a power
    whose coefficient vanished at one step and returns at a later one comes
    after the powers that stayed (at conductor 6, residues 0, 1, 2, 4, 5)."""
    one = Cyclo.one(n)
    acc = {(0, 0): one}
    for i in residues:
        acc = product_terms(acc, {(1, 0): one, (0, 1): -Cyclo.root(n, i)})
    return tuple((k, j, c) for (k, j), c in acc.items())


def _same_conductor(source: Ring, target: Ring):
    if source.conductor != target.conductor:
        raise RingMismatch(f"conductor {source.conductor} vs {target.conductor}")


def subst_plan(source: Ring, mapping: Mapping[str, tuple], target: Ring) -> tuple:
    """The substitution {src_var: (scalar, dst_var)} from `source` into
    `target`, prepared for `MultiPoly.substituted`: per source variable,
    (its index, the index of its target variable or None if unmapped, the
    scalar as a Cyclo or None if it is 1).  Both rings have one conductor
    (else RingMismatch), and every target variable must exist (else KeyError).
    """
    _same_conductor(source, target)
    plan = []
    for i, v in enumerate(source.vars):
        if v in mapping:
            sc, dst = mapping[v]
            sc = target.coerce_scalar(sc)
            plan.append((i, target.index(dst), None if sc.is_one() else sc))
        else:
            plan.append((i, None, None))
    return tuple(plan)


def product_terms(a: dict, b: dict) -> dict:
    """The terms of the product of two polynomials given by their terms, with
    no zero coefficient.  The outer loop runs over the shorter factor (the
    first on a tie), and each exponent keeps the place of its first product.
    A product with a unit coefficient is the other coefficient, taken as is."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # one term: distinct exponents stay distinct, and over a field no
        # product vanishes; a unit coefficient or a constant changes less
        ((ea, ca),) = a.items()
        one = ca.is_one()
        if not any(ea):
            return dict(b) if one else {eb: ca * cb for eb, cb in b.items()}
        if one:
            return {tuple(map(add, ea, eb)): cb for eb, cb in b.items()}
        return {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()}
    # many terms: a unit coefficient on either side is no multiplication
    out: dict = {}
    bs = [(eb, cb, cb.is_one()) for eb, cb in b.items()]
    for ea, ca in a.items():
        one = ca.is_one()
        for eb, cb, unit in bs:
            e = tuple(map(add, ea, eb))
            v = cb if one else ca if unit else ca * cb
            s = out.get(e)
            out[e] = v if s is None else s + v
    return {e: c for e, c in out.items() if not c.is_zero()}


def _grlex_key(e: tuple) -> tuple:
    return (sum(e), e)


class MultiPoly:
    """Immutable sparse polynomial; {exponent tuple: non-zero Cyclo}.

    The hash is computed on first use and kept in `_hash`.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self, "terms", {e: c for e, c in terms.items() if not c.is_zero()}
        )
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _raw(cls, ring: Ring, terms: dict) -> "MultiPoly":
        # internal fast path: terms must hold no zero coefficient
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other: "MultiPoly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Cyclo)) or type(other) is Rat:
            return self.ring.const(other)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring, frozenset(self.terms.items()))))
        return self._hash

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        return MultiPoly._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Cyclo)) or type(other) is Rat:
            c = self.ring.coerce_scalar(other)
            if c.is_zero():
                return self.ring.zero()
            if c.is_one():
                return self
            return MultiPoly._raw(self.ring, {e: k * c for e, k in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._raw(self.ring, product_terms(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure -----------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        i = self.ring.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if inhomogeneous/zero."""
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def constant_value(self):
        """The value as a Cyclo if the poly is constant, else None."""
        if not self.terms:
            return Cyclo.zero(self.ring.conductor)
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            if not any(e):
                return c
        return None

    def leading_term(self):
        """(exponent, coeff) maximal in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def coefficients_in(self, var: str) -> dict:
        """View as a polynomial in `var`: {power: MultiPoly without var}."""
        i = self.ring.index(var)
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = e[i]
            rest = e[:i] + (0,) + e[i + 1 :]
            buckets.setdefault(k, {})[rest] = c
        return {k: MultiPoly(self.ring, d) for k, d in buckets.items()}

    # -- substitution ---------------------------------------------------------

    def subst_scale(self, mapping: Mapping[str, tuple], target: Ring) -> "MultiPoly":
        """Ring map sending each variable to scalar*target_variable.

        mapping: {src_var: (scalar, dst_var)}; unmapped source variables must
        not occur.  Both rings have one conductor, and the scalars are Cyclo
        of it (or coercible); another conductor raises RingMismatch.  The map
        is prepared once (`subst_plan`) and applied by `substituted`.
        """
        return self.substituted(subst_plan(self.ring, mapping, target), target)

    def rename(self, name_map: Mapping[str, str], target: Ring) -> "MultiPoly":
        """Variable renaming into `target`; names absent there stay unmapped
        (so dropping a variable is fine as long as it does not occur).  Every
        scalar of the plan is 1, so no Cyclo is built."""
        _same_conductor(self.ring, target)
        index = target._index
        plan = tuple((i, index.get(name_map.get(v, v)), None) for i, v in enumerate(self.ring.vars))
        return self.substituted(plan, target)

    def substituted(self, plan: tuple, target: Ring) -> "MultiPoly":
        """The image under a prepared substitution `plan` (see `subst_plan`):
        one (source index, target index or None if unmapped, scalar or None
        for 1) per variable of this ring.

        A term whose coefficient a zero scalar kills is dropped; any other
        zero is a sum of two terms that met, so with no meeting the result
        needs no zero filter.
        """
        vars_ = self.ring.vars
        width = len(target.vars)
        out: dict = {}
        merged = False
        for e, coeff in self.terms.items():
            ne = [0] * width
            for i, j, sc in plan:
                k = e[i]
                if k == 0:
                    continue
                if j is None:
                    raise KeyError(f"variable {vars_[i]!r} occurs but is not mapped")
                ne[j] += k
                if sc is not None:
                    coeff = coeff * (sc if k == 1 else sc**k)
                    if coeff.is_zero():
                        break
            else:
                key = tuple(ne)
                prev = out.get(key)
                if prev is None:
                    out[key] = coeff
                else:
                    out[key] = prev + coeff
                    merged = True
        return MultiPoly(target, out) if merged else MultiPoly._raw(target, out)

    def derivative(self, var: str) -> "MultiPoly":
        i = self.ring.index(var)
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            ne = e[:i] + (k - 1,) + e[i + 1 :]
            prev = out.get(ne)
            val = c * k
            out[ne] = val if prev is None else prev + val
        return MultiPoly(self.ring, out)

    # -- division -------------------------------------------------------------

    def divided_difference(self, v1: str, v2: str) -> "MultiPoly":
        """Exact quotient (p - p[v1 -> v2]) / (v1 - v2), by telescoping."""
        i1, i2 = self.ring.index(v1), self.ring.index(v2)
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i1]
            if k == 0:
                continue
            for t in range(k):
                # v1^t * v2^(k-1-t) * rest
                ne = list(e)
                ne[i1] = t
                ne[i2] = e[i2] + (k - 1 - t)
                key = tuple(ne)
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return MultiPoly(self.ring, out)

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact single-divisor division in graded-lex order.

        Raises NotDivisibleError carrying the remainder if division fails.
        The lead coefficient is inverted once per call.  The popped exponent
        falls strictly in graded-lex order (every term added lies below it),
        so each quotient exponent is written once.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        ed, cd = divisor.leading_term()
        inv = cd.inverse()
        tail = [(e2, -c2) for e2, c2 in divisor.terms.items() if e2 != ed]
        quotient: dict = {}
        remainder: dict = {}
        work = dict(self.terms)
        while work:
            e = max(work, key=_grlex_key)
            c = work.pop(e)
            if all(x >= y for x, y in zip(e, ed)):
                q = tuple(x - y for x, y in zip(e, ed))
                f = c * inv
                quotient[q] = f
                for e2, c2 in tail:
                    key = tuple(x + y for x, y in zip(q, e2))
                    prev = work.get(key)
                    val = f * c2 if prev is None else prev + f * c2
                    if val.is_zero():
                        work.pop(key, None)
                    else:
                        work[key] = val
            else:
                remainder[e] = c
        # no zero coefficient reaches either dict
        rem = MultiPoly._raw(self.ring, remainder)
        quo = MultiPoly._raw(self.ring, quotient)
        if remainder:
            raise NotDivisibleError(rem, quo)
        return quo

    def divmod_in_var(self, divisor: "MultiPoly", var: str):
        """Division with remainder by a divisor monic in `var`.

        Returns (q, r) with self = q*divisor + r and deg_var(r) < deg_var(divisor).
        The lead coefficient must be a non-zero constant, so division is linear
        over the other variables: a term c*m*var^k maps to c*m times row k of
        the divisor's power table (see `_PowerTable`).
        """
        self._check(divisor)
        table = _power_table(self.ring, var, divisor)
        i, n = table.i, table.n
        quo: dict = {}
        rem: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k < n:
                s = rem.get(e)
                rem[e] = c if s is None else s + c
                continue
            m = e[:i] + (0,) + e[i + 1 :]
            shifted, one = any(m), c.is_one()
            for out, row in zip((quo, rem), table.row(k)):
                for e2, c2 in row.terms.items():
                    if shifted:
                        e2 = tuple([a + b for a, b in zip(e2, m)])
                    v = c2 if one else c * c2
                    s = out.get(e2)
                    out[e2] = v if s is None else s + v
        if len(self.terms) == 1:
            # one term: scaled copies of one row over a field, so no zeros
            return MultiPoly._raw(self.ring, quo), MultiPoly._raw(self.ring, rem)
        return MultiPoly(self.ring, quo), MultiPoly(self.ring, rem)

    # -- printing ---------------------------------------------------------------

    def __repr__(self):
        return poly_to_str(self)

    __str__ = __repr__


# -- division by a monic modulus ---------------------------------------------------

@cache
def _power_table(ring: Ring, var: str, divisor: MultiPoly) -> "_PowerTable":
    """The one power table of `divisor` in `var`.  The ring comes first in
    the key, so equal-term divisors of other rings are never compared."""
    return _PowerTable(divisor, var)


class _PowerTable:
    """x^k = quo_k*q + rem_k for a divisor q monic in x with constant unit lead.

    Writing q = lc*x^n + low, row n is (1/lc, -low/lc).  Row k+1 comes from
    row k by one shift: x*rem_k has x-degree <= n, and its x^n part c*x^n is
    replaced by c*(q/lc - low/lc), so quo_{k+1} = x*quo_k + c/lc and
    rem_{k+1} = (x*rem_k - c*x^n) - c*low/lc.  `rows` maps k >= n to
    (quo_k, rem_k); it is filled upward with setdefault, so concurrent first
    use is harmless.
    """

    __slots__ = ("var", "i", "n", "inv_lc", "low", "rows")

    def __init__(self, divisor: MultiPoly, var: str):
        n = divisor.degree_in(var)
        if n < 0:
            raise ZeroDivisionError("division by zero polynomial")
        lc = divisor.coefficients_in(var)[n].constant_value()
        if lc is None or lc.is_zero():
            raise ValueError(f"divisor is not monic-with-unit-lead in {var!r}")
        ring = divisor.ring
        self.var, self.i, self.n, self.inv_lc = var, ring.index(var), n, lc.inverse()
        self.low = (divisor - ring.monomial({var: n}, lc)) * self.inv_lc
        self.rows = {n: (ring.const(self.inv_lc), -self.low)}

    def row(self, k: int):
        """(quo_k, rem_k) for k >= n, extending the table upward as needed."""
        rows = self.rows
        for j in range(self.n + len(rows), k + 1):
            rows.setdefault(j, self._next(*rows[j - 1]))
        return rows[k]

    def _next(self, quo: MultiPoly, rem: MultiPoly):
        x = quo.ring.var(self.var)
        c = rem.coefficients_in(self.var).get(self.n - 1)
        if c is None:
            return quo * x, rem * x
        top = c * quo.ring.monomial({self.var: self.n - 1})
        return quo * x + c * self.inv_lc, (rem - top) * x - c * self.low


# -- textual form ----------------------------------------------------------------


def _coeff_to_str(c: Cyclo) -> tuple[str, bool]:
    """Render a coefficient; second value tells whether it needs parentheses."""
    r = c.is_rational()
    if r is not None:
        return rat_str(r), False
    parts = []
    for i, cf in enumerate(c.coeffs):
        if cf == 0:
            continue
        if i == 0:
            parts.append(rat_str(cf))
        else:
            z = "z" if i == 1 else f"z^{i}"
            if cf == 1:
                parts.append(z)
            elif cf == -1:
                parts.append(f"-{z}")
            else:
                parts.append(f"{rat_str(cf)}*{z}")
    s = parts[0]
    for p in parts[1:]:
        s += " - " + p[1:] if p.startswith("-") else " + " + p
    return s, len(parts) > 1


def poly_to_str(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for e, c in p.sorted_terms():
        factors = []
        for v, k in zip(p.ring.vars, e):
            if k == 1:
                factors.append(v)
            elif k > 1:
                factors.append(f"{v}^{k}")
        cs, need_paren = _coeff_to_str(c)
        if not factors:
            body = f"({cs})" if need_paren else cs
        elif cs == "1":
            body = "*".join(factors)
        elif cs == "-1":
            body = "-" + "*".join(factors)
        else:
            head = f"({cs})" if need_paren else cs
            body = head + "*" + "*".join(factors)
        chunks.append(body)
    out = chunks[0]
    for ch in chunks[1:]:
        out += " - " + ch[1:] if ch.startswith("-") else " + " + ch
    return out


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|\-|\(|\))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, ring: Ring, tokens: list):
        self.ring = ring
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse_expr(self) -> MultiPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        acc = self.parse_term() * sign
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    sign = -sign
            acc = acc + self.parse_term() * sign
        return acc

    def parse_term(self) -> MultiPoly:
        acc = self.parse_factor()
        while self.peek() == "*":
            self.next()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> MultiPoly:
        t = self.next()
        if t is None:
            raise ValueError("unexpected end of input")
        if t == "(":
            inner = self.parse_expr()
            if self.next() != ")":
                raise ValueError("missing ')'")
            base = inner
        elif re.fullmatch(r"\d+/\d+|\d+", t):
            num = t.split("/")
            base = self.ring.const(
                Rat(int(num[0]), int(num[1])) if len(num) == 2 else Rat(int(num[0]))
            )
        elif t == "z":
            base = self.ring.const(self.ring.root())
        else:
            base = self.ring.var(t)
        if self.peek() == "^":
            self.next()
            k = self.next()
            if k is None or not k.isdigit():
                raise ValueError("expected integer exponent after '^'")
            base = base**int(k)
        return base


def _parse_poly(ring: Ring, text: str) -> MultiPoly:
    p = _Parser(ring, _tokenize(text))
    out = p.parse_expr()
    if p.peek() is not None:
        raise ValueError(f"trailing tokens at {p.toks[p.i:]}")
    return out
