import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mbf import polycalc
from mbf._rat import Rat
from mbf.exactalg import Cyclo
from mbf.polycalc import (
    MultiPoly,
    NotDivisibleError,
    Ring,
    RingMismatch,
)


def to_sympy(p: MultiPoly, syms, zeta):
    """Independent rendering of a MultiPoly as a sympy expression."""
    acc = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Integer(0)
        for i, cf in enumerate(c.coeffs):
            if cf != 0:
                term += sympy.Rational(str(cf)) * zeta**i
        for s, k in zip(syms, e):
            if k:
                term *= s**k
        acc += term
    return sympy.expand(acc)


def zero_mod_phi(expr, z, n) -> bool:
    """Exact zero test for an expression polynomial in the root symbol z."""
    reduced = sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(n, z), z)
    return sympy.expand(reduced) == 0


class TestRingBasics:
    def test_duplicate_vars_rejected(self):
        with pytest.raises(ValueError):
            Ring(["a", "a"], 3)

    def test_ring_mismatch(self):
        R1 = Ring(["a", "b"], 3)
        R2 = Ring(["a", "b"], 4)
        with pytest.raises(RingMismatch):
            R1.var("a") + R2.var("a")

    def test_const_zero_is_empty(self):
        R = Ring(["a"], 5)
        assert R.const(0).is_zero()
        assert not R.one().is_zero()

    def test_equality_with_scalars(self):
        R = Ring(["a"], 3)
        assert R.const(7) == 7
        assert R.const(Rat(1, 2)) == Rat(1, 2)
        assert R.const(R.root(1)) == R.root(1)
        assert R.var("a") != 1

    def test_equal_polys_hash_equal_by_every_route(self):
        # a^2 + z*ab - (1+z)*b^2 built as a sum, a product, raw terms and a
        # rename; the hash is computed once and kept
        R = Ring(["a", "b"], 5)
        a, b, z, one = R.var("a"), R.var("b"), R.root(1), Cyclo.one(5)
        by_sum = R.monomial({"b": 2}, -(one + z)) + R.monomial({"a": 1, "b": 1}, z) + a ** 2
        by_product = (a - b) * (a + b * (one + z))
        by_raw = MultiPoly._raw(R, {(0, 2): -(one + z), (2, 0): one, (1, 1): z})
        S = Ring(["x", "y"], 5)
        x, y = S.var("x"), S.var("y")
        by_rename = (x * x + x * y * z - y * y * (one + z)).rename({"x": "a", "y": "b"}, R)
        polys = [by_sum, by_product, by_raw, by_rename]
        assert all(p == by_sum for p in polys)
        assert len({hash(p) for p in polys}) == 1
        assert len(set(polys)) == 1
        assert all(p._hash == hash(p) for p in polys)


class TestArithmeticAgainstSympy:
    d = 5

    def setup_method(self):
        self.R = Ring(["a", "x1", "b"], self.d)
        self.syms = sympy.symbols("a x1 b")
        self.zeta = sympy.Symbol("z")

    def rand_polys(self):
        R = self.R
        a, x, b = R.var("a"), R.var("x1"), R.var("b")
        eta = R.root(1)
        return [
            a**2 - b * eta + x * Rat(3, 2),
            (a - b * eta) * (a - b * eta**2) + x**3,
            a * x * b - R.one() * 7,
        ]

    def test_products_match_sympy(self):
        ps = self.rand_polys()
        for p in ps:
            for q in ps:
                mine = to_sympy(p * q, self.syms, self.zeta)
                theirs = to_sympy(p, self.syms, self.zeta) * to_sympy(q, self.syms, self.zeta)
                assert zero_mod_phi(mine - theirs, self.zeta, self.d)

    def test_power_matches_sympy(self):
        p = self.rand_polys()[0]
        mine = to_sympy(p**3, self.syms, self.zeta)
        theirs = to_sympy(p, self.syms, self.zeta) ** 3
        assert zero_mod_phi(mine - theirs, self.zeta, self.d)


class TestPS:
    def test_d4_quadratic_pair(self):
        R = Ring(["a", "b"], 4)
        a, b = R.var("a"), R.var("b")
        assert R.p_S([1, 3]) == a**2 + b**2
        assert R.p_S([0, 2]) == a**2 - b**2

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_full_set_gives_potential_difference(self, d):
        R = Ring(["a", "b"], d)
        assert R.p_S(range(d)) == R.var("a") ** d - R.var("b") ** d

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_complementary_product(self, d):
        R = Ring(["a", "b"], d)
        S = [0, 1]
        Sc = [i for i in range(d) if i not in S]
        assert R.p_S(S) * R.p_S(Sc) == R.var("a") ** d - R.var("b") ** d

    def test_homogeneous(self):
        R = Ring(["a", "b"], 6)
        assert R.p_S([0, 2, 3]).homogeneous_degree() == 3


class TestDividedDifference:
    def test_cube(self):
        R = Ring(["a", "b"], 3)
        a, b = R.var("a"), R.var("b")
        assert (a**3).divided_difference("a", "b") == a**2 + a * b + b**2

    def test_defining_identity(self):
        R = Ring(["a", "b"], 5)
        a, b = R.var("a"), R.var("b")
        p = a**4 + a**2 * b - b**3 * Rat(2, 7)
        dd = p.divided_difference("a", "b")
        swapped = p.subst_scale({"a": (1, "b"), "b": (1, "b")}, R)
        assert dd * (a - b) == p - swapped

    def test_constant_and_b_only_terms_drop(self):
        R = Ring(["a", "b"], 3)
        b = R.var("b")
        assert (b**2 + 5).divided_difference("a", "b").is_zero()

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(-5, 5)), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_identity_randomized(self, triples):
        R = Ring(["a", "b"], 4)
        p = R.zero()
        for i, j, c in triples:
            p = p + R.monomial({"a": i, "b": j}, c)
        dd = p.divided_difference("a", "b")
        swapped = p.subst_scale({"a": (1, "b"), "b": (1, "b")}, R)
        assert dd * (R.var("a") - R.var("b")) == p - swapped


class TestDivision:
    def test_exact_divide_sympy_oracle(self):
        # verify the quotient via sympy's own multiplication, mod the
        # cyclotomic relation for the root symbol
        R = Ring(["a", "b"], 6)
        syms = sympy.symbols("a b")
        zeta = sympy.Symbol("z")
        num = R.p_S(range(6))
        den = R.p_S([0, 1])
        q = num.exact_divide(den)
        diff = to_sympy(q, syms, zeta) * to_sympy(den, syms, zeta) - to_sympy(
            num, syms, zeta
        )
        assert zero_mod_phi(diff, zeta, 6)
        assert q.total_degree() == 4

    @pytest.mark.parametrize("lead", [(3,), (2, 1), (0, Rat(1, 2), -1)],
                             ids=["3", "2+z", "z/2-z^2"])
    def test_exact_divide_non_unit_lead_sympy_oracle(self, lead):
        # the lead coefficient is inverted once per call; the quotient of a
        # divisor whose lead is not 1 still multiplies back to the dividend
        R = Ring(["a", "b"], 6)
        syms = sympy.symbols("a b")
        zeta = sympy.Symbol("z")
        c = Cyclo(6, lead)
        den = R.p_S([0, 1]) * c + R.monomial({"b": 2})
        q0 = R.p_S([2, 3]) * Cyclo(6, [1, -1]) + R.monomial({"a": 1, "b": 1}, Rat(2, 3))
        num = q0 * den
        q = num.exact_divide(den)
        assert q == q0
        assert den.leading_term()[1] == c and not c.is_one()
        diff = to_sympy(q, syms, zeta) * to_sympy(den, syms, zeta) - to_sympy(num, syms, zeta)
        assert zero_mod_phi(diff, zeta, 6)

    def test_not_divisible_carries_remainder(self):
        R = Ring(["a", "b"], 3)
        a, b = R.var("a"), R.var("b")
        with pytest.raises(NotDivisibleError) as exc:
            (a**2 + b).exact_divide(a - b)
        assert exc.value.remainder == b**2 + b
        assert str(exc.value) == "division left a non-zero remainder: b^2 + b"

    def test_divide_by_zero(self):
        R = Ring(["a"], 3)
        with pytest.raises(ZeroDivisionError):
            R.one().exact_divide(R.zero())

    def test_divmod_in_var_invariants(self):
        R = Ring(["a", "x", "b"], 5)
        a, x, b = R.var("a"), R.var("x"), R.var("b")
        pB = R.p_S([0, 1, 3], "x", "b")
        num = a**2 * x**4 + x**2 * b - x * Rat(1, 3) + a
        q, r = num.divmod_in_var(pB, "x")
        assert q * pB + r == num
        assert r.degree_in("x") < pB.degree_in("x")

    def test_divmod_requires_unit_lead(self):
        R = Ring(["a", "x"], 3)
        a, x = R.var("a"), R.var("x")
        with pytest.raises(ValueError):
            (x**2).divmod_in_var(a * x, "x")

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4)), max_size=5),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_divmod_randomized(self, triples, nroots):
        R = Ring(["x", "b"], 6)
        p = R.zero()
        for i, j, c in triples:
            p = p + R.monomial({"x": i, "b": j}, c)
        pB = R.p_S(range(nroots), "x", "b")
        q, r = p.divmod_in_var(pB, "x")
        assert q * pB + r == p
        assert r.degree_in("x") < nroots


def _divmod_reference(p: MultiPoly, divisor: MultiPoly, var: str):
    """Plain long division by a divisor monic in `var`, one leading x-power at a time."""
    i = p.ring.index(var)
    n = divisor.degree_in(var)
    lead = {e[:i] + (0,) + e[i + 1 :]: c for e, c in divisor.terms.items() if e[i] == n}
    inv_lc = MultiPoly(p.ring, lead).constant_value().inverse()
    q, r = p.ring.zero(), p
    while True:
        k = r.degree_in(var)
        if k < n:
            return q, r
        top = {e[:i] + (0,) + e[i + 1 :]: c for e, c in r.terms.items() if e[i] == k}
        factor = MultiPoly(p.ring, top) * inv_lc
        shift = p.ring.monomial({var: k - n})
        q = q + factor * shift
        r = r - factor * shift * divisor


_DIV_VARS = {2: ("x", "b"), 3: ("a", "x", "b")}
_exps = st.lists(st.integers(0, 3), min_size=3, max_size=3)


@st.composite
def _division_case(draw):
    """(dividend, divisor) in 2-3 variables at conductor 5; divisor monic in x."""
    R = Ring(_DIV_VARS[draw(st.sampled_from([2, 3]))], 5)
    zeta = R.root()

    def poly(terms):
        out = R.zero()
        for xk, rest, c, z in terms:
            exps = dict(zip((v for v in R.vars if v != "x"), rest))
            exps["x"] = xk
            out = out + R.monomial(exps, c) * zeta**z
        return out

    coeff = st.integers(-3, 3).filter(bool)
    term = lambda xdeg: st.tuples(xdeg, _exps, coeff, st.integers(0, 4))
    dividend = poly(draw(st.lists(term(st.integers(0, 14)), max_size=6)))
    n = draw(st.integers(0, 4))
    lead = draw(st.sampled_from([R.one(), R.const(2), R.const(zeta)]))
    low = poly(draw(st.lists(term(st.integers(0, n - 1)), max_size=4))) if n else R.zero()
    return dividend, lead * R.var("x") ** n + low


class TestPowerTableDivision:
    """divmod_in_var through the per-divisor table of x^k = quo_k*q + rem_k."""

    @given(_division_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_long_division(self, case):
        p, divisor = case
        q, r = p.divmod_in_var(divisor, "x")
        assert q * divisor + r == p
        assert r.degree_in("x") < divisor.degree_in("x")
        assert (q, r) == _divmod_reference(p, divisor, "x")

    def test_constant_divisor(self):
        R = Ring(["a", "x"], 5)
        p = R.parse("a^2*x^3 - 3*x + z*a")
        c = R.const(R.root(2) + 3)
        q, r = p.divmod_in_var(c, "x")
        assert r.is_zero() and q * c == p
        assert (q, r) == _divmod_reference(p, c, "x")

    def test_rows_out_of_order_match_fresh_table(self):
        R = Ring(["a", "x", "b"], 7)
        divisor = R.p_S([1, 4, 6], "x", "b") + R.parse("a*b*x - a^2")
        polycalc._power_table.cache_clear()
        dividends = [R.parse(t) for t in ("a*x^3", "x^12*b - x", "z*x^5*a*b^2")]
        out_of_order = [p.divmod_in_var(divisor, "x") for p in dividends]
        assert polycalc._power_table.cache_info().currsize == 1
        assert len(polycalc._power_table(R, "x", divisor).rows) == 12 - 3 + 1
        for p, got in zip(dividends, out_of_order):
            polycalc._power_table.cache_clear()
            assert p.divmod_in_var(divisor, "x") == got == _divmod_reference(p, divisor, "x")

    def test_bad_divisors_raise_every_time(self):
        R = Ring(["a", "x"], 3)
        a, x = R.var("a"), R.var("x")
        before = polycalc._power_table.cache_info()
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                x.divmod_in_var(R.zero(), "x")
            with pytest.raises(ValueError):
                (x**2).divmod_in_var(a * x, "x")
        # each call built a table anew and none was kept
        after = polycalc._power_table.cache_info()
        assert after.currsize == before.currsize and after.misses == before.misses + 4

    def test_corrupted_row_fails_identity(self):
        # negative control: the identity check sees a wrong table row
        R = Ring(["a", "x", "b"], 5)
        divisor = R.p_S([0, 2], "x", "b") + R.parse("a*b")
        p = R.parse("a*x^6 + b*x")
        polycalc._power_table.cache_clear()
        try:
            q, r = p.divmod_in_var(divisor, "x")
            assert q * divisor + r == p
            quo6, rem6 = polycalc._power_table(R, "x", divisor).row(6)
            rem6.terms[(0, 0, 3)] = R.root()
            q, r = p.divmod_in_var(divisor, "x")
            assert q * divisor + r != p
        finally:
            polycalc._power_table.cache_clear()


class TestSubstitution:
    def test_scale_map_to_other_ring(self):
        R = Ring(["a", "b"], 4)
        T = Ring(["u", "w", "v"], 4)
        p = R.var("a") ** 2 + R.var("b") ** 2
        q = p.subst_scale({"a": (1, "u"), "b": (R.root(1), "v")}, T)
        assert q == T.var("u") ** 2 - T.var("v") ** 2

    def test_scale_merging_slots(self):
        # a,b both land on the same target variable
        R = Ring(["a", "b"], 3)
        p = R.var("a") * R.var("b")
        T = Ring(["t"], 3)
        assert p.subst_scale({"a": (1, "t"), "b": (1, "t")}, T) == T.var("t") ** 2

    def test_unmapped_occurring_var_raises(self):
        R = Ring(["a", "b"], 3)
        with pytest.raises(KeyError):
            R.var("b").subst_scale({"a": (1, "a")}, R)

    def test_rename(self):
        R = Ring(["a", "b"], 3)
        T = Ring(["a", "x1", "b"], 3)
        p = R.p_S([0, 1])
        q = p.rename({"b": "x1"}, T)
        assert q == T.p_S([0, 1], "a", "x1")

    def test_rename_into_smaller_ring(self):
        # dropping a variable is fine as long as it never occurs
        R = Ring(["a", "x1", "b"], 3)
        T = Ring(["a", "b"], 3)
        p = R.var("a") * R.var("b") + R.const(2)
        assert p.rename({}, T) == T.var("a") * T.var("b") + T.const(2)
        with pytest.raises(KeyError):
            (p * R.var("x1")).rename({}, T)

    def test_conductor_lift_through_subst(self):
        # every ring map stays within one conductor: a lift is refused
        R = Ring(["a"], 3)
        T = Ring(["a"], 6)
        p = R.var("a") * R.root(1)  # zeta_3 * a
        with pytest.raises(RingMismatch):
            p.subst_scale({"a": (1, "a")}, T)
        with pytest.raises(RingMismatch):
            p.rename({}, T)
        assert p.subst_scale({"a": (R.root(1), "a")}, R) == R.var("a") * R.root(2)


def _subst_reference(p: MultiPoly, mapping, target: Ring) -> MultiPoly:
    """The substitution loop as it was before plans: columns built per call,
    then each term's exponents moved and its coefficient scaled."""
    cols = []
    for i, v in enumerate(p.ring.vars):
        if v in mapping:
            sc, dst = mapping[v]
            sc = target.coerce_scalar(sc)
            cols.append((i, target.index(dst), None if sc.is_one() else sc))
        else:
            cols.append((i, None, None))
    out: dict = {}
    for e, coeff in p.terms.items():
        ne = [0] * len(target.vars)
        for i, j, sc in cols:
            k = e[i]
            if k == 0:
                continue
            if j is None:
                raise KeyError(f"variable {p.ring.vars[i]!r} occurs but is not mapped")
            ne[j] += k
            if sc is not None:
                coeff = coeff * sc**k
                if coeff.is_zero():
                    break
        else:
            key = tuple(ne)
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
    return MultiPoly(target, out)


def _seeded_poly(rng, ring: Ring, nterms: int, skip=()) -> MultiPoly:
    """Up to `nterms` terms of degree <= 3 per variable, none in `skip`, with
    coefficients mixing rationals and powers of zeta."""
    n = ring.conductor
    terms = {}
    for _ in range(nterms):
        e = tuple(0 if v in skip else rng.randrange(4) for v in ring.vars)
        c = Cyclo.from_rat(n, Rat(rng.randint(-4, 4), rng.randint(1, 3)))
        terms[e] = c + Cyclo.root(n, rng.randrange(n)) * rng.randint(-2, 2)
    return MultiPoly(ring, terms)


def _terms(p: MultiPoly) -> list:
    return list(p.terms.items())


_CONDUCTORS = range(3, 13)


class TestSubstitutionPlan:
    """`subst_scale`, `rename` and a kept plan against the loop they replace,
    term for term, on seeded polynomials at conductors 3..12."""

    @pytest.mark.parametrize("n", _CONDUCTORS)
    def test_plan_matches_the_loop(self, n):
        rng = random.Random(n)
        R = Ring(["a", "x1", "x2", "b"], n)
        T = Ring(["a", "y", "b"], n)
        scalars = [1, -1, Rat(1, 2), 0] + [Cyclo.root(n, k) for k in range(1, n)]
        seen_zero = seen_power = seen_merge = False
        for _ in range(30):
            # x2 is dropped (unmapped, and never occurs) in half of the cases
            drop = rng.random() < 0.5
            mapping = {v: (rng.choice(scalars), rng.choice(T.vars)) for v in R.vars
                       if not (drop and v == "x2")}
            p = _seeded_poly(rng, R, rng.randint(1, 8), skip=("x2",) if drop else ())
            want = _subst_reference(p, mapping, T)
            assert _terms(p.subst_scale(mapping, T)) == _terms(want)
            plan = polycalc.subst_plan(R, mapping, T)
            assert _terms(p.substituted(plan, T)) == _terms(want)
            zeroed = any(mapping[v][0] == 0 for v in mapping)
            seen_zero |= zeroed and len(want.terms) < len(p.terms)
            seen_power |= any(e[R.index(v)] > 1 and mapping[v][0] not in (0, 1)
                              for e in p.terms for v in mapping)
            seen_merge |= len({w for _, w in mapping.values()}) < len(mapping)
        assert seen_zero and seen_power and seen_merge

    @pytest.mark.parametrize("n", _CONDUCTORS)
    def test_rename_matches_the_loop_and_builds_no_scalar(self, n, monkeypatch):
        rng = random.Random(100 + n)
        R = Ring(["a", "x1", "x2", "b"], n)
        T = Ring(["a", "x1", "b"], n)
        cases = []
        for _ in range(20):
            p = _seeded_poly(rng, R, rng.randint(1, 8), skip=("x1",))
            name_map = {"x2": "x1"} if rng.random() < 0.5 else {"x2": "x1", "a": "a"}
            old = {v: (1, name_map.get(v, v)) for v in R.vars if name_map.get(v, v) in T.vars}
            cases.append((p, name_map, _subst_reference(p, old, T)))
        calls = []
        from_rat = Cyclo.from_rat

        def counted(*args):
            calls.append(args)
            return from_rat(*args)

        monkeypatch.setattr(Cyclo, "from_rat", staticmethod(counted))
        for p, name_map, want in cases:
            assert _terms(p.rename(name_map, T)) == _terms(want)
        assert calls == []

    def test_unmapped_variable_and_conductor_errors_are_unchanged(self):
        R = Ring(["a", "x1", "b"], 3)
        T = Ring(["a", "b"], 3)
        p = R.var("a") * R.var("x1")
        with pytest.raises(KeyError, match="variable 'x1' occurs but is not mapped"):
            p.rename({}, T)
        with pytest.raises(KeyError, match="variable 'x1' occurs but is not mapped"):
            p.subst_scale({"a": (1, "a"), "b": (1, "b")}, T)
        with pytest.raises(KeyError, match="variable 'y' not in ring"):
            p.subst_scale({"a": (1, "y")}, T)
        other = Ring(["a", "b"], 6)
        for call in (lambda: p.rename({}, other),
                     lambda: p.subst_scale({"a": (1, "a")}, other),
                     lambda: polycalc.subst_plan(R, {}, other)):
            with pytest.raises(RingMismatch, match="conductor 3 vs 6"):
                call()
        with pytest.raises(RingMismatch, match="scalar conductor 6 vs ring conductor 3"):
            p.subst_scale({"a": (Cyclo.root(6, 1), "a"), "x1": (1, "a")}, T)


def _p_S_reference(ring: Ring, residues, v1="a", v2="b") -> MultiPoly:
    """`Ring.p_S` as it was before the root-product table: the linear
    factors multiplied in turn."""
    out = ring.one()
    x, y = ring.var(v1), ring.var(v2)
    for i in residues:
        out = out * (x - y * ring.root(i))
    return out


def _double_loop(a: dict, b: dict) -> dict:
    """The product of two term dicts with every coefficient pair multiplied,
    the shorter factor outermost, each exponent in the place of its first
    product."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = ca * cb if e not in out else out[e] + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


class TestProductTerms:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_unit_coefficients_match_the_double_loop(self, data):
        # the many-term path copies a unit coefficient's partner; the terms,
        # their values and their order are the double loop's
        n = data.draw(st.sampled_from([3, 4, 5, 7, 12]), label="n")
        one = Cyclo.one(n)
        coeff = st.one_of(
            st.just(one),
            st.integers(-3, 3).filter(bool).map(lambda k: Cyclo.from_rat(n, k)),
            st.integers(1, n - 1).map(lambda k: Cyclo.root(n, k)),
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any).map(
                lambda t: Cyclo(n, t)),
        )
        terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                coeff, min_size=2, max_size=6)
        a, b = data.draw(terms, label="a"), data.draw(terms, label="b")
        got = polycalc.product_terms(a, b)
        assert list(got.items()) == list(_double_loop(a, b).items())

    def test_units_on_both_sides_cancel_and_order(self):
        # (a + b)(a - b): unit coefficients on both factors, and the a*b
        # terms cancel, so the loop's zero filter is exercised
        one, n1 = Cyclo.one(5), Cyclo.from_rat(5, -1)
        a = {(1, 0): one, (0, 1): one}
        b = {(1, 0): one, (0, 1): n1}
        got = polycalc.product_terms(a, b)
        assert list(got.items()) == [((2, 0), one), ((0, 2), n1)]
        assert got[(2, 0)] is one


class TestRootProductTable:
    """`Ring.p_S` reads `_root_product`; against the product loop it
    replaced, term for term and in order, at conductors 3..12."""

    # (ring variables, (v1, v2) pairs): both orders in a 2-slot ring, and
    # pairs that skip or include the junction variable in a 3-slot one
    _PLACES = ((("a", "b"), (("a", "b"), ("b", "a"))),
               (("a", "x1", "b"), (("a", "x1"), ("x1", "b"), ("b", "a"), ("x1", "a"))))

    @pytest.mark.parametrize("n", _CONDUCTORS)
    def test_table_matches_the_loop(self, n):
        rng = random.Random(n)
        sets = [(), tuple(range(n)), (0, 0), (1, n + 1, 1 - n)]
        sets += [tuple(rng.randrange(-n, 2 * n) for _ in range(rng.randint(1, n + 2)))
                 for _ in range(12)]
        sets += [tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1)))) for _ in range(12)]
        for names, pairs in self._PLACES:
            R = Ring(names, n)
            for S in sets:
                for v1, v2 in pairs:
                    got, want = R.p_S(S, v1, v2), _p_S_reference(R, S, v1, v2)
                    assert _terms(got) == _terms(want)

    def test_loop_order_that_is_not_descending(self):
        # p_{0,1,2,4} at conductor 6 has no a^2 b^2 term, so the factor for 5
        # places a^3 b^2 after the powers that stayed, and the table keeps that
        R = Ring(["a", "b"], 6)
        got = R.p_S([0, 1, 2, 4, 5])
        assert list(got.terms) == [(5, 0), (4, 1), (2, 3), (1, 4), (3, 2), (0, 5)]
        assert _terms(got) == _terms(_p_S_reference(R, [0, 1, 2, 4, 5]))

    def test_each_key_is_computed_once(self, monkeypatch):
        polycalc._root_product.cache_clear()
        calls = []
        mul = Cyclo.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Cyclo, "__mul__", counted)
        R2, R3 = Ring(["a", "b"], 7), Ring(["a", "x1", "b"], 7)
        first = R2.p_S([0, 2, 5])
        assert calls
        del calls[:]
        # one key for every ring, variable pair and residue representative
        again = [R2.p_S([0, 2, 5]), R2.p_S([7, 9, -2], "b", "a"), R3.p_S([0, 2, 5], "x1", "b")]
        info = polycalc._root_product.cache_info()
        assert calls == [] and (info.currsize, info.misses, info.hits) == (1, 1, 3)
        assert polycalc._root_product(7, (0, 2, 5)) is polycalc._root_product(7, (0, 2, 5))
        assert again[0] == first
        R2.p_S([5, 2, 0])  # another order of the factors is another key
        assert calls and polycalc._root_product.cache_info().currsize == 2

    def test_variables_must_differ(self):
        R = Ring(["a", "b"], 5)
        with pytest.raises(ValueError, match="two distinct variables"):
            R.p_S([1], "a", "a")
        with pytest.raises(KeyError, match="variable 'x' not in ring"):
            R.p_S([1], "x", "b")


class TestTextualForm:
    def test_spec_style_term(self):
        R = Ring(["a", "x1", "b"], 3)
        p = R.parse("3/2*a^2*x1*b")
        assert p == R.monomial({"a": 2, "x1": 1, "b": 1}, Rat(3, 2))

    def test_round_trip_simple(self):
        R = Ring(["a", "b"], 4)
        for text in ["a^2 + b^2", "a - z*b", "0", "1", "-a", "2/3"]:
            p = R.parse(text)
            assert R.parse(str(p)) == p

    def test_round_trip_cyclo_coeffs(self):
        R = Ring(["a", "b"], 5)
        p = R.p_S([1, 2])  # coefficients involve zeta_5 sums
        assert R.parse(str(p)) == p

    def test_parenthesized_coefficient(self):
        R = Ring(["a"], 3)
        p = R.parse("(1 + z)*a")
        assert p == R.var("a") * (R.root(0) + R.root(1))

    def test_nested_expression(self):
        R = Ring(["a", "b"], 4)
        assert R.parse("(a - b)*(a + b)") == R.var("a") ** 2 - R.var("b") ** 2

    def test_power_of_paren(self):
        R = Ring(["a", "b"], 4)
        assert R.parse("(a - b)^2") == (R.var("a") - R.var("b")) ** 2

    def test_unknown_variable_rejected(self):
        R = Ring(["a"], 3)
        with pytest.raises(KeyError):
            R.parse("q + 1")

    def test_garbage_rejected(self):
        R = Ring(["a"], 3)
        with pytest.raises(ValueError):
            R.parse("a + + ")
        with pytest.raises(ValueError):
            R.parse("a @ b")

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-9, 9)), max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_randomized(self, triples):
        R = Ring(["a", "b"], 6)
        p = R.zero()
        for i, j, c in triples:
            p = p + R.monomial({"a": i, "b": j}, Rat(c, 3)) * R.root(i % 6)
        assert R.parse(str(p)) == p


class TestStructureQueries:
    def test_degrees(self):
        R = Ring(["a", "b"], 3)
        p = R.var("a") ** 3 * R.var("b") + R.var("b") ** 2
        assert p.total_degree() == 4
        assert p.degree_in("a") == 3
        assert p.degree_in("b") == 2
        assert R.zero().total_degree() == -1

    def test_homogeneous_degree(self):
        R = Ring(["a", "b"], 3)
        assert (R.var("a") * R.var("b")).homogeneous_degree() == 2
        assert (R.var("a") + R.one()).homogeneous_degree() is None
        assert R.zero().homogeneous_degree() is None

    def test_constant_value(self):
        R = Ring(["a"], 3)
        assert R.const(5).constant_value() == Cyclo.from_rat(3, 5)
        assert R.zero().constant_value().is_zero()
        assert R.var("a").constant_value() is None

    def test_leading_term_grlex(self):
        R = Ring(["a", "b"], 3)
        p = R.var("a") * R.var("b") ** 2 + R.var("a") ** 2 * R.var("b")
        e, c = p.leading_term()
        assert e == (2, 1)  # a^2 b beats a b^2 lexicographically at equal degree

    def test_coefficients_in(self):
        R = Ring(["a", "x", "b"], 3)
        p = R.var("a") * R.var("x") ** 2 + R.var("b") * R.var("x") ** 2 + R.var("a")
        by_x = p.coefficients_in("x")
        assert set(by_x) == {0, 2}
        assert by_x[2] == R.var("a") + R.var("b")
        assert by_x[0] == R.var("a")


class TestFactorisation:
    def test_factorisation_square(self):
        # the defining property the whole package rests on: D = [[0, p1c],
        # [p1, 0]] squares to W*id, i.e. both off-diagonal products are W
        d = 4
        R = Ring(["a", "b"], d)
        z = R.zero()
        p1 = R.p_S([0])
        p1c = R.p_S([1, 2, 3])
        D = ((z, p1c), (p1, z))
        W = R.var("a") ** d - R.var("b") ** d
        assert D[0][1] * D[1][0] == W
        assert D[1][0] * D[0][1] == W
