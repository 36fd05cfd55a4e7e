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
    PolyMatrix,
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

    def test_not_divisible_carries_remainder(self):
        R = Ring(["a", "b"], 3)
        a, b = R.var("a"), R.var("b")
        with pytest.raises(NotDivisibleError) as exc:
            (a**2 + b).exact_divide(a - b)
        assert exc.value.remainder == b**2 + b

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
        key = (R, "x", divisor)
        polycalc._DIV_CACHE.pop(key, None)
        dividends = [R.parse(t) for t in ("a*x^3", "x^12*b - x", "z*x^5*a*b^2")]
        out_of_order = [p.divmod_in_var(divisor, "x") for p in dividends]
        assert len(polycalc._DIV_CACHE[key].rows) == 12 - 3 + 1
        for p, got in zip(dividends, out_of_order):
            polycalc._DIV_CACHE.pop(key)
            assert p.divmod_in_var(divisor, "x") == got == _divmod_reference(p, divisor, "x")

    def test_bad_divisors_raise_every_time(self):
        R = Ring(["a", "x"], 3)
        a, x = R.var("a"), R.var("x")
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                x.divmod_in_var(R.zero(), "x")
            with pytest.raises(ValueError):
                (x**2).divmod_in_var(a * x, "x")
        assert (R, "x", R.zero()) not in polycalc._DIV_CACHE
        assert (R, "x", a * x) not in polycalc._DIV_CACHE

    def test_corrupted_row_fails_identity(self):
        # negative control: the identity check sees a wrong table row
        R = Ring(["a", "x", "b"], 5)
        divisor = R.p_S([0, 2], "x", "b") + R.parse("a*b")
        key = (R, "x", divisor)
        p = R.parse("a*x^6 + b*x")
        polycalc._DIV_CACHE.pop(key, None)
        try:
            q, r = p.divmod_in_var(divisor, "x")
            assert q * divisor + r == p
            quo6, rem6 = polycalc._DIV_CACHE[key].row(6)
            rem6.terms[(0, 0, 3)] = R.root()
            q, r = p.divmod_in_var(divisor, "x")
            assert q * divisor + r != p
        finally:
            polycalc._DIV_CACHE.pop(key, None)


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
        R = Ring(["a"], 3)
        T = Ring(["a"], 6)
        p = R.var("a") * R.root(1)  # zeta_3 * a
        q = p.subst_scale({"a": (1, "a")}, T)
        assert q == T.var("a") * T.root(2)  # zeta_6^2 = zeta_3


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


class TestPolyMatrix:
    def test_factorisation_square(self):
        # the defining property the whole package rests on: D = [[0, p1c],
        # [p1, 0]] squares to W*id, i.e. both off-diagonal products are W
        d = 4
        R = Ring(["a", "b"], d)
        z = R.zero()
        p1 = R.p_S([0])
        p1c = R.p_S([1, 2, 3])
        D = PolyMatrix(R, [[z, p1c], [p1, z]])
        W = R.var("a") ** d - R.var("b") ** d
        assert D[0, 1] * D[1, 0] == W
        assert D[1, 0] * D[0, 1] == W

    def test_shape_errors(self):
        R = Ring(["a"], 3)
        M = PolyMatrix(R, [[R.one(), R.zero()]])
        assert (M.rows, M.cols) == (1, 2)
        with pytest.raises(ValueError, match="ragged"):
            PolyMatrix(R, [[R.one(), R.zero()], [R.one()]])

    def test_ring_mismatch_between_matrices(self):
        R, S = Ring(["a"], 3), Ring(["b"], 3)
        with pytest.raises(RingMismatch):
            PolyMatrix(R, [[S.one()]])
        assert PolyMatrix(R, [[R.one()]]) != PolyMatrix(S, [[S.one()]])

    def test_map_and_is_zero(self):
        R, T = Ring(["a"], 3), Ring(["a", "b"], 3)
        M = PolyMatrix(R, [[R.var("a"), R.zero()]])
        N = M.map(lambda p: p.rename({}, T))
        assert N.ring == T and N[0, 0] == T.var("a")
        assert not M.is_zero() and M.map(lambda p: p * 0).is_zero()

    def test_json_strings(self):
        R = Ring(["a", "b"], 4)
        M = PolyMatrix(R, [[R.p_S([1, 3]), R.zero()]])
        assert M.to_json() == [["a^2 + b^2", "0"]]
