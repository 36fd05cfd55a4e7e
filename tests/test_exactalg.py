import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbf._rat import Rat, parse_rat, rat_str
from mbf.exactalg import (
    ConductorMismatch,
    Cyclo,
    cyclotomic_poly,
    euler_phi,
)


def close(a, b, tol=1e-30):
    return abs(mpmath.mpc(a) - mpmath.mpc(b)) < tol


class TestCyclotomicPoly:
    def test_small_conductors(self):
        # Phi_1 = t-1, Phi_2 = t+1, Phi_3 = t^2+t+1, Phi_4 = t^2+1,
        # Phi_6 = t^2-t+1, Phi_12 = t^4-t^2+1
        assert cyclotomic_poly(1) == (Rat(-1), Rat(1))
        assert cyclotomic_poly(2) == (Rat(1), Rat(1))
        assert cyclotomic_poly(3) == (Rat(1), Rat(1), Rat(1))
        assert cyclotomic_poly(4) == (Rat(1), Rat(0), Rat(1))
        assert cyclotomic_poly(6) == (Rat(1), Rat(-1), Rat(1))
        assert cyclotomic_poly(12) == (Rat(1), Rat(0), Rat(-1), Rat(0), Rat(1))

    @pytest.mark.parametrize("n,phi", [(1, 1), (2, 1), (5, 4), (7, 6), (8, 4), (9, 6), (10, 4), (12, 4)])
    def test_euler_phi(self, n, phi):
        assert euler_phi(n) == phi

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 24])
    def test_root_vanishes_numerically(self, n):
        # the numeric primitive root must be a root of Phi_n
        coeffs = cyclotomic_poly(n)
        with mpmath.workprec(192):
            z = mpmath.e ** (2j * mpmath.pi / n)
            val = mpmath.mpc(0)
            for c in reversed(coeffs):
                val = val * z + int(c)
        assert abs(val) < 1e-40


class TestCycloArithmetic:
    def test_known_relations(self):
        eta6 = Cyclo.root(6)
        assert eta6**2 + eta6 + 1 == 2 * eta6  # since eta6^2 = eta6 - 1
        zeta3 = Cyclo.root(3)
        assert zeta3 + zeta3**2 == -1
        i = Cyclo.root(4)
        assert i * i == -1
        # numeric cross-check of the n=6 relation against exp(i*pi/3)
        with mpmath.workprec(128):
            e = mpmath.e ** (1j * mpmath.pi / 3)
            assert close((eta6**2 + eta6 + 1).to_complex(), e * 2)

    def test_is_one(self):
        for n in (1, 2, 5, 12):
            assert Cyclo.one(n).is_one() and (Cyclo.root(n) ** n).is_one()
            others = [Cyclo.zero(n), Cyclo.from_rat(n, Rat(1, 2)), Cyclo.from_rat(n, -1)]
            if n > 2:
                others += [Cyclo.root(n), Cyclo.root(n) + 1]
            assert not any(x.is_one() for x in others)

    def test_power_basis_reduction(self):
        # zeta_12^4 has degree beyond phi(12)=4 basis only after products
        z = Cyclo.root(12)
        assert z**12 == 1
        assert z**6 == -1
        # canonical: coefficients live in the phi(n)-dim basis
        assert len((z**7).coeffs) == 4

    def test_conductor_mismatch_raises(self):
        with pytest.raises(ConductorMismatch):
            Cyclo.root(3) + Cyclo.root(4)
        with pytest.raises(ConductorMismatch):
            Cyclo.root(3) * Cyclo.root(4)

    def test_lift(self):
        assert Cyclo.root(3).lift(12) == Cyclo.root(12, 4)
        assert Cyclo.root(2).lift(6) == Cyclo.root(6, 3)
        x = Cyclo.root(6) + 2
        assert close(x.lift(24).to_complex(), x.to_complex())
        with pytest.raises(ConductorMismatch):
            Cyclo.root(5).lift(12)

    def test_division_and_inverse(self):
        eta = Cyclo.root(5)
        x = eta**3 - 2 * eta + Cyclo.from_rat(5, Rat(1, 3))
        assert x * x.inverse() == 1
        assert Cyclo.one(5) / x * x == 1
        with pytest.raises(ZeroDivisionError):
            Cyclo.zero(5).inverse()

    def test_ratio_examples(self):
        # -eta/(eta^2+eta+1) at d=6 is exactly -1/2; at d=4 exactly -1
        eta = Cyclo.root(6)
        assert -eta / (eta**2 + eta + 1) == Cyclo.from_rat(6, Rat(-1, 2))
        i = Cyclo.root(4)
        assert -i / (i**2 + i + 1) == Cyclo.from_rat(4, -1)


def cyclos(n):
    coeff = st.integers(min_value=-9, max_value=9)
    return st.lists(coeff, min_size=0, max_size=euler_phi(n)).map(
        lambda cs: Cyclo(n, [Rat(c) for c in cs])
    )


@settings(max_examples=60, deadline=None)
@given(cyclos(12), cyclos(12), cyclos(12))
def test_field_axioms_n12(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Cyclo.zero(12) == a
    assert a * Cyclo.one(12) == a
    assert a - a == Cyclo.zero(12)
    if not a.is_zero():
        assert a * a.inverse() == Cyclo.one(12)


@settings(max_examples=40, deadline=None)
@given(cyclos(7), cyclos(7))
def test_embedding_is_ring_hom(a, b):
    assert close((a + b).to_complex(), a.to_complex() + b.to_complex(), 1e-28)
    assert close((a * b).to_complex(), a.to_complex() * b.to_complex(), 1e-26)


def test_rat_str_parse():
    assert rat_str(Rat(-3, 4)) == "-3/4"
    assert rat_str(Rat(5)) == "5"
    assert parse_rat("-3/4") == Rat(-3, 4)
    assert parse_rat("17") == Rat(17)


# -- the integer-vector kernel against a Fraction-vector reference -------------

CONDUCTORS = [1, 2, 3, 4, 5, 7, 8, 12]


def ref_reduce(n, cs):
    """Fraction coefficients of sum cs[i]*t^i mod Phi_n, length phi(n)."""
    phi_poly = [Fraction(c) for c in cyclotomic_poly(n)]
    phi = len(phi_poly) - 1
    cs = [Fraction(c) for c in cs]
    for k in range(len(cs) - 1, phi - 1, -1):
        c = cs[k]
        for j, p in enumerate(phi_poly):
            cs[k - phi + j] -= c * p
    return tuple(cs[:phi] + [Fraction(0)] * (phi - len(cs)))


def ref_mul(n, a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_reduce(n, out)


def ref_inverse(n, a):
    """Solve M_a x = e_0 by Gauss-Jordan, M_a the matrix of multiplication by a."""
    phi = len(a)
    cols = [ref_mul(n, a, [Fraction(int(i == j)) for i in range(phi)]) for j in range(phi)]
    rows = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))] for i in range(phi)]
    for c in range(phi):
        p = next(r for r in range(c, phi) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(phi):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return tuple(r[-1] for r in rows)


def assert_canonical(x):
    assert len(x.num) == euler_phi(x.n)
    assert type(x.den) is int and all(type(c) is int for c in x.num)
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def ref_vectors(n):
    frac = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.lists(frac, max_size=euler_phi(n) + 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_fraction_reference(data):
    n = data.draw(st.sampled_from(CONDUCTORS), label="n")
    ra = data.draw(ref_vectors(n), label="a")
    rb = data.draw(ref_vectors(n), label="b")
    a, b = Cyclo(n, ra), Cyclo(n, rb)
    fa, fb = ref_reduce(n, ra), ref_reduce(n, rb)
    assert a.coeffs == fa and b.coeffs == fb
    results = {
        "a+b": (a + b, tuple(x + y for x, y in zip(fa, fb))),
        "a-b": (a - b, tuple(x - y for x, y in zip(fa, fb))),
        "-a": (-a, tuple(-x for x in fa)),
        "a*b": (a * b, ref_mul(n, fa, fb)),
        "a*a": (a * a, ref_mul(n, fa, fa)),
    }
    k = data.draw(st.integers(0, 5), label="k")
    power = (Fraction(1),) + (Fraction(0),) * (len(fa) - 1)
    for _ in range(k):
        power = ref_mul(n, power, fa)
    results["a**k"] = (a**k, power)
    if any(fb):
        inv_b = ref_inverse(n, fb)
        results["1/b"] = (b.inverse(), inv_b)
        results["a/b"] = (a / b, ref_mul(n, fa, inv_b))
        results["b**-2"] = (b**-2, ref_mul(n, inv_b, inv_b))
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got.coeffs == want, name
        assert got == Cyclo(n, want) and hash(got) == hash(Cyclo(n, want)), name
    # negative control: mixing conductors must still raise
    m = 3 if n != 3 else 4
    with pytest.raises(ConductorMismatch):
        a + Cyclo.one(m)
    with pytest.raises(ConductorMismatch):
        a * Cyclo.root(m)


def test_equal_values_by_different_routes():
    half = Cyclo.from_rat(6, Rat(1, 2))
    routes = [
        Cyclo.from_rat(6, Rat(1, 3)) + Cyclo.from_rat(6, Rat(1, 6)),
        Cyclo(6, [Rat(2, 4)]),
        Cyclo(6, [0, 0, 0, 0, 0, 0, Rat(1, 2)]),  # zeta^6 / 2, reduced mod Phi_6
        (Cyclo.root(6) * Rat(1, 2)) / Cyclo.root(6),
        Cyclo.from_rat(6, 2).inverse(),
        Cyclo.one(6) - Cyclo.from_rat(6, Rat(1, 2)),
    ]
    for x in routes:
        assert_canonical(x)
        assert (x.n, x.num, x.den) == (6, (1, 0), 2)
        assert x == half and hash(x) == hash(half)
        assert x == Rat(1, 2)
    zero = Cyclo.root(6) - Cyclo.root(6)
    assert (zero.num, zero.den) == ((0, 0), 1)
    assert zero == Cyclo.zero(6) == Cyclo(6, []) == 0
    assert hash(zero) == hash(Cyclo.zero(6))
    assert Cyclo.root(4) ** 2 == -1 == Cyclo(4, [0, 0, 1])


@pytest.mark.parametrize(
    "x, text, coeffs",
    [
        (Cyclo(12, [Rat(1, 2), Rat(-3), Rat(0), Rat(7, 5)]),
         "1/2 + -3*z12 + 7/5*z12^3", ["1/2", "-3", "0", "7/5"]),
        (Cyclo.root(5) ** 3 - 2 * Cyclo.root(5) + Cyclo.from_rat(5, Rat(1, 3)),
         "1/3 + -2*z5 + z5^3", ["1/3", "-2", "0", "1"]),
        ((Cyclo.root(7) + 2).inverse(),
         "21/43 + -11/43*z7 + 5/43*z7^2 + -3/43*z7^3 + 1/43*z7^4 + -1/43*z7^5",
         ["21/43", "-11/43", "5/43", "-3/43", "1/43", "-1/43"]),
        (-Cyclo.root(4) * (Cyclo.root(4) + 1).inverse(), "-1/2 + -1/2*z4", ["-1/2", "-1/2"]),
        (Cyclo(8, [Rat(1, 6), 0, 0, 0, Rat(2, 3), 0, Rat(-1, 4)]),
         "-1/2 + 1/4*z8^2", ["-1/2", "0", "1/4", "0"]),
        (Cyclo.zero(3), "0", ["0", "0"]),
    ],
    ids=["x12", "x5", "inv7", "f4", "long8", "zero3"],
)
def test_printing_edges_unchanged(x, text, coeffs):
    # pinned from the Rat-vector representation this kernel replaced
    assert repr(x) == text
    assert [rat_str(c) for c in x.coeffs] == coeffs
    assert all(isinstance(c, Rat) for c in x.coeffs)
