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
    real_value,
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

    def test_real_value_guards_imaginary(self):
        eta = Cyclo.root(6)
        assert close(real_value(-eta / (eta**2 + eta + 1)), -0.5)
        with pytest.raises(ValueError):
            real_value(Cyclo.root(4))  # i is not real


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


def test_json_round_trip():
    x = Cyclo(12, [Rat(1, 2), Rat(-3), Rat(0), Rat(7, 5)])
    j = x.to_json()
    assert j["conductor"] == 12
    assert j["coeffs"] == ["1/2", "-3", "0", "7/5"]
    assert Cyclo.from_json(j) == x


def test_rat_str_parse():
    assert rat_str(Rat(-3, 4)) == "-3/4"
    assert rat_str(Rat(5)) == "5"
    assert parse_rat("-3/4") == Rat(-3, 4)
    assert parse_rat("17") == Rat(17)
