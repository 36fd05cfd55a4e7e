from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mbf.exactalg import Cyclo, modular_prime
from mbf.linalg import nullspace, rank_mod_p, rref, solve


def C(n, v):
    return Cyclo.from_rat(n, v)


def mat(n, rows):
    return [[C(n, v) for v in r] for r in rows]


def sympy_rank(m):
    """The rank of a matrix of rational `Cyclo` entries, computed by sympy."""
    rational = lambda q: sympy.Rational(q.numerator, q.denominator)  # noqa: E731
    return sympy.Matrix([[rational(c.is_rational()) for c in row] for row in m]).rank()


class TestRref:
    def test_identity_fixed(self):
        m = mat(1, [[1, 0], [0, 1]])
        r, piv = rref(m)
        assert r == m and piv == [0, 1]

    def test_rank_deficient(self):
        m = mat(1, [[1, 2], [2, 4]])
        r, piv = rref(m)
        assert piv == [0]
        assert r[1] == [C(1, 0), C(1, 0)]

    def test_with_roots(self):
        # rows (1, i) and (i, -1) are proportional over Q(i)
        i = Cyclo.root(4, 1)
        m = [[Cyclo.one(4), i], [i, -Cyclo.one(4)]]
        assert len(rref(m)[1]) == 1

    def test_rational_pivoting(self):
        m = mat(1, [[0, 2], [3, 1]])
        r, piv = rref(m)
        assert piv == [0, 1]
        assert r == mat(1, [[1, 0], [0, 1]])


class TestNullspace:
    def test_simple_kernel(self):
        m = mat(1, [[1, 1, 0], [0, 0, 1]])
        basis = nullspace(m, 1)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == -v[1] and v[2].is_zero()

    def test_full_rank_trivial_kernel(self):
        m = mat(1, [[1, 0], [0, 1]])
        assert nullspace(m, 1) == []

    def test_zero_matrix(self):
        m = mat(1, [[0, 0]])
        basis = nullspace(m, 1)
        assert len(basis) == 2

    def test_no_columns(self):
        assert nullspace([], 1, ncols=0) == []

    def test_members_annihilate(self):
        m = mat(1, [[2, 1, 3], [1, 1, 1]])
        for v in nullspace(m, 1):
            for row in m:
                s = C(1, 0)
                for a, x in zip(row, v):
                    s = s + a * x
                assert s.is_zero()


class TestSolve:
    def test_unique(self):
        m = mat(1, [[2, 0], [0, 3]])
        x = solve(m, [C(1, 4), C(1, 9)], 1)
        assert x == [C(1, 2), C(1, 3)]

    def test_inconsistent_is_none(self):
        m = mat(1, [[1, 1], [1, 1]])
        assert solve(m, [C(1, 1), C(1, 2)], 1) is None

    def test_underdetermined_free_vars_zero(self):
        m = mat(1, [[1, 1]])
        x = solve(m, [C(1, 5)], 1)
        assert x == [C(1, 5), C(1, 0)]

    def test_solution_satisfies_system(self):
        n = 12
        z = Cyclo.root(n, 1)
        m = [
            [z, Cyclo.one(n), Cyclo.zero(n)],
            [Cyclo.zero(n), z * z, Cyclo.one(n)],
        ]
        rhs = [z * 3, Cyclo.one(n)]
        x = solve(m, rhs, n)
        assert x is not None
        for row, want in zip(m, rhs):
            s = Cyclo.zero(n)
            for a, v in zip(row, x):
                s = s + a * v
            assert s == want

    def test_empty_system(self):
        assert solve([], [], 1) == []


@st.composite
def rational_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return mat(1, data)


@given(rational_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    cols = len(m[0])
    assert sympy_rank(m) + len(nullspace(m, 1)) == cols


@given(rational_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


@st.composite
def fraction_systems(draw):
    """(rows, rhs): a 1..5 x 1..5 matrix of small fractions, zeros frequent,
    and a right side of the same kind."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=3))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return data, draw(st.lists(entry, min_size=rows, max_size=rows))


def rationals(vector):
    return [c.is_rational() for c in vector]


def from_sympy(column):
    return [Fraction(int(x.p), int(x.q)) for x in column]


class TestSympyOracle:
    """The canonical answers `mbf hom` prints: the nullspace basis and the
    particular solution are read from the unique reduced row echelon form,
    so they must equal sympy's, vector for vector."""

    @given(fraction_systems())
    @settings(max_examples=150, deadline=None)
    def test_nullspace_and_solve(self, system):
        data, rhs = system
        rational = lambda x: sympy.Rational(x.numerator, x.denominator)  # noqa: E731
        A = sympy.Matrix([[rational(x) for x in row] for row in data])
        b = sympy.Matrix([rational(x) for x in rhs])
        m = mat(1, data)
        assert [rationals(v) for v in nullspace(m, 1)] == [from_sympy(v) for v in A.nullspace()]
        try:
            sol, params = A.gauss_jordan_solve(b)
        except ValueError:  # sympy: no solution
            want = None
        else:
            want = from_sympy(sol.xreplace({t: 0 for t in params}))
        got = solve(m, [C(1, x) for x in rhs], 1)
        assert (got if got is None else rationals(got)) == want

    def test_sparse_rows_give_the_dense_basis(self):
        """{index: value} rows, zeros left out and the last column empty,
        give the same basis and solution as the same dense rows."""
        data = [[0, 2, 0, 1, 0], [1, 0, 0, 3, 0], [2, 2, 0, 7, 0]]
        dense = mat(1, data)
        sparse = [{c: C(1, x) for c, x in enumerate(row) if x} for row in data]
        basis = nullspace(dense, 1)
        assert len(basis) == 3
        assert nullspace(sparse, 1, ncols=5) == basis
        rhs = [C(1, 1), C(1, 0), C(1, 2)]
        assert solve(sparse, {0: rhs[0], 2: rhs[2]}, 1, ncols=5) == solve(dense, rhs, 1)


class TestEchelon:
    def test_incremental_rank_matches_batch(self):
        from mbf.linalg import Echelon

        rows = mat(1, [[1, 2, 0], [2, 4, 0], [0, 1, 1], [1, 3, 1]])
        ech = Echelon()
        outcomes = [ech.insert(r) for r in rows]
        assert outcomes == [True, False, True, False]
        assert ech.rank == sympy_rank(rows)

    @given(rational_matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank_agrees(self, m):
        from mbf.linalg import Echelon

        ech = Echelon()
        for row in m:
            ech.insert(row)
        assert ech.rank == sympy_rank(m)


def residues(m, n):
    """The rows of m as sparse residue vectors at `modular_prime(n)`, zeros
    included, or None when an entry's denominator is divisible by p."""
    p, r = modular_prime(n)
    rows = [{c: e.reduce_mod(p, r) for c, e in enumerate(row)} for row in m]
    return None if any(None in v.values() for v in rows) else rows


def columns(rows):
    cols = {}
    for i, v in enumerate(rows):
        for c, x in v.items():
            cols.setdefault(c, {})[i] = x
    return list(cols.values())


class TestRankModP:
    @given(rational_matrices())
    @settings(max_examples=60, deadline=None)
    def test_small_integers_keep_their_rank(self, m):
        p, _ = modular_prime(1)
        rows = residues(m, 1)
        assert rank_mod_p(rows, p) == rank_mod_p(columns(rows), p) == sympy_rank(m)

    def test_cyclotomic_entries(self):
        # rows (1, i) and (i, -1) are proportional over Q(i), and so mod p
        i = Cyclo.root(4, 1)
        one = Cyclo.one(4)
        p, _ = modular_prime(4)
        m = [[one, i], [i, -one]]
        assert rank_mod_p(residues(m, 4), p) == len(rref(m)[1]) == 1
        assert rank_mod_p(residues([[one, i], [i, one]], 4), p) == 2

    def test_entry_equal_to_p_is_only_a_lower_bound(self):
        """Negative control: p reduces to 0, so the bound falls short."""
        for n in (3, 4, 5):
            p, _ = modular_prime(n)
            m = mat(n, [[p]])
            assert residues(m, n) == [{0: 0}]
            assert (rank_mod_p(residues(m, n), p), sympy_rank(m)) == (0, 1)

    def test_denominator_divisible_by_p_gives_none(self):
        """An entry 1/p has no residue, so the matrix never reaches the rank
        count; p/3 reduces to 0 and the bound is 1 of 2."""
        p, _ = modular_prime(4)
        m = mat(4, [[1, 0], [0, Fraction(1, p)]])
        assert residues(m, 4) is None and sympy_rank(m) == 2
        assert rank_mod_p(residues(mat(4, [[1, 0], [0, Fraction(p, 3)]]), 4), p) == 1

    def test_input_is_left_alone(self):
        p, _ = modular_prime(5)
        rows = [{0: 2, 1: 0}, {0: 4, 2: p - 1}]
        assert rank_mod_p(rows, p) == 2
        assert rows == [{0: 2, 1: 0}, {0: 4, 2: p - 1}]

    def test_empty(self):
        p, _ = modular_prime(5)
        assert rank_mod_p([], p) == 0
        assert rank_mod_p(residues(mat(5, [[0, 0], [0, 0]]), 5), p) == 0
