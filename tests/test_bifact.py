"""Bi-factorisation layer: objects, delta, tensor structure, units, homotopies."""

import pytest
from hypothesis import given, settings, strategies as st

from mbf.bifact import (
    _block_offset,
    _kron,
    _tensor_blocks,
    DEFAULT_CUTOFF,
    FreeBimod,
    MBF,
    Morphism,
    Operator,
    SlotShape,
    associator,
    associator_inv,
    fermat_potential,
    homotopy_psi,
    mbf_from_polys,
    morphism_equal,
    mu_relation_check,
    op_equal,
    pentagon_check,
    ps_object,
    rxa_lemma_check,
    tensor_mor,
    tensor_obj,
    triangle_check,
    twist_iso_ps,
    twist_object,
    unit_coincidence_check,
    unit_isos,
    unit_isos_inverse,
    unit_object,
    validate_mbf,
    w_mul,
    w_transfer,
    Word,
)
from mbf.exactalg import Cyclo
from mbf.polycalc import PolyMatrix, Ring


def strs(pm):
    return [[str(p) for p in row] for row in pm.entries]


class TestValidate:
    def test_unit_cubic_exact(self):
        I = unit_object(fermat_potential(3))
        rep = validate_mbf(I)
        assert rep.ok and rep.mode == "exact"
        # the telescoping identity behind it, as the 1x1 entry product d1*d0
        ring = I.shape.ring()
        prod = I.d1.pure_mul_matrix()[0, 0] * I.d0.pure_mul_matrix()[0, 0]
        assert prod == ring.parse("a^3 - b^3")

    def test_ps_d4(self):
        assert validate_mbf(ps_object(4, [1])).ok

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_ps_complement_product(self, d):
        P = ps_object(d, [0])
        ring = P.shape.ring()
        prod = P.d1.pure_mul_matrix()[0, 0] * P.d0.pure_mul_matrix()[0, 0]
        assert prod == ring.var("a") ** d - ring.var("b") ** d

    def test_corrupted_differential_reported(self):
        shape = SlotShape(2, 1, 3)
        ring = shape.ring()
        # drop the a*b term from the correct divided difference
        bad = mbf_from_polys(
            shape,
            [[ring.parse("a^2 + b^2")]],
            [[ring.parse("a - b")]],
            fermat_potential(3),
        )
        rep = validate_mbf(bad)
        assert not rep.ok
        v = rep.violations[0]
        assert v["detail"]["block"] == [0, 0]
        assert v["detail"]["difference"]  # nonzero difference polynomial

    def test_rank_mismatch_rejected(self):
        shape = SlotShape(2, 1, 3)
        ring = shape.ring()
        with pytest.raises(ValueError):
            mbf_from_polys(
                shape,
                [[ring.one()], [ring.one()]],
                [[ring.one()], [ring.one()]],
                fermat_potential(3),
            )


class TestDelta:
    def test_identity_closed(self):
        I = unit_object(fermat_potential(3))
        assert Morphism.identity(I).is_closed()[0]

    def test_odd_psi_pin(self):
        # psi = ([1], 0) odd on the cubic unit maps to ([a-b], [a-b])
        I = unit_object(fermat_potential(3))
        ring = I.shape.ring()
        psi = Morphism.from_poly_blocks(I, I, 1, [[ring.one()]], [[ring.zero()]])
        d = psi.delta()
        assert d.parity == 0
        assert strs(d.opE.pure_mul_matrix()) == [["a - b"]]
        assert strs(d.opO.pure_mul_matrix()) == [["a - b"]]

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("e,o", [("a^2", "b"), ("a*b + 1", "a - 2*b"), ("b^3", "0")])
    def test_delta_squared_zero(self, parity, e, o):
        D = ps_object(4, [0, 2])
        ring = D.shape.ring()
        phi = Morphism.from_poly_blocks(
            D, D, parity, [[ring.parse(e)]], [[ring.parse(o)]]
        )
        dd = phi.delta().delta()
        eq, _ = morphism_equal(dd, Morphism.zero(D, D, parity))
        assert eq

    @given(
        ce=st.integers(-4, 4),
        co=st.integers(-4, 4),
        ke=st.integers(0, 3),
        ko=st.integers(0, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_delta_squared_zero_random(self, ce, co, ke, ko):
        D = ps_object(3, [1])
        ring = D.shape.ring()
        phi = Morphism.from_poly_blocks(
            D,
            D,
            1,
            [[ring.var("a") ** ke * ce]],
            [[ring.var("b") ** ko * co]],
        )
        eq, _ = morphism_equal(phi.delta().delta(), Morphism.zero(D, D, 1))
        assert eq


class TestTensorObject:
    def test_p0_p1_entries(self):
        T = tensor_obj(ps_object(3, [0]), ps_object(3, [1]))
        assert T.m0.rank == 2 and T.m1.rank == 2
        assert T.shape.nslots == 3
        d0 = T.d0.pure_mul_matrix()
        assert strs(d0) == [
            ["a^2 + a*x1 + x1^2", "-x1 + z*b"],
            ["x1^2 + z*x1*b + (-1 - z)*b^2", "a - x1"],
        ]
        assert validate_mbf(T).ok

    def test_unit_tensor_block_layout(self):
        # I (x) D for rank-1 D: the standard four-block pattern
        d = 4
        D = ps_object(d, [1])
        I = unit_object(fermat_potential(d))
        T = tensor_obj(I, D)
        ring = T.shape.ring()
        iota0 = ring.parse("a^3 + a^2*x1 + a*x1^2 + x1^3")
        iota1 = ring.parse("a - x1")
        dd0 = D.d0.pure_mul_matrix()[0, 0].rename({"a": "x1", "b": "b"}, ring)
        dd1 = D.d1.pure_mul_matrix()[0, 0].rename({"a": "x1", "b": "b"}, ring)
        m0 = T.d0.pure_mul_matrix()
        m1 = T.d1.pure_mul_matrix()
        assert m0[0, 0] == iota0 and m0[0, 1] == -dd1
        assert m0[1, 0] == dd0 and m0[1, 1] == iota1
        assert m1[0, 0] == iota1 and m1[0, 1] == dd1
        assert m1[1, 0] == -dd0 and m1[1, 1] == iota0

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_tensor_sweep_valid(self, d):
        Ps = [ps_object(d, [i]) for i in range(d)]
        for i in range(d):
            for j in range(d):
                rep = validate_mbf(tensor_obj(Ps[i], Ps[j]))
                assert rep.ok and rep.mode == "exact", (d, i, j)

    def test_triple_tensor_valid(self):
        P = ps_object(3, [0])
        Q = ps_object(3, [1])
        T = tensor_obj(tensor_obj(P, Q), P)
        assert T.shape.nslots == 4
        assert validate_mbf(T).ok

    def test_potential_mismatch(self):
        with pytest.raises(ValueError):
            tensor_obj(ps_object(3, [0]), ps_object(4, [0]))


class TestTensorMorphism:
    def test_id_tensor_id(self):
        P = ps_object(4, [0])
        Q = ps_object(4, [2])
        t = tensor_mor(Morphism.identity(P), Morphism.identity(Q))
        T = tensor_obj(P, Q)
        eq, mode = morphism_equal(t, Morphism.identity(T))
        assert eq and mode == "exact-structural"

    def test_functoriality(self):
        d = 5
        D = ps_object(d, [1])
        ring = D.shape.ring()
        phi = Morphism.from_poly_blocks(D, D, 0, [[ring.parse("a*b")]], [[ring.parse("a*b")]])
        psi = Morphism.from_poly_blocks(D, D, 0, [[ring.parse("a + b")]], [[ring.parse("a + b")]])
        E = ps_object(d, [3])
        ident = Morphism.identity(E)
        lhs = tensor_mor(phi.compose(psi), ident)
        rhs = tensor_mor(phi, ident).compose(tensor_mor(psi, ident))
        eq, _ = morphism_equal(lhs, rhs)
        assert eq

    def test_mixed_functoriality_with_signs(self):
        # odd (x) odd composition picks up Koszul signs; both routes agree
        d = 4
        D = ps_object(d, [0])
        ring = D.shape.ring()
        f = Morphism.from_poly_blocks(D, D, 1, [[ring.parse("a")]], [[ring.parse("b^2")]])
        g = Morphism.from_poly_blocks(D, D, 1, [[ring.parse("b")]], [[ring.parse("a + b")]])
        lhs = tensor_mor(f.compose(g), Morphism.identity(D))
        rhs = tensor_mor(f, Morphism.identity(D)).compose(
            tensor_mor(g, Morphism.identity(D))
        )
        eq, _ = morphism_equal(lhs, rhs)
        assert eq

    def test_tensor_of_closed_is_closed(self):
        d = 4
        D = ps_object(d, [0])
        ring = D.shape.ring()
        # closed even endomorphism: diagonal multiplication by a
        phi = Morphism.from_poly_blocks(D, D, 0, [[ring.var("a")]], [[ring.var("a")]])
        assert phi.is_closed()[0]
        E = ps_object(d, [1, 2])
        psi = Morphism.from_poly_blocks(E, E, 0, [[ring.parse("b^2")]], [[ring.parse("b^2")]])
        assert psi.is_closed()[0]
        t = tensor_mor(phi, psi)
        ok, _ = t.is_closed()
        assert ok


class TestAssociator:
    def test_round_trip(self):
        P = ps_object(4, [0])
        Q = ps_object(4, [1])
        R = ps_object(4, [3])
        al = associator(P, Q, R)
        ali = associator_inv(P, Q, R)
        eq, mode = morphism_equal(al.compose(ali), Morphism.identity(al.dst))
        assert eq and mode == "exact-structural"
        eq, mode = morphism_equal(ali.compose(al), Morphism.identity(al.src))
        assert eq and mode == "exact-structural"

    def test_associator_closed(self):
        P = ps_object(3, [0])
        Q = ps_object(3, [2])
        al = associator(P, Q, P)
        ok, mode = al.is_closed()
        assert ok and mode == "exact-structural"

    def test_pentagon_singletons_d3(self):
        Ps = [ps_object(3, [i]) for i in range(3)]
        for i in range(3):
            r = pentagon_check(Ps[i], Ps[(i + 1) % 3], Ps[(i + 2) % 3], Ps[i])
            assert r["ok"] and r["mode"] == "exact-structural"

    def test_triangle_pairs(self):
        for d in (3, 6):
            for S1 in ([0], [0, 1]):
                for S2 in ([1],):
                    r = triangle_check(ps_object(d, S1), ps_object(d, S2))
                    assert r["ok"] and r["mode"] == "exact-structural"


class TestUnitObject:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_one_variable_is_p0(self, d):
        I = unit_object(fermat_potential(d))
        P0 = ps_object(d, [0])
        assert I.d0.pure_mul_matrix() == P0.d0.pure_mul_matrix()
        assert I.d1.pure_mul_matrix() == P0.d1.pure_mul_matrix()

    def test_two_variable_quadric_display(self):
        ring = Ring(("x", "y"), 2)
        w = ring.var("x") ** 2 + ring.var("y") ** 2
        I = unit_object(w)
        assert I.m0.rank == 2 and I.m1.rank == 2
        assert strs(I.d0.pure_mul_matrix()) == [
            ["a1 + b1", "-a2 + b2"],
            ["a2 + b2", "a1 - b1"],
        ]
        assert strs(I.d1.pure_mul_matrix()) == [
            ["a1 - b1", "a2 - b2"],
            ["-a2 - b2", "a1 + b1"],
        ]
        rep = validate_mbf(I)
        assert rep.ok and rep.mode == "exact"

    def test_two_variable_cubic(self):
        ring = Ring(("x", "y"), 3)
        w = ring.var("x") ** 3 + ring.var("y") ** 3
        rep = validate_mbf(unit_object(w))
        assert rep.ok and rep.mode == "exact"

    def test_three_variable_cubic(self):
        ring = Ring(("x", "y", "u"), 3)
        w = ring.var("x") ** 3 + ring.var("y") ** 3 + ring.var("u") ** 3
        I = unit_object(w)
        assert I.m0.rank == 4 and I.m1.rank == 4
        rep = validate_mbf(I)
        assert rep.ok and rep.mode == "exact"

    def test_low_degree_rejected(self):
        ring = Ring(("x",), 2)
        with pytest.raises(ValueError):
            unit_object(ring.var("x"))


class TestUnitIsos:
    def test_lambda_after_inverse_cubic(self):
        I = unit_object(fermat_potential(3))
        lam, _ = unit_isos(I)
        lam_inv, _ = unit_isos_inverse(I)
        eq, mode = morphism_equal(lam.compose(lam_inv), Morphism.identity(I))
        assert eq and mode == "exact-structural"

    def test_lambda_closed_p1_d4(self):
        lam, _ = unit_isos(ps_object(4, [1]))
        ok, mode = lam.is_closed()
        assert ok and mode == "exact-structural"

    def test_rho_closed_p01_d5(self):
        _, rho = unit_isos(ps_object(5, [0, 1]))
        ok, mode = rho.is_closed()
        assert ok and mode == "exact-structural"

    def test_lambda_inv_closed_p01_d4(self):
        lam_inv, _ = unit_isos_inverse(ps_object(4, [0, 1]))
        ok, mode = lam_inv.is_closed()
        assert ok and mode == "exact-structural"

    def test_round_trips_p2_d5(self):
        D = ps_object(5, [2])
        lam, rho = unit_isos(D)
        lam_inv, rho_inv = unit_isos_inverse(D)
        assert morphism_equal(lam.compose(lam_inv), Morphism.identity(D))[0]
        assert morphism_equal(rho.compose(rho_inv), Morphism.identity(D))[0]

    @pytest.mark.parametrize("d", [3, 4, 6, 8])
    def test_round_trips_family(self, d):
        for S in ([0], [1], [0, 1]):
            D = ps_object(d, S)
            lam, rho = unit_isos(D)
            lam_inv, rho_inv = unit_isos_inverse(D)
            eq, mode = morphism_equal(lam.compose(lam_inv), Morphism.identity(D))
            assert eq and mode == "exact-structural", (d, S)
            eq, mode = morphism_equal(rho.compose(rho_inv), Morphism.identity(D))
            assert eq and mode == "exact-structural", (d, S)

    def test_lambda_inv_second_block_pin(self):
        # for the cubic unit the correction block is multiplication by a+x+b
        I = unit_object(fermat_potential(3))
        lam_inv, _ = unit_isos_inverse(I)
        words = lam_inv.opE.normalized().cells[1, 0]
        assert len(words) == 1
        last = words[0].prims[-1]
        assert last.signature()[0] == "mul" and str(last.poly) == "a + x1 + b"

    def test_word_repr_names_primitive_kinds(self):
        from mbf.fusion import reduce_tensor

        I = unit_object(fermat_potential(3))
        lam_inv, _ = unit_isos_inverse(I)
        assert repr(lam_inv.opE.normalized().cells[1, 0][0]) == "(1)*mul∘subst"
        assert repr(homotopy_psi(I, "left").opE.cells[0, 0][0]) == "(1)*tdiv"
        rt = reduce_tensor(ps_object(4, [0, 1]), ps_object(4, [1]))
        assert repr(rt.proj.opE.cells[0, 0][0]) == "(1)*coeff∘rem"
        assert repr(rt.homotopy.opE.cells[1, 0][0]) == "(-1)*quo"

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_left_right_coincide_on_unit(self, d):
        rep = unit_coincidence_check(d)
        assert rep["ok"]
        assert rep["rho_after_laminv"]["mode"] == "exact-structural"

    def test_two_variable_unit_isos_closed(self):
        ring = Ring(("x", "y"), 3)
        w = ring.var("x") ** 3 + ring.var("y") ** 3
        I = unit_object(w)
        lam, rho = unit_isos(I)
        assert lam.is_closed()[0]
        assert rho.is_closed()[0]


class TestHomotopies:
    @pytest.mark.parametrize(
        "d,S",
        [(3, [0]), (5, [1, 2])],
        ids=["unit-cubic", "p12-d5"],
    )
    def test_homotcond_left(self, d, S):
        D = ps_object(d, S)
        lam, _ = unit_isos(D)
        lam_inv, _ = unit_isos_inverse(D)
        psi = homotopy_psi(D, "left")
        lhs = lam_inv.compose(lam) - Morphism.identity(psi.src)
        eq, mode = morphism_equal(lhs, psi.delta(), cutoff=DEFAULT_CUTOFF)
        assert eq, mode

    def test_homotcond_right_p0_d4(self):
        D = ps_object(4, [0])
        _, rho = unit_isos(D)
        _, rho_inv = unit_isos_inverse(D)
        psi = homotopy_psi(D, "right")
        lhs = rho_inv.compose(rho) - Morphism.identity(psi.src)
        eq, mode = morphism_equal(lhs, psi.delta(), cutoff=DEFAULT_CUTOFF)
        assert eq, mode

    def test_psi_is_odd_and_sparse(self):
        psi = homotopy_psi(ps_object(3, [0]), "left")
        assert psi.parity == 1
        n = psi.opE.normalized()
        assert list(n.cells) == [(0, 0)] and n.cells[0, 0]


class TestRxa:
    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_all_items(self, d):
        rep = rxa_lemma_check(d)
        assert rep["ok"], rep

    def test_item_iii_with_ps_entry(self):
        # phi taken from the even differential of P_{{1}} at d=4
        shape = SlotShape(3, 1, 4)
        ring = shape.ring()
        phi = ring.p_S([0, 2, 3], "x1", "b")
        rep = rxa_lemma_check(4, phi=phi)
        assert rep["iii"]["ok"]


class TestMuRelations:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_collapse_relations(self, d):
        rep = mu_relation_check(fermat_potential(d))
        assert rep["mu_iota0"]["ok"] and rep["mu_iota0"]["mode"] == "exact-structural"
        assert rep["mu_iota1"]["ok"] and rep["mu_iota1"]["mode"] == "exact-structural"


class TestTwists:
    def test_twist_iso_d3(self):
        T, iso, target = twist_iso_ps(3, [1], 1, 0)
        assert validate_mbf(T).ok
        # target is P_{{2}}
        ring = target.shape.ring()
        assert target.d1.pure_mul_matrix()[0, 0] == ring.p_S([2])
        ok, mode = iso.is_closed()
        assert ok and mode == "exact-structural"
        # phi_1 = eta^{-1}
        eta = ring.root(1)
        assert iso.opO.pure_mul_matrix()[0, 0] == ring.const(eta ** 2)

    def test_equal_twist_is_scalar_iso(self):
        T, iso, target = twist_iso_ps(5, [0, 3], 2, 2)
        ring = target.shape.ring()
        assert target.d1.pure_mul_matrix()[0, 0] == ring.p_S([0, 3])
        assert iso.opE.pure_mul_matrix()[0, 0] == ring.one()
        phi1 = iso.opO.pure_mul_matrix()[0, 0].constant_value()
        assert phi1 is not None and not phi1.is_zero()
        assert iso.is_closed()[0]

    def test_twist_needs_multiplier_entries(self):
        I = unit_object(fermat_potential(3))
        lam, _ = unit_isos(I)
        with pytest.raises(ValueError):
            twist_object(tensor_obj(I, I), 1, 0)


class TestOperatorEquality:
    def test_detects_difference_exactly(self):
        D = ps_object(4, [0])
        ring = D.shape.ring()
        a = Operator(D.m0, D.m0, {(0, 0): [w_mul(D.shape, ring.var("a"))]})
        b = Operator(D.m0, D.m0, {(0, 0): [w_mul(D.shape, ring.var("b"))]})
        eq, mode = op_equal(a, b)
        assert not eq and mode in ("exact-multiplier", "exact-structural")

    def test_sweep_degree_must_be_nonnegative(self):
        # a 3-slot difference that only the pointwise sweep settles; a negative
        # degree would sweep no monomial at all and call it equal
        shape = SlotShape(3, 1, 4)
        mod = FreeBimod(shape, 1)
        transfer = Operator(mod, mod, {(0, 0): (w_transfer(shape, "x1", "a"),)})
        zero = Operator(mod, mod)
        with pytest.raises(ValueError, match="cutoff"):
            op_equal(transfer, zero, cutoff=-1)
        # the constant monomial already tells them apart
        assert op_equal(transfer, zero, cutoff=0) == (
            False, "counterexample at copy 0, monomial {'x1': 0}")

    def test_lift_shapes(self):
        D = ps_object(3, [0])
        L = _kron(D.d0, D.m0, True)
        assert L.src.shape.nslots == 3 and L.src.rank == 1
        R = _kron(D.d0, D.m1, False)
        assert R.dst.shape.nslots == 3
        # Kronecker placement: op ⊗ id puts copy (n, q) at n·k + q, id ⊗ op
        # puts copy (p, n) at p·rank + n; without gluing words stay unlifted
        mod2 = FreeBimod(D.shape, 2)
        word = w_mul(D.shape, D.shape.ring().var("a"))
        op = Operator(mod2, D.m0, {(0, 1): [word]})
        for op_first, want in ((True, {(0, 2), (1, 3)}), (False, {(0, 1), (1, 3)})):
            K = _kron(op, mod2, op_first, glue=False)
            assert (K.src.rank, K.dst.rank, K.src.shape) == (4, 2, D.shape)
            assert set(K.cells) == want
            assert all(ws == (word,) and ws[0] is word for ws in K.cells.values())


# -- the sparse Operator against the dense word matrix it replaced ---------------


class _Dense:
    """A dense matrix of word lists, the representation `Operator` had before
    it became sparse, with its operations: the reference for the order of
    the words in every cell."""

    def __init__(self, nrows, ncols, entries=None):
        self.nrows, self.ncols = nrows, ncols
        self.entries = entries or [[[] for _ in range(ncols)] for _ in range(nrows)]

    @staticmethod
    def of(op):
        return _Dense(op.dst.rank, op.src.rank, [
            [list(op.cells.get((i, j), ())) for j in range(op.src.rank)]
            for i in range(op.dst.rank)])

    def keys(self):
        return [[[(w.coeff, w.signature()) for w in cell] for cell in row] for row in self.entries]

    def compose(self, first):
        out = _Dense(self.nrows, first.ncols)
        for i in range(self.nrows):
            for j in range(first.ncols):
                for k in range(self.ncols):
                    for wf in first.entries[k][j]:
                        for ws in self.entries[i][k]:
                            out.entries[i][j].append(wf.then(ws))
        return out

    def __add__(self, other):
        return _Dense(self.nrows, self.ncols, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def scale(self, c):
        return _Dense(self.nrows, self.ncols, [
            [[w.scaled(c) for w in cell] for cell in row] for row in self.entries])

    def kron(self, ident, op_first, glue):
        k = ident.rank
        lrank, rrank = (1, k) if op_first else (k, 1)
        shift = ident.shape.nslots - 1
        lslots, rslots = (0, shift) if op_first else (shift, 0)
        out = _Dense(k * self.nrows, k * self.ncols)
        for n in range(self.nrows):
            for m in range(self.ncols):
                words = self.entries[n][m]
                if glue:
                    words = [w.lift(lslots, rslots) for w in words]
                for p in range(lrank):
                    for q in range(rrank):
                        row = (p * self.nrows + n) * rrank + q
                        col = (p * self.ncols + m) * rrank + q
                        out.entries[row][col].extend(words)
        return out

    def place(self, block, roff, coff):
        for i in range(block.nrows):
            for j in range(block.ncols):
                self.entries[roff + i][coff + j].extend(block.entries[i][j])

    def apply(self, element, zero):
        out = [zero] * self.nrows
        for j, p in enumerate(element):
            if p.is_zero():
                continue
            for i in range(self.nrows):
                for w in self.entries[i][j]:
                    out[i] = out[i] + w.apply(p)
        return out


def _ref_tensor(X, Y):
    """Dense reference of the differentials of tensor_obj(X, Y)."""
    T = tensor_obj(X, Y)
    diffs = []
    for parity in (0, 1):
        out = _Dense(T.component(1 + parity).rank, T.component(parity).rank)
        for i, j in _tensor_blocks(parity):
            coff = _block_offset(X, Y, parity, i, j)
            dx = _Dense.of(X.differential_from(i)).kron(Y.component(j), True, True)
            out.place(dx, _block_offset(X, Y, 1 + parity, 1 - i, j), coff)
            dy = _Dense.of(Y.differential_from(j)).kron(X.component(i), False, True)
            out.place(dy.scale(Cyclo.from_rat(X.shape.conductor, -1)) if i else dy,
                      _block_offset(X, Y, 1 + parity, i, 1 - j), coff)
        diffs.append(out)
    return diffs


def _ref_tensor_mor(f, g):
    X, Y, Xp, Yp = f.src, g.src, f.dst, g.dst
    par = (f.parity + g.parity) % 2
    legs = []
    for sp in (0, 1):
        tp = (sp + par) % 2
        acc = _Dense(tensor_obj(Xp, Yp).component(tp).rank, tensor_obj(X, Y).component(sp).rank)
        for i, j in _tensor_blocks(sp):
            ip, jp = (i + f.parity) % 2, (j + g.parity) % 2
            piece = _Dense.of(f.op_from(i)).kron(Yp.component(jp), True, True).compose(
                _Dense.of(g.op_from(j)).kron(X.component(i), False, True))
            if g.parity and i:
                piece = piece.scale(Cyclo.from_rat(X.shape.conductor, -1))
            acc.place(piece, _block_offset(Xp, Yp, tp, ip, jp), _block_offset(X, Y, sp, i, j))
        legs.append(acc)
    return legs


def _assert_matches_dense(ops, d):
    """compose, +, scale and _kron of every operator (and composable pair)
    give the reference's words in the reference's order."""
    c = Cyclo.root(d, 1)
    ident = FreeBimod(SlotShape(2, 1, d), 2)
    for op in ops:
        ref = _Dense.of(op)
        assert all(0 <= i < op.dst.rank and 0 <= j < op.src.rank for i, j in op.cells)
        assert _Dense.of(op.scale(c)).keys() == ref.scale(c).keys()
        assert _Dense.of(op + op.scale(c)).keys() == (ref + ref.scale(c)).keys()
        for op_first in (True, False):
            for glue in (True, False):
                got = _kron(op, ident, op_first, glue)
                assert _Dense.of(got).keys() == ref.kron(ident, op_first, glue).keys()
        for first in ops:
            if first.dst == op.src:
                want = ref.compose(_Dense.of(first))
                assert _Dense.of(op.compose(first)).keys() == want.keys()


def _legs(*morphisms):
    return [op for m in morphisms for op in (m.opE, m.opO)]


class TestSparseOperatorAgainstDense:
    @pytest.mark.parametrize("d", [3, 4])
    def test_tensor_differentials_and_associators(self, d):
        X, Y, Z = ps_object(d, [0]), ps_object(d, [1]), ps_object(d, [0, 1])
        XY = tensor_obj(X, Y)
        for A, B in ((X, Y), (XY, Z), (X, tensor_obj(Y, Z))):
            T = tensor_obj(A, B)
            ref0, ref1 = _ref_tensor(A, B)
            assert _Dense.of(T.d0).keys() == ref0.keys()
            assert _Dense.of(T.d1).keys() == ref1.keys()
        TT = tensor_obj(XY, Z)
        ops = [XY.d0, XY.d1, TT.d0, TT.d1]
        ops += _legs(associator(X, Y, Z), associator_inv(X, Y, Z))
        _assert_matches_dense(ops, d)

    @pytest.mark.parametrize("d", [3, 4])
    def test_unit_isomorphisms_and_homotopies(self, d):
        X, Y = ps_object(d, [0]), ps_object(d, [1, 2])
        ops = []
        for D in (X, Y):
            ops += _legs(*unit_isos(D), *unit_isos_inverse(D))
            ops += _legs(homotopy_psi(D, "left"), homotopy_psi(D, "right"))
        _assert_matches_dense(ops, d)

    @pytest.mark.parametrize("d", [3, 4])
    def test_reduction_data_and_junctions(self, d):
        from mbf.fusion import lam, reduce_tensor

        rt = reduce_tensor(ps_object(d, [0, 1]), ps_object(d, [1]))
        ops = _legs(rt.incl, rt.proj, rt.homotopy, lam(d, 1, 2), lam(d, 0, 1))
        ops += [rt.original.d0, rt.original.d1, rt.reduced.d0, rt.reduced.d1]
        _assert_matches_dense(ops, d)

    @pytest.mark.parametrize("d", [3, 4])
    def test_tensor_mor(self, d):
        from mbf.fusion import lam

        X, Y = ps_object(d, [0]), ps_object(d, [1])
        lam_X, rho_X = unit_isos(X)
        lam_inv_Y, _ = unit_isos_inverse(Y)
        psi_X, psi_Y = homotopy_psi(X, "right"), homotopy_psi(Y, "left")
        pairs = [
            (Morphism.identity(X), psi_Y),  # odd g: the sign on odd X blocks
            (psi_X, lam_inv_Y),
            (lam_X, rho_X),
            (lam(d, 1, 1), Morphism.identity(Y)),
        ]
        for f, g in pairs:
            got = tensor_mor(f, g)
            want = _ref_tensor_mor(f, g)
            assert _Dense.of(got.opE).keys() == want[0].keys()
            assert _Dense.of(got.opO).keys() == want[1].keys()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_word_matrices(self, data):
        shape = SlotShape(2, 1, 3)
        ring = shape.ring()
        a, b = ring.var("a"), ring.var("b")
        z = Cyclo.root(3, 1)
        pool = [
            Word.identity(shape), w_mul(shape, a), w_mul(shape, b - a * z),
            w_mul(shape, a * b + ring.const(2)), w_mul(shape, ring.const(z)),
            w_mul(shape, a).scaled(-z), Word.identity(shape).scaled(z),
        ]
        ranks = [data.draw(st.integers(0, 3)) for _ in range(4)]
        mods = [FreeBimod(shape, r) for r in ranks]

        def draw_op(src, dst):
            cells = {}
            for i in range(dst.rank):
                for j in range(src.rank):
                    picks = data.draw(st.lists(st.sampled_from(pool), max_size=3))
                    if picks:
                        cells[i, j] = picks
            return Operator(src, dst, cells)

        A, C = draw_op(mods[0], mods[1]), draw_op(mods[0], mods[1])
        B, E = draw_op(mods[1], mods[2]), draw_op(mods[2], mods[3])
        rA, rB, rC, rE = (_Dense.of(op) for op in (A, B, C, E))
        assert _Dense.of(B.compose(A)).keys() == rB.compose(rA).keys()
        assert _Dense.of(A + C).keys() == (rA + rC).keys()
        # results feed further operations: their cells stay in row-major order
        BAC = B.compose(A + C)
        assert _Dense.of(BAC).keys() == rB.compose(rA + rC).keys()
        assert _Dense.of(E.compose(BAC)).keys() == rE.compose(rB.compose(rA + rC)).keys()
        for op in (BAC, A + C, E.compose(B), _kron(B, FreeBimod(shape, 2), False)):
            assert list(op.cells) == sorted(op.cells)
        assert _Dense.of(A.scale(z)).keys() == rA.scale(z).keys()
        ident = FreeBimod(shape, data.draw(st.integers(1, 3)))
        for op_first in (True, False):
            for glue in (True, False):
                got = _Dense.of(_kron(A, ident, op_first, glue)).keys()
                assert got == rA.kron(ident, op_first, glue).keys()
        polys = [ring.zero(), a, b * b + a, a * b * z + ring.one()]
        element = [data.draw(st.sampled_from(polys)) for _ in range(A.src.rank)]
        got = A.apply(element)
        want = rA.apply(element, ring.zero())
        assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]
        n = A.normalized()
        assert n.normalized() is n and A.normalized() is n


class TestOperatorImmutability:
    def _op(self):
        D = ps_object(4, [1])
        lam, _ = unit_isos(D)
        return lam.opE

    def test_normal_form_is_cached_and_its_own(self):
        op = self._op()
        n = op.normalized()
        assert op.normalized() is n and n.normalized() is n
        fresh = Operator(n.src, n.dst, dict(n.cells)).normalized()
        assert fresh is not n
        assert _Dense.of(fresh).keys() == _Dense.of(n).keys()

    def test_pure_mul_matrix_is_read_from_the_given_matrix(self, monkeypatch):
        P = ps_object(5, [0, 2])
        ring = P.shape.ring()
        pm = PolyMatrix(ring, [[ring.p_S([1, 3, 4]), ring.const(2)], [ring.zero(), ring.var("a")]])
        mod = FreeBimod(P.shape, 2)

        def refuse(self):
            raise AssertionError("Word.normalized called")

        monkeypatch.setattr(Word, "normalized", refuse)
        op = Operator.from_poly_matrix(mod, mod, pm)
        assert op.pure_mul_matrix() == pm and op.pure_mul_matrix() is pm
        assert set(op.cells) == {(0, 0), (0, 1), (1, 1)}
        monkeypatch.undo()
        # the matrix read back through the normal form is the same
        rebuilt = Operator(mod, mod, dict(op.cells)).pure_mul_matrix()
        assert rebuilt == pm
        assert [list(p.terms.items()) for row in rebuilt.entries for p in row] == [
            list(p.terms.items()) for row in pm.entries for p in row]

    def test_writing_into_cells_raises(self):
        op = self._op()
        key = next(iter(op.cells))
        word = op.cells[key][0]
        with pytest.raises(TypeError):
            op.cells[key] = (word,)
        with pytest.raises(TypeError):
            op.cells[key] += (word,)
        with pytest.raises(AttributeError):
            op.cells[key].append(word)
        with pytest.raises(AttributeError):
            op.cells = {}
        # the cached multiplier matrix is handed to every caller: read-only too
        pm = ps_object(4, [1]).d0.pure_mul_matrix()
        with pytest.raises(TypeError):
            pm.entries[0][0] = pm[0, 0] * 2
        with pytest.raises(TypeError):
            pm.entries[0] = (pm[0, 0],)
        # the constructor copies: changing what it was given changes nothing
        given = {key: [word]}
        other = Operator(op.src, op.dst, given)
        given[key].append(word)
        given[0, 0] = [word]
        assert dict(other.cells) == {key: (word,)}
