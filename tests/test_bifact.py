"""Bi-factorisation layer: objects, delta, tensor structure, units, homotopies."""

import collections
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from mbf import bifact
from mbf.bifact import (
    _annihilator_orders,
    _internal_monomials,
    _kron,
    _row_product,
    _tensor_legs,
    DEFAULT_CUTOFF,
    FreeBimod,
    MBF,
    Morphism,
    Operator,
    PCoeff,
    PSubst,
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
    slot_map,
    tensor_copy,
    tensor_mor,
    tensor_obj,
    tensor_prime,
    triangle_check,
    twist_iso_ps,
    twist_object,
    unit_coincidence_check,
    unit_isos,
    unit_isos_inverse,
    unit_object,
    validate_mbf,
    w_coeff,
    w_collapse,
    w_insert,
    w_mul,
    w_quo,
    w_rem,
    w_tdiv,
    w_then_mul,
    w_transfer,
    Word,
)
from mbf._rat import Rat
from mbf.exactalg import Cyclo, modular_prime
from mbf.fusion import PSObject, fuse
from mbf.polycalc import MultiPoly, Ring, RingMismatch


def strs(rows):
    return [[str(p) for p in row] for row in rows]


def _images(op):
    """Generator images of `op`, column j for copy j.  On a 3-slot source they
    are not the whole map, but they are the entries of a map that only
    multiplies, as a tensor product's differentials do."""
    cols = [op.apply_basis(j, {}) for j in range(op.src.rank)]
    return [[c[i] for c in cols] for i in range(op.dst.rank)]


class TestValidate:
    def test_unit_cubic_exact(self):
        I = unit_object(fermat_potential(3))
        rep = validate_mbf(I)
        assert rep.ok and rep.mode == "exact"
        # the telescoping identity behind it, as the 1x1 entry product d1*d0
        ring = I.shape.ring()
        prod = I.d1.matrix()[0][0] * I.d0.matrix()[0][0]
        assert prod == ring.parse("a^3 - b^3")

    def test_ps_d4(self):
        assert validate_mbf(ps_object(4, [1])).ok

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_ps_complement_product(self, d):
        P = ps_object(d, [0])
        ring = P.shape.ring()
        prod = P.d1.matrix()[0][0] * P.d0.matrix()[0][0]
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

    def test_report_is_memoised_on_the_object(self, monkeypatch):
        shape = SlotShape(2, 1, 3)
        ring = shape.ring()
        D = mbf_from_polys(shape, [[ring.parse("a^2 + a*b + b^2")]], [[ring.parse("a - b")]],
                           fermat_potential(3))
        calls = []
        real = bifact.op_equal
        monkeypatch.setattr(bifact, "op_equal", lambda *a: calls.append(a) or real(*a))
        rep = validate_mbf(D)
        assert rep.ok and rep.mode == "exact" and len(calls) == 2
        assert validate_mbf(D) is rep and len(calls) == 2
        # an object with the same differentials is checked afresh
        E = mbf_from_polys(shape, D.d0.matrix(), D.d1.matrix(), D.w)
        assert validate_mbf(E) is not rep and len(calls) == 4

    def test_reduced_tensor_keeps_its_check(self, monkeypatch, fresh_orbits):
        # the first member of its rotation orbit takes the full path, whose
        # validate_mbf report the reduced object keeps
        rt, _ = fuse(4, (0, 1), (1, 2), check=True)
        monkeypatch.setattr(bifact, "op_equal", lambda *a: pytest.fail("checked twice"))
        rep = validate_mbf(rt.reduced)
        assert rep.ok and rep.mode == "exact" and validate_mbf(rt.reduced) is rep

    def test_residues_are_memoised_on_the_object(self, monkeypatch):
        P = ps_object(5, (0, 1, 2))
        D = mbf_from_polys(P.shape, P.d0.matrix(), P.d1.matrix(), P.w)
        p, r = modular_prime(5)
        calls = []
        real = Cyclo.reduce_mod
        monkeypatch.setattr(Cyclo, "reduce_mod", lambda c, *a: calls.append(c) or real(c, *a))
        tables = bifact.differential_residues(D)
        assert tables == tuple(
            tuple(tuple({e: real(c, p, r) for e, c in poly.terms.items()} for poly in row)
                  for row in op.matrix())
            for op in (D.d0, D.d1))
        seen = len(calls)
        assert seen == sum(len(poly.terms) for op in (D.d0, D.d1)
                           for row in op.matrix() for poly in row)
        assert bifact.differential_residues(D) is tables and len(calls) == seen

    def test_denominator_divisible_by_p_memoises_none(self, monkeypatch):
        P = ps_object(4, (0, 1))
        p, _ = modular_prime(4)
        (e,), = P.d0.matrix()
        (o,), = P.d1.matrix()
        Q = mbf_from_polys(P.shape, [[e * Rat(1, p)]], [[o * p]], P.w)
        assert bifact.differential_residues(Q) is None
        monkeypatch.setattr(Cyclo, "reduce_mod", lambda *a: pytest.fail("reduced twice"))
        assert bifact.differential_residues(Q) is None

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
        assert strs(d.opE.matrix()) == [["a - b"]]
        assert strs(d.opO.matrix()) == [["a - b"]]

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
        d0 = _images(T.d0)
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
        dd0 = D.d0.matrix()[0][0].rename({"a": "x1", "b": "b"}, ring)
        dd1 = D.d1.matrix()[0][0].rename({"a": "x1", "b": "b"}, ring)
        assert _images(T.d0) == [[iota0, -dd1], [dd0, iota1]]
        assert _images(T.d1) == [[iota1, dd1], [-dd0, iota0]]

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

    def test_tensor_copy_is_the_block_layout(self):
        # enumerating the blocks of a component in order, X-major inside each,
        # counts its copies 0, 1, 2, ...
        P, Q = ps_object(3, [0]), ps_object(3, [1, 2])
        PQ = tensor_obj(P, Q)
        for X, Y in ((PQ, P), (P, PQ), (PQ, PQ)):
            for p in (0, 1):
                seen = [tensor_copy(X, Y, i, ci, j, cj) for i, j in _BLOCKS[p]
                        for ci in range(X.component(i).rank)
                        for cj in range(Y.component(j).rank)]
                assert seen == list(range(tensor_obj(X, Y).component(p).rank))

    def test_potential_mismatch(self):
        X = ps_object(3, [0])
        t = X.w.ring.var("t")
        Z = mbf_from_polys(X.shape, X.d0.matrix(), X.d1.matrix(), t ** 3 + t)
        for Y in (ps_object(4, [0]), Z):
            for _ in range(2):  # a refused pair is never cached, so it raises each time
                with pytest.raises(ValueError):
                    tensor_obj(X, Y)
            assert (X, Y) not in bifact._TENSOR_CACHE
        with pytest.raises(ValueError, match="potential mismatch"):
            tensor_obj(Z, X)

    def test_one_product_per_pair_while_held(self):
        X, Y = ps_object(7, (0, 3)), ps_object(7, (2, 5))
        T = tensor_obj(X, Y)
        assert tensor_obj(X, Y) is T and tensor_obj(Y, X) is not T
        assert validate_mbf(T).ok  # builds the differential and its memos
        gone = weakref.ref(T)
        del T
        gc.collect()
        assert gone() is None and (X, Y) not in bifact._TENSOR_CACHE
        assert tensor_obj(X, Y).d0 is not None


def _all_ps(d):
    return [ps_object(d, S) for n in range(1, d)
            for S in itertools.combinations(range(d), n)]


class TestSharedObjects:
    """`ps_object` hands out one object per (d, S), so an MBF is immutable."""

    def test_one_object_per_residue_set(self):
        assert ps_object(4, [1, 0]) is ps_object(4, (5, 0)) is ps_object(4, (0, 1))
        assert ps_object(4, (0,)) is not ps_object(5, (0,))
        assert len({id(P) for P in _all_ps(4)}) == 14

    @pytest.mark.parametrize("S", [(), range(4), (4, 1, 6, 3)])
    def test_improper_set_raises_after_a_valid_call(self, S):
        ps_object(4, (0,))
        with pytest.raises(ValueError, match="proper nonempty"):
            ps_object(4, S)

    def test_shell_holds_the_shared_object(self):
        assert PSObject(5, (7, 1)).underlying is ps_object(5, (1, 2))

    @pytest.mark.parametrize("name", ["m0", "m1", "d0", "d1", "w", "grading"])
    def test_assignment_raises(self, name):
        P = ps_object(4, (0,))
        for D in (P, tensor_obj(P, P)):
            with pytest.raises(AttributeError):
                setattr(D, name, None)

    @pytest.mark.parametrize("name", ["src", "dst", "parity", "opE", "opO"])
    def test_morphism_assignment_raises(self, name):
        f = Morphism.identity(ps_object(4, (0,)))
        with pytest.raises(AttributeError, match="Morphism is immutable"):
            setattr(f, name, f.opO)
        assert f.opE is Operator.identity(f.src.m0)


class TestDeferredDifferential:
    """A tensor product's differential, built on first read, is d_X ⊗ 1 + 1 ⊗ d_Y."""

    @staticmethod
    def _assert_forced(T, X, Y, glue):
        dx = _tensor_legs(Morphism(X, X, 1, X.d0, X.d1), Morphism.identity(Y), glue)
        dy = _tensor_legs(Morphism.identity(X), Morphism(Y, Y, 1, Y.d0, Y.d1), glue)
        rep = validate_mbf(T)
        assert rep.ok and rep.mode == "exact"
        assert op_equal(T.d0, dx[0] + dy[0]) == (True, "exact-structural")
        assert op_equal(T.d1, dx[1] + dy[1]) == (True, "exact-structural")

    def test_every_ps_pair_d4(self):
        Ps = _all_ps(4)
        for X in Ps:
            for Y in Ps:
                self._assert_forced(tensor_obj(X, Y), X, Y, True)

    def test_threefold_product(self):
        P, Q = ps_object(4, (0,)), ps_object(4, (1, 2))
        PQ = tensor_obj(P, Q)
        self._assert_forced(tensor_obj(PQ, P), PQ, P, True)
        self._assert_forced(tensor_obj(P, PQ), P, PQ, True)

    def test_two_variable_unit(self):
        ring = Ring(("x", "y"), 2)
        w = ring.var("x") ** 2 + ring.var("y") ** 2
        shape = SlotShape(2, 2, 2)
        r = shape.ring()
        X = mbf_from_polys(shape, [[r.parse("a1 + b1")]], [[r.parse("a1 - b1")]], w)
        Y = mbf_from_polys(shape, [[r.parse("a2 + b2")]], [[r.parse("a2 - b2")]], w)
        self._assert_forced(unit_object(w), X, Y, False)
        self._assert_forced(tensor_prime(X, Y), X, Y, False)

    def test_built_once_then_kept(self):
        P = ps_object(3, (0,))
        T = tensor_obj(P, P)
        d0 = T.d0
        assert T.d0 is d0 and T.d1 is T.d1

    def test_endpoints_checked_when_built(self):
        P = ps_object(3, (0,))
        T = tensor_obj(P, P)
        D = MBF._deferred(T.m0, T.m1, P.w, None, lambda: (P.d0, P.d1))
        with pytest.raises(ValueError, match="endpoints"):
            D.d0


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
        assert I.d0.matrix() == P0.d0.matrix()
        assert I.d1.matrix() == P0.d1.matrix()

    def test_two_variable_quadric_display(self):
        ring = Ring(("x", "y"), 2)
        w = ring.var("x") ** 2 + ring.var("y") ** 2
        I = unit_object(w)
        assert I.m0.rank == 2 and I.m1.rank == 2
        assert strs(I.d0.matrix()) == [
            ["a1 + b1", "-a2 + b2"],
            ["a2 + b2", "a1 - b1"],
        ]
        assert strs(I.d1.matrix()) == [
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
        assert target.d1.matrix()[0][0] == ring.p_S([2])
        ok, mode = iso.is_closed()
        assert ok and mode == "exact-structural"
        # phi_1 = eta^{-1}
        eta = ring.root(1)
        assert iso.opO.matrix()[0][0] == ring.const(eta ** 2)

    def test_equal_twist_is_scalar_iso(self):
        T, iso, target = twist_iso_ps(5, [0, 3], 2, 2)
        ring = target.shape.ring()
        assert target.d1.matrix()[0][0] == ring.p_S([0, 3])
        assert iso.opE.matrix()[0][0] == ring.one()
        phi1 = iso.opO.matrix()[0][0].constant_value()
        assert phi1 is not None and not phi1.is_zero()
        assert iso.is_closed()[0]

    def test_twist_needs_a_two_slot_object(self):
        I = unit_object(fermat_potential(3))
        with pytest.raises(ValueError, match="2-slot"):
            twist_object(tensor_obj(I, I), 1, 0)


class TestOperatorEquality:
    def test_detects_difference_exactly(self):
        D = ps_object(4, [0])
        ring = D.shape.ring()
        a = Operator(D.m0, D.m0, {(0, 0): [w_mul(D.shape, ring.var("a"))]})
        b = Operator(D.m0, D.m0, {(0, 0): [w_mul(D.shape, ring.var("b"))]})
        eq, mode = op_equal(a, b)
        assert not eq and mode == "exact-generator"
        # on a 3-slot chain the generator matrix is not faithful, so there is
        # none to read; the sweep's first monomial tells the multipliers apart
        shape = SlotShape(3, 1, 4)
        mod = FreeBimod(shape, 1)
        ring3 = shape.ring()
        a3 = Operator(mod, mod, {(0, 0): [w_mul(shape, ring3.var("a"))]})
        x3 = Operator(mod, mod, {(0, 0): [w_mul(shape, ring3.var("x1"))]})
        assert op_equal(a3, x3) == (False, "counterexample at copy 0, monomial {'x1': 0}")
        with pytest.raises(ValueError, match="2-slot"):
            (a3 - x3).matrix()
        # unless the operator was built from a matrix, which it returns
        rows3 = [[ring3.var("x1")]]
        assert Operator.from_poly_matrix(mod, mod, rows3).matrix() == ((ring3.var("x1"),),)

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
        L, R = D.d0.lift(0, 1), D.d0.lift(1, 0)
        assert (L.src.rank, L.dst.rank, L.src.shape.nslots, R.dst.shape.nslots) == (1, 1, 3, 3)
        # the left factor's b becomes the junction x1, the right factor's a
        ring3, p = L.src.shape.ring(), D.d0.matrix()[0][0]
        assert L.cells[0, 0][0].prims[0].poly == p.rename({"a": "a", "b": "x1"}, ring3)
        assert R.cells[0, 0][0].prims[0].poly == p.rename({"a": "x1", "b": "b"}, ring3)
        # Kronecker placement: copy (n, p) of F ⊗ G sits at n·rank(G) + p; an
        # identity factor adds no word of its own, so the words are reused
        mod2 = FreeBimod(D.shape, 2)
        word = w_mul(D.shape, D.shape.ring().var("a"))
        op = Operator(mod2, D.m0, {(0, 1): [word]})
        ident = Operator.identity(mod2)
        for K, want in ((_kron(op, ident), {(0, 2), (1, 3)}),
                        (_kron(ident, op), {(0, 1), (1, 3)})):
            assert (K.src.rank, K.dst.rank, K.src.shape) == (4, 2, D.shape)
            assert set(K.cells) == want
            assert all(ws == (word,) and ws[0] is word for ws in K.cells.values())
        # G runs first: each of its words, then each word of F
        f1, f2 = word, w_mul(D.shape, D.shape.ring().var("b"))
        g = w_mul(D.shape, D.shape.ring().const(Cyclo.root(3, 1)))
        K = _kron(Operator(D.m0, D.m0, {(0, 0): [f1, f2]}), Operator(D.m0, D.m0, {(0, 0): [g, g]}))
        assert [w.signature() for w in K.cells[0, 0]] == [
            g.then(f).signature() for g in (g, g) for f in (f1, f2)]
        with pytest.raises(ValueError, match="chain"):
            _kron(L, op)


# -- the sweep stopped at each copy's annihilator order ---------------------------


def _full_sweep(A, B, cutoff):
    """The reference: op_equal's last tier without a bound, every monomial of
    total degree <= cutoff in every copy."""
    diff = (A - B).normalized()
    zero = [diff.dst.shape.ring().zero()] * diff.dst.rank
    for copy in range(diff.src.rank):
        for exps in _internal_monomials(diff.src.shape, cutoff):
            if diff.apply_basis(copy, exps) != zero:
                return False, f"counterexample at copy {copy}, monomial {exps}"
    return True, "verified-to-cutoff"


def _one_copy(nslots=3, conductor=4):
    shape = SlotShape(nslots, 1, conductor)
    return shape, FreeBimod(shape, 1), shape.ring()


def _op(mod, *words):
    return Operator(mod, mod, {(0, 0): words})


def _count_evaluations(monkeypatch):
    """A list that gets (copy, exps) of every Operator.apply_basis call."""
    seen = []
    apply_basis = Operator.apply_basis

    def counted(self, copy, exps):
        seen.append((copy, dict(exps)))
        return apply_basis(self, copy, exps)

    monkeypatch.setattr(Operator, "apply_basis", counted)
    return seen


class TestAnnihilatorSweep:
    def test_agrees_with_the_full_sweep(self, monkeypatch):
        # every op_equal call of `verify monoidal` at d = 3..6 and of the
        # fusion witnesses at d = 4, against a full sweep to the same degree
        from mbf import cli, compare

        swept = []
        bounded = bifact.op_equal

        def both(A, B, cutoff=DEFAULT_CUTOFF):
            got = bounded(A, B, cutoff)
            diff = (A - B).normalized()
            if diff.cells and diff.src.shape.nslots > 2:
                swept.append(got == _full_sweep(A, B, cutoff))
            return got

        monkeypatch.setattr(bifact, "op_equal", both)
        for d in range(3, 7):
            cli._run_monoidal_suite(d)
        assert len(swept) == 4 * 11 and all(swept)
        swept.clear()
        assert compare.fusion_rule_compare(4, verify_homotopy=True)["pass"]
        assert len(swept) == 2 * 144 and all(swept)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_negative_control_past_the_cutoff(self, d, monkeypatch):
        # D = rem(., x1^(2d+1) - b^(2d+1)) - id is zero on x1^0..x1^(2d) and not
        # on x1^(2d+1); its bound 2d + 2 exceeds cutoff + 1 = 2d + 1, so the
        # sweep runs in full and, as before, cannot tell D from zero
        shape, mod, ring = _one_copy(conductor=d)
        q = ring.parse(f"x1^{2 * d + 1} - b^{2 * d + 1}")
        rem = _op(mod, w_rem(shape, q, "x1"))
        ident = Operator.identity(mod)
        assert _annihilator_orders((rem - ident).normalized(), "x1") == {0: 2 * d + 2}
        seen = _count_evaluations(monkeypatch)
        assert op_equal(rem, ident, 2 * d) == (True, "verified-to-cutoff")
        assert len(seen) == 2 * d + 1
        assert op_equal(rem, ident, 2 * d + 1) == (
            False, f"counterexample at copy 0, monomial {{'x1': {2 * d + 1}}}")

    def test_two_internal_variables_sweep_every_monomial(self, monkeypatch):
        # the same kind of difference on a 4-slot chain has internal x1 and
        # x2, which the bound does not cover: all 15 monomials of degree <= 4
        shape, mod, ring = _one_copy(nslots=4)
        rem = _op(mod, w_rem(shape, ring.parse("x1^5 - b^5"), "x1"))
        seen = _count_evaluations(monkeypatch)
        assert op_equal(rem, Operator.identity(mod), 4) == (True, "verified-to-cutoff")
        assert len(seen) == 15
        assert {tuple(sorted(e)) for _, e in seen} == {("x1", "x2")}

    @pytest.mark.parametrize("word, first", [
        # coefficient extraction in x1 while the annihilator holds x1
        pytest.param(lambda s, r: w_coeff(s, "x1", 5), 5, id="coeff"),
        # division in x1 once the annihilator is no longer E - x1
        pytest.param(lambda s, r: w_tdiv(s, "x1", "b").then(
            w_quo(s, r.parse("x1^5 - b^5"), "x1")), 6, id="tdiv-then-quo"),
    ])
    def test_unbounded_word_sweeps_to_the_cutoff(self, word, first, monkeypatch):
        shape, mod, ring = _one_copy()
        w = word(shape, ring)
        op = Operator(mod, FreeBimod(w.dst, 1), {(0, 0): (w,)})
        assert _annihilator_orders(op, "x1") == {0: None}
        seen = _count_evaluations(monkeypatch)
        assert op_equal(op, Operator(op.src, op.dst), 6) == (
            False, f"counterexample at copy 0, monomial {{'x1': {first}}}")
        assert len(seen) == first + 1

    @pytest.mark.parametrize("words, order", [
        # rem on E - x1 gives q̂ only: kept at E - x1, the order would be 1
        pytest.param(lambda s, r: [w_rem(s, r.parse("x1^2 - b^2"), "x1"),
                                   Word.identity(s).scaled(-s.one())], 3, id="rem-drops-E-v"),
        # quo on E - x1 gives (E - x1)·q̂: without E - x1 the order would be 2
        pytest.param(lambda s, r: [w_quo(s, r.parse("x1^2 - b^2"), "x1")], 3,
                     id="quo-keeps-E-v"),
        # tdiv x1 -> b gives (E - x1)(E - b): kept at E - x1, the order would be 1
        pytest.param(lambda s, r: [w_tdiv(s, "x1", "b")], 2, id="tdiv-appends-moved"),
        # id and x1 -> b have orders 1 each; the cell needs the union (E - x1)(E - b)
        pytest.param(lambda s, r: [Word.identity(s), w_transfer(s, "x1", "b").scaled(-s.one())],
                     2, id="cell-takes-union"),
    ])
    def test_one_factor_short_would_miss_the_counterexample(self, words, order):
        # each difference is zero on x1^0..x1^(order-2) and not on x1^(order-1),
        # so a rule one factor short stops the sweep just before it
        shape, mod, ring = _one_copy()
        diff = _op(mod, *words(shape, ring))
        assert _annihilator_orders(diff.normalized(), "x1") == {0: order}
        assert op_equal(diff, Operator(mod, mod)) == (
            False, f"counterexample at copy 0, monomial {{'x1': {order - 1}}}")

    def test_a_cell_keeps_each_factors_largest_multiplicity(self):
        # two divided transfers x1 -> b leave (E - x1)(E - b)^3; a transfer
        # x1 -> b leaves (E - b); their sum needs order 4 in either order
        shape, mod, _ = _one_copy()
        twice = w_tdiv(shape, "x1", "b").then(w_tdiv(shape, "x1", "b"))
        transfer = w_transfer(shape, "x1", "b")
        for words in ((twice, transfer), (transfer, twice)):
            assert _annihilator_orders(Operator(mod, mod, {(0, 0): words}), "x1") == {0: 4}

    def test_divided_transfer_needs_two_variables(self):
        # (p - p[x1 -> x1]) / (x1 - x1) is undefined, and the PTDiv rule
        # divides by v1 - v2
        shape, _, _ = _one_copy()
        with pytest.raises(ValueError, match="two variables"):
            w_tdiv(shape, "x1", "x1")

    def test_a_cell_merges_its_factors_by_token(self, monkeypatch):
        # a cached annihilator holds each factor as the token of its value
        # and its order, so the merge of a cell's words compares integers:
        # on the P_{0,1,2} ⊗ P_{0,1,2} witness at d = 4 it made 20 and 14
        # MultiPoly.__eq__ calls per leg before, with the cache already full
        d = 4
        rt, _ = fuse(d, (0, 1, 2), (0, 1, 2), check=True)
        gap = rt.incl.compose(rt.proj) - Morphism.identity(rt.original)
        delta = rt.homotopy.delta()
        ops = [(delta.op_from(p) - gap.op_from(p)).normalized() for p in (0, 1)]
        first = [_annihilator_orders(op, "x1") for op in ops]
        calls = []
        eq = MultiPoly.__eq__
        monkeypatch.setattr(MultiPoly, "__eq__", lambda a, b: calls.append(b) or eq(a, b))
        assert [_annihilator_orders(op, "x1") for op in ops] == first == [{0: 4, 1: 4}] * 2
        assert calls == []

    def test_witness_evaluations(self, monkeypatch):
        # the P_{0,1} ⊗ P_{1,2} witness at d = 4 evaluates the sum of its column
        # orders, 3 per copy of each leg, where the full sweep to degree 8 made
        # 2 legs × 2 copies × 9 = 36 evaluations
        d = 4
        rt, _ = fuse(d, (0, 1), (1, 2), check=True)
        gap = rt.incl.compose(rt.proj) - Morphism.identity(rt.original)
        delta = rt.homotopy.delta()
        orders = [_annihilator_orders((delta.op_from(p) - gap.op_from(p)).normalized(), "x1")
                  for p in (0, 1)]
        assert orders == [{0: 3, 1: 3}] * 2
        seen = _count_evaluations(monkeypatch)
        assert morphism_equal(delta, gap, 2 * d) == (True, "verified-to-cutoff")
        assert len(seen) == 12 == sum(sum(o.values()) for o in orders)

    def test_monoidal_suite_evaluates_two_monomials_per_copy(self, monkeypatch):
        # the full sweep evaluated 31 monomials per copy at the default cutoff
        from mbf import cli

        per_call = []
        bounded = bifact.op_equal

        def counted(A, B, cutoff=DEFAULT_CUTOFF):
            seen.clear()
            got = bounded(A, B, cutoff)
            if seen:
                per_call.append(collections.Counter(copy for copy, _ in seen))
            return got

        seen = _count_evaluations(monkeypatch)
        monkeypatch.setattr(bifact, "op_equal", counted)
        assert all(c["ok"] for c in cli._run_monoidal_suite(4))
        assert len(per_call) == 11
        assert max(n for c in per_call for n in c.values()) <= 2


# -- memoised evaluation ----------------------------------------------------------


def _plain_images(op, copy, exps):
    """The reference for `Operator.apply_basis`: each cell's words applied one
    by one with `Word.apply`, summed in cell order, with no memo."""
    p = op.src.shape.ring().monomial(exps)
    out = [op.dst.shape.ring().zero()] * op.dst.rank
    for (i, j), ws in op.cells.items():
        if j == copy:
            for w in ws:
                out[i] = out[i] + w.apply(p)
    return out


def _count_divisions(monkeypatch):
    """A list that gets the variable of every MultiPoly.divmod_in_var call."""
    calls = []
    divmod_in_var = MultiPoly.divmod_in_var

    def counted(self, divisor, var):
        calls.append(var)
        return divmod_in_var(self, divisor, var)

    monkeypatch.setattr(MultiPoly, "divmod_in_var", counted)
    return calls


class TestMemoisedEvaluation:
    def test_images_match_the_plain_word_sums(self, monkeypatch):
        # every basis element swept by the d = 4 fusion witnesses, by `verify
        # monoidal` at d = 3 and by the negative control
        # rem(., x1^(2d+1) - b^(2d+1)) - id, term for term
        from mbf import cli, compare

        swept = []
        apply_basis = Operator.apply_basis

        def checked(self, copy, exps):
            got = apply_basis(self, copy, exps)
            want = _plain_images(self, copy, exps)
            if self.src.shape.nslots > 2:
                swept.append(copy)
            assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]
            return got

        monkeypatch.setattr(Operator, "apply_basis", checked)
        assert compare.fusion_rule_compare(4, verify_homotopy=True)["pass"]
        assert len(swept) > 0
        swept.clear()
        assert all(c["ok"] for c in cli._run_monoidal_suite(3))
        assert len(swept) > 0
        d = 4
        shape, mod, ring = _one_copy(conductor=d)
        rem = _op(mod, w_rem(shape, ring.parse(f"x1^{2 * d + 1} - b^{2 * d + 1}"), "x1"))
        assert op_equal(rem, Operator.identity(mod), 2 * d + 1) == (
            False, f"counterexample at copy 0, monomial {{'x1': {2 * d + 1}}}")

    def test_quotient_and_remainder_share_one_division(self, monkeypatch, fresh_image_memo):
        # quo and rem by one modulus on one input: one divmod_in_var, kept
        # for the next call on the same monomial, in either copy
        shape = SlotShape(3, 1, 4)
        ring = shape.ring()
        q = ring.parse("x1^2 - b^2")
        mod = FreeBimod(shape, 2)
        quo, rem = w_quo(shape, q, "x1"), w_rem(shape, q, "x1")
        op = Operator(mod, FreeBimod(shape, 1), {(0, 0): (quo, rem), (0, 1): (rem,)})
        x3 = {"x1": 3}
        want = [_plain_images(op, copy, x3) for copy in (0, 1)]
        calls = _count_divisions(monkeypatch)
        assert [op.apply_basis(copy, x3) for copy in (0, 1)] == want
        assert calls == ["x1"]

    def test_tokens_outlive_an_emptying(self, monkeypatch, fresh_image_memo):
        # the token table is never emptied: a quo made before the memo is
        # emptied keeps its token, and a rem by the same modulus made after
        # it still shares the quo's division
        shape, mod, ring = _one_copy()
        q, x3 = ring.parse("x1^2 - b^2"), {"x1": 3}
        quo = w_quo(shape, q, "x1")
        _op(mod, quo).apply_basis(0, x3)
        (prim,) = quo.prims
        token = prim._token
        bifact._clear_image_memo()
        op = _op(mod, quo, w_rem(shape, q, "x1"))
        want = _plain_images(op, 0, x3)
        calls = _count_divisions(monkeypatch)
        assert op.apply_basis(0, x3) == want
        assert prim._token == token and calls == ["x1"]

    def test_witness_divisions(self, monkeypatch, fresh_image_memo):
        # the P_{0,1} ⊗ P_{0,1} witness at d = 4: each word prefix once per
        # monomial and one division for quo and rem, where evaluating every
        # word on its own made 48; its two legs share their images, where
        # each leg divided on its own in 18
        d = 4
        rt, _ = fuse(d, (0, 1), (0, 1), check=True)
        gap = rt.incl.compose(rt.proj) - Morphism.identity(rt.original)
        delta = rt.homotopy.delta()
        calls = _count_divisions(monkeypatch)
        assert morphism_equal(delta, gap, 2 * d) == (True, "verified-to-cutoff")
        assert len(calls) == 12

    def test_a_second_identical_witness_divides_nothing(self, monkeypatch, fresh_image_memo):
        # the images outlive the operators of the first witness: a second
        # fusion of the same pair, built anew, finds every one in the memo
        d = 4
        for run in range(2):
            rt, _ = fuse(d, (0, 1), (1, 2), check=True)
            gap = rt.incl.compose(rt.proj) - Morphism.identity(rt.original)
            delta = rt.homotopy.delta()
            calls = _count_divisions(monkeypatch)
            assert morphism_equal(delta, gap, 2 * d) == (True, "verified-to-cutoff")
            assert (len(calls) > 0) == (run == 0)
            monkeypatch.undo()

    def test_one_witness_compares_no_ring_by_value(self, monkeypatch, fresh_image_memo):
        # every ring of a witness is the one ring of its shape, so `_check`
        # settles each comparison by identity: 90 Python-level Ring.__eq__
        # calls before it did
        d = 4
        rt, _ = fuse(d, (0, 1), (0, 1), check=True)
        gap = rt.incl.compose(rt.proj) - Morphism.identity(rt.original)
        delta = rt.homotopy.delta()
        calls = []
        ring_eq = Ring.__eq__

        def counted(self, other):
            calls.append(other)
            return ring_eq(self, other)

        monkeypatch.setattr(Ring, "__eq__", counted)
        assert morphism_equal(delta, gap, 2 * d) == (True, "verified-to-cutoff")
        assert calls == []

    def test_moduli_that_differ_in_one_coefficient_share_no_image(
            self, monkeypatch, fresh_image_memo):
        # negative control: x1^2 - b^2 and x1^2 - 2b^2 are two divisions, so
        # the second operator divides on its own and gets its own images;
        # the modulus x1^2 - b^2 built apart again is the first division
        shape, mod, ring = _one_copy()
        ops = [_op(mod, w_rem(shape, ring.parse(text), "x1"), w_quo(shape, ring.parse(text), "x1"))
               for text in ("x1^2 - b^2", "x1^2 - 2*b^2", "x1^2 - b^2")]
        x3 = {"x1": 3}
        want = [_plain_images(op, 0, x3) for op in ops]
        assert want[0] != want[1]
        calls = _count_divisions(monkeypatch)
        assert [op.apply_basis(0, x3) for op in ops] == want
        assert calls == ["x1", "x1"]

    def test_a_multiplier_shares_only_with_its_own_term_order(self, fresh_image_memo):
        # x1 + 2b and 2b + x1 are one polynomial, but their products with x1,
        # and so the remainders that follow, list their terms in two orders
        shape, mod, ring = _one_copy()
        (ex,), (eb,) = ring.var("x1").terms, ring.var("b").terms
        one, q = Cyclo.one(4), ring.parse("x1^2 - b^2")
        ops = [_op(mod, w_mul(shape, MultiPoly(ring, terms)).then(w_rem(shape, q, "x1")))
               for terms in ({ex: one, eb: one * 2}, {eb: one * 2, ex: one})]
        want = [_term_lists(_plain_images(op, 0, {"x1": 1})) for op in ops]
        assert want[0] != want[1]
        assert [_term_lists(op.apply_basis(0, {"x1": 1})) for op in ops] == want

    def test_the_memo_stays_within_its_bound(self, fresh_image_memo):
        # more distinct inputs than the bound: the shared tries never hold
        # more nodes than it, and every image is still the plain word's
        shape, mod, ring = _one_copy()
        z = Cyclo.root(4, 1)
        twist = PSubst(shape, shape, {"a": (1, "a"), "x1": (z, "x1"), "b": (1, "b")})
        op = _op(mod, Word.of(twist).then(w_rem(shape, ring.parse("x1^2 - b^2"), "x1")))

        def size(node):
            return 1 + sum(size(child) for child in node[1].values())

        bound, epoch = bifact._IMAGE_BOUND, bifact._image_epoch
        for k in range(bound + 100):
            got = op.apply_basis(0, {"b": k})
            assert bifact._image_nodes <= bound
            if k % 100 == 0:
                assert got == _plain_images(op, 0, {"b": k})
                assert sum(size(root) for root in bifact._IMAGE_ROOTS.values()) <= bound
        assert bifact._image_epoch > epoch

    def test_annihilators_are_computed_once_per_process(self, monkeypatch):
        # a second fusion run with witnesses finds every word's annihilator
        # in the process-wide memo
        from mbf import compare

        assert compare.fusion_rule_compare(4, verify_homotopy=True)["pass"]
        calls = []
        word_annihilator = bifact._word_annihilator

        def counted(w, fs):
            calls.append(w)
            return word_annihilator(w, fs)

        monkeypatch.setattr(bifact, "_word_annihilator", counted)
        assert compare.fusion_rule_compare(4, verify_homotopy=True)["pass"]
        assert calls == []


# -- prepared primitives and the row accumulator -----------------------------------


def _seeded_poly(rng, ring, nterms):
    """Up to `nterms` terms of degree <= 3 per variable, with coefficients
    mixing rationals and powers of zeta."""
    n = ring.conductor
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(4) for _ in ring.vars)
        c = Cyclo.from_rat(n, Rat(rng.randint(-4, 4), rng.randint(1, 3)))
        terms[e] = c + Cyclo.root(n, rng.randrange(n)) * rng.randint(-2, 2)
    return MultiPoly(ring, terms)


def _term_lists(polys):
    return [list(p.terms.items()) for p in polys]


class TestPreparedPrimitives:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_coefficient_matches_bucket_then_rename(self, n):
        # one pass over the terms against coefficients_in(var)[k] renamed
        rng = random.Random(n)
        for nslots in (3, 4, 5):
            shape = SlotShape(nslots, 1, n)
            for var in shape.internal_names():
                for k in range(4):
                    prim = PCoeff(shape, var, k)
                    dring = prim.dst.ring()
                    for _ in range(4):
                        p = _seeded_poly(rng, shape.ring(), rng.randint(1, 10))
                        part = p.coefficients_in(var).get(k)
                        want = dring.zero() if part is None else part.rename(prim.to_dst, dring)
                        assert _term_lists([prim.apply(p)]) == _term_lists([want])

    @pytest.mark.parametrize("n", range(3, 13))
    def test_substitution_matches_subst_scale(self, n):
        # the kept plan against a fresh subst_scale of the same mapping
        rng = random.Random(200 + n)
        shape = SlotShape(4, 1, n)
        ring, one = shape.ring(), Cyclo.one(n)
        for _ in range(10):
            m = {v: (one, v) for v in ring.vars}
            for v in shape.internal_names():
                m[v] = (Cyclo.root(n, rng.randrange(n)) * rng.choice([1, -1, Rat(1, 2)]),
                        rng.choice(ring.vars))
            prim = PSubst(shape, shape, m)
            for _ in range(3):
                p = _seeded_poly(rng, ring, rng.randint(1, 10))
                want = p.subst_scale(prim.mapping, ring)
                assert _term_lists([prim.apply(p)]) == _term_lists([want])

    def test_preparation_waits_for_the_first_apply(self):
        # construction and lifting prepare nothing; the first apply does, once
        shape, _, ring = _one_copy(nslots=4, conductor=5)
        subst = w_transfer(shape, "x1", "x2").lift(1, 0).prims[0]
        coeff = w_coeff(shape, "x2", 1).lift(0, 1).prims[0]
        assert subst._plan is None and coeff._at is None
        p = subst.src.ring().parse("x2*x3^2 + a*b")
        subst.apply(p)
        coeff.apply(p)
        plan, at = subst._plan, coeff._at
        assert plan is not None and at is not None
        subst.apply(p)
        coeff.apply(p)
        assert subst._plan is plan and coeff._at is at

    def test_primitives_refuse_another_ring(self):
        shape, _, ring = _one_copy(nslots=3, conductor=4)
        other = SlotShape(4, 1, 4).ring().var("x1")
        for (prim,) in (w_transfer(shape, "x1", "a").prims, w_coeff(shape, "x1", 0).prims):
            with pytest.raises(RingMismatch):
                prim.apply(other)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_accumulated_rows_match_the_word_sums(self, n):
        # coefficients, trailing multipliers of one and of several terms,
        # a word that cancels another, a zero coefficient and an identity
        shape = SlotShape(3, 1, n)
        ring = shape.ring()
        z = Cyclo.root(n, 1)
        q = ring.p_S([0, 1], "x1", "b")
        quo_mul = w_quo(shape, q, "x1").then(w_mul(shape, ring.parse("a + x1*b - 2*b")))
        words = (
            w_rem(shape, q, "x1"),
            quo_mul,
            w_transfer(shape, "x1", "a").then(w_mul(shape, ring.parse("2*a - b"))).scaled(z),
            quo_mul.scaled(Cyclo.from_rat(n, -1)),
            w_mul(shape, ring.parse("x1 + b")),
            quo_mul,
            w_rem(shape, q, "x1").scaled(Cyclo.zero(n)),
            w_rem(shape, q, "x1").then(w_mul(shape, ring.parse("3*a^2"))).scaled(z * z),
            Word.identity(shape).scaled(Cyclo.from_rat(n, -1)),
            Word.identity(shape),
        )
        mod = FreeBimod(shape, 2)
        op = Operator(mod, mod, {(0, 0): words, (0, 1): words[3:], (1, 0): words[::-1]})
        for copy, k in itertools.product(range(2), range(7)):
            want = _plain_images(op, copy, {"x1": k})
            assert _term_lists(op.apply_basis(copy, {"x1": k})) == _term_lists(want)


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


_BLOCKS = (((0, 0), (1, 1)), ((1, 0), (0, 1)))  # the blocks of each parity part, in order


def _offset(X, Y, parity, i, j):
    """Offset of the block X_i Y_j in the parity part `parity` of X ⊗ Y."""
    off = 0
    for bi, bj in _BLOCKS[parity % 2]:
        if (bi, bj) == (i, j):
            return off
        off += X.component(bi).rank * Y.component(bj).rank
    raise ValueError("block not in this parity part")


def _ref_tensor(X, Y):
    """Dense reference of the differentials of tensor_obj(X, Y)."""
    T = tensor_obj(X, Y)
    diffs = []
    for parity in (0, 1):
        out = _Dense(T.component(1 + parity).rank, T.component(parity).rank)
        for i, j in _BLOCKS[parity]:
            coff = _offset(X, Y, parity, i, j)
            dx = _Dense.of(X.differential_from(i)).kron(Y.component(j), True, True)
            out.place(dx, _offset(X, Y, 1 + parity, 1 - i, j), coff)
            dy = _Dense.of(Y.differential_from(j)).kron(X.component(i), False, True)
            out.place(dy.scale(Cyclo.from_rat(X.shape.conductor, -1)) if i else dy,
                      _offset(X, Y, 1 + parity, i, 1 - j), coff)
        diffs.append(out)
    return diffs


def _ref_tensor_mor(f, g):
    X, Y, Xp, Yp = f.src, g.src, f.dst, g.dst
    par = (f.parity + g.parity) % 2
    legs = []
    for sp in (0, 1):
        tp = (sp + par) % 2
        acc = _Dense(tensor_obj(Xp, Yp).component(tp).rank, tensor_obj(X, Y).component(sp).rank)
        for i, j in _BLOCKS[sp]:
            ip, jp = (i + f.parity) % 2, (j + g.parity) % 2
            piece = _Dense.of(f.op_from(i)).kron(Yp.component(jp), True, True).compose(
                _Dense.of(g.op_from(j)).kron(X.component(i), False, True))
            if g.parity and i:
                piece = piece.scale(Cyclo.from_rat(X.shape.conductor, -1))
            acc.place(piece, _offset(Xp, Yp, tp, ip, jp), _offset(X, Y, sp, i, j))
        legs.append(acc)
    return legs


def _kron_ident(op, ident, op_first, glue):
    """op ⊗ id (op_first) or id ⊗ op through the two-operator _kron, with id
    the identity on `ident`'s copies: on the glued chain with `glue`, else on
    op's chain."""
    if glue:
        if op_first:
            return _kron(op.lift(0, ident.shape.nslots - 1),
                         Operator.identity(ident).lift(op.src.shape.nslots - 1, 0))
        return _kron(Operator.identity(ident).lift(0, op.dst.shape.nslots - 1),
                     op.lift(ident.shape.nslots - 1, 0))
    if op_first:
        return _kron(op, Operator.identity(FreeBimod(op.src.shape, ident.rank)))
    return _kron(Operator.identity(FreeBimod(op.dst.shape, ident.rank)), op)


def _dense_kron(F, G):
    """F ⊗ G on one chain as the dense (F ⊗ id)∘(id ⊗ G)."""
    return _Dense.of(F).kron(G.dst, True, False).compose(_Dense.of(G).kron(F.src, False, False))


def _assert_same(got, ref):
    """`got` holds the reference's words in the reference's order, or, if it
    is matrix-held (both ends one 2-slot chain), the rows they evaluate to."""
    if got.matrix_held:
        words = Operator(got.src, got.dst, {(i, j): cell for i, row in enumerate(ref.entries)
                                            for j, cell in enumerate(row)})
        assert got.matrix() == words.matrix()
    else:
        assert _Dense.of(got).keys() == ref.keys()


def _assert_matches_dense(ops, d):
    """compose, +, scale and _kron of every operator (and composable pair)
    give the reference's words in the reference's order, or a matrix-held
    result the rows of those words."""
    c = Cyclo.root(d, 1)
    ident = FreeBimod(SlotShape(2, 1, d), 2)
    for op in ops:
        ref = _Dense.of(op)
        assert all(0 <= i < op.dst.rank and 0 <= j < op.src.rank for i, j in op.cells)
        _assert_same(op.scale(c), ref.scale(c))
        _assert_same(op + op.scale(c), ref + ref.scale(c))
        for op_first in (True, False):
            for glue in (True, False):
                got = _kron_ident(op, ident, op_first, glue)
                assert _Dense.of(got).keys() == ref.kron(ident, op_first, glue).keys()
        for first in ops:
            if first.dst == op.src:
                _assert_same(op.compose(first), ref.compose(_Dense.of(first)))
            if first.dst.shape == op.src.shape:
                assert _Dense.of(_kron(op, first)).keys() == _dense_kron(op, first).keys()


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
        _assert_same(B.compose(A), rB.compose(rA))
        _assert_same(A + C, rA + rC)
        # results feed further operations: their cells stay in row-major order
        BAC = B.compose(A + C)
        _assert_same(BAC, rB.compose(rA + rC))
        _assert_same(E.compose(BAC), rE.compose(rB.compose(rA + rC)))
        for op in (BAC, A + C, E.compose(B), _kron(B, E), _kron(E, A)):
            assert list(op.cells) == sorted(op.cells)
        _assert_same(A.scale(z), rA.scale(z))
        ident = FreeBimod(shape, data.draw(st.integers(1, 3)))
        for op_first in (True, False):
            for glue in (True, False):
                got = _Dense.of(_kron_ident(A, ident, op_first, glue)).keys()
                assert got == rA.kron(ident, op_first, glue).keys()
        for F, G in ((B, E), (E, A), (A, C)):
            assert _Dense.of(_kron(F, G)).keys() == _dense_kron(F, G).keys()
        # a monomial in each copy, and each generator, against the dense
        # words applied one by one, term order included
        exps = data.draw(st.sampled_from([{}, {"a": 1}, {"a": 1, "b": 2}]))
        for j in range(A.src.rank):
            unit = [ring.monomial(exps) if k == j else ring.zero() for k in range(A.src.rank)]
            want = rA.apply(unit, ring.zero())
            assert _term_lists(A.apply_basis(j, exps)) == _term_lists(want)
            generator = [ring.one() if k == j else ring.zero() for k in range(A.src.rank)]
            column = [row[j] for row in A.matrix()]
            assert _term_lists(column) == _term_lists(rA.apply(generator, ring.zero()))
        n = A.normalized()
        assert n.normalized() is n and A.normalized() is n


class TestMatrixCheck:
    """`Operator.from_poly_matrix` is the one check of a polynomial matrix."""

    def test_shape_errors(self):
        P = ps_object(3, [0])
        ring = P.shape.ring()
        one, zero = ring.one(), ring.zero()
        m1, m2 = FreeBimod(P.shape, 1), FreeBimod(P.shape, 2)
        assert Operator.from_poly_matrix(m2, m1, [[one, zero]]).matrix() == ((one, zero),)
        for src, dst, rows in (
            (m2, m2, [[one, zero], [one]]),  # ragged
            (m2, m1, [[one], [zero]]),  # the ranks swapped
            (m1, m1, []),  # no row
        ):
            with pytest.raises(ValueError, match="shape mismatch"):
                Operator.from_poly_matrix(src, dst, rows)
        # the objects and morphisms built from rows are checked there
        with pytest.raises(ValueError, match="shape mismatch"):
            mbf_from_polys(P.shape, [[one]], [[one, one]], P.w)
        with pytest.raises(ValueError, match="shape mismatch"):
            Morphism.from_poly_blocks(P, P, 0, [[one]], [[one], [one]])

    def test_entry_from_another_ring(self):
        P = ps_object(3, [0])
        one = P.shape.ring().one()
        others = (Ring(["a", "b"], 4).one(), Ring(["b", "a"], 3).one(),
                  SlotShape(3, 1, 3).ring().zero())
        for entry in others:
            with pytest.raises(RingMismatch):
                Operator.from_poly_matrix(P.m0, P.m1, [[entry]])
            with pytest.raises(RingMismatch):
                Morphism.from_poly_blocks(P, P, 0, [[one]], [[entry]])


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

    def test_lift_is_kept(self):
        # the operator cannot change, so each (left, right) is lifted once;
        # an operator built apart lifts its own, to the same words
        op = self._op()
        L = op.lift(0, 1)
        assert op.lift(0, 1) is L and op.lift(1, 0) is not L
        fresh = Operator(op.src, op.dst, dict(op.cells)).lift(0, 1)
        assert fresh is not L
        signatures = lambda o: {k: [w.signature() for w in ws] for k, ws in o.cells.items()}
        assert signatures(fresh) == signatures(L)

    def test_word_normal_form_leaves_no_cycles(self):
        # the four words of the 3-slot d0 of P_{0} (x) P_{0} at d = 5, 100
        # times over: each normal form frees its own state, so the cyclic
        # collector finds nothing
        P = ps_object(5, [0])
        words = [w for ws in tensor_obj(P, P).d0.cells.values() for w in ws]
        assert len(words) == 4
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                for w in words:
                    w.normalized()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_matrix_is_the_given_matrix(self, monkeypatch):
        P = ps_object(5, [0, 2])
        ring = P.shape.ring()
        rows = [[ring.p_S([1, 3, 4]), ring.const(2)], [ring.zero(), ring.var("a")]]
        mod = FreeBimod(P.shape, 2)

        def refuse(self):
            raise AssertionError("Word.normalized called")

        monkeypatch.setattr(Word, "normalized", refuse)
        op = Operator.from_poly_matrix(mod, mod, rows)
        pm = op.matrix()
        assert pm == tuple(map(tuple, rows)) and op.matrix() is pm
        assert set(op.cells) == {(0, 0), (0, 1), (1, 1)}
        monkeypatch.undo()
        # the matrix read back from the generator images is the same
        rebuilt = Operator(mod, mod, dict(op.cells)).matrix()
        assert rebuilt == pm
        assert [list(p.terms.items()) for row in rebuilt for p in row] == [
            list(p.terms.items()) for row in pm for p in row]

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_matrix_operators_are_built_in_normal_form(self, d):
        # the differentials of every consecutive P_S and of its reduced
        # tensors with each singleton, and the constant twist isomorphisms:
        # cells equal to the generic normal form
        from mbf.fusion import reduce_tensor

        sets = [[(s + i) % d for i in range(n)] for s in range(d) for n in range(1, d)]
        objs = [ps_object(d, S) for S in sets]
        objs += [reduce_tensor(ps_object(d, S), ps_object(d, [k]), check=False).reduced
                 for S in sets for k in range(d)]
        ops = [op for D in objs for op in (D.d0, D.d1)]
        ops += _legs(*(twist_iso_ps(d, S, 1, 0)[1] for S in sets))
        constants = 0
        for op in ops:
            assert op.normalized() is op
            generic = Operator(op.src, op.dst, dict(op.cells)).normalized()
            assert _Dense.of(generic).keys() == _Dense.of(op).keys()
            constants += sum(not w.prims for ws in op.cells.values() for w in ws)
        assert constants > 0

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
        # the cached generator matrix is handed to every caller: read-only too
        pm = ps_object(4, [1]).d0.matrix()
        with pytest.raises(TypeError):
            pm[0][0] = pm[0][0] * 2
        with pytest.raises(TypeError):
            pm[0] = (pm[0][0],)
        # the constructor copies: changing what it was given changes nothing
        given = {key: [word]}
        other = Operator(op.src, op.dst, given)
        given[key].append(word)
        given[0, 0] = [word]
        assert dict(other.cells) == {key: (word,)}


class TestRowsBeforeWords:
    """An operator made from rows holds only its rows; its words are built
    on the first read of `cells`."""

    def _rows(self):
        shape = SlotShape(2, 1, 5)
        ring = shape.ring()
        z2 = Cyclo.root(5, 2)
        rows = [[ring.zero(), ring.const(z2)], [ring.p_S([1, 3]), ring.zero()]]
        return shape, FreeBimod(shape, 2), rows, z2

    def test_no_words_until_cells_are_read(self):
        _, mod, rows, _ = self._rows()
        op = Operator.from_poly_matrix(mod, mod, rows)
        assert op._cells is None
        made = (op.scale(2), op + op, op - op, op.compose(op), Operator.identity(mod))
        assert op_equal(made[0], made[1]) == (True, "exact-structural")
        assert op.matrix() == tuple(map(tuple, rows)) and op.normalized() is op
        assert all(o._cells is None for o in (op,) + made)
        cells = op.cells
        assert cells is op.cells and op._cells is cells

    def test_a_checked_fusion_leaves_the_reduced_object_without_words(self, fresh_orbits):
        rt, _ = fuse(5, (0, 1), (1, 2, 3), check=True)
        assert validate_mbf(rt.reduced).ok
        assert rt.reduced.d0._cells is None and rt.reduced.d1._cells is None

    def test_words_are_the_eager_normal_form(self):
        # a zero entry has no cell, a constant one a coefficient and any
        # other one multiplication; lifting them gives the same words
        shape, mod, rows, z2 = self._rows()
        op = Operator.from_poly_matrix(mod, mod, rows)
        eager = {(0, 1): (Word(z2, (), shape, shape),), (1, 0): (w_mul(shape, rows[1][0]),)}
        keys = lambda o: {k: [(w.coeff, w.signature()) for w in ws] for k, ws in o.cells.items()}
        assert keys(op) == keys(Operator(mod, mod, eager))
        for left, right in ((0, 1), (1, 0), (1, 1)):
            assert keys(op.lift(left, right)) == keys(Operator(mod, mod, eager).lift(left, right))


# -- slot maps ----------------------------------------------------------------
#
# Reference renamings, written out slot by slot as loops, one per structure
# map; `slot_map` must build the same dictionaries.


def _ref_embed(inner, ambient, offset):
    out = {}
    for s in range(inner.nslots):
        for vi, va in zip(inner.slot_names(s), ambient.slot_names(offset + s)):
            out[vi] = va
    return out


def _ref_insert(src, position):
    dst = SlotShape(src.nslots + 1, src.nvars, src.conductor)
    one = Cyclo.one(src.conductor)
    m = {}
    for s in range(src.nslots):
        d = s if s < position else s + 1
        for sv, dv in zip(src.slot_names(s), dst.slot_names(d)):
            m[sv] = (one, dv)
    return m


def _ref_collapse(src, pair_left, scalar, twist_on):
    dst = SlotShape(src.nslots - 1, src.nvars, src.conductor)
    one = Cyclo.one(src.conductor)
    sc = one if scalar is None else scalar
    m = {}
    for s in range(src.nslots):
        d = s if s <= pair_left else s - 1
        if s == pair_left:
            c = sc if twist_on == "left" else one
        elif s == pair_left + 1:
            c = sc if twist_on == "right" else one
        else:
            c = one
        for sv, dv in zip(src.slot_names(s), dst.slot_names(d)):
            m[sv] = (c, dv)
    return m


def _ref_lift_subst(prim, left, right):
    asrc, adst = prim.src.widen(left, right), prim.dst.widen(left, right)
    src_emb = _ref_embed(prim.src, asrc, left)
    dst_emb = _ref_embed(prim.dst, adst, left)
    m = {src_emb[v]: (c, dst_emb[w]) for v, (c, w) in prim.mapping.items()}
    one = Cyclo.one(asrc.conductor)
    for s in range(left):
        for sv, dv in zip(asrc.slot_names(s), adst.slot_names(s)):
            m[sv] = (one, dv)
    for t in range(right):
        ss = left + prim.src.nslots + t
        ds = left + prim.dst.nslots + t
        for sv, dv in zip(asrc.slot_names(ss), adst.slot_names(ds)):
            m[sv] = (one, dv)
    return m


def _ref_coeff_rename(shape, slot):
    dst = SlotShape(shape.nslots - 1, shape.nvars, shape.conductor)
    out = {}
    for s in range(shape.nslots):
        if s == slot:
            continue
        d = s if s < slot else s - 1
        for vi, va in zip(shape.slot_names(s), dst.slot_names(d)):
            out[vi] = va
    return out


_CHAINS = [SlotShape(n, v, 5) for n in range(2, 6) for v in (1, 2)]


def _subst_words(shape):
    """An insert, a collapse and (with an internal slot) a transfer word."""
    if shape.nslots == 2:
        return [w_insert(shape, 1), w_collapse(shape, 0)]
    return [w_insert(shape, 1), w_collapse(shape, 0, Cyclo.root(5, 2), "right"),
            w_transfer(shape, shape.slot_names(1)[0], shape.left_names()[0])]


class TestStoredKeys:
    def test_equal_shapes_built_apart_compare_and_hash_equal(self):
        a, b = SlotShape(3, 2, 4), SlotShape(3, 2, 4)
        assert a is b and a == b and hash(a) == hash(b) == hash((3, 2, 4))
        assert {a: "ring"}[b] == "ring" and a.ring() is b.ring()
        assert SlotShape(3, 1, 4).ring() is SlotShape(3, 1, 4).ring()
        other = SlotShape(3, 2, 5)
        assert a != other and (3, 2, 4) != a
        assert len({a, b, other}) == 2

    @pytest.mark.parametrize("shape", _CHAINS, ids=repr)
    def test_subst_signature_is_the_fresh_tuple(self, shape):
        for word in _subst_words(shape):
            (prim,) = word.prims
            fresh = ("subst", prim.src, prim.dst, frozenset(prim.mapping.items()))
            assert prim.signature() == fresh and hash(prim.signature()) == hash(fresh)


class TestSlotMap:
    def test_map_places_slots_in_order(self):
        src, dst = SlotShape(3, 2, 4), SlotShape(2, 2, 4)
        assert slot_map(src, dst, lambda s: None if s == 1 else s // 2) == {
            "a1": "a1", "a2": "a2", "b1": "b1", "b2": "b2"}
        assert slot_map(dst, src, lambda s: s + 1) == {
            "a1": "x1_1", "a2": "x1_2", "b1": "b1", "b2": "b2"}

    @pytest.mark.parametrize("shape", _CHAINS, ids=repr)
    def test_insert_matches_the_loop(self, shape):
        for position in range(1, shape.nslots):
            (prim,) = w_insert(shape, position).prims
            assert prim.mapping == _ref_insert(shape, position)

    @pytest.mark.parametrize("shape", _CHAINS, ids=repr)
    def test_collapse_matches_the_loop(self, shape):
        for pair_left, scalar, twist_on in itertools.product(
                range(shape.nslots - 1), (None, Cyclo.root(5, 1)), ("left", "right")):
            twisted = pair_left + (twist_on == "right")
            if scalar is not None and twisted in (0, shape.nslots - 1):
                # an outer variable may not be twisted
                with pytest.raises(ValueError, match="outer-"):
                    w_collapse(shape, pair_left, scalar, twist_on)
                continue
            (prim,) = w_collapse(shape, pair_left, scalar, twist_on).prims
            assert prim.mapping == _ref_collapse(shape, pair_left, scalar, twist_on)

    @pytest.mark.parametrize("scalar", [None, Cyclo.root(5, 1)], ids=["plain", "twisted"])
    def test_collapse_rejects_an_unknown_twist_side(self, scalar):
        # a misspelt side must not drop the twist unnoticed
        with pytest.raises(ValueError, match="'Left'"):
            w_collapse(SlotShape(3, 1, 5), 1, scalar, "Left")

    @pytest.mark.parametrize("shape", _CHAINS, ids=repr)
    def test_lift_matches_the_loop(self, shape):
        for word, left, right in itertools.product(_subst_words(shape), range(3), range(3)):
            (prim,) = word.prims
            (lifted,) = word.lift(left, right).prims
            assert lifted.mapping == _ref_lift_subst(prim, left, right)

    @pytest.mark.parametrize("shape", _CHAINS, ids=repr)
    def test_shape_keeping_lifts_match_the_loop(self, shape):
        ring = shape.ring()
        a, b = shape.left_names()[0], shape.right_names()[0]
        for left, right in itertools.product(range(3), range(3)):
            wide = shape.widen(left, right)
            emb = _ref_embed(shape, wide, left)
            (mul,) = w_mul(shape, ring.var(a) * ring.var(b)).lift(left, right).prims
            assert mul.poly == wide.ring().var(emb[a]) * wide.ring().var(emb[b])
            (td,) = w_tdiv(shape, a, b).lift(left, right).prims
            assert (td.v1, td.v2) == (emb[a], emb[b])
            (rem,) = w_rem(shape, ring.var(a) - ring.var(b), a).lift(left, right).prims
            assert rem.var == emb[a]

    @pytest.mark.parametrize("nslots", range(3, 6))
    def test_coefficient_drop_matches_the_loop(self, nslots):
        shape = SlotShape(nslots, 1, 5)
        for slot in range(1, nslots - 1):
            (prim,) = w_coeff(shape, f"x{slot}", 2).prims
            assert prim.dst == SlotShape(nslots - 1, 1, 5)
            assert prim.to_dst == _ref_coeff_rename(shape, slot)
            for left, right in itertools.product(range(3), range(3)):
                (lifted,) = w_coeff(shape, f"x{slot}", 2).lift(left, right).prims
                assert lifted.var == f"x{left + slot}"
                assert lifted.to_dst == _ref_coeff_rename(shape.widen(left, right), left + slot)

    @pytest.mark.parametrize("shape", _CHAINS, ids=repr)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_outer_variable_twisted_or_misplaced_raises(self, shape, side):
        one, eta = Cyclo.one(5), Cyclo.root(5, 1)
        ident = {v: (one, v) for v in shape.ring().vars}
        outer = (shape.left_names() if side == "left" else shape.right_names())[-1]
        other = (shape.right_names() if side == "left" else shape.left_names())[-1]
        for bad in ((eta, outer), (one, other)):
            with pytest.raises(ValueError, match=f"outer-{side} variable {outer!r}"):
                PSubst(shape, shape, {**ident, outer: bad})
        # internal variables may be twisted
        for v in shape.internal_names():
            assert not PSubst(shape, shape, {**ident, v: (eta, v)}).is_identity()

    @pytest.mark.parametrize("var", ["a", "b", "x3", "t"])
    def test_coefficient_of_an_outer_variable_raises(self, var):
        with pytest.raises(ValueError, match="is not an internal slot variable"):
            PCoeff(SlotShape(3, 1, 5), var, 0)

    def test_unit_scalars_do_no_scalar_arithmetic(self, monkeypatch):
        shape = SlotShape(3, 1, 5)
        ring = shape.ring()
        eta = Cyclo.root(5, 1)
        p = ring.p_S([0, 2], "a", "x1") * ring.var("b") + ring.const(eta)
        (insert,) = w_insert(SlotShape(2, 1, 5), 1).prims
        (merge,) = w_collapse(shape, 0).prims
        (twisted,) = w_collapse(shape, 0, eta, "right").prims
        q = ring.p_S([1], "a", "b").rename({}, SlotShape(2, 1, 5).ring())
        calls = collections.Counter()

        def counted(name):
            original = getattr(Cyclo, name)

            def wrapper(self, other):
                calls[name] += 1
                return original(self, other)
            monkeypatch.setattr(Cyclo, name, wrapper)
        counted("__sub__")
        counted("__mul__")
        renamed = p.rename({"x1": "b"}, ring)
        merged, inserted = merge.apply(p), insert.apply(q)
        assert calls == {}
        twisted.apply(p)
        assert calls["__mul__"] > 0
        monkeypatch.undo()
        assert renamed == p.subst_scale({"a": (1, "a"), "x1": (1, "b"), "b": (1, "b")}, ring)
        assert merged == p.rename({"x1": "a"}, merge.dst.ring())
        assert inserted == q.rename({}, ring)


# -- matrix-held operators against the word tiers they replaced -----------------


def _word_tiers(A, B):
    """op_equal before operators between 2-slot chains were matrix-held: the
    difference's words normalised, then its generator matrix."""
    minus = Cyclo.from_rat(A.src.shape.conductor, -1)
    cells = {k: tuple(A.cells.get(k, ())) + tuple(w.scaled(minus) for w in B.cells.get(k, ()))
             for k in set(A.cells) | set(B.cells)}
    diff = Operator(A.src, A.dst, cells).normalized()
    if not diff.cells:
        return True, "exact-structural"
    return not any(p for row in diff.matrix() for p in row), "exact-generator"


def _word_compose(G, F):
    """G ∘ F composed word by word, held as words."""
    cells = {}
    for (k, j), wfs in F.cells.items():
        for (i, kk), wgs in G.cells.items():
            if kk == k:
                cells.setdefault((i, j), []).extend(wf.then(wg) for wf in wfs for wg in wgs)
    return Operator(F.src, G.dst, cells)


def _random_rows(rng, ring, nrows, ncols):
    a, b = ring.var("a"), ring.var("b")
    monomials = [ring.one(), a, b, a * b, a * a, b ** ring.conductor]
    z, one = ring.root(1), Cyclo.one(ring.conductor)
    scalars = [one, -one, z, z * z + one, Cyclo.from_rat(ring.conductor, Rat(-3, 2))]
    return [[sum((m * rng.choice(scalars) for m in rng.sample(monomials, rng.randint(0, 3))),
                 ring.zero()) for _ in range(ncols)] for _ in range(nrows)]


def _dropping_product(A, B, ncols, ring):
    """The matrix product with its first non-zero term A[i][k]·B[k][j] left out."""
    out = [list(row) for row in _row_product(A, B, ncols, ring)]
    for i, row in enumerate(A):
        for j in range(ncols):
            for p, brow in zip(row, B):
                if p * brow[j]:
                    out[i][j] = out[i][j] - p * brow[j]
                    return tuple(map(tuple, out))
    return tuple(map(tuple, out))


class TestMatrixHeldOperators:
    """Operators between 2-slot chains hold their rows; each operation on them
    must agree with the words it replaced."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_op_equal_agrees_with_the_word_tiers(self, d):
        rng = random.Random(d)
        shape = SlotShape(2, 1, d)
        ring = shape.ring()
        verdicts = collections.Counter()
        for _ in range(30):
            src, dst = FreeBimod(shape, rng.randint(0, 3)), FreeBimod(shape, rng.randint(1, 3))
            rows = _random_rows(rng, ring, dst.rank, src.rank)
            other = [row[:] for row in rows]
            if rng.random() < 0.5 and src.rank:
                i, j = rng.randrange(dst.rank), rng.randrange(src.rank)
                other[i][j] = other[i][j] + _random_rows(rng, ring, 1, 1)[0][0]
            A = Operator.from_poly_matrix(src, dst, rows)
            B = Operator.from_poly_matrix(src, dst, other)
            C = Operator.from_poly_matrix(src, dst, _random_rows(rng, ring, dst.rank, src.rank))
            for X, Y in ((A, B), (B, A), (A + C, B + C), (A.scale(-1), -B), (A - C, B - C)):
                assert X.matrix_held and Y.matrix_held
                got = op_equal(X, Y)
                assert got == _word_tiers(X, Y)
                verdicts[got] += 1
        assert set(verdicts) == {(True, "exact-structural"), (False, "exact-generator")}

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_compose_is_the_word_composition(self, d):
        rng = random.Random(100 + d)
        shape = SlotShape(2, 1, d)
        ring = shape.ring()
        for _ in range(30):
            m0, m1, m2 = (FreeBimod(shape, rng.randint(0, 3)) for _ in range(3))
            F = Operator.from_poly_matrix(m0, m1, _random_rows(rng, ring, m1.rank, m0.rank))
            G = Operator.from_poly_matrix(m1, m2, _random_rows(rng, ring, m2.rank, m1.rank))
            words = _word_compose(G, F)
            product = G.compose(F)
            assert product.matrix() == words.matrix()
            rows = Operator.from_poly_matrix(m0, m2, words.matrix())
            assert op_equal(product, rows) == _word_tiers(words, rows) == (True, "exact-structural")

    def test_composite_through_an_internal_slot_becomes_rows(self):
        D = ps_object(4, (0, 1))
        lam, _ = unit_isos(D)
        lam_inv, _ = unit_isos_inverse(D)
        for F, G in ((lam_inv.opE, lam.opE), (lam_inv.opO, lam.opO)):
            assert not F.matrix_held and not G.matrix_held
            composite = G.compose(F)
            assert composite.matrix_held
            assert composite.matrix() == _word_compose(G, F).matrix()
            assert op_equal(composite, Operator.identity(F.src)) == (True, "exact-structural")

    def test_identity_is_the_identity_matrix(self):
        shape = SlotShape(2, 1, 3)
        ring = shape.ring()
        mod, again = FreeBimod(shape, 2), FreeBimod(shape, 2)
        ident = Operator.identity(mod)
        assert ident.matrix() == ((ring.one(), ring.zero()), (ring.zero(), ring.one()))
        assert again is not mod and again == mod
        assert Operator.identity(again) is ident  # immutable: one per module
        assert {k: [(w.coeff, w.signature()) for w in ws] for k, ws in ident.cells.items()} == {
            (i, i): [(Cyclo.one(3), Word.identity(shape).signature())] for i in range(2)}

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_a_product_dropping_one_term_is_caught(self, d, monkeypatch):
        # negative control: the oracle above must see a product that loses a term
        monkeypatch.setattr(bifact, "_row_product", _dropping_product)
        rng = random.Random(100 + d)
        shape = SlotShape(2, 1, d)
        ring = shape.ring()
        caught = 0
        for _ in range(30):
            m0, m1, m2 = (FreeBimod(shape, rng.randint(0, 3)) for _ in range(3))
            F = Operator.from_poly_matrix(m0, m1, _random_rows(rng, ring, m1.rank, m0.rank))
            G = Operator.from_poly_matrix(m1, m2, _random_rows(rng, ring, m2.rank, m1.rank))
            caught += G.compose(F).matrix() != _word_compose(G, F).matrix()
        assert caught > 0


class TestTwoSlotSourceEquality:
    """`op_equal` out of a 2-slot source compares generator matrices, whatever
    the target chain, and normalises no word."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_into_three_slots_agrees_with_the_word_tiers(self, d, monkeypatch):
        rng = random.Random(300 + d)
        sh2, sh3 = SlotShape(2, 1, d), SlotShape(3, 1, d)
        ring = sh3.ring()
        a, x, b = (ring.var(v) for v in ("a", "x1", "b"))
        monomials = [ring.one(), a, x, b, a * x, x * b, x * x, a * b]
        ins = w_insert(sh2, 1)
        # the same map as `ins`, through other words
        detour = ins.then(w_collapse(sh3, 0)).then(ins)

        def poly():
            z = Cyclo.root(d, rng.randrange(d))
            return sum((m * rng.choice([1, -1, z, Rat(3, 2)]) for m in rng.sample(monomials, 2)),
                       ring.zero())

        def operator(src, dst, rows):
            return Operator(src, dst, {(i, j): (w_then_mul(rng.choice((ins, detour)), p),)
                                       for i, row in enumerate(rows) for j, p in enumerate(row)
                                       if p})

        cases = []
        for _ in range(20):
            src, dst = FreeBimod(sh2, rng.randint(1, 3)), FreeBimod(sh3, rng.randint(1, 3))
            rows = [[poly() for _ in range(src.rank)] for _ in range(dst.rank)]
            other = [row[:] for row in rows]
            if rng.random() < 0.5:
                i, j = rng.randrange(dst.rank), rng.randrange(src.rank)
                other[i][j] = other[i][j] + rng.choice(monomials[1:])
            A, B = operator(src, dst, rows), operator(src, dst, other)
            cases.append((A, B, _word_tiers(A, B)))
        calls = []
        normalized = Operator.normalized

        def counted(self):
            calls.append(self)
            return normalized(self)

        monkeypatch.setattr(Operator, "normalized", counted)
        verdicts = collections.Counter()
        for A, B, (eq, _) in cases:
            got = op_equal(A, B)
            assert got == ((True, "exact-structural") if eq else (False, "exact-generator"))
            verdicts[got] += 1
        assert calls == []
        assert set(verdicts) == {(True, "exact-structural"), (False, "exact-generator")}
