import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from mbf import bifact, fusion
from mbf._rat import Rat
from mbf.compare import consecutive_sets
from mbf.exactalg import Cyclo
from mbf.bifact import (
    Morphism,
    Operator,
    ValidationReport,
    fermat_potential,
    mbf_from_polys,
    morphism_equal,
    ps_object,
    tensor_obj,
    validate_mbf,
)
from mbf.graded import graded_validate, hom_space, morphism_charge
from mbf.polycalc import MultiPoly, NotDivisibleError
from mbf.fusion import (
    DETERMINED,
    HOMOTOPY_POSITIONS,
    Junctions,
    PSObject,
    VerificationError,
    decompose_into_PS,
    f_pair,
    fuse,
    lam,
    m_prime_word,
    proportionality_scalar,
    reduce_tensor,
    solve_fusing_2x2,
    verify_fusing_up_to_homotopy,
    verify_group_like,
    verify_sign,
    _closed_and_chargeless,
    _determined_copies,
    _entry_polys,
    _fusing_composites,
)


def expected_F(d):
    # 1/(eta+1) * [[-eta, eta^2], [eta^2+eta+1, eta^2]]
    eta, one = Cyclo.root(d, 1), Cyclo.one(d)
    s = (eta + one).inverse()
    e2 = eta * eta
    return [[-eta * s, e2 * s], [(e2 + eta + one) * s, e2 * s]]


class TestPSObject:
    def test_normalizes_and_grades(self):
        # the shell the benchmark reads holds ps_object(d, S), graded
        p = PSObject(5, (7, 1)).underlying
        ref = ps_object(5, (1, 2))
        assert p.d0.matrix() == ref.d0.matrix()
        assert p.d1.matrix() == ref.d1.matrix()
        assert p.grading == ref.grading
        assert graded_validate(p)["ok"]

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            PSObject(4, ())
        with pytest.raises(ValueError):
            PSObject(4, range(4))


class TestGroupLikeJunctions:
    def test_all_lam_closed_charge_zero_d5(self):
        for i in range(5):
            for j in range(5):
                _closed_and_chargeless(lam(5, i, j), f"lam({i},{j})")  # raises on failure

    def test_trivial_triple(self):
        assert verify_group_like(3, 0, 0, 0) == Cyclo.one(3)

    def test_one_lam_per_residue_pair(self):
        assert lam(5, 1, 2) is lam(5, 1 + 5, 2) is lam(5, 1, 2 - 5)
        assert lam(4, 1, 2) is lam(4, 5, 6)
        assert lam(5, 1, 2) is not lam(5, 2, 1) and lam(5, 1, 2) is not lam(6, 1, 2)
        # and it is built on the one shared tensor product of its ends
        assert lam(5, 1, 2).src is tensor_obj(ps_object(5, [1]), ps_object(5, [2]))

    @pytest.mark.parametrize("d", [3, 5])
    def test_group_like_scalar_is_one(self, d):
        one = Cyclo.one(d)
        for (i, j, k) in ((1, 2, 3), (2, 2, 2), (0, 1, d - 1)):
            assert verify_group_like(d, i, j, k) == one

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    def test_group_like_property_d4(self, i, j, k):
        assert verify_group_like(4, i, j, k) == Cyclo.one(4)


class TestDeferredProducts:
    @pytest.mark.parametrize("check", [lambda: verify_group_like(5, 1, 2, 3),
                                       lambda: verify_sign(4)],
                             ids=["group-like", "sign"])
    def test_only_the_morphism_legs_are_built(self, monkeypatch, check):
        # each of the two tensor_mor calls builds its legs; no endpoint of a
        # junction, a tensor_mor or an associator has its differential read
        calls = []
        legs = bifact._tensor_legs

        def counted(*args, **kwargs):
            calls.append(args)
            return legs(*args, **kwargs)

        monkeypatch.setattr(bifact, "_tensor_legs", counted)
        check()
        assert len(calls) == 2


class TestSignPair:
    @pytest.mark.parametrize("d,want", [(4, -1), (6, 1), (8, -1), (10, 1)])
    def test_bracketing_scalar(self, d, want):
        assert verify_sign(d) == Cyclo.from_rat(d, want)

    def test_odd_d_rejected(self):
        for d in (3, 5):
            with pytest.raises(ValueError):
                verify_sign(d)

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_pair_closed_charge_zero(self, d):
        _, _, F_l, F_r = f_pair(d)
        _closed_and_chargeless(F_l, "F_l")  # raises on failure
        _closed_and_chargeless(F_r, "F_r")

    def test_wrong_sign_variant_not_closed(self):
        # the opposite of the (-1)^{d/2-1} factor must break delta-closedness
        for d in (4, 6, 8):
            P_A, P_B, F_l, _ = f_pair(d)
            TL = tensor_obj(P_A, P_B)
            mp = m_prime_word(d, d // 2)
            wrong = Cyclo.from_rat(d, (-1) ** (d // 2))
            bad = Morphism(
                TL, P_B, 0,
                Operator(TL.m0, P_B.m0, {(0, 1): [mp]}),
                Operator(TL.m1, P_B.m1, {(0, 0): [mp.scaled(wrong)]}),
            )
            ok, _ = bad.is_closed()
            assert not ok
            assert F_l.is_closed()[0]
            with pytest.raises(VerificationError):
                _closed_and_chargeless(bad, "F_l")

    def test_closed_only_to_cutoff_is_rejected(self, monkeypatch):
        # a True that is not exact is not a proof of closedness
        _, _, F_l, _ = f_pair(4)
        monkeypatch.setattr(Morphism, "is_closed", lambda self: (True, "verified-to-cutoff"))
        with pytest.raises(VerificationError) as exc:
            _closed_and_chargeless(F_l, "F_l")
        assert str(exc.value) == "F_l: not exactly delta-closed (verified-to-cutoff)"


class TestACollection:
    @pytest.mark.parametrize("d", list(range(4, 10)))
    def test_division_entries_exist(self, d):
        # the (2,1) entries require an exact polynomial division at each d
        jn = Junctions(d)
        assert sorted(jn.A) == [1, 2, 3, 4, 5, 6]

    def test_d3_has_no_collection(self):
        assert Junctions(3).A == {}

    def test_closed_and_chargeless(self):
        jn = Junctions(6)
        for n, mor in jn.A.items():
            ok, mode = mor.is_closed()
            assert ok and mode.startswith("exact")
            assert morphism_charge(mor) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_an_entry_off_by_one_term_is_not_closed(self, n, monkeypatch):
        # negative control: A{n}'s (2,1) entry, the one exact division of
        # its construction, gains a term; out of its 2-slot source the
        # generator images tell it apart
        quotients = []
        exact_divide = MultiPoly.exact_divide

        def perturbed(self, divisor):
            q = exact_divide(self, divisor)
            quotients.append(q)
            return q + q.ring.monomial({"x1": 5}) if len(quotients) == n else q

        monkeypatch.setattr(MultiPoly, "exact_divide", perturbed)
        with pytest.raises(VerificationError) as exc:
            Junctions(4)
        assert str(exc.value) == f"A{n}: not exactly delta-closed (exact-generator)"
        assert len(quotients) == 6

    def test_closedness_normalises_no_word(self, monkeypatch):
        jn = Junctions(5)
        calls = []
        normalized = Operator.normalized

        def counted(self):
            calls.append(self)
            return normalized(self)

        monkeypatch.setattr(Operator, "normalized", counted)
        for mor in jn.A.values():
            assert mor.src.shape.nslots == 2 and mor.dst.shape.nslots == 3
            assert mor.is_closed() == (True, "exact-structural")
        assert calls == []
        morphism_charge(jn.A[1])
        assert calls  # the count sees the charge check's normal forms

    @pytest.mark.parametrize("d", list(range(4, 10)))
    def test_construction_checks_every_junction(self, d, monkeypatch):
        checked = []

        def record(phi, name):
            checked.append(name)
            return _closed_and_chargeless(phi, name)

        monkeypatch.setattr(fusion, "_closed_and_chargeless", record)
        Junctions(d)
        assert checked == [f"A{n}" for n in range(1, 7)]
        monkeypatch.setattr(fusion, "morphism_charge", lambda phi: 1)
        with pytest.raises(VerificationError, match="A1: charge"):
            Junctions(d)


class TestFusingMatrix:
    @pytest.mark.parametrize("d", list(range(4, 10)))
    def test_closed_form(self, d):
        rep = solve_fusing_2x2(d)
        assert rep.F == expected_F(d)

    @pytest.mark.parametrize("d,want", [(4, -1.0), (6, -0.5)])
    def test_pinned_ratios(self, d, want):
        rep = solve_fusing_2x2(d)
        assert abs(rep.ratio_numeric - want) < 1e-12

    @pytest.mark.parametrize("d", [5, 8, 11])
    def test_ratio_against_trig(self, d):
        rep = solve_fusing_2x2(d)
        want = -1.0 / (1.0 + 2.0 * math.cos(2.0 * math.pi / d))
        assert abs(rep.ratio_numeric - want) < 1e-12

    def test_determined_positions_pinned(self):
        assert DETERMINED == ((1, 1), (5, 2), (6, 2), (7, 2))
        assert HOMOTOPY_POSITIONS == ((2, 1), (3, 1), (4, 1), (8, 2))

    @pytest.mark.parametrize("d", [4, 7])
    def test_determined_copies_follow_tensor_copy(self, d):
        # (parity leg, copy) in P⊗(P⊗P) of display rows 1, 5, 6 and 7
        P = ps_object(d, (0, 1))
        assert _determined_copies(P) == [(0, 0), (1, 0), (1, 2), (1, 3)]

    def test_determined_rows_vanish_exactly_d5(self):
        d = 5
        P, L1, L2, X, Y = _fusing_composites(d)
        pX, pY = _entry_polys(X), _entry_polys(Y)
        F = expected_F(d)
        for pL, (f0, f2) in ((_entry_polys(L1), F[0]), (_entry_polys(L2), F[1])):
            exact = {
                (leg, r)
                for leg in (0, 1)
                for r in range(4)
                if (pL[leg][r] - pX[leg][r] * f0 - pY[leg][r] * f2).is_zero()
            }
            assert exact == set(_determined_copies(P))

    def test_all_entries_exact_at_d4(self):
        _, L1, L2, X, Y = _fusing_composites(4)
        pX, pY = _entry_polys(X), _entry_polys(Y)
        F = expected_F(4)
        for pL, (f0, f2) in ((_entry_polys(L1), F[0]), (_entry_polys(L2), F[1])):
            for leg in (0, 1):
                for r in range(4):
                    assert (pL[leg][r] - pX[leg][r] * f0 - pY[leg][r] * f2).is_zero()

    @pytest.mark.parametrize("x,y,l,error", [
        ("a", "b", "3*a - b", None),
        ("a + b", "2*a + 2*b", "a + b", "fusing system underdetermined"),
        ("a", "b", "a + b + 1", "fusing system inconsistent"),
    ])
    def test_solve_pair_failures(self, x, y, l, error):
        """Dependent columns of the two unknowns, or a right side outside
        their span, raise instead of returning a pair."""
        from mbf.fusion import _solve_pair

        ring = ps_object(5, (0, 1)).shape.ring()
        polys = [{0: [ring.parse(text)]} for text in (l, x, y)]
        if error is None:
            assert _solve_pair(5, [(0, 0)], *polys) == (Cyclo.from_rat(5, 3), Cyclo.from_rat(5, -1))
        else:
            with pytest.raises(VerificationError, match=error):
                _solve_pair(5, [(0, 0)], *polys)

    def test_report_json_shape(self):
        js = solve_fusing_2x2(5).to_json()
        assert set(js) == {
            "d", "F", "determined_entries", "homotopy_entries",
            "ratio_exact", "ratio_numeric",
        }
        assert js["d"] == 5
        assert all(isinstance(c, str) for row in js["F"] for c in row)
        assert isinstance(js["ratio_numeric"], float)


def _rescaled_ratio(d, scales):
    """Re-solve the relations after junction rescalings A_n -> c_n A_n."""
    from mbf.fusion import _solve_pair

    P, L1, L2, X, Y = _fusing_composites(d)
    c = {n: scales[n] for n in range(1, 7)}
    L1 = L1.scale(c[1] * c[5])
    L2 = L2.scale(c[2] * c[6])
    X = X.scale(c[1] * c[3])
    Y = Y.scale(c[2] * c[4])
    copies, pX, pY = _determined_copies(P), _entry_polys(X), _entry_polys(Y)
    f00, f02 = _solve_pair(d, copies, _entry_polys(L1), pX, pY)
    f20, f22 = _solve_pair(d, copies, _entry_polys(L2), pX, pY)
    return f00 * f22 * (f02 * f20).inverse()


class TestGaugeInvariance:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)),
                    min_size=6, max_size=6))
    def test_ratio_survives_rescaling(self, raw):
        # nonzero scalars q*eta^k on each junction leave the ratio alone
        d = 5
        scales = {
            n + 1: Cyclo.root(d, k) * Cyclo.from_rat(d, q)
            for n, (k, q) in enumerate(raw)
        }
        base = solve_fusing_2x2(d)
        got = _rescaled_ratio(d, scales)
        assert got == base.ratio_exact


def _contraction_invariants(rt) -> dict:
    """Every invariant of a contraction, each read on its own."""
    rep = validate_mbf(rt.reduced)
    eq, mode = morphism_equal(rt.proj.compose(rt.incl), Morphism.identity(rt.reduced))
    ok_i, mode_i = rt.incl.is_closed()
    gap = rt.incl.compose(rt.proj) - Morphism.identity(rt.original)
    return {
        "reduced_valid": bool(rep) and rep.mode == "exact",
        "proj_incl_identity": eq and mode.startswith("exact"),
        "incl_closed": ok_i and mode_i.startswith("exact"),
        "proj_closed": bool(rt.proj.is_closed()[0]),
        "homotopy_witness": bool(morphism_equal(rt.homotopy.delta(), gap)[0]),
        "grading_valid": graded_validate(rt.reduced)["ok"],
    }


class TestReduceTensor:
    def test_singleton_pair_d3(self):
        rt = reduce_tensor(ps_object(3, [0]), ps_object(3, [1]))
        assert (rt.reduced.m0.rank, rt.reduced.m1.rank) == (1, 1)
        assert decompose_into_PS(rt.reduced) == [(1,)]

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_singleton_pairs_proj_incl_identity(self, d):
        for i in range(2):
            for j in range(2):
                rt = reduce_tensor(ps_object(d, [i]), ps_object(d, [j]), check=False)
                comp = rt.proj.compose(rt.incl)
                eq, mode = morphism_equal(comp, Morphism.identity(rt.reduced))
                assert eq and mode.startswith("exact")

    def test_p01_squared_d5(self):
        rt, summands = fuse(5, (0, 1), (0, 1))
        assert (rt.reduced.m0.rank, rt.reduced.m1.rank) == (2, 2)
        assert summands == [(1,), (0, 1, 2)]

    def test_p01_by_singleton_d4(self):
        _, summands = fuse(4, (0, 1), (1,))
        assert summands == [(1, 2)]

    def test_validate_full(self):
        rt = reduce_tensor(ps_object(5, (0, 1)), ps_object(5, (0, 1)))
        assert _contraction_invariants(rt) == {
            "reduced_valid": True,
            "proj_incl_identity": True,
            "incl_closed": True,
            "proj_closed": True,
            "homotopy_witness": True,
            "grading_valid": True,
        }

    @pytest.mark.parametrize(
        "names,equal,message",
        [
            (["validate_mbf"], None, "reduced object invalid: ['v']"),
            (["morphism_equal"], (False, "exact-structural"), "proj∘incl is not the identity"),
            (["morphism_equal"], (True, "verified-to-cutoff"), "proj∘incl is not the identity"),
            (["graded_validate"], None, "reduced grading invalid"),
            (["graded_validate", "morphism_equal", "validate_mbf"], (False, "exact-structural"),
             "reduced object invalid: ['v']"),
        ],
        ids=["reduced-object", "proj-incl", "proj-incl-to-cutoff", "grading",
             "first-failure-wins"],
    )
    def test_failed_check_raises_and_is_reported(self, monkeypatch, names, equal, message):
        # reduce_tensor(check=True) checks the reduced object, then
        # proj∘incl = id, then the grading, and reports the first failure in
        # the VerificationError it raises; a True that is not exact fails too
        A, B = ps_object(4, [0]), ps_object(4, [1])
        failing = {
            "validate_mbf": lambda D: ValidationReport(False, "exact", ["v"]),
            "morphism_equal": lambda L, R: equal,
            "graded_validate": lambda D: {"ok": False},
        }
        for name in names:
            monkeypatch.setattr(fusion, name, failing[name])
        with pytest.raises(VerificationError) as exc:
            reduce_tensor(A, B)
        assert str(exc.value) == message
        # unchecked, the same contraction is built and every invariant holds
        assert all(_contraction_invariants(reduce_tensor(A, B, check=False)).values())

    @pytest.mark.parametrize("d,left,right,divisions", [
        (5, (0, 1), (0, 1), 4),
        (4, (0, 1, 2), (1, 2), 4),
        (6, (0, 1, 2), (3,), 2),
    ])
    def test_each_division_made_once(self, monkeypatch, fresh_image_memo, d, left, right,
                                     divisions):
        # one division per entry of A's differentials and power of x gives
        # both the reduced entry (remainder) and incl's correction (quotient)
        A, B = ps_object(d, left), ps_object(d, right)
        calls = []
        divmod_in_var = MultiPoly.divmod_in_var

        def counted(self, divisor, var):
            calls.append((self, divisor, var))
            return divmod_in_var(self, divisor, var)

        monkeypatch.setattr(MultiPoly, "divmod_in_var", counted)
        reduce_tensor(A, B, check=False)
        assert len(calls) == len(set(calls)) == divisions

    def test_checks_normalise_no_word(self, monkeypatch):
        # the reduced object and proj∘incl are matrix-held, so the checks
        # multiply and compare rows; only the 3-slot witness normalises words
        A, B = ps_object(4, (0, 1)), ps_object(4, (1, 2))
        assert validate_mbf(A) and validate_mbf(B)
        calls = []
        normalized = Operator.normalized

        def counted(self):
            calls.append(self)
            return normalized(self)

        monkeypatch.setattr(Operator, "normalized", counted)
        rt = reduce_tensor(A, B, check=True)
        assert calls == []
        gap = rt.incl.compose(rt.proj) - Morphism.identity(rt.original)
        assert morphism_equal(rt.homotopy.delta(), gap, 8)[0]
        assert calls  # the count sees the word path

    def test_reduced_grading_valid(self):
        rt = reduce_tensor(ps_object(6, (0, 1, 2)), ps_object(6, (2, 3)))
        assert graded_validate(rt.reduced)["ok"]

    def test_right_factor_must_be_rank_one(self):
        rt = reduce_tensor(ps_object(5, (0, 1)), ps_object(5, (0, 1)))
        with pytest.raises(ValueError):
            reduce_tensor(ps_object(5, (0, 1)), rt.reduced)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_division_word_charges(self, d):
        # the homotopy is built from quotient words, which lower the charge
        # by the modulus degree; proj ends in remainder words, which keep it
        for s in range(1, d):
            for t in range(1, d):
                gA = ps_object(d, range(s))
                gB = ps_object(d, [(1 + u) % d for u in range(t)])
                rt = reduce_tensor(gA, gB, check=False)
                assert morphism_charge(rt.homotopy) == -1
                assert morphism_charge(rt.proj) == 0
                assert morphism_charge(rt.incl) == 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_singleton_fusion_adds_indices(self, d, data):
        i = data.draw(st.integers(0, d - 1))
        j = data.draw(st.integers(0, d - 1))
        _, summands = fuse(d, (i,), (j,), check=False)
        assert summands == [((i + j) % d,)]


class TestDecompose:
    def test_direct_sum_block_diagonal(self):
        # P_{0} (+) P_{1,2} built by hand, plus a contractible (1, W) pair
        d = 5
        sh = ps_object(d, [0]).shape
        ring = sh.ring()
        zero = ring.zero()
        w = ring.parse("a^5 - b^5")
        p0, p0c = ring.p_S([0]), ring.p_S([1, 2, 3, 4])
        p12, p12c = ring.p_S([1, 2]), ring.p_S([0, 3, 4])
        d1 = [[p0, zero, zero], [zero, p12, zero], [zero, zero, ring.one()]]
        d0 = [[p0c, zero, zero], [zero, p12c, zero], [zero, zero, w]]
        D = mbf_from_polys(sh, d0, d1, fermat_potential(d))
        assert decompose_into_PS(D) == [(0,), (1, 2)]

    def test_non_consecutive_set(self):
        d = 4
        _, summands = fuse(d, (0, 2), (0,), check=False)
        assert summands == [(0, 2)]

    def test_unsplittable_block_reported(self):
        # antidiagonal pairing that elementary exact divisions cannot split
        d = 4
        sh = ps_object(d, [0]).shape
        ring = sh.ring()
        a2, b2 = ring.parse("a^2"), ring.parse("b^2")
        d1 = [[a2, b2], [b2, a2]]
        d0 = [[a2, -b2], [-b2, a2]]
        D = mbf_from_polys(sh, d0, d1, fermat_potential(d))
        with pytest.raises(VerificationError, match="not factorable"):
            decompose_into_PS(D)

    def test_krull_schmidt_hom_dimensions(self):
        """For 8 seeded fusion pairs at d = 4, every P_T and both parities,
        dim H(P_T, X) of the reduced tensor X is the sum of dim H(P_T, P_S)
        over the returned summands P_S; with any one summand dropped, some
        P_T and parity tell the difference."""
        d = 4
        sets = [tuple(sorted((i + t) % d for t in range(j + 1)))
                for i in range(d) for j in range(d - 1)]
        pairs = random.Random(8).sample([(a, b) for a in sets for b in sets], 8)
        P = {S: ps_object(d, S) for S in sets}
        cache = {}

        def dims(summands):
            for T in sets:
                for S in summands:
                    for parity in (0, 1):
                        if (T, S, parity) not in cache:
                            H = hom_space(P[T], P[S], "all", parity)
                            cache[T, S, parity] = H.total_dim()
            return {(T, parity): sum(cache[T, S, parity] for S in summands)
                    for T in sets for parity in (0, 1)}

        for left, right in pairs:
            rt, summands = fuse(d, left, right)
            got = {(T, parity): hom_space(P[T], rt.reduced, "all", parity).total_dim()
                   for T in sets for parity in (0, 1)}
            assert got == dims(summands)
            for drop in range(len(summands)):
                assert got != dims(summands[:drop] + summands[drop + 1:])

    def test_accepts_graded_and_rejects_junk(self):
        assert decompose_into_PS(ps_object(4, (0, 1))) == [(0, 1)]
        with pytest.raises(TypeError):
            decompose_into_PS("nope")
        # a contraction is decomposed through its reduced object only
        rt, _ = fuse(4, (0, 1), (1,))
        with pytest.raises(TypeError):
            decompose_into_PS(rt)


def _trial_division_lines(p, d):
    """The factor test as trial division, the oracle for `_defect_lines`:
    divide by each a - zeta^i b in turn, keeping the quotient when exact."""
    ring = p.ring
    S, rem = [], p
    for i in range(d):
        f = ring.var("a") - ring.var("b") * Cyclo.root(d, i)
        try:
            rem = rem.exact_divide(f)
            S.append(i)
        except NotDivisibleError:
            pass
    if rem.constant_value() is None:
        raise VerificationError(f"block does not factor into defect lines: {p}")
    if not S or len(S) == d:
        raise VerificationError(f"block is not a proper defect: {p}")
    return tuple(S)


def _outcome(test, p, d):
    try:
        return test(p, d)
    except VerificationError as exc:
        return str(exc)


def _by_evaluation(p, d):
    return fusion._defect_lines(p, [Cyclo.root(d, i) for i in range(d)])


@st.composite
def _binary_forms(draw):
    """(d, p): c times distinct lines a - zeta^i b, with one of the ways a
    form can fail to be such a product applied or not."""
    d = draw(st.integers(3, 7), label="d")
    ring = ps_object(d, (0,)).shape.ring()
    a, b = ring.var("a"), ring.var("b")
    S = draw(st.sets(st.integers(0, d - 1)), label="S")
    c = Cyclo.root(d, draw(st.integers(0, d - 1))) * draw(
        st.sampled_from([1, -1, 2, Rat(1, 3)]))
    p = ring.p_S(sorted(S)) * c
    kind = draw(st.sampled_from(
        ["distinct", "repeated", "b-factor", "perturbed", "inhomogeneous"]), label="kind")
    if kind == "repeated":
        p = p * ring.p_S([draw(st.integers(0, d - 1))])
    elif kind == "b-factor":
        p = p * b
    elif kind == "perturbed":
        k = len(S)
        e = draw(st.integers(0, k), label="a-power")
        p = p + ring.monomial({"a": e, "b": k - e}, draw(st.sampled_from([1, -2, Rat(1, 2)])))
    elif kind == "inhomogeneous":
        p = p + ring.monomial({"a": draw(st.integers(0, 2)), "b": len(S) + 1})
    # a pivot is non-zero; a perturbed constant can cancel
    assume(not p.is_zero())
    return d, p


class TestFactorTest:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_every_pivot_agrees_with_trial_division(self, d, monkeypatch):
        # every pivot of every consecutive pair, answered both ways
        pivots = []
        defect_lines = fusion._defect_lines

        def record(p, roots):
            pivots.append(p)
            return defect_lines(p, roots)

        monkeypatch.setattr(fusion, "_defect_lines", record)
        sets = consecutive_sets(d)
        P = {S: ps_object(d, S) for S in sets}
        for S1, S2 in itertools.product(sets, repeat=2):
            decompose_into_PS(reduce_tensor(P[S1], P[S2], check=False).reduced)
        assert len(pivots) >= len(sets) ** 2
        for p in pivots:
            want = _trial_division_lines(p, d)
            assert defect_lines(p, [Cyclo.root(d, i) for i in range(d)]) == want

    @settings(max_examples=120, deadline=None)
    @given(_binary_forms())
    def test_drawn_forms_agree_with_trial_division(self, case):
        d, p = case
        assert _outcome(_by_evaluation, p, d) == _outcome(_trial_division_lines, p, d)

    @pytest.mark.parametrize("text,message", [
        ("a^2 - 2*a*b + b^2",
         "block does not factor into defect lines: a^2 - 2*a*b + b^2"),
        ("(a - b)^2*(a - z*b)", "block does not factor into defect lines: "
         "a^3 + (-2 - z)*a^2*b + (1 + 2*z)*a*b^2 - z*b^3"),
        ("a*b", "block does not factor into defect lines: a*b"),
        ("a^2*b - z*a*b^2", "block does not factor into defect lines: a^2*b - z*a*b^2"),
    ], ids=["repeated", "repeated-times-line", "b-factor", "b-times-line"])
    def test_repeated_root_and_b_factor_raise_as_trial_division(
            self, text, message, monkeypatch):
        # the gate of the evaluation test: these messages are the ones the
        # trial-division loop raised on the same input
        clear_pivot = fusion._clear_pivot

        def clear_then_set(M, P, i, j, quotients):
            clear_pivot(M, P, i, j, quotients)
            M[i][j] = P[j][i] = M[i][j].ring.parse(text)

        D = reduce_tensor(ps_object(5, (0, 1)), ps_object(5, (1, 2, 3))).reduced
        monkeypatch.setattr(fusion, "_clear_pivot", clear_then_set)
        with pytest.raises(VerificationError) as exc:
            decompose_into_PS(D)
        assert str(exc.value) == message
        assert _outcome(_trial_division_lines, D.shape.ring().parse(text), 5) == message


def _division_counts(monkeypatch, clear_pivot=None):
    """Divisions made by decomposing P_{0,1} x P_{1,2,3} at d = 5 (what
    `mbf fuse --d 5 --left 0,1 --right 1+2` decomposes): the total, the
    number made inside each clearing, and per pivot the number made by it
    against the number of other non-zero entries of its row and column."""
    D = reduce_tensor(ps_object(5, (0, 1)), ps_object(5, (1, 2, 3))).reduced
    calls = []
    exact_divide = MultiPoly.exact_divide

    def counted(self, divisor):
        calls.append((self, divisor))
        return exact_divide(self, divisor)

    clear = clear_pivot or fusion._clear_pivot
    steps = []

    def counted_clear(M, P, i, j, quotients):
        p = M[i][j]
        line = [q for k, q in enumerate(M[i]) if k != j and not q.is_zero()]
        line += [r[j] for k, r in enumerate(M) if k != i and not r[j].is_zero()]
        by_pivot = sum(1 for _, divisor in calls if divisor is p)
        before = len(calls)
        clear(M, P, i, j, quotients)
        steps.append((fusion._is_unit(p), len(line), by_pivot, len(calls) - before))

    monkeypatch.setattr(MultiPoly, "exact_divide", counted)
    monkeypatch.setattr(fusion, "_clear_pivot", counted_clear)
    assert decompose_into_PS(D) == [(2, 3), (1, 2, 3, 4)]
    return len(calls), steps


def _find_pivot_by_division(mat, constants_only):
    """`fusion._find_pivot` without its degree test: each candidate of least
    degree so far is tested by dividing its row and column."""
    best = None
    for i, row in enumerate(mat):
        for j, p in enumerate(row):
            if p.is_zero():
                continue
            if fusion._is_unit(p):
                return i, j, fusion._line_quotients(p, mat, i, j)
            if constants_only:
                continue
            deg = sum(p.leading_term()[0])
            if best is None or deg < best[0]:
                quotients = fusion._line_quotients(p, mat, i, j)
                if quotients is not None:
                    best = (deg, i, j, quotients)
    return None if best is None else best[1:]


@pytest.mark.usefixtures("fresh_image_memo")
class TestDivisionCount:
    # (unit pivot, other non-zero entries of its line, divisions by it,
    # divisions inside its clearing) per pivot, in elimination order
    PINNED = (2, [(True, 4, 0, 0), (False, 2, 2, 0), (False, 0, 0, 0)])

    def test_each_entry_is_divided_at_most_once(self, monkeypatch):
        total, steps = _division_counts(monkeypatch)
        assert (total, steps) == self.PINNED
        # a unit divides nothing; a non-unit pivot divides each other
        # non-zero entry of its row and column once, while it is tested
        for unit, line, by_pivot, in_clearing in steps:
            assert in_clearing == 0
            assert by_pivot == (0 if unit else line)

    @pytest.mark.parametrize("d", [4, 5])
    def test_no_candidate_is_divided_in_vain(self, monkeypatch, d):
        # every pivot search of every consecutive pair against a copy of
        # the search that divided each candidate of least degree so far:
        # the same pivot and quotients, and not one failed division, where
        # that search failed 32 times at d = 4 and 200 at d = 5
        failed = []
        exact_divide, find_pivot = MultiPoly.exact_divide, fusion._find_pivot

        def counted(self, divisor):
            try:
                return exact_divide(self, divisor)
            except NotDivisibleError:
                failed.append(divisor)
                raise

        def checked(mat, constants_only):
            got = find_pivot(mat, constants_only)
            assert failed == []
            assert got == _find_pivot_by_division(mat, constants_only)
            failed.clear()
            return got

        monkeypatch.setattr(MultiPoly, "exact_divide", counted)
        monkeypatch.setattr(fusion, "_find_pivot", checked)
        sets = consecutive_sets(d)
        for S1, S2 in itertools.product(sets, repeat=2):
            D = reduce_tensor(ps_object(d, S1), ps_object(d, S2), check=False).reduced
            decompose_into_PS(D)

    def test_a_second_division_in_the_clearing_fails_the_count(self, monkeypatch):
        # negative control: a clearing that divides its row again, as the
        # clearing did before it reused the quotients of the pivot test
        clear_pivot = fusion._clear_pivot

        def dividing_again(M, P, i, j, quotients):
            for jp in quotients[0]:
                M[i][jp].exact_divide(M[i][j])
            clear_pivot(M, P, i, j, quotients)

        total, steps = _division_counts(monkeypatch, dividing_again)
        assert (total, steps) != self.PINNED
        assert [s[3] for s in steps] == [2, 1, 0]


def _counted(monkeypatch, *names):
    # wrap each named function of `fusion` so that its calls are counted
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapped(*a, _real=getattr(fusion, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(fusion, name, wrapped)
    return calls


def _scaled(D, leg: int, row=None, col=None, by=2):
    # D with one row or one column of one differential multiplied by `by`:
    # one entry of a diagonal on D1 (L, rows of d0) or on D0 (M, rows of d1)
    # applied to that differential alone
    mats = [[list(r) for r in op.matrix()] for op in (D.d0, D.d1)]
    mats[leg] = [[p * by if i == row or j == col else p for j, p in enumerate(r)]
                 for i, r in enumerate(mats[leg])]
    return mbf_from_polys(D.shape, *mats, D.w, D.grading)


def _shifted(summands, s, d):
    return sorted((tuple(sorted((i + s) % d for i in T)) for T in summands),
                  key=lambda t: (len(t), t))


class TestRotationOrbits:
    @pytest.mark.parametrize("d,full,moved", [(4, 36, 108), (5, 80, 320)])
    def test_every_transported_multiset_is_the_direct_one(self, monkeypatch, fresh_orbits,
                                                           d, full, moved):
        # oracle: each consecutive pair reduced and decomposed directly, with
        # no orbit in play, against `fuse` over all of them in one pass
        pairs = list(itertools.product(consecutive_sets(d), repeat=2))
        direct = [decompose_into_PS(reduce_tensor(ps_object(d, S1), ps_object(d, S2),
                                                  check=False).reduced)
                  for S1, S2 in pairs]
        verdicts = []
        real = fusion._rotation_conjugate
        monkeypatch.setattr(fusion, "_rotation_conjugate",
                            lambda *a: verdicts.append(real(*a)) or verdicts[-1])
        calls = _counted(monkeypatch, "validate_mbf", "decompose_into_PS")
        assert [fuse(d, S1, S2)[1] for S1, S2 in pairs] == direct
        assert calls == {"validate_mbf": full, "decompose_into_PS": full}
        # every orbit was fused whole, so none is still held
        assert verdicts == [True] * moved and fusion._ORBITS == {}

    @pytest.mark.parametrize("d,left,right,n", [(5, (0, 1), (1, 2, 3), 5),
                                               (4, (0, 2), (1, 3), 2)],
                             ids=["d5-five-members", "d4-periodic-two-members"])
    def test_an_orbit_is_dropped_once_every_member_is_fused(self, monkeypatch, fresh_orbits,
                                                           d, left, right, n):
        members = [(tuple((i + j) % d for i in left), tuple((i + j) % d for i in right))
                   for j in range(n)]
        first = fuse(d, *members[0])[1]
        assert fuse(d, *members[0])[1] == first  # a repeat is no new member
        for j, pair in enumerate(members[1:], 1):
            assert len(fusion._ORBITS) == 1
            assert fuse(d, *pair)[1] == _shifted(first, 2 * j, d)
        assert fusion._ORBITS == {}
        # a member fused again takes the full path and opens the orbit anew
        calls = _counted(monkeypatch, "decompose_into_PS", "_rotation_conjugate")
        assert fuse(d, *members[0])[1] == first
        assert calls == {"decompose_into_PS": 1, "_rotation_conjugate": 0}
        assert len(fusion._ORBITS) == 1
        assert fuse(d, *members[-1])[1] == _shifted(first, 2 * (n - 1), d)
        assert calls == {"decompose_into_PS": 1, "_rotation_conjugate": 1}

    def test_an_unchecked_fusion_neither_reads_nor_fills_the_orbits(
            self, monkeypatch, fresh_orbits):
        _, summands = fuse(4, (0, 1), (1, 2), check=False)
        assert fusion._ORBITS == {}
        # its rotation, checked, is the first of the orbit: the full path
        calls = _counted(monkeypatch, "validate_mbf", "decompose_into_PS", "_rotation_conjugate")
        rt, rotated = fuse(4, (1, 2), (2, 3), check=True)
        assert calls == {"validate_mbf": 1, "decompose_into_PS": 1, "_rotation_conjugate": 0}
        assert rotated == _shifted(summands, 2, 4) == [(0,), (0, 1, 3)]
        assert [value[1] for value in fusion._ORBITS.values()] == [rt.reduced]
        # and a later unchecked member takes the full path again
        fuse(4, (2, 3), (3, 0), check=False)
        assert calls == {"validate_mbf": 1, "decompose_into_PS": 2, "_rotation_conjugate": 0}

    def test_a_failed_fusion_stores_no_member(self, monkeypatch, fresh_orbits):
        with monkeypatch.context() as m:
            m.setattr(fusion, "_find_pivot", lambda *a: None)
            with pytest.raises(VerificationError, match="residual block not factorable"):
                fuse(5, (0, 1), (1, 2, 3))
        assert fusion._ORBITS == {}
        calls = _counted(monkeypatch, "decompose_into_PS")
        assert fuse(5, (1, 2), (2, 3, 4))[1] == [(0, 4), (0, 1, 3, 4)]
        assert calls == {"decompose_into_PS": 1}

    def test_the_check_reads_rows_and_builds_no_object(self, monkeypatch, fresh_orbits):
        rt, summands = fuse(5, (0, 1), (1, 2, 3))
        D = reduce_tensor(ps_object(5, (3, 4)), ps_object(5, (4, 0, 1)), check=False).reduced
        with monkeypatch.context() as m:
            m.setattr(bifact.MBF, "__init__", lambda *a: pytest.fail("an MBF was built"))
            m.setattr(bifact.MBF, "_deferred", lambda *a: pytest.fail("an MBF was built"))
            m.setattr(Cyclo, "inverse", lambda *a: pytest.fail("a Cyclo was inverted"))
            assert fusion._rotation_conjugate(rt.reduced, D, 3)
            assert not fusion._rotation_conjugate(rt.reduced, D, 2)
        moved, shifted = fuse(5, (3, 4), (4, 0, 1))
        assert shifted == _shifted(summands, 6, 5) == [(3, 4), (0, 2, 3, 4)]
        assert all(op._cells is None for D in (rt.reduced, moved.reduced) for op in (D.d0, D.d1))

    @pytest.mark.parametrize("leg,row,col", [(0, 1, None), (0, None, 2), (1, 0, None),
                                             (1, None, 1)],
                             ids=["L-in-d0", "M-in-d0", "M-in-d1", "L-in-d1"])
    def test_a_diagonal_off_by_one_entry_falls_back(self, monkeypatch, fresh_orbits,
                                                    leg, row, col):
        # negative control: doubling one row or column of one differential
        # breaks d1·d0 = (W(a) - W(b))·I, so transporting R's summands would
        # hide an invalid object; the check refuses it and the full path,
        # `validate_mbf` first, raises
        rt, _ = fuse(5, (0, 1), (1, 2, 3))
        real = fusion.reduce_tensor

        def perturbed(A, B, check=True):
            out = real(A, B, check=check)
            return fusion.ReducedTensor(out.original, _scaled(out.reduced, leg, row, col),
                                        out.incl, out.proj, out.homotopy)

        D = perturbed(ps_object(5, (1, 2)), ps_object(5, (2, 3, 4)), check=False).reduced
        assert not fusion._rotation_conjugate(rt.reduced, D, 1)
        monkeypatch.setattr(fusion, "reduce_tensor", perturbed)
        calls = _counted(monkeypatch, "validate_mbf", "_rotation_conjugate")
        with pytest.raises(VerificationError, match="reduced object invalid"):
            fuse(5, (1, 2), (2, 3, 4))
        assert calls == {"validate_mbf": 1, "_rotation_conjugate": 1}

    @pytest.mark.parametrize("name,failing,message", [
        ("morphism_equal", lambda L, R: (False, "exact-structural"),
         "proj∘incl is not the identity"),
        ("graded_validate", lambda D: {"ok": False}, "reduced grading invalid"),
    ], ids=["proj-incl", "grading"])
    def test_a_transported_pair_keeps_its_own_checks(self, monkeypatch, fresh_orbits,
                                                     name, failing, message):
        fuse(5, (0, 1), (1, 2, 3))
        monkeypatch.setattr(fusion, name, failing)
        calls = _counted(monkeypatch, "validate_mbf", "_rotation_conjugate")
        with pytest.raises(VerificationError) as exc:
            fuse(5, (2, 3), (3, 4, 0))
        assert str(exc.value) == message
        assert calls == {"validate_mbf": 0, "_rotation_conjugate": 1}

    def test_a_conjugated_object_takes_the_full_path(self, monkeypatch, fresh_orbits):
        # a valid object conjugate to the rotated one by another diagonal
        # (one entry of L doubled in d0 and halved in d1) is not the object
        # the rotation gives: the check compares with Δ = diag(ζ^(kj)) alone,
        # so it refuses it at every k, and `fuse` decomposes it in full
        rt, _ = fuse(5, (0, 1), (1, 2, 3))
        real = fusion.reduce_tensor
        S1, S2 = (1, 2), (2, 3, 4)
        D = real(ps_object(5, S1), ps_object(5, S2), check=False).reduced
        E = _scaled(_scaled(D, 0, row=1), 1, col=1, by=Rat(1, 2))
        assert validate_mbf(E).ok
        assert fusion._rotation_conjugate(rt.reduced, D, 1)
        assert not any(fusion._rotation_conjugate(rt.reduced, E, k) for k in range(5))

        def conjugated(A, B, check=True):
            out = real(A, B, check=check)
            return fusion.ReducedTensor(out.original, E, out.incl, out.proj, out.homotopy)

        monkeypatch.setattr(fusion, "reduce_tensor", conjugated)
        calls = _counted(monkeypatch, "validate_mbf", "decompose_into_PS")
        assert fuse(5, S1, S2)[1] == decompose_into_PS(D) == [(0, 4), (0, 1, 3, 4)]
        assert calls == {"validate_mbf": 1, "decompose_into_PS": 1}
        # and an entry of the rotated object that lost one of its terms is no
        # conjugate either
        rows = [list(r) for r in D.d1.matrix()]
        i, j = next((i, j) for i, r in enumerate(rows) for j, p in enumerate(r)
                    if len(p.terms) > 1)
        p = rows[i][j]
        rows[i][j] = MultiPoly(p.ring, dict(list(p.terms.items())[1:]))
        cut = mbf_from_polys(D.shape, D.d0.matrix(), rows, D.w, D.grading)
        assert not fusion._rotation_conjugate(rt.reduced, cut, 1)

    def test_every_rotated_pair_of_proper_subsets_is_conjugate(self):
        # `mbf fuse` accepts any proper subsets, not only consecutive ones:
        # at d = 4 every pair of them that is not the least member of its
        # rotation orbit is Δ·ρ^k of that member
        d = 4
        subsets = [S for n in range(1, d) for S in itertools.combinations(range(d), n)]
        reduced = {(S1, S2): reduce_tensor(ps_object(d, S1), ps_object(d, S2),
                                           check=False).reduced
                   for S1, S2 in itertools.product(subsets, repeat=2)}
        verdicts = []
        for pair, D in reduced.items():
            least, k, _ = fusion._orbit(d, *pair)
            if least != pair:
                verdicts.append(fusion._rotation_conjugate(reduced[least], D, k))
        assert verdicts == [True] * 146


class TestHomotopyVerification:
    @pytest.mark.parametrize("d", [5, 7])
    def test_all_entries_witnessed(self, d):
        rep = verify_fusing_up_to_homotopy(d)
        assert len(rep.homotopy_entries) == 8
        assert all(e["status"] == "witness" for e in rep.homotopy_entries)
        got = {(tuple(e["pos"]), e["equation"]) for e in rep.homotopy_entries}
        assert got == {(p, eq) for p in HOMOTOPY_POSITIONS for eq in (1, 2)}

    def test_perturbation_detected(self):
        for pert in ((0, 0), (1, 1)):
            rep = verify_fusing_up_to_homotopy(5, perturb=pert)
            assert any(e["status"] == "no" for e in rep.homotopy_entries)

    def test_perturbation_localized_to_equation(self):
        rep = verify_fusing_up_to_homotopy(5, perturb=(0, 0))
        by_eq = {1: set(), 2: set()}
        for e in rep.homotopy_entries:
            by_eq[e["equation"]].add(e["status"])
        assert by_eq[1] == {"no"}
        assert by_eq[2] == {"witness"}

    def test_junctions_built_once(self, monkeypatch):
        # the verification reuses the solve's composites; neither reads f_pair
        calls = {"Junctions": 0, "f_pair": 0}
        init, pair = Junctions.__init__, fusion.f_pair

        def counted_init(self, d):
            calls["Junctions"] += 1
            init(self, d)

        def counted_pair(d):
            calls["f_pair"] += 1
            return pair(d)

        monkeypatch.setattr(Junctions, "__init__", counted_init)
        monkeypatch.setattr(fusion, "f_pair", counted_pair)
        verify_fusing_up_to_homotopy(4)
        assert calls == {"Junctions": 1, "f_pair": 0}
        solve_fusing_2x2(4)
        assert calls == {"Junctions": 2, "f_pair": 0}


class TestProportionality:
    def test_scalar_multiple_recovered(self):
        d = 5
        junction = lam(d, 1, 2)
        c = Cyclo.root(d, 3)
        got, mode = proportionality_scalar(junction.scale(c), junction)
        assert got == c and mode.startswith("exact")

    def test_non_proportional_raises(self):
        d = 5
        with pytest.raises(VerificationError, match="sides not proportional"):
            proportionality_scalar(lam(d, 1, 2), lam(d, 2, 1))

    def test_one_leg_off_is_caught_by_the_proof(self):
        # c is read from the first non-zero image, on the even leg; the odd
        # leg's c + 1 is left for morphism_equal, whose mode the error names
        d = 5
        R = lam(d, 1, 2)
        c = Cyclo.root(d, 3)
        L = Morphism(R.src, R.dst, R.parity, R.opE.scale(c), R.opO.scale(c + Cyclo.one(d)))
        with pytest.raises(VerificationError, match=r"sides not proportional \(counterexample"):
            proportionality_scalar(L, R)

    @pytest.mark.parametrize("check,want", [(lambda: verify_group_like(5, 1, 2, 3), 2),
                                            (lambda: verify_sign(4), 12)],
                             ids=["group-like", "sign"])
    def test_probes_stop_at_the_first_nonzero_image(self, monkeypatch, check, want):
        # R's image at each probe up to its first non-zero one, then L's image
        # at that probe only: the group-like one is the first probe, the sign
        # one the 11th
        calls = []
        apply_basis = Operator.apply_basis

        def counted(self, copy, exps):
            calls.append((copy, exps))
            return apply_basis(self, copy, exps)

        monkeypatch.setattr(Operator, "apply_basis", counted)
        check()
        assert len(calls) == want

    def test_every_scalar_is_proved_structurally(self, monkeypatch):
        # all 152 group-like triples at d = 3, 5 and the sign pairs at d = 4, 6, 8
        modes = []
        scalar = fusion.proportionality_scalar

        def recorded(L, R):
            c, mode = scalar(L, R)
            modes.append(mode)
            return c, mode

        monkeypatch.setattr(fusion, "proportionality_scalar", recorded)
        for d in (3, 5):
            for i, j, k in itertools.product(range(d), repeat=3):
                assert verify_group_like(d, i, j, k) == Cyclo.one(d), (d, i, j, k)
        for d, want in ((4, -1), (6, 1), (8, -1)):
            assert verify_sign(d) == Cyclo.from_rat(d, want)
        assert len(modes) == 155 and set(modes) == {"exact-structural"}
