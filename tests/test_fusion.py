import math

import pytest
from hypothesis import given, settings, strategies as st

from mbf import fusion
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
)
from mbf.graded import graded_validate, morphism_charge
from mbf.fusion import (
    DETERMINED,
    HOMOTOPY_POSITIONS,
    _POS_TO_LEG,
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
        assert p.d0.pure_mul_matrix() == ref.d0.pure_mul_matrix()
        assert p.d1.pure_mul_matrix() == ref.d1.pure_mul_matrix()
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

    @pytest.mark.parametrize("d", [3, 5])
    def test_group_like_scalar_is_one(self, d):
        one = Cyclo.one(d)
        for (i, j, k) in ((1, 2, 3), (2, 2, 2), (0, 1, d - 1)):
            assert verify_group_like(d, i, j, k) == one

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    def test_group_like_property_d4(self, i, j, k):
        assert verify_group_like(4, i, j, k) == Cyclo.one(4)


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

    def test_determined_rows_vanish_exactly_d5(self):
        d = 5
        _, L1, L2, X, Y = _fusing_composites(d)
        pX, pY = _entry_polys(X), _entry_polys(Y)
        F = expected_F(d)
        for pL, (f0, f2) in ((_entry_polys(L1), F[0]), (_entry_polys(L2), F[1])):
            exact = {
                (leg, r)
                for leg in (0, 1)
                for r in range(4)
                if (pL[leg][r] - pX[leg][r] * f0 - pY[leg][r] * f2).is_zero()
            }
            assert exact == {_POS_TO_LEG[pos] for pos in DETERMINED}

    def test_all_entries_exact_at_d4(self):
        _, L1, L2, X, Y = _fusing_composites(4)
        pX, pY = _entry_polys(X), _entry_polys(Y)
        F = expected_F(4)
        for pL, (f0, f2) in ((_entry_polys(L1), F[0]), (_entry_polys(L2), F[1])):
            for leg in (0, 1):
                for r in range(4):
                    assert (pL[leg][r] - pX[leg][r] * f0 - pY[leg][r] * f2).is_zero()

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

    _, L1, L2, X, Y = _fusing_composites(d)
    c = {n: scales[n] for n in range(1, 7)}
    L1 = L1.scale(c[1] * c[5])
    L2 = L2.scale(c[2] * c[6])
    X = X.scale(c[1] * c[3])
    Y = Y.scale(c[2] * c[4])
    pX, pY = _entry_polys(X), _entry_polys(Y)
    f00, f02 = _solve_pair(d, _entry_polys(L1), pX, pY)
    f20, f22 = _solve_pair(d, _entry_polys(L2), pX, pY)
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


class TestReduceTensor:
    def test_singleton_pair_d3(self):
        rt = reduce_tensor(ps_object(3, [0]), ps_object(3, [1]))
        assert (rt.reduced.m0.rank, rt.reduced.m1.rank) == (1, 1)
        assert decompose_into_PS(rt) == [(1,)]

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
        report = rt.validate()
        assert report["ok"]
        assert report == {
            "reduced_valid": True,
            "proj_incl_identity": True,
            "incl_closed": True,
            "proj_closed": True,
            "homotopy_witness": True,
            "grading_valid": True,
            "ok": True,
        }

    @pytest.mark.parametrize(
        "name,replacement,message,key",
        [
            ("validate_mbf", lambda D: ValidationReport(False, "exact", ["v"]),
             "reduced object invalid: ['v']", "reduced_valid"),
            ("graded_validate", lambda g: {"ok": False}, "reduced grading invalid",
             "grading_valid"),
        ],
        ids=["reduced-object", "grading"],
    )
    def test_failed_check_raises_and_is_reported(self, monkeypatch, name, replacement,
                                                 message, key):
        # reduce_tensor(check=True) and validate read the same checks
        monkeypatch.setattr(fusion, name, replacement)
        with pytest.raises(VerificationError) as exc:
            reduce_tensor(ps_object(4, [0]), ps_object(4, [1]))
        assert str(exc.value) == message
        report = reduce_tensor(ps_object(4, [0]), ps_object(4, [1]), check=False).validate()
        assert not report[key] and not report["ok"]
        assert report["proj_incl_identity"] and report["homotopy_witness"]

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

    def test_accepts_graded_and_rejects_junk(self):
        assert decompose_into_PS(ps_object(4, (0, 1))) == [(0, 1)]
        with pytest.raises(TypeError):
            decompose_into_PS("nope")


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
