import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from mbf import cft
from mbf._rat import Rat
from mbf.cft import (
    DEFAULT_PREC,
    MMLabel,
    admissible_sixj_labels,
    cft_fusing_examples,
    chiral_charge,
    defect_spectrum,
    fusing_ratio,
    gauge_transform,
    mm_fuse,
    mm_labels,
    mm_normalize,
    pentagon_check,
    pentagon_residuals,
    qfact,
    qnum,
    sixj,
    su2_fuse,
    su2_fusing,
    u1_cocycle_check,
    u1_data,
    _GUARD_BITS,
)

class TestQNumbers:
    def test_unit(self):
        for k in range(5):
            assert qnum(k, 1) == 1

    def test_vanishing_is_exact(self):
        # multiples of k+2 must be bit-exact zeros, not rounded sines
        assert qnum(2, 4) == 0
        assert qnum(3, 10) == 0
        assert qnum(1, -3) == 0

    def test_sqrt2_at_level_two(self):
        with mp.workprec(200):
            ref = mp.sqrt(2)
            assert abs(qnum(2, 2) - ref) < mp.mpf("1e-35")

    def test_against_sine_oracle(self):
        with mp.workprec(200):
            for k, n in ((3, 2), (3, 3), (4, 5), (6, 4)):
                ref = mp.sin(mp.pi * n / (k + 2)) / mp.sin(mp.pi / (k + 2))
                assert abs(qnum(k, n) - ref) < mp.mpf("1e-35")

    def test_factorial(self):
        assert qfact(3, 0) == 1
        with mp.workprec(200):
            ref = qnum(2, 1) * qnum(2, 2)
            assert abs(qfact(2, 2) - ref) < mp.mpf("1e-35")

    @pytest.mark.parametrize("k", [5, 600])
    def test_factorial_rounds_step_by_step(self, k):
        # each step rounds [n-1]! * [n] once at the guarded precision
        for n in range(1, 51):
            with mp.workprec(DEFAULT_PREC + _GUARD_BITS):
                want = +(qfact(k, n - 1) * qnum(k, n))
            assert qfact(k, n) == want, n

    def test_factorial_takes_each_q_number_once(self, monkeypatch):
        # [n]! extends the factorials already computed at (k, prec), so a
        # level-997 table up to n = 301 takes [1] .. [301] once each
        calls = []

        def counted(k, n, prec=DEFAULT_PREC):
            calls.append(n)
            return qnum(k, n, prec)

        monkeypatch.setattr(cft, "qnum", counted)
        for n in (300, 301, 150):
            qfact(997, n, 131)
        assert calls == list(range(1, 302))

    def test_factorial_negative(self):
        with pytest.raises(ValueError):
            qfact(2, -1)

    def test_negative_level(self):
        with pytest.raises(ValueError):
            qnum(-1, 1)


class TestBracePins:
    # hand-evaluated symbols at level 2, labels doubled
    def test_half_column_diagonal(self):
        with mp.workprec(200):
            inv_sqrt2 = 1 / mp.sqrt(2)
            v00 = sixj(2, 1, 1, 0, 1, 1, 0)
            v11 = sixj(2, 1, 1, 2, 1, 1, 2)
            assert abs(v00 + inv_sqrt2) < mp.mpf("1e-35")
            assert abs(v11 - inv_sqrt2) < mp.mpf("1e-35")

    def test_half_column_off_diagonal(self):
        with mp.workprec(200):
            inv_sqrt2 = 1 / mp.sqrt(2)
            v01 = sixj(2, 1, 1, 0, 1, 1, 2)
            v10 = sixj(2, 1, 1, 2, 1, 1, 0)
            assert abs(v01 - inv_sqrt2) < mp.mpf("1e-35")
            assert abs(v10 - inv_sqrt2) < mp.mpf("1e-35")

    def test_spin_one_corner(self):
        v = sixj(2, 2, 1, 1, 2, 1, 1)
        assert (2, 1, 1, 2, 1, 1) in set(admissible_sixj_labels(2))
        assert abs(v + 1) < mp.mpf("1e-35")

    def test_inadmissible_is_flagged_zero(self):
        v = sixj(2, 1, 1, 1, 1, 1, 1)  # parity fails
        assert (1, 1, 1, 1, 1, 1) not in set(admissible_sixj_labels(2))
        assert v == 0
        assert float(v) == 0.0

    def test_float_value(self):
        v = sixj(2, 1, 1, 2, 1, 1, 2)
        assert abs(float(v) - 0.7071067811865476) < 1e-12

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            sixj(2, Fraction(1, 3), 0, 0, 0, 0, 0)

    def test_rejects_non_int_labels(self):
        # a spin in place of a doubled spin fails loudly, never read as doubled
        for half in (Fraction(1, 2), 0.5, 1.0, "1"):
            with pytest.raises(ValueError, match="doubled spins"):
                sixj(2, half, 1, 2, 1, 1, 2)


class TestBraceStructure:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_values_are_bounded(self, k):
        for tup in itertools.product(range(k + 1), repeat=6):
            assert abs(float(sixj(k, *tup))) <= 10

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_column_flip_invariance(self, k):
        # flipping the upper and lower rows in exactly two columns preserves
        # the symbol, inadmissible zeros included; full column permutations
        # do not and are not tested
        for a, b, e, d, c, f in itertools.product(range(k + 1), repeat=6):
            v = sixj(k, a, b, e, d, c, f)
            with mp.workprec(200):
                flips = (
                    sixj(k, d, c, e, a, b, f),
                    sixj(k, d, b, f, a, c, e),
                    sixj(k, a, c, f, d, b, e),
                )
                for w in flips:
                    assert abs(v - w) < mp.mpf("1e-18")

    def test_precision_parameter_is_honoured(self):
        lo = sixj(3, 2, 1, 1, 2, 1, 1, prec=128)
        hi = sixj(3, 2, 1, 1, 2, 1, 1, prec=256)
        with mp.workprec(300):
            assert abs(lo - hi) < mp.mpf("1e-30")


class TestAdmissibleLabels:
    @pytest.mark.parametrize("k, count", [(0, 1), (1, 8), (2, 36), (3, 120),
                                          (4, 329), (5, 784), (6, 1680)])
    def test_equals_filtered_product_in_order(self, k, count):
        def triad(x, y, z):
            return (x + y + z) % 2 == 0 and abs(x - y) <= z <= x + y and x + y + z <= 2 * k

        def admissible(a, b, e, d, c, f):
            return triad(a, b, e) and triad(a, c, f) and triad(c, e, d) and triad(d, b, f)

        want = [t for t in itertools.product(range(k + 1), repeat=6) if admissible(*t)]
        got = list(admissible_sixj_labels(k))
        assert got == want and len(got) == count


class TestFusingEntries:
    def test_label_range(self):
        with pytest.raises(ValueError):
            su2_fusing(2, 3, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            su2_fusing(2, 0, -1, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="doubled spins"):
            su2_fusing(3, 1.5, 1, 1, 1, 1, 1)

    def test_unit_labels_force_exact_one(self):
        # a unit in any of the three fused slots pins the admissible entries
        assert su2_fusing(3, 0, 2, 2, 2, 2, 2) == 1
        assert su2_fusing(3, 2, 0, 2, 2, 2, 2) == 1
        assert su2_fusing(3, 2, 2, 0, 2, 2, 2) == 1

    def test_forced_path_agrees_with_raw_brace(self):
        k = 3
        admissible = set(admissible_sixj_labels(k))
        for s, t, u in itertools.product(range(k + 1), repeat=3):
            if (t, s, s, 0, u, u) not in admissible:
                continue
            with mp.workprec(200):
                assert abs(su2_fusing(k, 0, s, t, u, s, u) - sixj(k, t, s, s, 0, u, u)) \
                    < mp.mpf("1e-25")

    @pytest.mark.parametrize("k", range(1, 5))
    def test_entries_equal_their_brace_symbols(self, k):
        # F^(rst)u_pq = {t s p; r u q} exactly, off the unit path
        admissible = set(admissible_sixj_labels(k))
        seen = 0
        for r, s, t, u, p, q in itertools.product(range(k + 1), repeat=6):
            if 0 in (r, s, t):
                continue
            assert su2_fusing(k, r, s, t, u, p, q) == sixj(k, t, s, p, r, u, q)
            seen += (t, s, p, r, u, q) in admissible
        assert seen > 0

    def test_inadmissible_entry(self):
        v = su2_fusing(2, 1, 1, 1, 1, 1, 1)  # p=1 not in 1 x 1 at level 2
        assert (1, 1, 1, 1, 1, 1) not in set(admissible_sixj_labels(2))
        assert v == 0

    def test_channels(self):
        assert su2_fuse(2, 1, 1) == (0, 2)
        assert su2_fuse(2, 2, 2) == (0,)
        assert su2_fuse(4, 2, 3) == (1, 3)
        assert su2_fuse(3, 0, 2) == (2,)
        with pytest.raises(ValueError):
            su2_fuse(2, 3, 0)


def _digest(lines):
    return len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()


class TestSixjBitsArePinned:
    # every value, sign, mantissa and exponent, keyed by its doubled labels

    def test_fusing_entries(self):
        lines = [f"{k} {labels} {su2_fusing(k, *labels)._mpf_}\n"
                 for k in range(1, 5) for labels in itertools.product(range(k + 1), repeat=6)]
        assert _digest(lines) == (
            20514, "8e8012e8558af25c386565bb05705e7877b5b4f5895080ad4857a29e808247b0")

    def test_brace_symbols(self):
        lines = [f"{k} {labels} {sixj(k, *labels)._mpf_}\n"
                 for k in range(1, 6) for labels in admissible_sixj_labels(k)]
        assert _digest(lines) == (
            1277, "b93543daad25d7256607f1f647e9c3cb702a0c7836b35bcb87f99e71982ce581")


class TestPentagon:
    def test_level_one(self):
        assert pentagon_check(1) < 1e-25

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_full_sweep(self, k):
        assert pentagon_check(k) < 1e-20

    def test_unit_outer_label_cancels_exactly(self):
        # a unit among the four fused objects makes both sides identical
        # products of cached values, so the residual is a bit-exact zero;
        # fusing to the unit total only cancels numerically
        exact = numeric = 0
        for tup, res in pentagon_residuals(3):
            if 0 in tup[:4]:
                assert res == 0, (tup, res)
                exact += 1
            elif tup[4] == 0:
                assert res < mp.mpf("1e-30")
                numeric += 1
        assert exact > 0 and numeric > 0

    @pytest.mark.parametrize("k,prec,count,digest", [
        (3, 128, 432, "c0da2ceb5f8fa0936aee75eb36e82ed01436fc9774a4d801e05e383976e90abb"),
        (3, 256, 432, "4e7624b7857f054a681ee6ee7b41cf5cfacd2e0b5970c253d8f9544d5c4d3333"),
        (4, 128, 1307, "42f5e7835371b7f7a49778d101f540bda61c9d2bd7e016d18040239b549d9b67"),
        (4, 256, 1307, "56f4f6e403717244ce82289c2303ea217f06cd014b547a135ecf82037107b589"),
    ])
    def test_residual_bits_are_pinned(self, k, prec, count, digest):
        # every residual, mantissa and exponent, as the sweep first produced it
        lines = [f"{a},{b},{c},{d},{e} {int(r.man)} {int(r.exp)}"
                 for (a, b, c, d, e), r in pentagon_residuals(k, prec)]
        assert len(lines) == count
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    @staticmethod
    def _clear_caches():
        for memo in (qnum, cft._qfacts, cft._tri2, cft._brace2):
            memo.cache_clear()

    def test_residuals_ignore_the_ambient_precision(self):
        # every cached value and every residual is rounded at the sweep's own
        # working precision, so a fresh sweep under any ambient context agrees
        runs = []
        for bits in (None, 20, 400):
            self._clear_caches()
            if bits is None:
                runs.append([r._mpf_ for _, r in pentagon_residuals(3)])
            else:
                with mp.workprec(bits):
                    runs.append([r._mpf_ for _, r in pentagon_residuals(3)])
        assert runs[0] == runs[1] == runs[2]

    def test_each_q_number_is_computed_once(self):
        # the level-3 sweep asks 146 times for [1] .. [4], the only q-numbers it needs
        self._clear_caches()
        pentagon_check(3)
        assert qnum.cache_info().misses == 4


class TestTorusBlock:
    def test_theta_pins(self):
        assert abs(u1_data(2, "theta", 0) - 1) < mp.mpf("1e-35")
        assert abs(u1_data(2, "theta", 2) + 1) < mp.mpf("1e-35")

    def test_braiding_pin(self):
        assert abs(u1_data(2, "R", 2, 2) + 1) < mp.mpf("1e-35")

    def test_fusing_sign_is_exact_int(self):
        assert u1_data(3, "F", 0, 4, 5) == 1
        assert u1_data(4, "F", 1, 4, 4) == -1
        assert u1_data(4, "F", 2, 4, 4) == 1
        assert isinstance(u1_data(4, "F", 1, 4, 4), int)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            u1_data(2, "theta", 4)
        with pytest.raises(ValueError):
            u1_data(2, "R", 1)
        with pytest.raises(ValueError):
            u1_data(2, "twist", 1)
        with pytest.raises(ValueError):
            u1_data(0, "theta", 0)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_cocycle_condition(self, N):
        assert u1_cocycle_check(N) is True


class TestCosetLabels:
    def test_normalize_wraps_orbit(self):
        assert mm_normalize(5, 3, 5, 2) == mm_normalize(5, 0, 0, 0)
        assert mm_normalize(7, 5, 7, 2).triple == (0, 0, 0)

    def test_normalize_reduces_mod(self):
        lab = mm_normalize(5, 1, 11, 4)
        assert lab.triple == (1, 1, 0)

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            mm_normalize(5, 1, 0, 0)
        with pytest.raises(ValueError):
            MMLabel(5, 1, 0, 0)

    def test_direct_construction_requires_canonical(self):
        with pytest.raises(ValueError):
            MMLabel(5, 0, 0, 2)
        with pytest.raises(ValueError):
            MMLabel(5, 4, 0, 0)
        with pytest.raises(ValueError):
            MMLabel(5, 0, 10, 0)

    def test_label_count(self):
        for d in range(3, 8):
            labs = mm_labels(d)
            assert len(labs) == (d - 1) * 2 * d
            assert len(set(labs)) == len(labs)

    def test_dual_is_involution(self):
        for lab in mm_labels(6):
            assert lab.dual().dual() == lab

    def test_str(self):
        assert str(mm_normalize(5, 1, 3, 0)) == "[1,3,0]"


class TestCosetFusion:
    def test_generator_squares(self):
        x = mm_normalize(5, 1, 1, 0)
        assert [t.triple for t in mm_fuse(x, x)] == [(0, 2, 0), (2, 2, 0)]

    def test_truncation_from_identification(self):
        # at d=4 the naive top channel l=0+0=0 is fine, but 2x2 truncates
        a = mm_normalize(4, 2, 0, 0)
        assert [t.triple for t in mm_fuse(a, a)] == [(0, 0, 0)]

    def test_group_like_sector(self):
        a = mm_normalize(4, 0, 2, 0)
        assert mm_fuse(a, a) == [mm_normalize(4, 0, 4, 0)]

    def test_unit_acts_trivially(self):
        one = mm_normalize(6, 0, 0, 0)
        for lab in mm_labels(6):
            assert mm_fuse(one, lab) == [lab]

    def test_commutative(self):
        labs = mm_labels(5)
        for x, y in itertools.product(labs[:10], labs[10:20]):
            assert mm_fuse(x, y) == mm_fuse(y, x)

    def test_mixed_d_rejected(self):
        with pytest.raises(ValueError):
            mm_fuse(mm_normalize(4, 0, 0, 0), mm_normalize(5, 0, 0, 0))

    def test_associative_full_d3(self):
        labs = mm_labels(3)

        def fuse_list(acc, z):
            out = []
            for w in acc:
                out.extend(mm_fuse(w, z))
            return sorted(out)

        for x, y, z in itertools.product(labs, repeat=3):
            assert fuse_list(mm_fuse(x, y), z) == fuse_list(mm_fuse(x, z), y)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 8), st.data())
    def test_associative_property(self, d, data):
        labs = mm_labels(d)
        pick = st.integers(0, len(labs) - 1)
        x = labs[data.draw(pick)]
        y = labs[data.draw(pick)]
        z = labs[data.draw(pick)]
        left = sorted(w for v in mm_fuse(x, y) for w in mm_fuse(v, z))
        right = sorted(w for v in mm_fuse(y, z) for w in mm_fuse(x, v))
        assert left == right


class TestDefectSpectra:
    def test_chiral_charges(self):
        assert chiral_charge(5, 0) == Rat(0, 1)
        assert chiral_charge(5, 3) == Rat(3, 5)
        with pytest.raises(ValueError):
            chiral_charge(5, 4)

    @pytest.mark.parametrize("d", range(3, 11))
    def test_identity_defect_chiral_count(self, d):
        assert len(defect_spectrum(d, 0, chiral_only=True)) == d - 1

    def test_step_one_spectrum_d5(self):
        pairs = defect_spectrum(5, 1, chiral_only=True)
        assert [(x.triple, y.triple) for x, y in pairs] == [
            ((1, 1, 0), (0, 0, 0)),
            ((2, 2, 0), (1, 1, 0)),
            ((3, 3, 0), (2, 2, 0)),
        ]
        charges = sorted(chiral_charge(5, x.l) + chiral_charge(5, y.l)
                         for x, y in pairs)
        assert charges == [Rat(1, 5), Rat(3, 5), Rat(1, 1)]

    def test_spectral_flow_independence(self):
        assert defect_spectrum(5, 1, n=0) == defect_spectrum(5, 1, n=3)
        assert defect_spectrum(6, 2, n=1) == defect_spectrum(6, 2, n=5)

    def test_identity_defect_full_is_bulk_pairing(self):
        full = defect_spectrum(4, 0)
        assert len(full) == (4 - 1) * 8
        for x, y in full:
            assert y == mm_normalize(4, x.l, x.m, -x.s)

    def test_chiral_subset_of_full(self):
        assert set(defect_spectrum(6, 2, chiral_only=True)) <= set(defect_spectrum(6, 2))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            defect_spectrum(5, 4)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_full_spectrum_matches_pairwise_fusion(self, d):
        # oracle: fuse every x with every m-reflected y, O(L^2) per d
        labels = mm_labels(d)
        fused = {(x, y): mm_fuse(x, mm_normalize(d, y.l, -y.m, y.s))
                 for x in labels for y in labels}
        for u in range(d - 1):
            target = mm_normalize(d, u, u, 0)
            want = [(x, y) for x in labels for y in labels if target in fused[x, y]]
            for n in (0, 1, 3):
                assert defect_spectrum(d, u, n=n) == want


class TestFusingExamples:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_group_like_scalar(self, d):
        v = cft_fusing_examples(d, "groupLike")
        assert v == 1 and isinstance(v, int)

    @pytest.mark.parametrize("d,expected", [(4, -1), (6, 1), (8, -1), (10, 1)])
    def test_sign_example(self, d, expected):
        v = cft_fusing_examples(d, "sign")
        assert v == expected and isinstance(v, int)

    def test_sign_needs_even_d(self):
        with pytest.raises(ValueError):
            cft_fusing_examples(5, "sign")

    def test_unknown_example(self):
        with pytest.raises(ValueError):
            cft_fusing_examples(5, "threeByThree")

    @pytest.mark.parametrize("d", range(4, 13))
    def test_two_by_two_matches_trigonometry(self, d):
        F = cft_fusing_examples(d, "twoByTwo")
        with mp.workprec(200):
            diag = 1 / (2 * mp.cospi(mp.mpf(1) / d))
            off = mp.sqrt(mp.sinpi(mp.mpf(1) / d) * mp.sinpi(mp.mpf(3) / d)) / mp.sinpi(mp.mpf(2) / d)
            assert abs(F[0][0] + diag) < mp.mpf("1e-10")
            assert abs(F[1][1] - diag) < mp.mpf("1e-10")
            assert abs(F[0][1] - off) < mp.mpf("1e-10")
            assert abs(F[1][0] - off) < mp.mpf("1e-10")

    def test_golden_ratio_entry_d5(self):
        F = cft_fusing_examples(5, "twoByTwo")
        assert abs(float(F[0][0]) + 0.6180339887498949) < 1e-12

    @pytest.mark.parametrize("d", range(4, 13))
    def test_ratio_matches_closed_form(self, d):
        F = cft_fusing_examples(d, "twoByTwo")
        with mp.workprec(200):
            target = -1 / (1 + 2 * mp.cospi(mp.mpf(2) / d))
            assert abs(fusing_ratio(F) - target) < mp.mpf("1e-10")

    def test_ratio_d4_is_minus_one(self):
        F = cft_fusing_examples(4, "twoByTwo")
        with mp.workprec(200):
            assert abs(fusing_ratio(F) + 1) < mp.mpf("1e-30")


class TestGaugeAction:
    def test_identity_scalars(self):
        F = cft_fusing_examples(5, "twoByTwo")
        assert gauge_transform(F, (1, 1, 1, 1, 1, 1)) == F

    def test_single_scalar_pin(self):
        F = cft_fusing_examples(5, "twoByTwo")
        G = gauge_transform(F, (2, 1, 1, 1, 1, 1))
        # g1 rescales the first row's source vector
        assert G[0][0] == F[0][0] / 2
        assert G[0][1] == F[0][1] / 2
        assert G[1][0] == F[1][0]
        assert G[1][1] == F[1][1]

    def test_can_normalize_off_diagonal(self):
        F = cft_fusing_examples(6, "twoByTwo")
        with mp.workprec(200):
            G = gauge_transform(F, (F[0][1], F[1][0], 1, 1, 1, 1))
            assert abs(G[0][1] - 1) < mp.mpf("1e-30")
            assert abs(G[1][0] - 1) < mp.mpf("1e-30")
            assert abs(G[0][0] * G[1][1] - fusing_ratio(F)) < mp.mpf("1e-30")

    def test_scalar_validation(self):
        F = cft_fusing_examples(4, "twoByTwo")
        with pytest.raises(ValueError):
            gauge_transform(F, (1, 1, 1))
        with pytest.raises(ValueError):
            gauge_transform(F, (1, 0, 1, 1, 1, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5)), min_size=6, max_size=6))
    def test_ratio_is_gauge_invariant(self, gs):
        for g in gs:
            if g == 0:
                return
        F = cft_fusing_examples(5, "twoByTwo")
        with mp.workprec(200):
            before = fusing_ratio(F)
            after = fusing_ratio(gauge_transform(F, gs))
            assert abs(before - after) < mp.mpf("1e-25")
