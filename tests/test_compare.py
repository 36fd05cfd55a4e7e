import json

import pytest

from mbf import compare
from mbf._rat import Rat, rat_str
from mbf.cft import mm_normalize
from mbf.cli import main
from mbf.fusion import ReducedTensor, fuse
from mbf.compare import (
    _label_to_set,
    _set_to_label,
    consecutive_sets,
    fusion_rule_compare,
    ratio_compare,
    spectrum_compare,
)


@pytest.fixture(scope="module")
def fusion4():
    return fusion_rule_compare(4)


class TestRatioCompare:
    def test_d4_is_exactly_minus_one(self):
        r = ratio_compare(4)
        assert r["pass"]
        assert r["lg_exact"] == "-1"
        assert r["lg_numeric"] == -1.0
        assert r["lg_vs_closed"] == 0.0
        assert r["cft_vs_closed"] == 0.0

    def test_d6_is_minus_half(self):
        r = ratio_compare(6)
        assert r["pass"]
        assert r["lg_exact"] == "-1/2"
        assert abs(r["lg_numeric"] + 0.5) < 1e-15

    @pytest.mark.parametrize("d", [5, 7])
    def test_embedding_is_tight(self, d):
        r = ratio_compare(d)
        assert r["pass"]
        assert r["lg_vs_closed"] < 1e-12
        assert r["lg_vs_cft"] < 1e-12

    def test_mismatch_reported_not_raised(self):
        r = ratio_compare(5, tol=0.0)
        assert r["pass"] is False  # diffs are tiny but not exactly zero

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            ratio_compare(3)

    def test_report_shape(self):
        r = ratio_compare(5)
        assert set(r) == {
            "check", "d", "tol", "lg_exact", "lg_numeric", "closed_form",
            "cft_numeric", "lg_vs_closed", "cft_vs_closed", "lg_vs_cft", "pass",
        }
        assert r["check"] == "fusing-ratio" and r["tol"] == 1e-10

    def test_deterministic(self):
        a = json.dumps(ratio_compare(5), sort_keys=True)
        b = json.dumps(ratio_compare(5), sort_keys=True)
        assert a == b


class TestSpectrumCompare:
    def test_d5_u1(self):
        s = spectrum_compare(5, 1)
        assert s["pass"]
        assert s["lg_charges"] == ["1/5", "3/5", "1"]
        assert s["cft_charges"] == ["1/5", "3/5", "1"]

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_unit_endpoint_charges(self, d):
        s = spectrum_compare(d, 0)
        assert s["pass"]
        assert s["lg_charges"] == [rat_str(Rat(2 * i, d)) for i in range(d - 1)]

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_top_width_is_singleton(self, d):
        s = spectrum_compare(d, d - 2)
        assert s["pass"]
        assert len(s["lg_charges"]) == 1 == len(s["cft_charges"])

    def test_width_out_of_range(self):
        with pytest.raises(ValueError):
            spectrum_compare(5, 4)

    def test_deterministic(self):
        assert spectrum_compare(4, 1) == spectrum_compare(4, 1)


class TestDictionary:
    def test_consecutive_sets_d4(self):
        sets = consecutive_sets(4)
        assert len(sets) == 12
        assert (0, 3) in sets  # wraparound start 3, length 2
        assert len(set(sets)) == 12

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_roundtrip(self, d):
        for S in consecutive_sets(d):
            assert _label_to_set(_set_to_label(d, S)) == S

    def test_group_like_pins(self):
        assert _set_to_label(5, (2,)).triple == (0, 4, 0)
        assert _label_to_set(mm_normalize(5, 0, 6, 0)) == (3,)

    def test_interval_pin(self):
        assert _set_to_label(5, (0, 1)).triple == (1, 1, 0)
        assert _label_to_set(mm_normalize(5, 1, 3, 0)) == (1, 2)

    def test_rejects_non_consecutive(self):
        with pytest.raises(ValueError):
            _set_to_label(5, (0, 2))

    def test_rejects_fermionic_label(self):
        with pytest.raises(ValueError):
            _label_to_set(mm_normalize(5, 1, 0, 1))


class TestFusionRuleCompare:
    def test_d4_full_agreement(self, fusion4):
        assert fusion4["pass"]
        assert fusion4["pairs"] == 144
        assert fusion4["mismatches"] == 0
        assert fusion4["homotopy_checked"] is False

    def test_group_like_rows(self, fusion4):
        rows = {
            (tuple(r["left"]), tuple(r["right"])): r for r in fusion4["rows"]
        }
        for i in range(4):
            for j in range(4):
                r = rows[((i,), (j,))]
                assert r["match"]
                assert r["lg"] == [[(i + j) % 4]]

    def test_interval_square_row(self, fusion4):
        rows = {
            (tuple(r["left"]), tuple(r["right"])): r for r in fusion4["rows"]
        }
        r = rows[((0, 1), (0, 1))]
        assert r["lg"] == [[1], [0, 1, 2]] == r["cft"]

    def test_with_homotopy_witnesses_d3(self):
        rep = fusion_rule_compare(3, verify_homotopy=True)
        assert rep["pass"]
        assert rep["homotopy_checked"] and rep["homotopy_cutoff"] == 6
        assert rep["witness_failures"] == 0
        assert all(r["homotopy_witness"] for r in rep["rows"])

    def test_wrong_homotopy_fails_every_witness(self, monkeypatch, capsys):
        # twice the contraction homotopy: delta(2h) = 2(incl∘proj - id) is not
        # incl∘proj - id on any pair, and the report says so without raising
        def doubled(d, left, right, check):
            rt, summands = fuse(d, left, right, check)
            return ReducedTensor(rt.original, rt.reduced, rt.incl, rt.proj,
                                 rt.homotopy.scale(2)), summands

        monkeypatch.setattr(compare, "fuse", doubled)
        rep = fusion_rule_compare(3, verify_homotopy=True)
        assert not rep["pass"] and rep["mismatches"] == 0
        assert rep["pairs"] == rep["witness_failures"] == 36
        assert not any(r["homotopy_witness"] for r in rep["rows"])
        assert main(["compare", "fusion", "--d", "3", "--verify-homotopy"]) == 1
        captured = capsys.readouterr()
        assert not json.loads(captured.out)["pass"]
        assert "Traceback" not in captured.err

    def test_range_validation(self):
        with pytest.raises(ValueError):
            fusion_rule_compare(9)
        with pytest.raises(ValueError):
            fusion_rule_compare(2)

    def test_deterministic(self, fusion4):
        again = fusion_rule_compare(4)
        assert json.dumps(fusion4, sort_keys=True) == json.dumps(again, sort_keys=True)
