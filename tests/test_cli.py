import csv
import io
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from mbf import __version__, cft, cli, fusion
from mbf._rat import Rat
from mbf.cli import main, parse_set


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors surface here in-process
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestSetSyntax:
    def test_comma_list(self):
        assert parse_set("0,1,2", 5) == (0, 1, 2)
        assert parse_set("2,0", 5) == (0, 2)

    def test_consecutive_shorthand(self):
        assert parse_set("0+3", 5) == (0, 1, 2)
        assert parse_set("3+2", 4) == (0, 3)

    def test_residues_are_reduced(self):
        assert parse_set("5", 4) == (1,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_set(" ", 4)


@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "--d", "0", "--source", "0", "--target", "0"],
        ["hom", "--d", "4", "--source", "0", "--target", "0", "--charge", "1/0"],
        ["cft", "sixj", "--k", "-1"],
        ["compare", "fusion", "--d", "4", "--tol", "1e-3"],
        ["fusing", "--d", "4", "--cutoff", "8"],
        ["verify", "monoidal", "--d", "3", "--cutoff", "8"],
        ["cft", "fusing", "--d", "4", "--precision", "0"],
        ["cft", "fusing", "--d", "4", "--precision", "52"],
    ],
    ids=["d-zero", "charge-zero-denominator", "negative-k", "removed-tol",
         "removed-cutoff", "removed-monoidal-cutoff", "precision-zero",
         "precision-below-double"],
)
def test_bad_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and captured.err.endswith(errors[0] + "\n")


def test_failed_verification_exits_one(capsys, monkeypatch):
    # a junction whose charge check fails is a broken computation, not bad usage
    monkeypatch.setattr(fusion, "morphism_charge", lambda *a: Rat(1))
    code = main(["fusing", "--d", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "A1: charge" in captured.err


@pytest.mark.parametrize("second_mode,want", [
    ("exact-structural", "exact"),
    ("verified-to-cutoff", "verified-to-cutoff"),
])
def test_unit_coincidence_mode_follows_its_check(capsys, monkeypatch, second_mode, want):
    # the reported mode follows the two composites' modes by validate_mbf's
    # rule: "exact" only if both are exact
    monkeypatch.setattr(cli, "unit_coincidence_check", lambda d: {
        "lam_after_laminv": {"ok": True, "mode": "exact-structural"},
        "rho_after_laminv": {"ok": True, "mode": second_mode},
        "ok": True,
    })
    code, doc = run_json(capsys, "verify", "monoidal", "--d", "3")
    (check,) = [c for c in doc["checks"] if c["name"] == "unit-maps-coincide-on-unit"]
    assert code == 0 and check == {"name": "unit-maps-coincide-on-unit", "ok": True, "mode": want}


def test_failed_numeric_self_check_exits_one(capsys, monkeypatch):
    # group-like scalars that differ refute the numeric computation, as in
    # the exact checks above: exit 1 with one error line
    monkeypatch.setattr(cft, "u1_data", lambda N, kind, r, s, t, **kw: 1 + r)
    code = main(["cft", "fusing", "--d", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "group-like scalars are not constant" in captured.err


def _not_proportional(d, left, right, check):
    # no subcommand compares bracketings; stand in for `fuse` to reach the check
    return fusion.proportionality_scalar(
        fusion.lam(d, 1, 2), fusion.lam(d, 2, 1))


_clear_pivot = fusion._clear_pivot


def _clear_then_set_pivot(text):
    # clear as usual, then put `text` on the pivot and its partner entry
    def clear(M, P, i, j):
        _clear_pivot(M, P, i, j)
        M[i][j] = P[j][i] = M[i][j].ring.parse(text)
    return clear


@pytest.mark.parametrize(
    "target,name,replacement,message",
    [
        (fusion, "_find_pivot", lambda *a: None, "residual block not factorable"),
        (cli, "fuse", _not_proportional, "sides not proportional"),
        (fusion, "_clear_pivot", lambda *a: None, "not split after clearing"),
        (fusion, "_clear_pivot", _clear_then_set_pivot("a^2 + 2*b^2"),
         "block does not factor into defect lines"),
        (fusion, "_clear_pivot", _clear_then_set_pivot("a^5 - b^5"),
         "block is not a proper defect"),
    ],
    ids=["residual-block", "not-proportional", "unsplit-partner", "not-lines",
         "improper-defect"],
)
def test_failed_decomposition_checks_exit_one(capsys, monkeypatch, target, name,
                                              replacement, message):
    # each is a verdict on a computed object, not on the arguments
    monkeypatch.setattr(target, name, replacement)
    # P_{0,1} x P_{1,2,3} has two summands, so clearing a pivot has work to do
    code = main(["fuse", "--d", "5", "--left", "0,1", "--right", "1+2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


# each subcommand with the flags it takes; the argv test draws mostly these
_COMMANDS = {
    ("verify", "monoidal"): ["--d"],
    ("fusing",): ["--d", "--verify-homotopy"],
    ("hom",): ["--d", "--source", "--target", "--charge", "--all"],
    ("fuse",): ["--d", "--left", "--right"],
    ("sixj",): ["--k", "--labels", "--precision"],
    ("cft", "sixj"): ["--k", "--precision"],
    ("cft", "pentagon"): ["--k", "--precision", "--tol"],
    ("cft", "fusing"): ["--d", "--precision", "--tol"],
    ("cft", "spectrum"): ["--d", "--u", "--n", "--chiral-only"],
    ("compare", "ratio"): ["--d", "--d-min", "--d-max", "--tol"],
    ("compare", "spectrum"): ["--d", "--u"],
    ("compare", "fusion"): ["--d", "--verify-homotopy"],
    ("verify",): [], ("cft",): [], ("compare",): [], (): [],
}
_DEGREES = ["2", "3", "4", "5"]
# flag -> (valid values, invalid values)
_VALUES = {
    "--d": (_DEGREES, ["0", "1", "-3", "x"]),
    "--d-min": (_DEGREES, ["1"]), "--d-max": (_DEGREES, ["d"]),
    "--k": (["0", "1", "2", "3"], ["-1", "k"]),
    "--cutoff": (["4", "8"], ["0", "-2", "x"]),
    "--source": (["0", "0,1", "0+2", "1+3", "9"], ["", "a", "0+0", "0+-1"]),
    "--target": (["1", "0,2", "2+2"], [",", "b"]),
    "--left": (["0", "0+2", "1,2"], ["x"]), "--right": (["1", "0+3", "0,1"], [""]),
    "--charge": (["0", "1/2", "2/5", "-1"], ["1/0", "q"]),
    "--labels": (["1,1,0,1,1,2", "1,0,0,0,0,0", "2,2,2,2,2,2"],
                 ["1,1,0", "a,b,c,d,e,f", "-1,1,0,1,1,2"]),
    "--precision": (["64", "96"], ["0", "-8", "p"]),
    "--tol": (["1e-10", "0"], ["-1", "nan", "t"]),
    "--u": (["0", "1", "2"], ["-1", "7", "u"]), "--n": (["0", "2"], ["-2", "n"]),
}
_SWITCHES = ["--verify-homotopy", "--all", "--chiral-only", "--version", "-h"]
_JUNK = ["", "-", "--", "x", "0", "-1", "1/0", "nan", "--nosuch", "ö", "0+0", ",", "3.5"]


def _expensive(argv) -> bool:
    """Runs that take seconds each; their output is covered by other tests."""
    ds = [int(v) for f, v in zip(argv, argv[1:]) if f == "--d" and v in _DEGREES]
    return argv[:2] == ["compare", "fusion"] and any(d >= 4 for d in ds)


def _option(draw, flag):
    if flag not in _VALUES:
        return [flag]
    valid, invalid = _VALUES[flag]
    pool = invalid if draw(st.integers(0, 5)) == 0 else valid
    return [flag, draw(st.sampled_from(pool))]


@st.composite
def _argvs(draw):
    """A subcommand, a random subset of its own flags with drawn values, and a
    few foreign flags, switches or junk tokens."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    parts = [_option(draw, f) for f in _COMMANDS[command] if draw(st.integers(0, 5))]
    if draw(st.integers(0, 3)) == 0:
        parts.append(_option(draw, draw(st.sampled_from(sorted(_VALUES) + _SWITCHES))))
    if draw(st.integers(0, 3)) == 0:
        parts.append([draw(st.sampled_from(_JUNK))])
    parts = draw(st.permutations(parts))
    return list(command) + [tok for part in parts for tok in part]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_any_argv_exits_cleanly(capsys, argv):
    """Exit 0, 1 or 2 for every argv, and never a traceback."""
    assume(not _expensive(argv))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err, argv


class TestSixjAlias:
    def test_worked_example(self, capsys):
        code, out = run(capsys, "sixj", "--k", "2", "--labels", "1,1,0,1,1,2")
        assert code == 0
        assert out.startswith("0.70710678118654752")

    def test_inadmissible_prints_zero(self, capsys):
        code, out = run(capsys, "sixj", "--k", "2", "--labels", "1,0,0,0,0,0")
        assert code == 0
        assert float(out) == 0.0

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _ = run(capsys, "sixj", "--k", "2", "--labels", "1,1,0")
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _ = run(capsys, "nosuchcommand")
        assert code == 2


class TestFusingCommand:
    def test_exact_report(self, capsys):
        code, doc = run_json(capsys, "fusing", "--d", "4")
        assert code == 0 and doc["pass"]
        assert doc["version"] == __version__
        assert doc["d"] == 4
        assert doc["report"]["F"][0][0] == "-1/2 + -1/2*z4"

    def test_with_homotopy_verification(self, capsys):
        code, doc = run_json(capsys, "fusing", "--d", "4", "--verify-homotopy")
        assert code == 0 and doc["pass"] and doc["homotopy_verified"]
        entries = doc["report"]["homotopy_entries"]
        assert entries and all(e["status"] == "witness" for e in entries)


class TestHomCommand:
    def test_all_sectors(self, capsys):
        code, doc = run_json(
            capsys, "hom", "--d", "5", "--source", "0", "--target", "0+2"
        )
        assert code == 0
        assert doc["total_dim"] == 3
        assert doc["charges"] == ["1/5", "3/5", "1"]

    def test_single_sector(self, capsys):
        code, doc = run_json(
            capsys, "hom", "--d", "5", "--source", "0", "--target", "0,1",
            "--charge", "1/5",
        )
        assert code == 0
        assert doc["charge"] == "1/5"
        assert doc["total_dim"] == 1


class TestFuseCommand:
    def test_decomposition(self, capsys):
        code, doc = run_json(
            capsys, "fuse", "--d", "5", "--left", "0,1", "--right", "1+2"
        )
        assert code == 0
        assert doc["summands"] == [[2], [1, 2, 3]]

    def test_shorthand_matches_commas(self, capsys):
        _, a = run_json(capsys, "fuse", "--d", "4", "--left", "0+2", "--right", "1")
        _, b = run_json(capsys, "fuse", "--d", "4", "--left", "0,1", "--right", "1")
        assert a == b


class TestVerifyCommand:
    def test_monoidal_suite_d3(self, capsys):
        code, doc = run_json(capsys, "verify", "monoidal", "--d", "3")
        assert code == 0 and doc["pass"]
        assert len(doc["checks"]) == 16
        assert all(c["ok"] for c in doc["checks"])


class TestCftCommands:
    def test_sixj_table_csv(self, capsys):
        code, out = run(capsys, "cft", "sixj", "--k", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["a", "b", "e", "d", "c", "f", "value"]
        assert all(len(r) == 7 for r in rows)
        values = [float(r[6]) for r in rows[1:]]
        assert values and all(abs(v) <= 10 for v in values)

    def test_pentagon_pass_and_fail(self, capsys):
        code, doc = run_json(capsys, "cft", "pentagon", "--k", "1")
        assert code == 0 and doc["pass"]
        assert doc["max_residual"] < 1e-18
        code, doc = run_json(
            capsys, "cft", "pentagon", "--k", "2", "--tol", "1e-60"
        )
        assert code == 1 and not doc["pass"]

    def test_fusing_example_odd_d(self, capsys):
        code, doc = run_json(capsys, "cft", "fusing", "--d", "5")
        assert code == 0 and doc["pass"]
        assert doc["entry_deviation"] < 1e-10
        assert doc["group_like_scalar"] == 1
        assert "sign_scalar" not in doc

    def test_fusing_example_even_d(self, capsys):
        code, doc = run_json(capsys, "cft", "fusing", "--d", "4")
        assert code == 0 and doc["pass"]
        assert doc["sign_scalar"] == -1

    def test_spectrum(self, capsys):
        code, doc = run_json(
            capsys, "cft", "spectrum", "--d", "4", "--u", "0", "--chiral-only"
        )
        assert code == 0
        assert doc["count"] == 3
        assert doc["charges"] == ["0", "1/2", "1"]
        code, doc = run_json(capsys, "cft", "spectrum", "--d", "4")
        assert doc["count"] == 24


class TestCompareCommands:
    def test_ratio_single(self, capsys):
        code, doc = run_json(capsys, "compare", "ratio", "--d", "4")
        assert code == 0 and doc["pass"]
        assert doc["results"][0]["lg_exact"] == "-1"

    def test_ratio_range(self, capsys):
        code, doc = run_json(
            capsys, "compare", "ratio", "--d-min", "5", "--d-max", "6"
        )
        assert code == 0 and doc["pass"]
        assert [r["d"] for r in doc["results"]] == [5, 6]

    def test_ratio_needs_d_or_range(self, capsys):
        code, _ = run(capsys, "compare", "ratio")
        assert code == 2

    def test_spectrum_sweep(self, capsys):
        code, doc = run_json(capsys, "compare", "spectrum", "--d", "4")
        assert code == 0 and doc["pass"]
        assert [r["u"] for r in doc["results"]] == [0, 1, 2]

    def test_fusion(self, capsys):
        code, doc = run_json(capsys, "compare", "fusion", "--d", "3")
        assert code == 0 and doc["pass"]
        assert doc["result"]["pairs"] == 36


class TestReportPlumbing:
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(capsys, "fusing", "--d", "4", "--out", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["version"] == __version__

    def test_byte_identical_reruns(self, capsys):
        _, a = run(capsys, "compare", "ratio", "--d", "5")
        _, b = run(capsys, "compare", "ratio", "--d", "5")
        assert a == b

    def test_version_flag(self, capsys):
        code, out = run(capsys, "--version")
        assert code == 0
        assert __version__ in out
