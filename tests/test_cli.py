import collections
import csv
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from mpmath import mp

from mbf import __version__, bifact, cft, cli, fusion
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


def python(*args):
    """`python args` in a fresh process, importing mbf from these sources."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


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


_TOL_COMMANDS = {
    "cft-pentagon": ["cft", "pentagon", "--k", "1"],
    "cft-fusing": ["cft", "fusing", "--d", "4"],
    "compare-ratio": ["compare", "ratio", "--d", "4"],
}
_BAD_TOLS = ("nan", "inf", "-1")


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
        ["sixj", "--k", "2", "--labels", "1,1,0,1,1,-2"],
        ["sixj", "--k", "2", "--labels=-1,1,0,1,1,2"],
        ["compare", "ratio", "--d", "4", "--d-min", "5", "--d-max", "3"],
        ["compare", "ratio", "--d", "4", "--d-min", "5", "--d-max", "6"],
    ] + [[*argv, "--tol", tol] for argv in _TOL_COMMANDS.values() for tol in _BAD_TOLS],
    ids=["d-zero", "charge-zero-denominator", "negative-k", "removed-tol",
         "removed-cutoff", "removed-monoidal-cutoff", "precision-zero",
         "precision-below-double", "sixj-negative-label", "sixj-negative-first-label",
         "ratio-d-and-empty-range", "ratio-d-and-range"]
    + [f"tol-{tol}-{name}" for name in _TOL_COMMANDS for tol in _BAD_TOLS],
)
def test_bad_arguments_are_usage_errors(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects; a handler's ValueError returns 2
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and captured.err.endswith(errors[0] + "\n")


def test_monoidal_degree_two_names_d(capsys):
    # P_{0,1} is the whole residue set at d = 2: rejected while parsing
    with pytest.raises(SystemExit) as exc:
        main(["verify", "monoidal", "--d", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith("error: argument --d: must be >= 3, got 2\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["fusing", "--d", "3"], "--d", 3),
    (["fusing", "--d", "3", "--verify-homotopy"], "--d", 3),
    (["cft", "fusing", "--d", "3"], "--d", 3),
    (["cft", "fusing", "--d", "2"], "--d", 2),
    (["compare", "ratio", "--d", "3"], "--d", 3),
    (["compare", "ratio", "--d-min", "3", "--d-max", "5"], "--d-min", 3),
    (["compare", "ratio", "--d-min", "4", "--d-max", "2"], "--d-max", 2),
], ids=["fusing", "fusing-homotopy", "cft-fusing-3", "cft-fusing-2", "ratio-d",
        "ratio-d-min", "ratio-d-max"])
def test_fusing_degree_below_four_names_the_flag(capsys, argv, flag, value):
    # the 2x2 fusing example needs d >= 4: one bound, rejected while parsing
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: must be >= 4, got {value}\n")


@pytest.mark.parametrize("argv, message", [
    (["cft", "spectrum", "--d", "2"], "must be >= 3, got 2"),
    (["cft", "spectrum", "--d", "2", "--u", "0", "--chiral-only"], "must be >= 3, got 2"),
    (["compare", "spectrum", "--d", "2"], "must be >= 3, got 2"),
    (["compare", "fusion", "--d", "2"], "must be >= 3, got 2"),
    (["compare", "fusion", "--d", "9", "--verify-homotopy"],
     "must be <= 8 (runtime grows fast), got 9"),
], ids=["cft-spectrum", "cft-spectrum-chiral", "compare-spectrum", "compare-fusion-2",
        "compare-fusion-9"])
def test_spectrum_and_compare_fusion_degrees_name_the_flag(capsys, argv, message):
    # the coset labels need d >= 3, compare fusion runs 3 <= d <= 8: both
    # rejected while parsing, naming the flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument --d: {message}\n")


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("tol", [None, "0", "1e-3"])
@pytest.mark.parametrize("command", sorted(_TOL_COMMANDS))
def test_tolerance_reports_are_strict_json(capsys, command, tol):
    argv = _TOL_COMMANDS[command] + ([] if tol is None else ["--tol", tol])
    code, out = run(capsys, *argv)
    doc = _strict_json(out)
    assert code == (0 if doc["pass"] else 1)
    if tol is not None:
        assert doc["tol"] == float(tol)


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
    # the reported mode follows the two composites' modes by
    # bifact.joint_mode, validate_mbf's rule: "exact" only if both are exact
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


def _ps_with_raised_even_charge(d, S):
    # its differentials no longer carry charge d/2 in its own grading
    P = bifact.ps_object(d, S)
    raised = tuple(c + 1 for c in P.charges(0))
    return bifact.MBF(P.m0, P.m1, P.d0, P.d1, P.w, (raised, P.charges(1)))


@pytest.mark.parametrize(
    "target,name,replacement,argv,message",
    [
        (cft, "mm_fuse", lambda x, y: [], ["cft", "spectrum", "--d", "5", "--u", "1"],
         "target channel must be [u,u,0]"),
        (cft, "su2_fusing", lambda *a, **kw: 2,
         ["cft", "fusing", "--d", "5"], "su(2) unit entry is 2, not 1"),
        (cli, "ps_object", _ps_with_raised_even_charge,
         ["hom", "--d", "3", "--source", "0", "--target", "0"],
         "differential off charge d/2"),
    ],
    ids=["spectrum-channel", "group-like-unit", "hom-sector"],
)
def test_internal_checks_raise_and_exit_one(capsys, monkeypatch, target, name,
                                            replacement, argv, message):
    # raised, not asserted, so `python -O` keeps them; a failed one is exit 1
    monkeypatch.setattr(target, name, replacement)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def _not_proportional(d, left, right, check):
    # no subcommand compares bracketings; stand in for `fuse` to reach the check
    return fusion.proportionality_scalar(
        fusion.lam(d, 1, 2), fusion.lam(d, 2, 1))


_clear_pivot = fusion._clear_pivot


def _clear_then_set_pivot(text):
    # clear as usual, then put `text` on the pivot and its partner entry
    def clear(M, P, i, j, quotients):
        _clear_pivot(M, P, i, j, quotients)
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
def test_failed_decomposition_checks_exit_one(capsys, monkeypatch, fresh_orbits, target, name,
                                              replacement, message):
    # each is a verdict on a computed object, not on the arguments; the pair
    # is the first of its rotation orbit, so it is decomposed, not transported
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
    "--tol": (["1e-10", "0"], ["-1", "nan", "inf", "t"]),
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

    @pytest.mark.parametrize("k", [600, 1000, 3000])
    def test_large_level_exits_cleanly(self, capsys, k):
        # [n]! up to n = k + 1 is a loop, so no level reaches the recursion limit
        code = main(["sixj", "--k", str(k), "--labels", f"{k},{k},0,{k},{k},0"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("\n") == 1 and captured.out.strip()
        assert "Traceback" not in captured.err

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


_SWEEP, _STRUCT = "verified-to-cutoff", "exact-structural"
_MONOIDAL_TIERS = [
    ("unit-object-valid", True, "exact"),
    ("unit-maps-coincide-on-unit", True, "exact"),
    ("unit-iso-roundtrip-P0", True, f"{_STRUCT};{_STRUCT}"),
    ("homotopy-condition-left-P0", True, _SWEEP),
    ("homotopy-condition-right-P0", True, _SWEEP),
    ("unit-iso-roundtrip-P01", True, f"{_STRUCT};{_STRUCT}"),
    ("homotopy-condition-left-P01", True, _SWEEP),
    ("homotopy-condition-right-P01", True, _SWEEP),
    ("triangle-singletons", True, _STRUCT),
    ("triangle-consecutive", True, _STRUCT),
    ("pentagon-singletons", True, _STRUCT),
    ("pentagon-consecutive", True, _STRUCT),
    ("transfer-lemma-i", True, _SWEEP),
    ("transfer-lemma-ii", True, _SWEEP),
    ("transfer-lemma-iii", True, _SWEEP),
    ("coherence-maps-charge-zero", True, ""),
]


class TestVerifyCommand:
    def test_monoidal_suite_d3(self, capsys):
        code, doc = run_json(capsys, "verify", "monoidal", "--d", "3")
        assert code == 0 and doc["pass"]
        assert len(doc["checks"]) == 16
        assert all(c["ok"] for c in doc["checks"])

    @pytest.mark.parametrize("d", [3, 4])
    def test_monoidal_suite_tiers(self, capsys, d):
        # which op_equal tier settles each check: 7 rest on the pointwise
        # sweep, which is evidence and not a proof
        code, doc = run_json(capsys, "verify", "monoidal", "--d", str(d))
        got = [(c["name"], c["ok"], c["mode"]) for c in doc["checks"]]
        assert code == 0 and got == _MONOIDAL_TIERS
        tally = collections.Counter(mode for _, _, mode in got)
        assert tally == {_SWEEP: 7, _STRUCT: 4, "exact": 2, f"{_STRUCT};{_STRUCT}": 2, "": 1}


class TestCftCommands:
    def test_sixj_table_csv(self, capsys):
        code, out = run(capsys, "cft", "sixj", "--k", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["a", "b", "e", "d", "c", "f", "value"]
        assert all(len(r) == 7 for r in rows)
        values = [float(r[6]) for r in rows[1:]]
        assert values and all(abs(v) <= 10 for v in values)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sixj_table_matches_product_loop(self, capsys, k):
        # oracle: every (k+1)^6 doubled tuple, the inadmissible ones dropped
        prec = cli.DEFAULT_PREC
        admissible = set(cft.admissible_sixj_labels(k))
        rows = []
        for doubled in itertools.product(range(k + 1), repeat=6):
            if doubled not in admissible:
                continue
            v = cft.sixj(k, *doubled, prec=prec)
            with mp.workprec(prec):
                rows.append(list(doubled) + [mp.nstr(v, cli._sixj_digits(prec))])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["a", "b", "e", "d", "c", "f", "value"]] + rows)
        code, out = run(capsys, "cft", "sixj", "--k", str(k))
        assert code == 0 and out == buf.getvalue()

    @pytest.mark.parametrize("k,count,digest", [
        (5, 785, "8ebbb240d830eefb505c9226449afd511538fd59fc1c8677a53efa047811fbe6"),
        (6, 1681, "77da418261a5feb0bd67f7838781f836a3caade1979096e777ec956f741ca8b0"),
    ])
    def test_sixj_table_is_pinned(self, capsys, k, count, digest):
        code, out = run(capsys, "cft", "sixj", "--k", str(k))
        assert code == 0 and out.count("\n") == count
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sixj_table_evaluates_only_admissible_symbols(self, capsys):
        cft._brace2.cache_clear()
        code, _ = run(capsys, "cft", "sixj", "--k", "3")
        assert code == 0 and cft._brace2.cache_info().currsize == 120

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

    @pytest.mark.parametrize("u", ["9", "-1"])
    def test_spectrum_u_out_of_range(self, capsys, u):
        # the range message of `cft spectrum`, not the residue-set one
        code = main(["compare", "spectrum", "--d", "4", "--u", u])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: u={u} outside 0..2\n"

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

    @pytest.mark.parametrize("argv", [
        ["verify", "monoidal", "--d", "3"],
        ["fusing", "--d", "4"],
        ["hom", "--d", "3", "--source", "0", "--target", "0"],
        ["fuse", "--d", "3", "--left", "0", "--right", "1"],
        ["sixj", "--k", "2", "--labels", "1,1,0,1,1,2"],
        ["cft", "sixj", "--k", "1"],
        ["cft", "pentagon", "--k", "2", "--tol", "1e-60"],
        ["cft", "fusing", "--d", "4"],
        ["cft", "spectrum", "--d", "4", "--u", "1"],
        ["compare", "ratio", "--d", "4"],
        ["compare", "spectrum", "--d", "4"],
        ["compare", "fusion", "--d", "3"],
    ], ids=" ".join)
    def test_out_holds_the_stdout_report(self, capsys, tmp_path, argv):
        # one writer: --out gets exactly the bytes stdout would, with the same exit code
        code, out = run(capsys, *argv)
        path = tmp_path / "report"
        code_out, out_out = run(capsys, *argv, "--out", str(path))
        assert out and code == (1 if "pentagon" in argv else 0)
        assert (code_out, out_out, path.read_text()) == (code, "", out)

    def test_failed_verification_writes_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(fusion, "morphism_charge", lambda *a: Rat(1))
        path = tmp_path / "report.json"
        code, out = run(capsys, "fusing", "--d", "4", "--out", str(path))
        assert code == 1 and out == "" and not path.exists()

    @pytest.mark.parametrize("argv", [
        ["cft", "spectrum", "--d", "4", "--u", "0"],
        ["cft", "sixj", "--k", "1"],
    ], ids=["json", "csv"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv, where):
        path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        code = main(argv + ["--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_byte_identical_reruns(self, capsys):
        _, a = run(capsys, "compare", "ratio", "--d", "5")
        _, b = run(capsys, "compare", "ratio", "--d", "5")
        assert a == b

    def test_version_flag(self, capsys):
        code, out = run(capsys, "--version")
        assert code == 0
        assert __version__ in out

    def test_module_entry_point(self, capsys):
        # `python -m mbf` runs the same main: same exit code, same bytes
        argv = ["cft", "pentagon", "--k", "1"]
        proc = python("-m", "mbf", *argv)
        code, out = run(capsys, *argv)
        assert proc.returncode == code == 0 and proc.stdout == out.encode()


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        proc = python("-c", "from mbf import cli; print(cli.build_parser.cache_info().currsize)")
        assert proc.returncode == 0 and proc.stdout == b"0\n"

    def test_import_fills_no_process_memo(self):
        memos = ("exactalg.cyclotomic_poly", "exactalg.modular_prime", "exactalg._reduction_rows",
                 "exactalg.Cyclo.one", "polycalc._root_product", "polycalc._power_table",
                 "bifact.Operator.identity", "bifact._ps_object", "bifact._token_of",
                 "fusion._lam")
        code = ("import mbf.cli\nfrom mbf import bifact, exactalg, fusion, polycalc\n"
                f"print([m.cache_info().currsize for m in ({', '.join(memos)})])")
        proc = python("-c", code)
        assert proc.returncode == 0 and proc.stdout == f"{[0] * len(memos)}\n".encode()

    def test_earlier_calls_leave_no_state(self, capsys):
        # a usage error, --version and a help page each end in SystemExit
        # part-way through a parse; later parses must not see any of it
        for argv in (["sixj", "--k", "2", "--labels", "1,1,0"], ["--version"],
                     ["cft", "pentagon", "-h"]):
            code, _ = run(capsys, *argv)
            assert code == (2 if "sixj" in argv else 0)
        for argv in (["cft", "sixj", "--k", "2"], ["sixj", "--k", "2", "--labels", "1,1,0,1,1,2"]):
            code, out = run(capsys, *argv)
            proc = python("-m", "mbf", *argv)
            assert (code, out.encode()) == (proc.returncode, proc.stdout) and code == 0
