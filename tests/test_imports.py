"""What the modules of `src/mbf` import.

Rationals in mbf are always `mbf._rat.Rat`: `_rat.py` is the one module that
imports `fractions`; every other module takes its rationals from there, so no
second rational type or conversion path can appear beside it.  That test
reads the modules with `ast`, not importing them.

The exact side starts without mpmath, `dataclasses` or `typing`: importing
every module and running the exact subcommands in a fresh interpreter loads
none of them, while a numeric subcommand loads mpmath when it runs.
"""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mbf"


def _imported_modules(path: pathlib.Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_only_rat_imports_fractions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "_rat.py" in modules and len(modules) > 5
    importers = [p.name for p in modules
                 if any(m.partition(".")[0] == "fractions" for m in _imported_modules(p))]
    assert importers == ["_rat.py"]


# -- start-up: the exact side loads nothing numeric -----------------------------

SRC = PACKAGE.parent
# the exact side, and the coset label algebra of `cft` (`cft spectrum` runs
# `defect_spectrum`, `MMLabel`, the `mm_*` functions and `chiral_charge`)
EXACT_ARGVS = (["fuse", "--d", "4", "--left", "0,1", "--right", "1,2"],
               ["hom", "--d", "4", "--source", "0,1", "--target", "1,2"],
               ["cft", "spectrum", "--d", "5", "--u", "1", "--chiral-only"])
HEAVY = ("mpmath", "dataclasses", "typing")
SIXJ_K1 = ("a,b,e,d,c,f,value\n"
           "0,0,0,0,0,0,1.0\n0,0,0,1,1,1,1.0\n0,1,1,0,1,1,1.0\n0,1,1,1,0,0,1.0\n"
           "1,0,1,0,1,0,1.0\n1,0,1,1,0,1,1.0\n1,1,0,0,0,1,1.0\n1,1,0,1,1,0,-1.0\n")


def _run_child(flags: list, prelude: str, argvs) -> dict:
    """Run `cli.main` on each argv in a fresh interpreter, after `prelude`;
    return the exit codes, the reports and which of HEAVY are loaded."""
    code = prelude + textwrap.dedent(f"""
        import io, json, sys
        from mbf import cli
        out = []
        for argv in {list(argvs)!r}:
            real, sys.stdout = sys.stdout, io.StringIO()
            try:
                rc = cli.main(argv)
            finally:
                text, sys.stdout = sys.stdout.getvalue(), real
            out.append([rc, text])
        print(json.dumps({{"runs": out, "loaded": [m for m in {HEAVY!r} if m in sys.modules]}}))
    """)
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300, check=True)
    return json.loads(done.stdout)


def test_exact_side_starts_without_numeric_or_typing_modules():
    # `python -S`: no `site`, so no `.pth` file imports anything first; `src`
    # and mpmath's own directory go on sys.path by hand, so a numeric import
    # would succeed and show up rather than fail
    mpmath_dir = pathlib.Path(importlib.util.find_spec("mpmath").origin).parent.parent
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert {"cft", "cli", "compare", "exactalg", "fusion"} <= set(names)
    prelude = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(SRC)!r}, {str(mpmath_dir)!r}]
        for name in {names!r}:
            __import__("mbf." + name)
        from mbf import cft
        assert len(list(cft.admissible_sixj_labels(3))) == 120  # rows of `cft sixj --k 3`
    """)
    got = _run_child(["-S"], prelude, EXACT_ARGVS)
    assert [rc for rc, _ in got["runs"]] == [0, 0, 0]
    assert all(text.startswith("{") for _, text in got["runs"])
    assert got["loaded"] == []


def test_a_numeric_command_loads_mpmath_and_prints_the_same_table():
    got = _run_child([], "", [["cft", "sixj", "--k", "1"]])
    assert got["runs"] == [[0, SIXJ_K1]]
    assert "mpmath" in got["loaded"]
