"""Rationals in mbf are always `mbf._rat.Rat`.

`_rat.py` is the one module of `src/mbf` that imports `fractions`; every
other module takes its rationals from there, so no second rational type or
conversion path can appear beside it.  The modules are read with `ast`, not
imported.
"""

import ast
import pathlib

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
