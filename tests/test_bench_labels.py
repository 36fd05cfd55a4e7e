"""Every callable the benchmark's tracer reports on exists in mbf.

`bench/worker.py` maps its per-layer metrics to traced labels
("layer:Qualname") in `CALLS` and `SECONDS`, and `bench/tracer.py` hooks
labels in `HOOKS`.  The tracer finds a label with `names.index`, so a label
whose callable was renamed, made private or moved to another module breaks
only a traced benchmark run (`bench/run.py --trace 1`).  These tests read
the two files without importing them and resolve each label the way
`Tracer.install` wraps callables: a public function or class defined in
`mbf.<layer>` itself, and a method defined on that class, public or one of
the tracer's `DUNDERS`.
"""

import ast
import importlib
import inspect
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _assignments(filename: str) -> dict:
    with open(os.path.join(BENCH, filename)) as fh:
        tree = ast.parse(fh.read())
    return {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}


_WORKER = _assignments("worker.py")
_TRACER = _assignments("tracer.py")
LAYERS = ast.literal_eval(_TRACER["LAYERS"])
DUNDERS = ast.literal_eval(_TRACER["DUNDERS"].args[0])  # frozenset({...})
LABELS = sorted(
    {ast.literal_eval(v) for name in ("CALLS", "SECONDS") for v in _WORKER[name].values}
    | {ast.literal_eval(k) for k in _TRACER["HOOKS"].keys}
)


def test_labels_were_read():
    assert "bifact:ps_object" in LABELS and "graded:hom_space" in LABELS
    assert len(LABELS) >= 15


@pytest.mark.parametrize("label", LABELS)
def test_traced_label_is_a_public_callable(label):
    layer, qualname = label.split(":")
    assert layer in LAYERS
    module = importlib.import_module(f"mbf.{layer}")
    head, *rest = qualname.split(".")
    assert not head.startswith("_"), label
    obj = vars(module).get(head)
    assert obj is not None, f"{label}: mbf.{layer} has no {head}"
    assert obj.__module__ == module.__name__, f"{label}: defined in {obj.__module__}"
    if rest:
        (method,) = rest
        assert inspect.isclass(obj), label
        assert not method.startswith("_") or method in DUNDERS, label
        obj = vars(obj).get(method)
        assert obj is not None, f"{label}: not defined on the class itself"
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
    assert inspect.isfunction(obj), label
