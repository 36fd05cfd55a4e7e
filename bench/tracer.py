"""Per-layer tracing of the mbf package from outside, without editing it.

``Tracer.install`` wraps the public functions and methods of each layer
module, plus ``__init__`` and the arithmetic operators of its classes.  A
module-level function is replaced in every ``mbf`` module that holds it, so a
name imported with ``from .bifact import ps_object`` is traced too; methods
are replaced on their class.  ``Tracer.uninstall`` restores every original.

Per wrapped callable the tracer keeps a call count and its inclusive time
(outermost calls only, so recursion is not counted twice).  Per layer it
keeps self time: a call's duration minus the time of the traced calls made
inside it.  A traced call that crosses from one layer into another is also
kept as a span record, in memory, until ``write_spans`` writes them out;
calls into the kernel layers (``KERNEL_LAYERS``) are too many and too short
for that, so they are only aggregated, into the counts and self times.  Fractions (``mbf._rat``) are builtin
types and cannot be wrapped, so their time lands in the self time of the
layer that does the arithmetic, mostly ``exactalg``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("exactalg", "polycalc", "linalg", "bifact", "graded", "fusion", "cft", "compare", "cli")
KERNEL_LAYERS = frozenset({"exactalg", "polycalc"})
DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__",
})

# op_equal's verdict mode -> tier counter
TIERS = {
    "exact-structural": "exact_structural",
    "exact-multiplier": "exact_multiplier",
    "exact-generator": "exact_generator",
    "verified-to-cutoff": "verified_to_cutoff",
}


class Tracer:
    def __init__(self):
        self.names = []  # key -> "layer:qualname"
        self.layer_of = []  # key -> layer index
        self.calls = []
        self.incl = []
        self.depth = []
        self.layers = list(LAYERS) + ["bench"]
        self.self_s = [0.0] * len(self.layers)
        self.counters = {}
        self.spans = []  # [id, parent span id or -1, key, start, end, self time]
        self._frames = []  # open calls, innermost last
        self._patches = []  # (owner, attribute, original)
        self._root_recorders = {}  # layer -> recorder of its benchmark operations
        self._t0 = perf_counter()

    # -- installation --------------------------------------------------------

    def install(self):
        wrapped = {}  # id(original function) -> its wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"mbf.{layer}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("mbf"):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        self._patch(mod, name, wrapped[id(obj)])
        return self

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                self._patch(cls, name, type(attr)(self._wrap(attr.__func__, layer, qual)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, layer, qual))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _new_key(self, label, layer):
        self.names.append(label)
        self.layer_of.append(self.layers.index(layer))
        self.calls.append(0)
        self.incl.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, layer, qual):
        key = self._new_key(f"{layer}:{qual}", layer)
        return functools.update_wrapper(self._recorder(key, fn, HOOKS.get(f"{layer}:{qual}")), fn)

    # -- recording -------------------------------------------------------------

    def _recorder(self, key, fn, hook=None):
        """A callable that runs `fn` and records it under `key`.

        Each open call has a frame [time of traced calls inside it, layer,
        id of the innermost span around it].  A call becomes a span of its
        own when it crosses into another layer, unless it is a kernel call.
        """
        calls, depth, incl, layer_self = self.calls, self.depth, self.incl, self.self_s
        frames, spans, origin = self._frames, self.spans, self._t0
        layer = self.layer_of[key]
        kernel = self.layers[layer] in KERNEL_LAYERS

        def record(*args, **kwargs):
            calls[key] += 1
            depth[key] += 1
            outer = frames[-1] if frames else None
            sid = outer[2] if outer else -1
            span = None
            if not kernel and (outer is None or outer[1] != layer):
                span = [len(spans), sid, key, 0.0, 0.0, 0.0]
                spans.append(span)
                sid = span[0]
            frame = [0.0, layer, sid]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                dt = t1 - t0
                own = dt - frame[0]
                layer_self[layer] += own
                if outer is not None:
                    outer[0] += dt
                depth[key] -= 1
                if not depth[key]:
                    incl[key] += dt
                if span is not None:
                    span[3], span[4] = t0 - origin, t1 - origin
                    span[5] = own
            if hook is not None:
                hook(self.counters, result)
            return result

        return record

    def root_call(self, layer, fn):
        """Time one benchmark operation as a span of `layer` (no patching)."""
        record = self._root_recorders.get(layer)
        if record is None:
            key = self._new_key(f"{layer}:<op>", layer)
            record = self._root_recorders[layer] = self._recorder(key, lambda f: f())
        return record(fn)

    # -- results ---------------------------------------------------------------

    def key(self, label):
        return self.names.index(label)

    def count(self, label):
        return self.calls[self.key(label)]

    def seconds(self, label):
        return self.incl[self.key(label)]

    def layer_self(self, layer):
        return self.self_s[self.layers.index(layer)]

    def call_counts(self):
        return {n: c for n, c in zip(self.names, self.calls) if c}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "start_s", "end_s", "self_s"],
                "spans": [[s[0], s[1], self.names[s[2]], s[3], s[4], s[5]] for s in self.spans],
            }, fh)


def _count_tier(counters, result):
    tier = TIERS.get(result[1], "not_verified")
    counters[tier] = counters.get(tier, 0) + 1


def _count_sectors(counters, result):
    counters["sectors_nonzero"] = counters.get("sectors_nonzero", 0) + sum(
        1 for s in result.sectors if s.dim > 0)


HOOKS = {
    "bifact:op_equal": _count_tier,
    "graded:hom_space": _count_sectors,
}
