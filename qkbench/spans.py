"""Run-time tracing of qkoorn's layers from outside the package.

``Tracer.install`` wraps the public functions and methods (plus the
arithmetic operators) of every layer module of a freshly imported qkoorn.
Each wrapped call is a frame; per-module self time is a frame's duration
minus the time its wrapped children took.  A frame entered from another
module, or from the benchmark itself, is a span at a layer boundary and is
kept in memory as (id, parent id, request, name, start, end) until
``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

LAYERS = ("ratfield", "laurent", "weights", "operators", "spectra",
          "koornwinder", "weightfn", "cli")

# dunder methods that are part of a layer's public arithmetic
_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
              "__pow__", "__eq__"}

# named groups of functions whose outermost calls are timed on their own
GROUPS = {
    "ratfield.mul": ("ratfield", {"ParamPoly.__mul__", "ParamPoly.__rmul__",
                                  "ParamRat.__mul__", "ParamRat.__rmul__"}),
    "ratfield.eq": ("ratfield", {"ParamPoly.__eq__", "ParamRat.__eq__"}),
    "ratfield.render": ("ratfield", {"ParamPoly.render", "ParamRat.render"}),
    "laurent.mul": ("laurent", {"LaurentPoly.__mul__", "LaurentRat.__mul__"}),
    "laurent.divide": ("laurent", {"divide_binomial", "exact_divide",
                                   "LaurentRat.collapse"}),
    "laurent.divide_binomial": ("laurent", {"divide_binomial"}),
    "weights.invariance": ("weights", {"is_invariant"}),
    "operators.apply": ("operators", {"apply_operator"}),
    "operators.apply_to_monomial": ("operators", {"apply_to_monomial"}),
    "koornwinder.triangular": ("koornwinder", {"koornwinder_triangular"}),
    "weightfn.delta": ("weightfn", {"delta_truncate"}),
    "weightfn.inner_product": ("weightfn", {"inner_product"}),
}

MAX_SPANS = 300000


class _Frame:
    __slots__ = ("layer", "start", "child", "sid", "calls_apply")

    def __init__(self, layer, start, sid):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.sid = sid      # id of the nearest enclosing kept span
        self.calls_apply = False


class Tracer:
    """Counts, self times, group times and boundary spans of one run."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.group_calls = dict.fromkeys(GROUPS, 0)
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self.monomial_hits = 0
        self.delta_bits = 0
        self.spans = []
        self.dropped = 0
        self.request = None
        self._depth = dict.fromkeys(GROUPS, 0)
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap the layers of an imported qkoorn package in place."""
        modules = {name: getattr(package, name) for name in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrapped[obj] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer, wrapped)
        # rebind every module-level reference, including names one layer
        # imported from another
        for mod in list(modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def _install_class(self, cls, layer, wrapped):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            qual = "%s.%s" % (cls.__name__, name)
            if inspect.isfunction(obj):
                fn = wrapped.get(obj)
                if fn is None:
                    fn = wrapped[obj] = self._wrap(obj, layer, qual)
                setattr(cls, name, fn)
            elif isinstance(obj, (classmethod, staticmethod)):
                kind = type(obj)
                setattr(cls, name, kind(self._wrap(obj.__func__, layer, qual)))

    def _wrap(self, fn, layer, name):
        groups = tuple(g for g, (glayer, names) in GROUPS.items()
                       if glayer == layer and name in names)
        full = "%s.%s" % (layer, name)
        is_apply = full == "operators.apply_operator"
        is_monomial = full == "operators.apply_to_monomial"
        is_delta = full == "weightfn.delta_truncate"
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        depth = self._depth
        group_calls = self.group_calls
        group_s = self.group_s
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_sid = parent.sid if parent is not None else None
            span = None
            if parent is None or parent.layer != layer:
                if len(spans) < MAX_SPANS:
                    span = [len(spans), parent_sid, self.request, full,
                            0.0, 0.0]
                    spans.append(span)
                else:
                    self.dropped += 1
            if is_apply and parent is not None:
                parent.calls_apply = True
            outer = []
            for g in groups:
                group_calls[g] += 1
                if not depth[g]:
                    outer.append(g)
                depth[g] += 1
            frame = _Frame(layer, perf_counter(),
                           span[0] if span is not None else parent_sid)
            stack.append(frame)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - frame.start
                calls[layer] += 1
                self_s[layer] += took - frame.child
                if parent is not None:
                    parent.child += took
                for g in groups:
                    depth[g] -= 1
                for g in outer:
                    group_s[g] += took
                if span is not None:
                    span[4] = frame.start
                    span[5] = end
                if is_monomial and not frame.calls_apply:
                    self.monomial_hits += 1
            if is_delta:
                self.delta_bits = max(self.delta_bits,
                                      _max_bits(return_value))
            return return_value

        return wrapper

    # -- results -------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "request": req, "name": name,
                                     "start": start, "end": end}) + "\n")


def _max_bits(poly):
    bits = 0
    for c in poly.terms.values():
        bits = max(bits, int(c.numerator).bit_length(),
                   int(c.denominator).bit_length())
    return bits


def layer_metrics(tracer, rounds):
    """The per-layer metrics, per traced round."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(layer + ".calls", tracer.calls[layer] / rounds, "calls/round")
        put(layer + ".self_s", tracer.self_s[layer] / rounds, "s/round")
    g, gs = tracer.group_calls, tracer.group_s
    put("ratfield.mul_calls", g["ratfield.mul"] / rounds, "calls/round")
    put("ratfield.mul_s", gs["ratfield.mul"] / rounds, "s/round")
    put("ratfield.eq_s", gs["ratfield.eq"] / rounds, "s/round")
    put("ratfield.render_s", gs["ratfield.render"] / rounds, "s/round")
    put("laurent.mul_s", gs["laurent.mul"] / rounds, "s/round")
    put("laurent.divide_calls", g["laurent.divide_binomial"] / rounds,
        "calls/round")
    put("laurent.divide_s", gs["laurent.divide"] / rounds, "s/round")
    put("weights.invariance_s", gs["weights.invariance"] / rounds, "s/round")
    put("operators.apply_s", gs["operators.apply"] / rounds, "s/round")
    mono = g["operators.apply_to_monomial"]
    put("operators.monomial_cache_hit_ratio",
        tracer.monomial_hits / mono if mono else 0.0, "ratio")
    put("koornwinder.triangular_s", gs["koornwinder.triangular"] / rounds,
        "s/round")
    put("weightfn.delta_s", gs["weightfn.delta"] / rounds, "s/round")
    put("weightfn.delta_coeff_bits", tracer.delta_bits, "bits")
    put("weightfn.inner_product_calls", g["weightfn.inner_product"] / rounds,
        "calls/round")
    put("weightfn.inner_product_s", gs["weightfn.inner_product"] / rounds,
        "s/round")
    return out
