"""Spans and counters around galkappa's layers, installed from outside.

Every public module-level function of each layer module gets a wrapper
that records a span (name, start, end, parent span, verdict id).  Methods
of the classes each module defines, their arithmetic dunders and their
constructors get a cheaper wrapper that folds into the enclosing span when
it is already in the same layer, and otherwise times the call without
keeping a span record -- there are millions of such calls per deck.
Names that other modules imported with ``from ... import`` are re-bound to
the wrappers, so calls through them are seen too.

numtrunc does its dense algebra with the ``@`` operator, which cannot be
wrapped; instead its ``np`` is replaced by a proxy that hands out an
ndarray subclass counting every matrix product and its shape.  The
arithmetic itself is unchanged.

A layer's self time is the time inside its spans minus the time inside
spans of other layers nested within them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("exactscalar", "weylop", "matspin", "cocycle", "galrealize",
          "fieldcheck", "numtrunc", "algfile", "report", "cli")
ARITHMETIC = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__matmul__", "__neg__", "__pow__", "__truediv__")
# hot methods that nevertheless get a span record and their own inclusive time
RECORDED_METHODS = {"weylop.ScalarDiffOp.compose"}
EXTRA_FUNCTIONS = {"cocycle": ("_rref",)}
REALIZE_FUNCTIONS = ("galrealize.realize_schrodinger", "galrealize.realize_levyleblond",
                     "galrealize.realize_multispinor", "galrealize.extend_lambda",
                     "galrealize.kappa_shift")


def _size(obj) -> int:
    """Number of terms of a sparse term-map object."""
    terms = getattr(obj, "_terms", None)
    return len(terms) if terms is not None else len(obj.items())


def _den_bits(scalar) -> int:
    best = 0
    for part in ("re", "im"):
        den = getattr(getattr(scalar, part, None), "denominator", 1)
        best = max(best, den.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.stack = []             # open frames: [layer, child_seconds, span_id]
        self.spans = []             # (span_id, parent_id, verdict, name, start, end)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.stat = defaultdict(int)   # counters filled by hooks
        self.root_s = 0.0
        self.verdict = 0
        self._next_id = 1
        self._patched = []          # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, layer, name, record, hot, hook=None):
        stack, calls, clock = self.stack, self.calls, time.perf_counter
        self_s, incl_s, spans = self.self_s, self.incl_s, self.spans

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if hot and stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            parent = stack[-1] if stack else None
            if record:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[2] if parent else 0
            frame = [layer, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                incl_s[name] += dur
                if parent is not None:
                    parent[1] += dur
                else:
                    self.root_s += dur
                if record:
                    spans.append((sid, parent[2] if parent else 0, self.verdict, name, t0, t1))
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self):
        stat = self.stat

        def rref(args, result):
            stat["rref_cells"] += len(args[0]) * args[1]
            stat["rref_pivots"] += result[0]

        def scalar(args, result):
            bits = _den_bits(result)
            if bits > stat["max_den_bits"]:
                stat["max_den_bits"] = bits

        def compose(args, result):
            stat["terms_out"] += _size(result)

        def verify(args, result):
            stat["rows_checked"] += len(result.rows)

        def onshell(args, result):
            stat["onshell_in"] += _size(args[0])
            stat["onshell_out"] += _size(result)

        def restrict(args, result):
            stat["max_spin_dim"] = max(stat["max_spin_dim"], args[0].dim)

        def loads(args, result):
            stat["alg_bytes"] += len(args[0].encode())

        def render(args, result):
            stat["report_bytes"] += len(result.encode())

        hooks = {
            "cocycle._rref": rref,
            "weylop.ScalarDiffOp.compose": compose,
            "galrealize.verify_structure": verify,
            "fieldcheck.reduce_on_shell": onshell,
            "matspin.restrict_symmetric": restrict,
            "algfile.loads": loads,
            "report.render": render,
        }
        for op in ARITHMETIC[1:]:
            hooks[f"exactscalar.Scalar.{op}"] = scalar
        return hooks

    def install(self):
        """Wrap every layer, then re-bind imported names to the wrappers."""
        hooks = self._hooks()
        replaced = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"galkappa.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA_FUNCTIONS.get(layer, ())
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public
                        and not inspect.isgeneratorfunction(obj)):
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(obj, layer, name, True, False, hooks.get(name))
                    replaced[id(obj)] = wrapped
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, hooks)
            if layer == "numtrunc" and hasattr(mod, "np"):
                self._patched.append((mod, "np", mod.np))
                mod.np = _CountingNumpy(mod.np, self.stat)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "galkappa" or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None and getattr(mod, attr) is not wrapped:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    def _wrap_class(self, cls, layer, hooks):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                continue
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            record = name in RECORDED_METHODS
            wrapped = self._wrap(obj, layer, name, record, not record, hooks.get(name))
            self._patched.append((cls, attr, obj))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def _calls_of(self, prefix: str, names) -> int:
        return sum(self.calls[f"{prefix}.{n}"] for n in names)

    def metrics(self, untraced_walls, traced_walls) -> dict:
        """Per-layer numbers for one traced deck, as {name: (value, unit)}."""
        ms = lambda s: 1000.0 * s  # noqa: E731
        calls, incl, stat = self.calls, self.incl_s, self.stat
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (ms(self.self_s[layer]), "ms")
        n_ext = calls["cocycle.central_extensions"]
        tried = calls["fieldcheck.boost_transform"]
        out.update({
            "cocycle.central_extensions_ms": (ms(incl["cocycle.central_extensions"]), "ms"),
            "cocycle.jacobi_check_ms": (ms(incl["cocycle.jacobi_check"]), "ms"),
            "cocycle.rref_calls": (calls["cocycle._rref"], "count"),
            "cocycle.rref_ms": (ms(incl["cocycle._rref"]), "ms"),
            "cocycle.rref_cells": (stat["rref_cells"], "count"),
            "cocycle.rref_pivots": (stat["rref_pivots"], "count"),
            "cocycle.rref_per_extension": (calls["cocycle._rref"] / n_ext if n_ext else 0.0,
                                           "ratio"),
            "exactscalar.scalar_ops": (
                self._calls_of("exactscalar.Scalar", ARITHMETIC[1:]) +
                calls["exactscalar.Scalar.conj"], "count"),
            "exactscalar.poly_mul_calls": (
                self._calls_of("exactscalar.PolyExpr", ("__mul__", "__rmul__")), "count"),
            "exactscalar.poly_add_calls": (
                self._calls_of("exactscalar.PolyExpr", ("__add__", "__radd__")), "count"),
            "exactscalar.max_denominator_bits": (stat["max_den_bits"], "bits"),
            "weylop.compose_calls": (calls["weylop.ScalarDiffOp.compose"], "count"),
            "weylop.bracket_calls": (calls["weylop.bracket"] +
                                     calls["weylop.ScalarDiffOp.bracket"], "count"),
            "weylop.compose_ms": (ms(incl["weylop.ScalarDiffOp.compose"]), "ms"),
            "weylop.terms_out": (stat["terms_out"], "count"),
            "galrealize.verify_structure_ms": (ms(incl["galrealize.verify_structure"]), "ms"),
            "galrealize.rows_checked": (stat["rows_checked"], "count"),
            "galrealize.realize_ms": (ms(sum(incl[n] for n in REALIZE_FUNCTIONS)), "ms"),
            "fieldcheck.reduce_on_shell_ms": (ms(incl["fieldcheck.reduce_on_shell"]), "ms"),
            "fieldcheck.onshell_terms_in": (stat["onshell_in"], "count"),
            "fieldcheck.onshell_terms_out": (stat["onshell_out"], "count"),
            "fieldcheck.boost_covariance_ms": (
                ms(incl["fieldcheck.check_boost_covariance"]), "ms"),
            "fieldcheck.boost_conventions_tried": (tried, "count"),
            "fieldcheck.boost_convention_useful_ratio": (
                calls["fieldcheck.check_boost_covariance"] / tried if tried else 0.0, "ratio"),
            "matspin.restrict_symmetric_ms": (ms(incl["matspin.restrict_symmetric"]), "ms"),
            "matspin.max_dim": (stat["max_spin_dim"], "count"),
            "numtrunc.build_numeric_ms": (ms(incl["numtrunc.build_numeric"]), "ms"),
            "numtrunc.residual_report_ms": (ms(incl["numtrunc.residual_report"]), "ms"),
            "numtrunc.matrix_dim": (stat["matrix_dim"], "count"),
            "numtrunc.matmul_count": (stat["matmuls"], "count"),
            "numtrunc.matmul_flops_computed": (stat["matmul_flops"], "flop"),
            "numtrunc.matrix_bytes_computed": (stat["matmul_bytes"], "bytes"),
            "algfile.loads_ms": (ms(incl["algfile.loads"]), "ms"),
            "algfile.bytes": (stat["alg_bytes"], "bytes"),
            "report.render_ms": (ms(incl["report.render"]), "ms"),
            "report.bytes": (stat["report_bytes"], "bytes"),
            "trace.coverage": (self.root_s / sum(traced_walls), "ratio"),
            "trace.untraced_deck_ms": (ms(sum(untraced_walls)), "ms"),
            "trace.traced_deck_ms": (ms(sum(traced_walls)), "ms"),
            "trace.overhead_ms": (ms(sum(traced_walls) - sum(untraced_walls)), "ms"),
            "trace.overhead_ratio": (sum(traced_walls) / sum(untraced_walls), "ratio"),
        })
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, verdict, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "verdict": verdict,
                                     "name": name, "start": start, "end": end}) + "\n")


# -- numpy proxy for numtrunc --------------------------------------------------


def _counting_array_type(stat):
    import numpy as np

    class CountingArray(np.ndarray):
        """ndarray that counts its matrix products; arithmetic unchanged."""

        def _count(self, a, b):
            if a.ndim == 2 and b.ndim == 2:
                m, k = a.shape
                n = b.shape[1]
                out_type = np.result_type(a, b)
                per_mac = 8 if np.issubdtype(out_type, np.complexfloating) else 2
                stat["matmuls"] += 1
                stat["matmul_flops"] += per_mac * m * k * n
                stat["matmul_bytes"] += (m * k + k * n + m * n) * np.dtype(out_type).itemsize
                stat["matrix_dim"] = max(stat["matrix_dim"], m, k, n)

        def __matmul__(self, other):
            self._count(self, np.asarray(other))
            return super().__matmul__(other)

        def __rmatmul__(self, other):
            self._count(np.asarray(other), self)
            return super().__rmatmul__(other)

    return CountingArray


class _CountingNumpy:
    """Stands in for numpy inside numtrunc; array results count matmuls."""

    def __init__(self, np, stat):
        self._np = np
        self._array_type = _counting_array_type(stat)

    def __getattr__(self, attr):
        value = getattr(self._np, attr)
        if not callable(value) or isinstance(value, type):
            return value
        np, array_type = self._np, self._array_type

        def call(*args, **kwargs):
            result = value(*args, **kwargs)
            if type(result) is np.ndarray:
                return result.view(array_type)
            return result

        return call

