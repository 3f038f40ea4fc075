"""Per-layer tracing of the ``hofa`` package from outside the package.

``LayerTracer.install`` replaces every function and method defined in a
layer module (one ``hofa`` submodule per layer) with a wrapper, in every
layer namespace that bound it by name, so ``pipeline._shift_table`` and
``analysis._shift_table`` both reach the same wrapper.  A wrapper records a
span only when control crosses into its layer from another layer (or from
the benchmark itself); calls inside one layer pass straight through.  A
layer's self time is the duration of its spans minus the part covered by
their child spans, which by construction belong to other layers.

Work counters are computed from call arguments by hooks that run on every
call, also inside one layer.  Spans are kept in memory and written out when
the run ends.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "fpspace",
    "torus",
    "cyclotomic",
    "ncpoly",
    "mforms",
    "rank",
    "integrate",
    "symmetrize",
    "analysis",
    "pipeline",
    "serialize",
)

# Inclusive wall time of these functions, per operation; every ``load_*``
# function of ``serialize`` also counts toward ``serialize.load_s``.  The two
# derandomization routines share one metric so that merging them keeps it.
STAGE_TIMERS = {
    ("pipeline", "derivative_sum_cube"): "pipeline.derivative_cube_s",
    ("pipeline", "find_triaffine"): "pipeline.find_triaffine_s",
    ("pipeline", "witness_from_function"): "pipeline.witness_s",
    ("pipeline", "derandomize_indicator"): "pipeline.derandomize_s",
    ("pipeline", "_derandomize_linear"): "pipeline.derandomize_s",
    ("pipeline", "bilinear_cleanup"): "pipeline.cleanup_s",
}
LOAD_TIMER = "serialize.load_s"

# counters reported per operation, with their units
COUNTER_UNITS = {
    "mforms.eval_calls": "calls/op",
    "rank.verify_calls": "calls/op",
    "rank.verify_tuples": "tuples/op",
    "rank.prank_table_builds": "calls/op",
    "rank.analytic_rank_calls": "calls/op",
    "fpspace.mat_rank_calls": "calls/op",
    "cyclotomic.mul_arrays_calls": "calls/op",
    "cyclotomic.mul_coeff_products": "products/op",
    "analysis.gowers_calls": "calls/op",
    "serialize.load_s": "s/op",
    "serialize.bytes_parsed": "bytes/op",
    "analysis.u3_candidates": "cands/op",
    "analysis.octolinear_terms": "terms/op",
    "pipeline.derivative_cube_s": "s/op",
    "pipeline.find_triaffine_s": "s/op",
    "pipeline.witness_s": "s/op",
    "pipeline.derandomize_s": "s/op",
    "pipeline.cleanup_s": "s/op",
    "pipeline.measure_state_calls": "calls/op",
    "symmetrize.seven_correlation_calls": "calls/op",
    "symmetrize.three_correlation_calls": "calls/op",
    "integrate.integrate_calls": "calls/op",
    "ncpoly.evaluate_calls": "calls/op",
}

# Object plumbing stays unwrapped: construction and attribute setting would
# change meaning under a wrapper, and their time counts toward the caller.
_SKIP_METHODS = {"__init__", "__new__", "__setattr__", "__delattr__", "__repr__", "__init_subclass__"}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class LayerTracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"hofa.{name}") for name in LAYERS}
        self.layer_of_module = {m.__name__: name for name, m in self.modules.items()}
        self.names: list[str] = []  # span name table
        self._name_ids: dict[str, int] = {}
        # one row per span: name id, layer id, start, end, parent row, op id
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._layer = -1  # layer id of the innermost open span
        self._span = -1  # row of the innermost open span
        self._suspended = False
        self._timer_depth: Counter = Counter()
        self._undo: list = []
        self._wrapped: dict = {}
        self._hooks = self._make_hooks()

    # -- counters computed from call arguments --

    def _make_hooks(self):
        c = self.counters
        mods = self.modules

        def count(key):
            def hook(args, kwargs):
                c[key] += 1

            return hook

        def verify(args, kwargs):
            cert = _arg(args, kwargs, 0, "cert")
            budget = _arg(args, kwargs, 2, "budget") or mods["rank"].DEFAULT_BUDGET
            f = cert.claimed_form
            full = f.p ** (f.n * f.k)
            cap = min(budget.enum_cap, 1 << 16)
            c["rank.verify_calls"] += 1
            c["rank.verify_tuples"] += full if full <= cap else _arg(args, kwargs, 1, "sample_points", 10_000)

        def mul_arrays(args, kwargs):
            R, A, B = args[0], _arg(args, kwargs, 1, "A"), _arg(args, kwargs, 2, "B")
            size = math.prod(np.broadcast_shapes(np.shape(A)[1:], np.shape(B)[1:]))
            c["cyclotomic.mul_arrays_calls"] += 1
            c["cyclotomic.mul_coeff_products"] += size * R.degree * R.degree

        def gowers(args, kwargs):
            fn, d = args[0], _arg(args, kwargs, 1, "d")
            c["analysis.gowers_calls"] += 1
            if fn.p == 2 and d <= 4 and fn.exact and fn.restricted_exps() is not None:
                c["analysis.gowers_fast_calls"] += 1

        def u3(args, kwargs):
            fn = args[0]
            classical_only = _arg(args, kwargs, 1, "classical_only", False)
            tuples = mods["analysis"]._quadratic_candidates(fn.p, fn.n, classical_only)[0]
            c["analysis.u3_candidates"] += fn.p ** len(tuples)

        def octolinear(args, kwargs):
            f0 = _arg(args, kwargs, 0, "gs")[0]
            c["analysis.octolinear_terms"] += f0.p ** (3 * f0.n)

        def loads(args, kwargs):
            if self._timer_depth[LOAD_TIMER] == 0:  # outermost load only
                c["serialize.bytes_parsed"] += len(_arg(args, kwargs, 0, "text"))

        hooks = {
            ("mforms", "MultilinearForm.eval"): count("mforms.eval_calls"),
            ("rank", "verify_certificate"): verify,
            ("rank", "prank_table"): count("rank.prank_table_builds"),
            ("rank", "analytic_rank"): count("rank.analytic_rank_calls"),
            ("fpspace", "mat_rank"): count("fpspace.mat_rank_calls"),
            ("cyclotomic", "CycloRing.mul_arrays"): mul_arrays,
            ("analysis", "gowers_norm"): gowers,
            ("analysis", "u3_inverse_bruteforce"): u3,
            ("analysis", "octolinear_average"): octolinear,
            ("pipeline", "measure_state"): count("pipeline.measure_state_calls"),
            ("pipeline", "_measure_with_expo"): count("pipeline.measure_state_calls"),
            ("symmetrize", "seven_correlation"): count("symmetrize.seven_correlation_calls"),
            ("symmetrize", "three_correlation"): count("symmetrize.three_correlation_calls"),
            ("integrate", "integrate_ncsm"): count("integrate.integrate_calls"),
            ("integrate", "integrate_csm"): count("integrate.integrate_calls"),
            ("ncpoly", "NcPoly.evaluate"): count("ncpoly.evaluate_calls"),
        }
        for name in dir(mods["serialize"]):
            if name.startswith("load_"):
                hooks[("serialize", name)] = loads
        return hooks

    # -- wrapping --

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, layer: str, qual: str):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key][1]
        tr = self
        lid = LAYERS.index(layer)
        nid = self._name_id(f"{layer}.{qual}")
        spans = self.spans
        hook = self._hooks.get((layer, qual))
        timer = STAGE_TIMERS.get((layer, qual))
        if layer == "serialize" and qual.startswith("load_"):
            timer = LOAD_TIMER

        def wrapper(*args, **kwargs):
            if tr._suspended:
                return fn(*args, **kwargs)
            if hook is not None:
                tr._suspended = True
                try:
                    hook(args, kwargs)
                finally:
                    tr._suspended = False
            if timer is not None and tr._timer_depth[timer] == 0:
                tr._timer_depth[timer] += 1
                t0 = perf_counter()
                try:
                    return _span_call(args, kwargs)
                finally:
                    tr.counters[timer] += perf_counter() - t0
                    tr._timer_depth[timer] -= 1
            return _span_call(args, kwargs)

        def _span_call(args, kwargs):
            if tr._layer == lid:
                return fn(*args, **kwargs)
            parent, prev_layer = tr._span, tr._layer
            row = len(spans)
            spans.append(None)
            tr._span, tr._layer = row, lid
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[row] = (nid, lid, t0, perf_counter(), parent, tr.op_id)
                tr._span, tr._layer = parent, prev_layer

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._wrapped[key] = (fn, wrapper)
        return wrapper

    def _defining_layer(self, obj):
        return self.layer_of_module.get(getattr(obj, "__module__", None))

    def _set(self, target, name, value):
        self._undo.append((target, name, target.__dict__[name]))
        setattr(target, name, value)

    def install(self) -> None:
        """Wrap every layer function and method in every layer namespace."""
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(obj, self.layer_of_module[mod.__name__])
                    continue
                layer = self._defining_layer(obj)
                if layer is None or not callable(obj):
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    self._set(mod, name, self._wrap(obj, layer, getattr(obj, "__qualname__", name)))

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name in _SKIP_METHODS:
                continue
            qual = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, layer, qual))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, layer, qual)))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(attr.__func__, layer, qual)))
            elif isinstance(attr, property) and attr.fget is not None:
                self._set(cls, name, property(self._wrap(attr.fget, layer, qual), attr.fset, attr.fdel, attr.__doc__))

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    @property
    def wrapped_count(self) -> int:
        return len(self._wrapped)

    # -- results --

    def layer_table(self):
        """Per-layer (self seconds, span count) over all recorded spans."""
        n = len(self.spans)
        if n == 0:
            return {name: (0.0, 0) for name in LAYERS}
        arr = np.array(self.spans, dtype=np.float64)
        layer = arr[:, 1].astype(np.int64)
        dur = arr[:, 3] - arr[:, 2]
        parent = arr[:, 4].astype(np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for lid, name in enumerate(LAYERS):
            mask = layer == lid
            out[name] = (float(self_t[mask].sum()), int(mask.sum()))
        return out

    def self_shares(self) -> dict:
        table = self.layer_table()
        total = sum(t for t, _ in table.values()) or 1.0
        return {layer: t / total for layer, (t, _) in table.items()}

    def metrics(self, nops: int) -> dict:
        """Per-operation layer self times, layer entries and counters."""
        out = {}
        for layer, (self_s, calls) in self.layer_table().items():
            out[f"{layer}.self_s"] = (self_s / nops, "s/op")
            out[f"{layer}.calls"] = (calls / nops, "calls/op")
        c = self.counters
        for name, unit in COUNTER_UNITS.items():
            out[name] = (c[name] / nops, unit)
        gc = c["analysis.gowers_calls"]
        out["analysis.fast_path_frac"] = (c["analysis.gowers_fast_calls"] / gc if gc else 0.0, "frac")
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, layer, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "layers": list(LAYERS)}) + "\n")
            for nid, lid, t0, t1, parent, op in self.spans:
                fh.write(f"[{nid},{lid},{t0:.9f},{t1:.9f},{parent},{op}]\n")
