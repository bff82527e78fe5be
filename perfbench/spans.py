"""Span tracing from outside the program.

The traced run replaces public callables of the ``bitension`` modules (module
attributes, class attributes and every other module-level reference to the
same object, such as ``from .config import load_config`` bindings or the
``expr._CALLS`` table) with wrappers that record a span per call.  ``src/``
is not modified: :meth:`Tracer.installed` restores every original on exit.

A span is (name, start, end, parent, pass id).  Spans stay in memory and are
written out once, by :meth:`Tracer.dump`.
"""
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

BYTES_PER_PAIR = 24  # two float64 operands read and one product written


def _pairs(num_vars, order):
    """Coefficient pairs (alpha, beta) with |alpha| + |beta| <= order."""
    return math.comb(2 * num_vars + order, order)


class Tracer:
    """Records spans and counts around wrapped callables."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name_id, start, end, parent, pass_id]
        self.counts = {}
        self.pass_id = 0
        self._stack = []
        self._patches = []  # (owner, attribute or key, original)

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _call(self, name_id, fn, args, kwargs):
        span = [name_id, 0.0, 0.0,
                self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        """A wrapper recording one span per call; ``on_result(tracer,
        result)`` may add counts read from the return value."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            result = self._call(name_id, fn, args, kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_mul(self, fn, jet_type):
        """``Jet.__mul__``: jet x jet products get a span and pair counts;
        products with plain numbers pass straight through."""
        name_id = self._name_id("jets.mul")

        def traced(a, b):
            if not isinstance(b, jet_type):
                return fn(a, b)
            order = min(a.order, b.order)
            batch = np.broadcast_shapes(a.coeffs.shape[:-1],
                                        b.coeffs.shape[:-1])
            self.count("jets.mul_pairs",
                       _pairs(a.num_vars, order) * math.prod(batch))
            return self._call(name_id, fn, (a, b), {})
        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------------

    def patch(self, modules, owner, attr, replacement):
        """Replace ``owner.attr`` and every module-level reference to the same
        object in ``modules`` (globals and dicts held in globals)."""
        original = vars(owner)[attr]
        is_property = isinstance(original, property)
        if is_property:
            replacement = property(replacement, original.fset, original.fdel,
                                   original.__doc__)
        for name, value in list(vars(owner).items()):
            if value is original:
                self._patches.append((owner, name, value))
                setattr(owner, name, replacement)
        if is_property:  # a property is reachable only through its class
            return
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, value))
                    setattr(module, name, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, item))
                            value[key] = replacement

    def unpatch(self):
        for owner, name, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._patches.clear()

    @contextmanager
    def installed(self, install):
        """Run the body with the wrappers ``install(self)`` puts in place."""
        install(self)
        try:
            yield self
        finally:
            self.unpatch()

    # -- reading -----------------------------------------------------------------

    def _of(self, name):
        nid = self._name_ids.get(name)
        return [i for i, s in enumerate(self.spans) if s[0] == nid]

    def _has_ancestor(self, index, name_id):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name_id:
                return True
            parent = self.spans[parent][3]
        return False

    def _outermost(self, name):
        nid = self._name_ids.get(name)
        return [i for i in self._of(name) if not self._has_ancestor(i, nid)]

    def _duration(self, index):
        return self.spans[index][2] - self.spans[index][1]

    def calls(self, name):
        return len(self._of(name))

    def inclusive_s(self, name):
        """Time inside spans of ``name``, counting nested repeats once."""
        return sum(self._duration(i) for i in self._outermost(name))

    def net_s(self, name, inner):
        """Time inside spans of ``name`` minus the time of the outermost
        ``inner`` spans nested anywhere below them."""
        nid = self._name_ids.get(name)
        nested = [i for i in self._outermost(inner)
                  if self._has_ancestor(i, nid)]
        return self.inclusive_s(name) - sum(self._duration(i) for i in nested)

    def self_s(self, name):
        """Time inside spans of ``name`` not covered by their child spans."""
        child = {}
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
        return sum(self._duration(i) - child.get(i, 0.0)
                   for i in self._of(name))

    def dump(self, path):
        """Write every span and count as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": [[self.names[s[0]]] + s[1:]
                                 for s in self.spans],
                       "counts": self.counts}, out)
            out.write("\n")


def _count_checks(tracer, rep):
    tracer.count("catalog.checks", len(rep.checks))
    tracer.count("catalog.checks_errored",
                 sum(1 for c in rep.checks if c.max_abs is None))


def install_bitension(tracer):
    """Wrap the public entry points of every bitension module."""
    from bitension import (catalog, charts, cli, config, conformal, cylinder,
                           expr, geometry, jets, report, surfaces,
                           weierstrass)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bitension" or name.startswith("bitension.")]

    def wrap(owner, attr, name, on_result=None):
        original = vars(owner)[attr]
        fn = original.fget if isinstance(original, property) else original
        tracer.patch(modules, owner, attr, tracer.wrap(name, fn, on_result))

    tracer.patch(modules, jets.Jet, "__mul__",
                 tracer.wrap_mul(jets.Jet.__mul__, jets.Jet))
    for fn in ("exp", "ln", "sin", "cos", "sqrt", "divide", "power"):
        wrap(jets, fn, "jets.elementary")
    wrap(expr, "evaluate", "expr.evaluate")
    wrap(charts.ChartDomain, "sample", "charts.sample",
         lambda t, pts: t.count("charts.points_sampled", len(pts)))
    wrap(geometry.MapState, "__init__", "geometry.mapstate_init")
    for attr, name in (("tension_jets", "tension"),
                       ("bitension_values", "bitension"),
                       ("trace_laplacian", "trace_laplacian"),
                       ("curvature_trace", "curvature_trace"),
                       ("jacobi_of", "jacobi"),
                       ("directional_covariant", "directional_covariant")):
        wrap(geometry.MapState, attr, f"geometry.{name}")
    wrap(geometry, "bienergy", "geometry.bienergy")
    for fn in ("tension_transform_rhs", "jacobi_transform_rhs",
               "bitension_transform_rhs", "bitension_transform_rhs_dim2"):
        wrap(conformal, fn, "conformal.rhs")
    wrap(surfaces, "surface_data", "surfaces.surface_data")
    wrap(surfaces, "r3_system_residual", "surfaces.r3")
    wrap(surfaces, "chen_bitension", "surfaces.chen")
    wrap(weierstrass, "section", "weierstrass.section")
    wrap(weierstrass, "w3_residual", "weierstrass.w3")
    wrap(cylinder, "solve_ode", "cylinder.solve_ode")
    wrap(config, "load_config", "config.load")
    wrap(cli, "main", "cli.main")
    wrap(report, "to_json", "report.render")
    wrap(report, "to_text", "report.render")
    wrap(catalog, "verify_case", "catalog.verify_case", _count_checks)


# span name -> per-layer metric of its inclusive time
_INCLUSIVE = {
    "jets.mul": "jets.mul_s",
    "charts.sample": "charts.sample_s",
    "geometry.mapstate_init": "geometry.mapstate_init_s",
    "geometry.tension": "geometry.tension_s",
    "geometry.bitension": "geometry.bitension_s",
    "geometry.trace_laplacian": "geometry.trace_laplacian_s",
    "geometry.curvature_trace": "geometry.curvature_trace_s",
    "geometry.jacobi": "geometry.jacobi_s",
    "geometry.directional_covariant": "geometry.directional_covariant_s",
    "geometry.bienergy": "geometry.bienergy_s",
    "conformal.rhs": "conformal.rhs_s",
    "surfaces.surface_data": "surfaces.surface_data_s",
    "surfaces.r3": "surfaces.r3_s",
    "surfaces.chen": "surfaces.chen_s",
    "weierstrass.section": "weierstrass.section_s",
    "weierstrass.w3": "weierstrass.w3_s",
    "cylinder.solve_ode": "cylinder.solve_ode_s",
    "config.load": "config.load_s",
    "cli.main": "cli.main_s",
    "report.render": "report.render_s",
}

# span name -> per-layer metric of its call count
_CALLS = {
    "jets.mul": "jets.mul_calls",
    "jets.elementary": "jets.elementary_calls",
    "expr.evaluate": "expr.evaluate_calls",
    "geometry.mapstate_init": "geometry.mapstate_builds",
    "conformal.rhs": "conformal.rhs_calls",
    "surfaces.surface_data": "surfaces.surface_data_calls",
    "weierstrass.section": "weierstrass.section_calls",
}


def layer_metrics(tracer):
    """Per-layer metrics, as name -> (value, unit), over every span traced."""
    out = {}
    for span, metric in _CALLS.items():
        out[metric] = (tracer.calls(span), "count")
    for span, metric in _INCLUSIVE.items():
        out[metric] = (tracer.inclusive_s(span), "s")
    pairs = tracer.counts.get("jets.mul_pairs", 0)
    out["jets.mul_pairs"] = (pairs, "count")
    out["jets.mul_bytes_computed"] = (pairs * BYTES_PER_PAIR, "B")
    out["expr.evaluate_s"] = (tracer.self_s("expr.evaluate"), "s")
    out["geometry.mapstate_init_self_s"] = (
        tracer.net_s("geometry.mapstate_init", "expr.evaluate"), "s")
    out["charts.points_sampled"] = (
        tracer.counts.get("charts.points_sampled", 0), "count")
    checks = tracer.counts.get("catalog.checks", 0)
    builds = out["geometry.mapstate_builds"][0]
    out["catalog.checks"] = (checks, "count")
    out["catalog.checks_errored"] = (
        tracer.counts.get("catalog.checks_errored", 0), "count")
    out["catalog.checks_per_state"] = (checks / builds if builds else 0.0,
                                       "ratio")
    return dict(sorted(out.items()))
