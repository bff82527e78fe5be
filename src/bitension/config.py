"""Plain-text run configs: named charts, metrics, maps, and checks.

The format is INI-style with typed section headers::

    [chart NAME]    coords = u v        box = lo:hi lo:hi   (one per coord)
                    exclude = coord:value ...               (optional)
    [params]        name = number ...
    [metric NAME]   chart = CHART, then exactly one of
                      identity = yes
                      conformal = EXPR          (factor multiplying the
                                                 identity components)
                      g_i_j = EXPR entries      (1-based, symmetric; every
                                                 diagonal required, missing
                                                 off-diagonals are zero)
    [map NAME]      from = CHART   to = CHART   components = one EXPR per line
    [factor NAME]   chart = CHART  expr = EXPR  (a conformal scale lambda)
    [check KIND]    tol = number   (optional, positive and finite; KIND names
                                    a known check)
    [run]           map = MAP, metric = METRIC, target = METRIC, and
                    optionally induced = METRIC, factor = FACTOR,
                    samples = int, seed = int, name = label

Everything is validated statically before any geometry is evaluated:
referenced names must exist, dimensions must agree, and every expression's
free names must be coordinates of its chart or [params] entries.  Violations
raise ConfigError with the file and section spelled out.
"""
from __future__ import annotations

import configparser
import math
import os.path
from dataclasses import dataclass

from . import catalog, expr
from .charts import ChartDomain, RiemannianMetric, SmoothMap
from .conformal import ConformalFactor


class ConfigError(Exception):
    """A config file that cannot be accepted; message says where and why."""


_SECTION_KINDS = ("chart", "params", "metric", "map", "factor", "check", "run")


@dataclass
class RunConfig:
    """A fully validated run description, ready to assemble.  Every
    expression carries the [params] it may read: the map and metrics as
    their ``parameters``, the factor as a :class:`ConformalFactor`."""
    name: str
    phi: SmoothMap
    metric: RiemannianMetric
    target: RiemannianMetric
    induced: RiemannianMetric = None
    factor: ConformalFactor = None  # the conformal scale lambda
    checks: tuple = ()       # ordered (kind, tol-or-None)
    samples: int = None
    seed: int = None

    def build_case(self):
        return catalog.custom_case(self.name, self.phi, self.metric,
                                   self.target, self.checks,
                                   induced=self.induced, factor=self.factor)


def _fail(where, message):
    raise ConfigError(f"{where}: {message}")


def _parse_float(where, key, raw):
    try:
        return float(raw)
    except ValueError:
        _fail(where, f"{key} must be a number, got {raw!r}")


def _parse_int(where, key, raw):
    try:
        return None if raw is None else int(raw)
    except ValueError:
        _fail(where, f"{key} must be an integer, got {raw!r}")


def _take(where, body, *keys):
    """The values of ``keys`` in a section body (None where absent); any
    other key left in the body is an error."""
    values = tuple(body.pop(key, None) for key in keys)
    if body:
        _fail(where, f"unknown key {sorted(body)[0]!r}")
    return values


def _ref(where, key, name, table, label):
    """The entry of ``table`` that ``key = name`` refers to."""
    if name not in table:
        _fail(where, f"{key} = {name!r} does not name a [{label}] section")
    return table[name]


def _parse_expr(where, source, allowed, parameters):
    """The tree of ``source``, once its free names are checked: callers pass
    it on, so each config expression is parsed once."""
    try:
        node = expr.parse(source)
    except expr.ExprError as err:
        _fail(where, f"cannot parse {source!r}: {err}")
    loose = expr.free_names(node) - set(allowed) - set(parameters)
    if loose:
        name = sorted(loose)[0]
        _fail(where, f"unbound name '{name}' in {source!r}")
    return node


def _split_header(raw, path):
    parts = raw.split()
    kind = parts[0]
    if kind not in _SECTION_KINDS:
        _fail(f"{path} [{raw}]", "unknown section kind "
              f"(expected one of {', '.join(_SECTION_KINDS)})")
    if kind in ("params", "run"):
        if len(parts) != 1:
            _fail(f"{path} [{raw}]", f"section [{kind}] takes no name")
        return kind, None
    if len(parts) != 2:
        _fail(f"{path} [{raw}]", f"section [{kind}] needs exactly one name")
    return kind, parts[1]


def _build_chart(where, body):
    coords, raw_box, exclude = ((raw or "").split() for raw in _take(
        where, body, "coords", "box", "exclude"))
    coords = tuple(coords)
    if not coords:
        _fail(where, "coords is required")
    if len(set(coords)) != len(coords):
        _fail(where, "coordinate names must be distinct")
    if len(raw_box) != len(coords):
        _fail(where, f"box needs {len(coords)} lo:hi intervals, "
              f"got {len(raw_box)}")
    box = []
    for piece in raw_box:
        lo, colon, hi = piece.partition(":")
        if not colon:
            _fail(where, f"box interval {piece!r} is not lo:hi")
        lo = _parse_float(where, "box", lo)
        hi = _parse_float(where, "box", hi)
        if not lo < hi:
            _fail(where, f"box interval ({lo:g}, {hi:g}) is empty")
        if not math.isfinite(hi - lo):
            _fail(where, f"box interval ({lo:g}, {hi:g}) has no finite width")
        box.append((lo, hi))
    excluded = []
    for piece in exclude:
        name, colon, value = piece.partition(":")
        if not colon or name not in coords:
            _fail(where, f"exclude entry {piece!r} is not coord:value")
        excluded.append((coords.index(name),
                         _parse_float(where, "exclude", value)))
    return ChartDomain(coords, tuple(box), tuple(excluded))


def _build_metric(where, body, charts, parameters):
    entries = {k: body.pop(k) for k in list(body) if k.startswith("g_")}
    chart_name, identity, conformal = _take(where, body, "chart", "identity",
                                            "conformal")
    dom = _ref(where, "chart", chart_name, charts, "chart")
    styles = sum(x is not None for x in (identity, conformal)) + bool(entries)
    if styles != 1:
        _fail(where, "give exactly one of identity, conformal, or g_i_j "
              "entries")
    if identity is not None:
        if identity.lower() not in ("yes", "true", "1", "on"):
            _fail(where, f"identity = {identity!r} (say yes)")
        return RiemannianMetric.euclidean(dom), chart_name
    if conformal is not None:
        node = _parse_expr(where, conformal, dom.coords, parameters)
        return (RiemannianMetric.conformally_flat(dom, node, dict(parameters)),
                chart_name)
    m = dom.dim
    # an entry and its mirror share one tree, as do the missing entries
    zero = expr.parse("0")
    rows = [[zero] * m for _ in range(m)]
    for key, source in entries.items():
        parts = key.split("_")
        try:
            i, j = int(parts[1]), int(parts[2])
        except (IndexError, ValueError):
            _fail(where, f"entry key {key!r} is not of the form g_i_j")
        if not (1 <= i <= m and 1 <= j <= m):
            _fail(where, f"entry {key} is outside a {m}x{m} metric")
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = _parse_expr(
            where, source, dom.coords, parameters)
    for i in range(m):
        if rows[i][i] is zero:
            _fail(where, f"diagonal entry g_{i+1}_{i+1} is required")
    return (RiemannianMetric.from_components(dom, rows, dict(parameters)),
            chart_name)


def _build_map(where, body, charts, parameters):
    source_name, target_name, components = _take(where, body, "from", "to",
                                                 "components")
    dom = _ref(where, "from", source_name, charts, "chart")
    tgt = _ref(where, "to", target_name, charts, "chart")
    comps = [line.strip() for line in (components or "").splitlines()
             if line.strip()]
    if len(comps) != tgt.dim:
        _fail(where, f"need {tgt.dim} components for chart "
              f"'{target_name}', got {len(comps)}")
    comps = [_parse_expr(where, source, dom.coords, parameters)
             for source in comps]
    return (SmoothMap.from_components(dom, tgt, comps, dict(parameters)),
            source_name, target_name)


def load_config(path):
    """Parse and statically validate one run config file."""
    parser = configparser.RawConfigParser(
        delimiters=("=",), comment_prefixes=("#",), strict=True,
        inline_comment_prefixes=None)
    parser.optionxform = str
    try:
        with open(path) as handle:
            parser.read_file(handle, source=str(path))
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}")
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}")

    sections = []
    for raw in parser.sections():
        kind, name = _split_header(raw, path)
        sections.append((kind, name, dict(parser.items(raw))))

    parameters = {}
    for kind, name, body in sections:
        if kind == "params":
            for key, raw in body.items():
                parameters[key] = _parse_float(f"{path} [params]", key, raw)

    charts = {}
    for kind, name, body in sections:
        if kind == "chart":
            charts[name] = _build_chart(f"{path} [chart {name}]", body)

    # metrics and factors keep the name of their chart beside them
    metrics, maps, factors, checks = {}, {}, {}, []
    for kind, name, body in sections:
        where = f"{path} [{kind} {name}]"
        if kind == "metric":
            metrics[name] = _build_metric(where, body, charts, parameters)
        elif kind == "map":
            maps[name] = _build_map(where, body, charts, parameters)
        elif kind == "factor":
            chart_name, source = _take(where, body, "chart", "expr")
            dom = _ref(where, "chart", chart_name, charts, "chart")
            if source is None:
                _fail(where, "expr is required")
            node = _parse_expr(where, source, dom.coords, parameters)
            factors[name] = ConformalFactor(node, dict(parameters)), chart_name
        elif kind == "check":
            if name not in catalog.CHECK_KINDS:
                known = ", ".join(sorted(catalog.CHECK_KINDS))
                _fail(where, f"unknown check kind (choose from {known})")
            tol, = _take(where, body, "tol")
            if tol is not None:
                tol = _parse_float(where, "tol", tol)
                if not 0 < tol < math.inf:
                    _fail(where, "tol must be positive and finite")
            checks.append((name, tol))

    run = None
    for kind, name, body in sections:
        if kind == "run":
            run = body
    if run is None:
        raise ConfigError(f"{path}: a [run] section is required")
    if not checks:
        raise ConfigError(f"{path}: at least one [check KIND] section is "
                          "required")
    where = f"{path} [run]"
    (map_name, metric_name, target_name, induced_name, factor_name, samples,
     seed, label) = _take(where, run, "map", "metric", "target", "induced",
                          "factor", "samples", "seed", "name")
    for key, name in (("map", map_name), ("metric", metric_name),
                      ("target", target_name)):
        if name is None:
            _fail(where, f"{key} is required")
    phi, from_chart, to_chart = _ref(where, "map", map_name, maps, "map")
    metric, metric_chart = _ref(where, "metric", metric_name, metrics,
                                "metric")
    target, target_chart = _ref(where, "target", target_name, metrics,
                                "metric")
    induced, induced_chart = (None, None) if induced_name is None else _ref(
        where, "induced", induced_name, metrics, "metric")
    factor, factor_chart = (None, None) if factor_name is None else _ref(
        where, "factor", factor_name, factors, "factor")

    if metric_chart != from_chart:
        _fail(where, f"metric '{metric_name}' lives on chart "
              f"'{metric_chart}' but map '{map_name}' starts "
              f"from '{from_chart}'")
    if target_chart != to_chart:
        _fail(where, f"target '{target_name}' lives on chart "
              f"'{target_chart}' but map '{map_name}' lands "
              f"in '{to_chart}'")
    if induced_name and induced_chart != from_chart:
        _fail(where, f"induced '{induced_name}' must live on chart "
              f"'{from_chart}'")
    if factor_name and factor_chart != from_chart:
        _fail(where, f"factor '{factor_name}' must live on chart "
              f"'{from_chart}'")
    given = {"induced": induced_name, "factor": factor_name}
    for kind, _ in checks:
        for key in catalog.CHECK_KINDS[kind][2]:
            if given[key] is None:
                _fail(where, f"check '{kind}' needs {key} = NAME")

    samples = _parse_int(where, "samples", samples)
    seed = _parse_int(where, "seed", seed)
    if samples is not None and samples <= 0:
        _fail(where, "samples must be positive")

    default_label = os.path.splitext(os.path.basename(str(path)))[0]
    return RunConfig(
        name=label or default_label, phi=phi, metric=metric, target=target,
        induced=induced, factor=factor, checks=tuple(checks),
        samples=samples, seed=seed)
