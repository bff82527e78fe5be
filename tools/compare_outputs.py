"""Dump the outputs of a checkout and compare two dumps byte by byte.

A refactor that must not move a single bit (zero signs included) is checked
by dumping the outputs of the parent checkout and of the change, each in a
fresh process, and diffing the two files:

    python3 tools/compare_outputs.py dump --root PARENT --seed 0 --out a.txt
    python3 tools/compare_outputs.py dump --root . --seed 0 --out b.txt
    python3 tools/compare_outputs.py diff a.txt b.txt

``dump`` imports ``bitension`` from ``ROOT/src`` and builds its inputs with
the setup functions of ``ROOT/perfbench/workloads.py``, which it only reads.
It writes one line per output: the three law sides (direct and right-hand
side, m = 2..5) of the law sweep, one-shot and from ``conformal.law_sides``;
every catalog case, negative control and cylinder grid member as a JSON
report, with the controls that take parameters also run at identity m = 2
and both cylinders at R = 2; the ``catalog verify NAME`` text of every case
and of the README's ``--param`` run; the complex-coordinate lane (both
conformality sums, the W3 residual, the bitension and the
nonholomorphicity of ``weierstrass``) and the direct bitension residual of
every Weierstrass pool case, and the same lane for ``r2_wrap_r3``,
``r2_wrap_r6``, ``plane_inclusion`` and their negative controls at the
catalog's sample points; the library one-shots ``metric_jets`` (its
coefficients), ``christoffel`` and ``curvature_tensor`` of the domain
metric, ``pullback_metric`` of the target metric and
``conformality_factor`` (lambda^2 and ``max_residual``) on every catalog
case geometry at the catalog's sample points, or the error one raises; the
``custom verify`` (JSON), ``weierstrass check`` and ``check-transform``
(m = 2..5, text) outputs of the CLI over the shipped configs, and the
error paths and exit codes of the CLI: ``cylinder solve`` passing and
failing its tolerance, overflowing at radius 0.002, given C1 = nan or
radius inf and given 10**20 steps, ``catalog verify cylinder_family`` on
the inadmissible member R = 0.001, C1 = 0 and at R = nan and R = 0,
``catalog verify isometric_cylinder`` at R = nan, R = inf, R = -2, R = 0 and
R = 10**400, an integer beyond float range, ``catalog verify identity`` at
m = 10**400,
``weierstrass check`` on ``isometric_cylinder`` at R = inf and R = -2, on
``h5_inclusion`` (no 2d domain), on the ``r2_wrap_r3`` config with its
domain metric made to overflow and on that config with its map made the
constant (0, 0, 0), and
``custom verify`` (JSON) of a domain metric diag(u - 0.7, 1) that is not
positive definite on part of ``[0.5, 1]^2``, of the map (1e200 u^2, v),
whose tension overflows the target inner product, of (u, v, 3u) on
``[-1, 1]^2``, whose image leaves the cube ``(-2, 2)^3``, of
(u, v, ln(u - 0.7)) and (u, v, exp(800 u)) on ``[0.5, 1]^2``, a jet domain
fault and a ufunc overflow, of (u, v, u^1e400) on ``[0.5, 1]^2``, a
power with an infinite exponent, of (u, v, u) on ``[0.5, inf)^2``, a chart
of infinite width, and of ``cylinder_family.cfg`` with its factor made
z - 0.5, which turns negative, or with its declared induced metric's g_2_2
made 1 + z, which the pullback does not match (each config written to a
temporary directory, which its line reads as TMP); ``check-transform`` with
the negative seed -1; the
``first_variation`` dicts of the quadrature workload;
and, on fixed inputs with sample points drawn from the seed,
``harmonic_biharmonic_condition`` (the totally geodesic inclusion of
hyperbolic 4-space in hyperbolic 5-space), both conformal-immersion
residuals (a cylinder with domain metric exp(y) flat) and
``bitension_transform_rhs_dim2`` (a seeded m = 2 transform family); and
``expr.to_source`` with the sorted ``expr.free_names`` of
every expression of the catalog cases, their negative controls and the
shipped configs.  No ``check-transform`` overflow is dumped: no input
reaches one without replacing ``conformal.law_sides``.  A CLI run that
raises out of ``cli.main`` is dumped as exit 1 with the exception on
stderr, as a process would end.  Arrays are written
as their dtype, shape and raw bytes in hex, and floats by ``float.hex``, so
two dumps are equal exactly when every output has the same bits.  ``diff``
exits 1 if any line differs and prints, for each, how far apart the two
sides are: for an array, the largest
absolute difference, that difference over the array's largest magnitude and
the largest relative difference; for ``float.hex`` values, both differences
key by key; for a CLI line whose exit code moved, both codes (and where its
output text differs); for any other text line, the first offset at which it
differs and, when the texts differ in numbers only, the largest move among
them.  When any line differs, it then prints the largest absolute
difference over every array and ``float.hex`` output, with the output it is
found in.  Its last line counts the outputs whose verdict moved: a CLI line
whose exit code moved or whose verdict tokens differ (each JSON ``"pass"``
flag, each PASS or FAIL of a text report, its ``overall:`` line included,
and each ``verdict:`` line), or any other text line that differs in words
(anything but its numbers); a CLI line whose error text alone changes
moves no verdict.  The relative difference of two numbers is |a - b| /
max(|a|, |b|), which is large for values that are zero up to rounding.
"""
import argparse
import ast
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np


def _array(value):
    a = np.ascontiguousarray(value)
    return f"{a.dtype.str} {a.shape} {a.tobytes().hex()}"


def _floats(d):
    return " ".join(f"{k}={float(v).hex()}" for k, v in sorted(d.items()))


def _cli(cli, argv):
    """The exit code, stdout and stderr of one CLI run; an exception that
    escapes ``cli.main`` reads as a process ends on it: exit 1, with its type
    and text on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return repr((code, out.getvalue(), err.getvalue()))


def _dump(root, seed, out):
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from bitension import catalog, cli, conformal, geometry, report, weierstrass

    def emit(name, text):
        out.write(f"{name}\t{text}\n")

    for fam in workloads.law_setup(seed, root):
        for law, (direct, via) in workloads._LAWS.items():
            emit(f"law {law} m={fam.m} direct", _array(direct(fam)))
            emit(f"law {law} m={fam.m} rhs", _array(via(fam)))
        sides = conformal.law_sides(fam.phi, fam.g, fam.h, fam.fld, fam.fac,
                                    fam.x)
        for law, pair in sides.items():
            for side, value in zip(("direct", "rhs"), pair):
                emit(f"law_sides {law} m={fam.m} {side}", _array(value))

    inputs = workloads.catalog_setup(seed, root)

    def verify(case):
        return repr(report.to_json(workloads._verify(inputs, case)))

    for name, case in inputs.cases:
        emit(f"case {name}", verify(case))
    for name, control, key in inputs.controls:
        emit(f"control {name} {key}", verify(control))
    for name, params in (("identity", {"m": 2}),
                         ("isometric_cylinder", {"R": 2.0}),
                         ("cylinder_family", {"R": 2.0})):
        control, key = catalog.negative_control(name, **params)
        emit(f"control {name} {sorted(params.items())} {key}",
             verify(control))
    for params, case in inputs.grid:
        emit(f"grid {sorted(params.items())}", verify(case))
    seed_arg = ["--seed", str(inputs.sample_seed)]
    for name, _ in inputs.cases:
        emit(f"catalog verify {name}", _cli(cli, [
            "catalog", "verify", name] + seed_arg))
    readme_params = ["--param", "R=0.5", "--param", "C1=-1"]
    emit("catalog verify cylinder_family " + " ".join(readme_params),
         _cli(cli, ["catalog", "verify", "cylinder_family"] + readme_params
              + seed_arg))

    def lane(label, phi, g, h, pts):
        ws = weierstrass.section(phi, g, h, pts)
        w1, w2 = weierstrass.conformality_sums(ws)
        for key, value in (("w1", w1), ("w2", w2),
                           ("w3", weierstrass.w3_residual(ws)),
                           ("bitension", weierstrass.bitension_complex(ws)),
                           ("nonholomorphicity",
                            weierstrass.nonholomorphicity(ws))):
            emit(f"{label} {key}", _array(value))

    for k, (case, pts) in enumerate(inputs.pool):
        lane(f"pool {k}", case.phi, case.g, case.h, pts)
        emit(f"pool {k} direct", _array(geometry.bitension_field(
            case.phi, case.g, case.h, pts)))
    for name in ("r2_wrap_r3", "r2_wrap_r6", "plane_inclusion"):
        for label, case in ((f"lane {name}", catalog.build_case(name)),
                            (f"lane control {name}",
                             catalog.negative_control(name)[0])):
            phi, g, h = case.geometry
            lane(label, phi, g, h, phi.domain.sample(
                workloads.CATALOG_SAMPLES, inputs.sample_seed))
    for name, case in inputs.cases:
        phi, g, h = case.geometry
        pts = phi.domain.sample(workloads.CATALOG_SAMPLES, inputs.sample_seed)
        for key, shot in _one_shots(geometry, phi, g, h, pts):
            try:
                text = _array(shot())
            except Exception as err:  # an error is an output too
                text = f"error {type(err).__name__}: {err}"
            emit(f"one-shot {name} {key}", text)
    for path in inputs.configs:
        emit(f"custom verify {path.name}", _cli(cli, [
            "custom", "verify", "--config", str(path), "--format", "json"]
            + seed_arg))
        emit(f"weierstrass check {path.name}", _cli(cli, [
            "weierstrass", "check", "--config", str(path)] + seed_arg))
    for m in workloads.LAW_DIMS:
        emit(f"check-transform {m},{m + 1}", _cli(cli, [
            "check-transform", "--dims", f"{m},{m + 1}", "--cases", "10"]
            + seed_arg))
    for label, tol in (("passing", []), ("failing", ["--tol", "1e-16"])):
        emit(f"cylinder solve {label}", _cli(cli, [
            "cylinder", "solve", "--radius", "1", "--c1", "0", "--c2", "2",
            "--sign", "+"] + tol))
    emit("weierstrass check --case h5_inclusion", _cli(cli, [
        "weierstrass", "check", "--case", "h5_inclusion"] + seed_arg))
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in _config_runs(cli, root, tmp, seed_arg):
            emit(label, text)
    emit("catalog verify cylinder_family --param R=0.001 --param C1=0",
         _cli(cli, ["catalog", "verify", "cylinder_family", "--param",
                    "R=0.001", "--param", "C1=0"] + seed_arg))
    for command, value in (("catalog verify isometric_cylinder", "R=nan"),
                           ("catalog verify isometric_cylinder", "R=inf"),
                           ("catalog verify cylinder_family", "R=nan"),
                           ("weierstrass check --case isometric_cylinder",
                            "R=inf"),
                           ("catalog verify isometric_cylinder", "R=-2"),
                           ("catalog verify isometric_cylinder", "R=0"),
                           ("catalog verify cylinder_family", "R=0"),
                           ("weierstrass check --case isometric_cylinder",
                            "R=-2")):
        emit(f"{command} --param {value}", _cli(
            cli, command.split() + ["--param", value] + seed_arg))
    for command, key in (("catalog verify isometric_cylinder", "R"),
                         ("catalog verify identity", "m")):
        emit(f"{command} --param {key}=10**400", _cli(
            cli, command.split() + ["--param", f"{key}={10 ** 400}"]
            + seed_arg))
    emit("check-transform --dims 2,3 --cases 2 --seed -1", _cli(cli, [
        "check-transform", "--dims", "2,3", "--cases", "2", "--seed", "-1"]))
    for label, radius, c1 in (("--radius 0.002", "0.002", "0"),
                              ("--c1 nan", "1", "nan"),
                              ("--radius inf", "inf", "0")):
        emit(f"cylinder solve {label}", _cli(cli, [
            "cylinder", "solve", "--radius", radius, "--c1", c1, "--c2",
            "2"]))
    # rejected before any array of that many steps is allocated
    emit("cylinder solve --steps 10**20", _cli(cli, [
        "cylinder", "solve", "--radius", "1", "--c1", "0", "--c2", "2",
        "--steps", str(10 ** 20)]))

    _dump_fixed(seed, emit)

    from bitension import expr
    for label, node in _expressions(root):
        emit(f"expr {label}", repr((expr.to_source(node),
                                    sorted(expr.free_names(node)))))

    quad = workloads.quadrature_setup(seed, root)
    emit("quadrature slab", _floats(geometry.first_variation(
        *quad.slab, eps=0.1, nodes=8)))
    for eps in (1e-2, 5e-3):
        emit(f"quadrature pair eps={eps}", _floats(geometry.first_variation(
            *quad.pair, eps=eps, nodes=24)))


# a custom verify whose domain metric diag(u - 0.7, 1) is not positive
# definite at some samples, and one whose tension 2e200 is finite but
# overflows its squared norm
_BENT = """
[chart sheet]
coords = u v
box = 0.5:1 0.5:1

[chart space]
coords = p q r
box = -2:2 -2:2 -2:2

[metric bent]
chart = sheet
g_1_1 = u - 0.7
g_2_2 = 1

[metric flat3]
chart = space
identity = yes

[map slice]
from = sheet
to = space
components =
    u
    v
    0

[check tension_zero]

[run]
map = slice
metric = bent
target = flat3
samples = 16
"""

_HUGE = """
[chart sheet]
coords = u v
box = 0.5:1 0.5:1

[chart plane]
coords = p q
box = -1e300:1e300 -1e300:1e300

[metric flat2]
chart = sheet
identity = yes

[metric flat]
chart = plane
identity = yes

[map lift]
from = sheet
to = plane
components =
    1e200*u^2
    v

[check tension_nonzero]

[run]
map = lift
metric = flat2
target = flat
samples = 16
"""


# a custom verify of the map (u, v, {2}) from the flat square {0}^2 into the
# flat cube {1}^3: the dump's image that leaves its cube, third component
# that leaves the domain of ln and exp that overflows
_SHEET = """
[chart sheet]
coords = u v
box = {0} {0}

[chart space]
coords = p q r
box = {1} {1} {1}

[metric flat2]
chart = sheet
identity = yes

[metric flat3]
chart = space
identity = yes

[map slice]
from = sheet
to = space
components =
    u
    v
    {2}

[check tension_zero]

[run]
map = slice
metric = flat2
target = flat3
samples = 16
"""


def _config_runs(cli, root, tmp, seed_arg):
    """(label, line) of each CLI run of the dump on a config it writes to
    the directory ``tmp``: ``weierstrass check`` of the overflowing and the
    constant ``r2_wrap_r3`` config, then ``custom verify`` (JSON) of each
    error-path config.  A line reads ``tmp`` as the fixed token TMP, so it
    is the same whichever temporary directory holds the configs."""
    def run(argv):
        return _cli(cli, argv).replace(str(tmp), "TMP")

    wrap = Path(root, "configs", "r2_wrap_r3.cfg").read_text()
    for label, text in (
            ("overflow.cfg", wrap.replace("exp(y/R)", "exp(800*y)")),
            ("constant.cfg", wrap.replace(
                "    R*cos(x/R)\n    R*sin(x/R)\n    y",
                "    0\n    0\n    0"))):
        path = Path(tmp, label)
        path.write_text(text)
        yield f"weierstrass check {label}", run([
            "weierstrass", "check", "--config", str(path)] + seed_arg)
    cylinder = Path(root, "configs", "cylinder_family.cfg").read_text()
    for label, text in (
            ("bent.cfg", _BENT), ("huge.cfg", _HUGE),
            ("off_chart.cfg", _SHEET.format("-1:1", "-2:2", "3*u")),
            ("jet_domain.cfg",
             _SHEET.format("0.5:1", "-2:2", "ln(u - 0.7)")),
            ("ufunc_overflow.cfg",
             _SHEET.format("0.5:1", "-1e300:1e300", "exp(800*u)")),
            ("non_finite_power.cfg",
             _SHEET.format("0.5:1", "-2:2", "u^1e400")),
            ("infinite_box.cfg", _SHEET.format("0.5:inf", "-2:2", "u")),
            ("negative_factor.cfg", cylinder.replace(
                "expr = exp(-z/(2*R))", "expr = z - 0.5")),
            ("induced_mismatch.cfg", cylinder.replace(
                "g_2_2 = 1\n", "g_2_2 = 1 + z\n"))):
        path = Path(tmp, label)
        path.write_text(text)
        yield f"custom verify {label}", run([
            "custom", "verify", "--config", str(path), "--format",
            "json"] + seed_arg)


def _one_shots(geometry, phi, g, h, pts):
    """(key, thunk) of each library one-shot on one geometry at ``pts``:
    the coefficients of ``metric_jets`` of g (one array, entry by entry),
    ``christoffel`` and ``curvature_tensor`` of g, ``pullback_metric`` of
    h, and the lambda^2 of ``conformality_factor`` with its
    ``max_residual`` appended."""
    def coefficients():
        rows = geometry.metric_jets(g, pts)
        return np.stack(np.broadcast_arrays(*[e.coeffs for row in rows
                                              for e in row]))

    def conformality():
        res = geometry.conformality_factor(phi, g, h, pts)
        return np.append(res.lambda_sq, res.max_residual)

    return (("metric_jets", coefficients),
            ("christoffel", lambda: geometry.christoffel(g, pts)),
            ("curvature_tensor", lambda: geometry.curvature_tensor(g, pts)),
            ("pullback_metric", lambda: geometry.pullback_metric(phi, h, pts)),
            ("conformality_factor", conformality))


def _dump_fixed(seed, emit):
    """The conformal criteria on fixed geometries."""
    from bitension import conformal
    from bitension.charts import ChartDomain, RiemannianMetric, SmoothMap

    cube = ChartDomain(("x1", "x2", "x3", "x4"), ((-1.5, 1.5),) * 3
                       + ((0.5, 2.0),))
    half = ChartDomain(("y1", "y2", "y3", "y4", "y5"), ((-3.0, 3.0),) * 4
                       + ((0.1, 3.0),))
    inclusion = SmoothMap.from_components(cube, half,
                                          ("1", "x1", "x2", "x3", "x4"))
    emit("harmonic_biharmonic_condition", _array(
        conformal.harmonic_biharmonic_condition(
            inclusion, RiemannianMetric.conformally_flat(cube, "1/x4^2"),
            RiemannianMetric.conformally_flat(half, "1/y5^2"),
            "exp(0.2*x1 + 0.1*x4^2)", cube.sample(8, 43 + seed))))

    strip = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    space = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    wrap = SmoothMap.from_components(
        strip, space, ("R*cos(x/R)", "R*sin(x/R)", "y"), {"R": 1.3})
    args = (wrap, RiemannianMetric.conformally_flat(strip, "exp(y)"),
            RiemannianMetric.euclidean(space), "exp(-y/2)",
            strip.sample(12, 47 + seed))
    emit("conformal_immersion_residual", _array(
        conformal.conformal_immersion_residual(*args)))
    emit("conformal_immersion_residual_dim2", _array(
        conformal.conformal_immersion_residual_dim2(*args)))

    dom, g, h, phi, _, fac = conformal.random_transform_family(
        2, 4, np.random.default_rng(seed))
    pts = dom.sample(6, 22 + seed)
    emit("bitension_transform_rhs_dim2", _array(
        conformal.bitension_transform_rhs_dim2(
            phi, g, h, fac, np.broadcast_to(pts, (4,) + pts.shape))))


def _expressions(root):
    """(label, tree) of every expression of the catalog cases, their
    negative controls and the configs under ``ROOT/configs``: map and
    metric components in order, then the conformal factor."""
    from bitension import catalog, config, expr

    def inputs(case):  # what the case's checks read
        return case._entries[0][1].args[0]

    owners = [(f"case {n}", inputs(catalog.build_case(n)))
              for n in catalog.CASE_NAMES]
    owners += [(f"control {n}", inputs(catalog.negative_control(n)[0]))
               for n in catalog.CASE_NAMES]
    owners += [(f"config {path.name}", config.load_config(path))
               for path in sorted(Path(root, "configs").glob("*.cfg"))]
    for label, owner in owners:
        for key in ("phi", "g", "metric", "h", "target", "induced", "engine"):
            comps = getattr(getattr(owner, key, None), "components", ())
            flat = [c for row in comps
                    for c in (row if isinstance(row, tuple) else (row,))]
            for k, node in enumerate(flat):
                yield f"{label} {key}[{k}]", node
        # a factor is a ConformalFactor, or at an older checkout a source
        # string or tree
        factor = getattr(owner.factor, "ast", owner.factor)
        if factor is not None:
            yield f"{label} factor", (expr.parse(factor)
                                      if isinstance(factor, str) else factor)


def _decode(text):
    """An array line as its array, a ``float.hex`` line as a dict, else None."""
    dtype, _, rest = text.partition(" ")
    shape, _, data = rest.rpartition(" ")
    try:
        return np.frombuffer(bytes.fromhex(data), dtype).reshape(
            ast.literal_eval(shape))
    except (ValueError, TypeError, SyntaxError):
        pass
    try:
        return {k: float.fromhex(v) for k, v in
                (item.split("=", 1) for item in text.split(" "))}
    except ValueError:
        return None


def _moves(a, b):
    """|a - b| and |a - b| / max(|a|, |b|) elementwise, 0 where the two are
    equal (NaN to NaN included) and inf where only one is NaN."""
    a, b = np.ravel(a), np.ravel(b)
    with np.errstate(all="ignore"):
        d = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0,
                     np.abs(a - b))
        rel = np.where(d == 0, 0.0, d / np.fmax(np.abs(a), np.abs(b)))
    return np.nan_to_num(d, nan=np.inf), np.nan_to_num(rel, nan=np.inf)


_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


# the verdict a CLI output states: each JSON "pass" flag, each PASS or FAIL of
# a text report (its "overall:" line included) and each "verdict:" line
_VERDICT = re.compile(r'"pass": (?:true|false)|\b(?:PASS|FAIL)\b'
                      r'|verdict: .*')


def _cli_line(text):
    """The exit code, the verdict tokens and the rest of a CLI output line,
    else None."""
    try:
        code, out, err = ast.literal_eval(text)
    except (ValueError, TypeError, SyntaxError):
        return None
    if isinstance(code, int) and isinstance(out, str) and isinstance(err, str):
        return code, _VERDICT.findall(out), repr((out, err))
    return None


def _text(x, y):
    """How two differing texts differ, and whether they differ in words
    (anything but their numbers)."""
    at = next((k for k, (c, e) in enumerate(zip(x, y)) if c != e),
              min(len(x), len(y)))
    text = f"text differs from offset {at}"
    nx, ny = _NUMBER.findall(x), _NUMBER.findall(y)
    if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
        return text, True
    d, rel = _moves(np.array(nx, dtype=float), np.array(ny, dtype=float))
    k = int(np.argmax(d))
    return (f"{text}, in {np.count_nonzero(d)} numbers only; the largest "
            f"move is {nx[k]} -> {ny[k]} (abs {d[k]:.3g}), the largest "
            f"relative one {rel.max():.3g}"), False


def _describe(x, y):
    """How two differing dump lines (without their names) differ, the
    largest absolute move of an array or ``float.hex`` line of one shape
    and key set (None for any other line), and whether the verdict moved:
    a CLI line's exit code or verdict tokens, or any other text that
    differs in words."""
    u, v = _decode(x), _decode(y)
    if isinstance(u, np.ndarray) and isinstance(v, np.ndarray):
        if u.shape != v.shape or u.dtype != v.dtype:
            return (f"array {u.dtype}{u.shape} -> {v.dtype}{v.shape}", None,
                    False)
        d, rel = _moves(u, v)
        top = d.max(initial=0.0)
        scale = max(np.abs(u).max(initial=0.0), np.abs(v).max(initial=0.0))
        return (f"max abs {top:.3g} ({top / (scale or 1.0):.3g} of the "
                f"largest magnitude), max rel {rel.max(initial=0.0):.3g}",
                top, False)
    if isinstance(u, dict) and isinstance(v, dict) and u.keys() == v.keys():
        keys = sorted(u)
        d, rel = _moves([u[k] for k in keys], [v[k] for k in keys])
        return ", ".join(f"{k} {u[k]!r} -> {v[k]!r} (abs {dk:.3g}, rel "
                         f"{rk:.3g})" for k, dk, rk in zip(keys, d, rel)
                         if dk), d.max(), False
    cx, cy = _cli_line(x), _cli_line(y)
    if cx and cy and cx[0] != cy[0]:
        rest = "" if cx[2] == cy[2] else f"; output {_text(cx[2], cy[2])[0]}"
        return f"exit code {cx[0]} -> {cy[0]}{rest}", None, True
    text, words = _text(x, y)
    return text, None, cx[1] != cy[1] if cx and cy else words


def _diff(a, b):
    with open(a) as fa, open(b) as fb:
        la = [line.split("\t", 1) for line in fa.read().splitlines()]
        lb = [line.split("\t", 1) for line in fb.read().splitlines()]
    if [n for n, _ in la] != [n for n, _ in lb]:
        print(f"the dumps list different outputs ({len(la)} and {len(lb)} "
              f"lines)")
        return 1
    differ, verdicts, largest, where = 0, 0, 0.0, None
    for (name, x), (_, y) in zip(la, lb):
        if x != y:
            differ += 1
            text, move, moved = _describe(x, y)
            verdicts += moved
            print(f"differs: {name}: {text}")
            if move is not None and move > largest:
                largest, where = move, name
    print(f"{len(la) - differ} of {len(la)} outputs bitwise equal")
    if differ:
        print("largest absolute move among array and float.hex outputs: "
              + (f"{largest:.3g} in {where}" if where else "0 (none moves)"))
    print(f"{verdicts} outputs moved their verdict (a CLI line's exit code "
          f"or verdict tokens, or other text that differs in words)")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    tree = parser.add_subparsers(dest="command", required=True)
    dump = tree.add_parser("dump", help="write the outputs of a checkout")
    dump.add_argument("--root", default=".", help="the checkout to import")
    dump.add_argument("--seed", type=int, default=0)
    dump.add_argument("--out", required=True)
    diff = tree.add_parser("diff", help="compare two dumps byte by byte")
    diff.add_argument("a")
    diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "diff":
        return _diff(args.a, args.b)
    with open(args.out, "w") as out:
        _dump(args.root, args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
