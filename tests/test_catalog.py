import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bitension import catalog, geometry, jets, report, surfaces
from bitension.charts import ChartDomain, DomainError, RiemannianMetric, \
    SmoothMap
from bitension.config import load_config
from bitension.geometry import MapState

import support


def test_every_builtin_passes_at_defaults():
    for name in catalog.CASE_NAMES:
        rep = catalog.verify_case(catalog.build_case(name))
        failing = [c.name for c in rep.checks if not c.passed]
        assert rep.passed, f"{name} failed {failing}"


def test_every_builtin_has_a_failing_control():
    for name in catalog.CASE_NAMES:
        control, key = catalog.negative_control(name)
        rep = catalog.verify_case(control)
        record = next(c for c in rep.checks if c.name == key)
        assert not record.passed, f"{name} control passed its key check"
        assert record.max_abs is not None and record.max_abs > 1e-2
        assert not rep.passed


def test_reports_are_deterministic():
    one = catalog.verify_case(catalog.build_case("h5_inclusion"), seed=3)
    two = catalog.verify_case(catalog.build_case("h5_inclusion"), seed=3)
    assert report.to_json(one) == report.to_json(two)
    assert report.to_text(one) == report.to_text(two)


def test_json_matches_schema_and_text_numbers():
    rep = catalog.verify_case(catalog.build_case("cylinder_family"),
                              samples=32, seed=5)
    payload = json.loads(report.to_json(rep))
    jsonschema.validate(payload, report.REPORT_SCHEMA)
    assert payload["case"] == "cylinder_family"
    assert payload["samples"] == 32 and payload["seed"] == 5
    assert payload["pass"] is True
    text = report.to_text(rep)
    for check in payload["checks"]:
        # the text rendering carries the same full-precision numbers
        assert repr(check["max_abs"]) in text
        assert check["name"] in text
        # evaluable checks carry no error field in either rendering
        assert "error" not in check
    assert "error:" not in text


def test_unknown_case_and_bad_params():
    with pytest.raises(ValueError, match="unknown case"):
        catalog.build_case("no_such_case")
    with pytest.raises(catalog.CaseError, match="unknown case"):
        catalog.negative_control("no_such_case")
    with pytest.raises(ValueError, match="bad parameters"):
        catalog.build_case("cylinder_family", bogus=1.0)
    with pytest.raises(ValueError, match="2..6"):
        catalog.build_case("identity", m=9)


@pytest.mark.parametrize("name,own", [
    ("cylinder_family", {"R": 2, "C1": -1, "C2": 1, "sign": 1}),
    ("identity", {"m": 4}), ("isometric_cylinder", {"R": 2}),
    ("h5_inclusion", {}), ("s5_stereographic", {}), ("plane_inclusion", {}),
    ("r2_wrap_r3", {}), ("r2_wrap_r6", {})])
def test_build_case_takes_only_the_case_parameters(name, own):
    assert catalog.build_case(name, **own).params == own
    # the switches of the negative controls are not among them
    for switch in ("bend", "power", "engine_scale", "exponent"):
        with pytest.raises(catalog.CaseError, match="bad parameters"):
            catalog.build_case(name, **{switch: 1})


@pytest.mark.parametrize("name", catalog.CASE_NAMES)
def test_controls_reject_parameters_they_do_not_take(name):
    for key in ("bogus", "bend", "power", "engine_scale", "exponent"):
        with pytest.raises(catalog.CaseError, match="bad parameters"):
            catalog.negative_control(name, **{key: 1})
    with pytest.raises(catalog.CaseError, match="bad parameters"):
        catalog.negative_control(name, C1=-1.0)


@pytest.mark.parametrize("name,own", [
    ("identity", {"m": 2}), ("isometric_cylinder", {"R": 2.0}),
    ("cylinder_family", {"R": 2.0})])
def test_controls_keep_their_own_parameters(name, own):
    control, key = catalog.negative_control(name, **own)
    assert control.params == own
    assert key == catalog.negative_control(name)[1]
    with pytest.raises(catalog.CaseError, match="is not a number"):
        catalog.negative_control(name, **{k: "2" for k in own})


@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_not_a_number(value):
    with pytest.raises(catalog.CaseError, match=f"R = {value} is not a "):
        catalog.build_case("cylinder_family", R=value)
    with pytest.raises(catalog.CaseError, match="is not a number"):
        catalog.negative_control("isometric_cylinder", R=value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_parameter_is_a_case_error(value):
    for name in ("isometric_cylinder", "cylinder_family"):
        with pytest.raises(catalog.CaseError, match="is not finite"):
            catalog.build_case(name, R=value)
        with pytest.raises(catalog.CaseError, match="is not finite"):
            catalog.negative_control(name, R=value)


def test_type_errors_inside_a_builder_propagate(monkeypatch):
    def broken(R=1.0):
        return len(R)  # a TypeError from the builder's own code

    monkeypatch.setitem(catalog._BUILDERS, "cylinder_family", broken)
    with pytest.raises(TypeError, match="len"):
        catalog.build_case("cylinder_family", R=2.0)


# name, how many domain metrics its checks read
@pytest.mark.parametrize("name,metrics", [
    ("cylinder_family", 2), ("r2_wrap_r3", 1), ("isometric_cylinder", 2),
    ("h5_inclusion", 1)])
def test_checks_share_map_states(monkeypatch, name, metrics):
    case = catalog.build_case(name)
    built = support.record_builds(monkeypatch)
    assert catalog.verify_case(case).passed
    # one constructor call, one state per domain metric, and one map side
    # for them all, whose target Christoffel symbols and Q are built once
    assert support.build_counts(built) == {
        "state": 1, "domain": metrics, "map": 1, "gammaN_y": 1, "Q_jets": 1}
    sides = [side for kind, side in built if kind == "domain"]
    assert len({id(side.g) for side in sides}) == metrics


def test_a_bad_domain_metric_errors_only_its_own_state():
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "u*v"))
    h = RiemannianMetric.euclidean(tgt)
    bad = RiemannianMetric.from_components(dom, [["1", "0"], ["0", "-1"]])
    good = RiemannianMetric.euclidean(dom)
    scaled = RiemannianMetric.conformally_flat(dom, "2")
    states = catalog._SharedStates(dom.sample(8, 3))
    # before any state of the map is built, and after: the bad metric
    # raises each time, and the others build and share one map side
    with pytest.raises(DomainError, match="domain metric is not positive"):
        states.map(phi, bad, h)
    first = states.map(phi, good, h)
    with pytest.raises(DomainError, match="domain metric is not positive"):
        states.map(phi, bad, h)
    second = states.map(phi, scaled, h)
    assert states.map(phi, good, h) is first
    assert second._map is first._map and second.g is scaled
    assert np.array_equal(second.tension_values, MapState(
        phi, scaled, h, states.pts, 4).tension_values)


def test_long_equal_mirror_entries_verify_to_a_report():
    dom, g = support.long_mirror_metric()
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "0"))
    case = catalog.custom_case("long_entries", phi, g,
                               RiemannianMetric.euclidean(tgt),
                               [("tension_nonzero", None)])
    rep = catalog.verify_case(case, samples=8)
    assert [c.name for c in rep.checks] == ["tension_nonzero"]
    assert rep.checks[0].max_abs is not None


def test_unbuildable_state_fails_every_check_that_reads_it():
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    # the third component reaches 5 on the domain, outside the target chart
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "5*u"))
    g = RiemannianMetric.euclidean(dom)
    h = RiemannianMetric.euclidean(tgt)
    kinds = sorted(catalog.CHECK_KINDS)
    case = catalog.custom_case("off_chart", phi, g, h,
                               [(k, None) for k in kinds], induced=g,
                               factor="1")
    rep = catalog.verify_case(case, samples=16)
    assert [c.name for c in rep.checks] == kinds
    # the fault is located at the first sample whose image leaves the chart
    pts = dom.sample(16, 7)
    first = tuple(pts[np.argmax(np.abs(5.0 * pts[:, 0]) >= 2.0)])
    for check in rep.checks:
        assert check.max_abs is None and check.max_norm is None
        assert not check.passed and check.worst_point == first
        # each record carries the build failure's own text
        assert check.error.startswith(
            "DomainError: point outside chart domain: [")
    assert not rep.passed
    payload = json.loads(report.to_json(rep))
    jsonschema.validate(payload, report.REPORT_SCHEMA)
    assert all(c["error"] == rep.checks[0].error for c in payload["checks"])
    text = report.to_text(rep)
    assert text.count(f"error: {rep.checks[0].error}") == len(kinds)


@pytest.mark.parametrize("kind,inputs,missing", [
    ("r3_tangential", {"induced": "g"}, "factor"),
    ("conformal_recovery", {"induced": "g"}, "factor"),
    ("r3_normal", {"factor": "1"}, "induced")])
def test_checks_without_their_inputs_are_case_errors(kind, inputs, missing):
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "0"))
    g = RiemannianMetric.euclidean(dom)
    inputs = {k: g if v == "g" else v for k, v in inputs.items()}
    with pytest.raises(catalog.CaseError, match=f"'{kind}' needs {missing}"):
        catalog.custom_case("missing", phi, g, RiemannianMetric.euclidean(tgt),
                            [("tension_zero", None), (kind, None)], **inputs)


def test_overflow_is_reported_as_a_floating_point_error():
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q"), ((-2.0, 2.0),) * 2)
    phi = SmoothMap.from_components(dom, tgt, ("exp(800*u)", "v"))
    case = catalog.custom_case(
        "overflow", phi, RiemannianMetric.euclidean(dom),
        RiemannianMetric.euclidean(tgt),
        [("tension_zero", None), ("bitension_zero", None)])
    rep = catalog.verify_case(case)
    for check in rep.checks:
        assert check.max_abs is None and not check.passed
        assert check.error == "FloatingPointError: overflow encountered in exp"


def test_overflow_in_the_curvature_map_is_an_errored_record(monkeypatch):
    support.overflow_curvature_map(monkeypatch)
    rep = catalog.verify_case(catalog.build_case("h5_inclusion"))
    records = {c.name: c for c in rep.checks}
    # matmul honours np.errstate, so the overflow raises inside the stage
    bad = records["bitension_zero"]
    assert bad.max_abs is None and not bad.passed
    assert bad.error == ("FloatingPointError: overflow encountered in matmul"
                         " in stage curvature_map")
    assert records["tension_nonzero"].passed  # it does not read the stage
    assert not rep.passed


def test_r3_checks_share_one_residual(monkeypatch):
    calls = []
    residual = surfaces.r3_system_residual

    def counting(*args, **kwargs):
        calls.append(args)
        return residual(*args, **kwargs)

    monkeypatch.setattr(surfaces, "r3_system_residual", counting)
    rep = catalog.verify_case(catalog.build_case("cylinder_family"))
    assert {"r3_tangential", "r3_normal"} <= {c.name for c in rep.checks}
    assert rep.passed and len(calls) == 1


def _single_check_case(run):
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    return catalog.VerificationCase(
        "probe", dom, {}, [(catalog.Expectation("probe", 1e-7, "max"), run)])


@pytest.mark.parametrize("outside,where", [
    (np.arange(4) >= 2, 2), (np.array(True), None), (None, None),
    (np.ones((1, 4), dtype=bool), None)])
def test_a_jet_domain_error_is_located_by_its_mask(outside, where):
    def run(states):
        raise jets.JetDomainError("ln of a nonpositive value", outside=outside)

    case = _single_check_case(run)
    (check,) = catalog.verify_case(case, samples=4).checks
    pts = case.domain.sample(4, 7)
    assert check.worst_point == (None if where is None
                                 else tuple(pts[where].tolist()))
    assert check.error == "JetDomainError: ln of a nonpositive value"


def test_plain_value_errors_in_an_evaluator_propagate():
    def run(states):
        # what Jet.partial raises when asked for more order than it carries
        raise ValueError("multi-index (3, 0) exceeds jet order 2")

    with pytest.raises(ValueError, match="exceeds jet order"):
        catalog.verify_case(_single_check_case(run), samples=4)


def test_jet_domain_errors_in_an_evaluator_fail_the_check():
    def run(states):
        raise jets.JetDomainError("sqrt of a nonpositive value")

    rep = catalog.verify_case(_single_check_case(run), samples=4)
    (check,) = rep.checks
    assert check.max_abs is None and not check.passed and not rep.passed
    assert check.error == "JetDomainError: sqrt of a nonpositive value"
    assert "error: JetDomainError: sqrt of a nonpositive value" in \
        report.to_text(rep)
    payload = json.loads(report.to_json(rep))
    jsonschema.validate(payload, report.REPORT_SCHEMA)
    assert payload["checks"][0]["error"] == check.error


def test_degenerate_cylinder_parameters_are_rejected():
    # lambda^2(0) = (1 - 4)/2 < 0: never silently verified
    with pytest.raises(DomainError, match="positive"):
        catalog.build_case("cylinder_family", R=1.0, C1=4.0, C2=1.0, sign=1)


def test_tolerance_override_is_respected():
    rep = catalog.verify_case(catalog.build_case("h5_inclusion"), tol=1e-20)
    assert not rep.passed
    # magnitude checks keep their own bounds under the override
    magnitude = next(c for c in rep.checks if c.name == "tension_nonzero")
    assert magnitude.passed and magnitude.tol == 1e-3


def test_magnitude_checks_store_the_binding_minimum():
    rep = catalog.verify_case(catalog.build_case("h5_inclusion"),
                              samples=64, seed=11)
    record = next(c for c in rep.checks if c.name == "tension_nonzero")
    # |tau| = 2/x4^2 on the box 0.5 <= x4 <= 2 binds at the largest
    # sampled x4, well above the 1e-3 bound
    assert 0.5 < record.max_abs < 0.8
    assert record.passed
    worst = record.worst_point
    assert worst is not None and len(worst) == 4
    assert worst[3] > 1.6


def test_worst_point_pins_the_largest_residual():
    control, key = catalog.negative_control("plane_inclusion")
    rep = catalog.verify_case(control, samples=48, seed=13)
    record = next(c for c in rep.checks if c.name == key)
    # the bent plane has |tau| = 2 everywhere; any sample point is binding
    assert abs(record.max_abs - 2.0) < 1e-12
    assert record.worst_point is not None


def test_identity_dimension_sweep():
    for m in (2, 3, 4):
        rep = catalog.verify_case(catalog.build_case("identity", m=m),
                                  samples=16)
        assert rep.passed
        assert rep.case == "identity"


def test_conformal_recovery_reads_the_shared_state(monkeypatch):
    def evaluated_again(*args):
        raise AssertionError("the map was evaluated a second time")

    monkeypatch.setattr(geometry, "pullback_metric", evaluated_again)
    rep = catalog.verify_case(catalog.build_case("cylinder_family"))
    rec = next(c for c in rep.checks if c.name == "conformal_recovery")
    assert rec.passed and rec.error is None


def test_a_failing_stage_fails_only_the_checks_that_read_it(monkeypatch):
    def refuse(*args):
        raise FloatingPointError("Christoffel stage refused")

    monkeypatch.setattr(geometry, "_christoffel_trace_jets", refuse)
    rep = catalog.verify_case(catalog.build_case("r2_wrap_r3"))
    records = {c.name: c for c in rep.checks}
    # the complex-coordinate checks read the state's inputs only
    for name in ("w1_zero", "w3_zero", "nonholomorphic"):
        assert records[name].passed and records[name].max_abs is not None
    bad = records["bitension_zero"]
    assert bad.max_abs is None and not bad.passed
    # the tension reads the contracted domain Christoffel symbols first
    assert bad.error == ("FloatingPointError: Christoffel stage refused"
                         " in stage gammaM_trace")


# a domain metric u*delta and an image (u, v, 3u) leaving |r| < 2: each
# fault is located at its first sample, whose point (or image) its message
# names
@pytest.mark.parametrize("factor,third,error,outside", [
    ("u", "0", "domain metric is not positive definite at [-0.35",
     lambda u: u <= 0.0),
    ("1", "3*u", "point outside chart domain: [",
     lambda u: np.abs(3.0 * u) >= 2.0),
])
def test_a_domain_fault_is_located_at_its_first_sample(factor, third, error,
                                                        outside):
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((-3.0, 3.0), (-3.0, 3.0), (-2.0, 2.0)))
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", third))
    case = catalog.custom_case(
        "fault", phi, RiemannianMetric.conformally_flat(dom, factor),
        RiemannianMetric.euclidean(tgt), [("tension_zero", None)])
    (rec,) = catalog.verify_case(case, samples=16).checks
    pts = dom.sample(16, 7)
    assert rec.error.startswith(f"DomainError: {error}")
    assert rec.worst_point == tuple(pts[np.argmax(outside(pts[:, 0]))])


# the shipped cylinder config with its factor made z - 0.5, which is not
# positive for z <= 0.5, or its declared induced metric's g_2_2 made 1 + z,
# which the pullback's 1 misses for z > 0: both r3 checks are located at the
# first such sample, and their messages name the values as before
@pytest.mark.parametrize("edit,error,outside", [
    (("expr = exp(-z/(2*R))", "expr = z - 0.5"),
     "DomainError: conformal factor must stay positive (found -0.447531)",
     lambda z: z - 0.5 <= 0.0),
    (("g_2_2 = 1\n", "g_2_2 = 1 + z\n"),
     "GeometryInputError: declared induced metric differs from the immersion "
     "pullback (off by 0.321466)",
     lambda z: np.abs(1.0 - (1.0 + z)) / (2.0 + z) > 1e-8),
])
def test_an_input_fault_of_a_config_is_located_at_its_first_sample(
        tmp_path, edit, error, outside):
    shipped = Path(__file__).resolve().parent.parent / "configs"
    path = tmp_path / "cylinder.cfg"
    path.write_text((shipped / "cylinder_family.cfg").read_text()
                    .replace(*edit))
    case = load_config(path).build_case()
    records = {c.name: c for c in catalog.verify_case(case, samples=64).checks}
    pts = case.domain.sample(64, 7)
    want = tuple(pts[np.argmax(outside(pts[:, 1]))])
    for name in ("r3_tangential", "r3_normal"):
        assert records[name].error == error
        assert records[name].worst_point == want


# a metric diag(s - 0.7, 1, ...) that is not positive definite for s <= 0.7,
# on the domain (s = u) or on the target (s = p, the image of u)
@pytest.mark.parametrize("on_target", [False, True])
def test_a_metric_fault_names_the_sample_its_record_holds(on_target):
    dom = ChartDomain(("u", "v"), ((0.5, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((0.0, 2.0),) * 2 + ((-1.0, 1.0),))
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "0"))
    g, h = RiemannianMetric.euclidean(dom), RiemannianMetric.euclidean(tgt)
    if on_target:
        h = RiemannianMetric.from_components(
            tgt, [["p - 0.7", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    else:
        g = RiemannianMetric.from_components(dom, [["u - 0.7", "0"],
                                                   ["0", "1"]])
    case = catalog.custom_case("fault", phi, g, h, [("tension_zero", None)])
    (rec,) = catalog.verify_case(case, samples=16).checks
    pts = dom.sample(16, 7)
    first = pts[np.argmax(pts[:, 0] <= 0.7)].tolist()
    assert list(rec.worst_point) == first
    named = first + [0.0] if on_target else first
    what = "target" if on_target else "domain"
    assert rec.error.startswith(f"DomainError: {what} metric is not positive "
                                f"definite at {named} (smallest eigenvalue")


def test_an_overflow_outside_a_cached_stage_names_its_reader():
    # |tau| = 2e200 is finite, but its squared norm overflows in the
    # target inner product, which names itself
    dom = ChartDomain(("u", "v"), ((0.5, 1.0),) * 2)
    tgt = ChartDomain(("p", "q"), ((-1e300, 1e300),) * 2)
    phi = SmoothMap.from_components(dom, tgt, ("1e200*u^2", "v"))
    case = catalog.custom_case(
        "huge", phi, RiemannianMetric.euclidean(dom),
        RiemannianMetric.euclidean(tgt), [("tension_nonzero", None)])
    (rec,) = catalog.verify_case(case, samples=16).checks
    assert rec.error == ("FloatingPointError: overflow encountered in einsum"
                         " in stage target_inner")
    assert rec.worst_point == tuple(dom.sample(16, 7)[0])


@pytest.mark.parametrize("subscripts,where", [
    ("...a,...a->...", (3,)),  # the samples' batch shape: located
    ("...a,...b->...ab", None),  # a mask of another shape: not located
])
def test_an_einsum_overflow_is_located_at_its_first_non_finite_sample(
        subscripts, where):
    pts = np.arange(12.0).reshape(6, 2)
    big = np.ones((6, 2))
    big[[3, 5]] = 1e200

    def evaluate():
        value = geometry._plain_einsum(subscripts, big, big)
        return value, value

    rec = catalog.record("overflow", 1e-9, "max", evaluate, pts)
    assert rec.error == "FloatingPointError: overflow encountered in einsum"
    assert rec.worst_point == (None if where is None
                               else tuple(float(c) for c in pts[where]))
