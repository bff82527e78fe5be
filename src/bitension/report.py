"""Plain-data verification reports with deterministic text/JSON renderings.

Reports carry no timestamps: rendering the same case with the same seed,
sample count, and tolerances is byte-identical, which the tests rely on.

Residual checks store the largest residual in ``max_abs`` (absolute) and
``max_norm`` (scaled by the local field magnitude) and pass when the
absolute value stays below the tolerance.  Magnitude checks — the ones
asserting a quantity is bounded AWAY from zero — reuse the same fields for
the binding (smallest) value and pass when it exceeds the tolerance.
A check whose evaluation raised stores null residuals, fails, and carries
the exception's type and text in ``error``; the field is rendered only when
it is set, so reports of evaluable checks do not change.  A check whose
values hold inf or NaN is recorded the same way, located at its first
non-finite sample, so no report carries a non-finite number.
"""

import json
from dataclasses import astuple, dataclass

import numpy as np

VERSION = "0.1.0"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    max_abs: float  # None when evaluation failed
    max_norm: float
    tol: float
    passed: bool
    worst_point: tuple  # coordinates of the binding sample, None on failure
    error: str | None = None  # why evaluation failed, None otherwise


def check_record(name, values, normalized, pts, tol, mode="max"):
    """The record of one check from its per-point values.

    ``values`` and ``normalized`` share a shape; ``pts`` has that shape plus
    a trailing coordinate axis.  The binding point is the largest value of a
    residual ("max") check and the smallest of a magnitude ("min") check.
    An inf or NaN in either array makes an errored record instead: its
    ``error`` names the value, and ``worst_point`` is the first sample (in
    C order) holding one.
    """
    finite = np.isfinite(values) & np.isfinite(normalized)
    pick, beats = ((np.argmax, np.less) if mode == "max"
                   else (np.argmin, np.greater))
    idx = np.unravel_index(pick(values) if finite.all() else np.argmin(finite),
                           finite.shape)
    point = tuple(float(c) for c in pts[idx])
    if not finite[idx]:
        bad = normalized[idx] if np.isfinite(values[idx]) else values[idx]
        return CheckRecord(name, None, None, tol, False, point,
                           f"non-finite value {float(bad)!r}")
    return CheckRecord(name, float(values[idx]), float(normalized[idx]), tol,
                       bool(beats(values[idx], tol)), point)


@dataclass(frozen=True)
class VerificationReport:
    version: str
    case: str
    seed: int
    samples: int
    checks: tuple
    passed: bool


REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "case", "seed", "samples", "checks", "pass"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "string"},
        "case": {"type": "string"},
        "seed": {"type": "integer"},
        "samples": {"type": "integer", "minimum": 1},
        "pass": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "max_abs", "max_norm", "tol", "pass",
                             "worst_point"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "max_abs": {"type": ["number", "null"]},
                    "max_norm": {"type": ["number", "null"]},
                    "tol": {"type": "number"},
                    "pass": {"type": "boolean"},
                    "worst_point": {
                        "type": ["array", "null"],
                        "items": {"type": "number"},
                    },
                    "error": {"type": "string"},
                },
            },
        },
    },
}


# the JSON keys of the CheckRecord fields, in order; "error" only when set
_CHECK_KEYS = ("name", "max_abs", "max_norm", "tol", "pass", "worst_point",
               "error")


def _check_json(c):
    return {key: value for key, value in zip(_CHECK_KEYS, astuple(c))
            if key != "error" or value is not None}


def to_json(rep):
    payload = {
        "version": rep.version,
        "case": rep.case,
        "seed": rep.seed,
        "samples": rep.samples,
        "checks": [_check_json(c) for c in rep.checks],
        "pass": rep.passed,
    }
    return json.dumps(payload, indent=2)


def _fmt(value):
    return "n/a" if value is None else repr(float(value))


def to_text(rep):
    lines = [f"case {rep.case}  (seed {rep.seed}, {rep.samples} samples, "
             f"version {rep.version})"]
    for c in rep.checks:
        flag = "PASS" if c.passed else "FAIL"
        lines.append(f"  {flag}  {c.name}: value={_fmt(c.max_abs)} "
                     f"normalized={_fmt(c.max_norm)} tol={c.tol!r}")
        if c.worst_point is not None:
            coords = ", ".join(repr(float(p)) for p in c.worst_point)
            lines.append(f"        at ({coords})")
        if c.error is not None:
            lines.append(f"        error: {c.error}")
    lines.append("overall: " + ("PASS" if rep.passed else "FAIL"))
    return "\n".join(lines)
