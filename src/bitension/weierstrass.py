"""Conformal-coordinate calculus for maps of a 2d chart into flat n-space.

Treats z = u + iv as a complex coordinate on the domain: the derivative
section phi_sec = (phi_u - i phi_v)/2, the conformality sums, and the
biharmonicity residual d/dzbar d/dz (mu^-2 d/dzbar phi_sec) where mu^2 is
the isothermal factor of the domain metric g = mu^2 |dz|^2.  For maps into
flat Cartesian targets this residual vanishes exactly when the map is
biharmonic, and 16 mu^-2 times it reproduces the bitension field.

A complex-valued function a + ib is held as the pair ``(a, b)`` of real
jets, so every jet here is real: the section's components are the pairs
``(phi_u * 0.5, phi_v * -0.5)``, and the Wirtinger operators take and return
pairs.  The public functions return complex arrays, formed from the values
of a pair as ``a + 1j*b``.
"""

from dataclasses import dataclass

import numpy as np

from .charts import ChartDomain, RiemannianMetric, SmoothMap
from .geometry import GeometryInputError, MapState


def wirtinger_dz(f):
    """d/dz = (d/du - i d/dv)/2 of the pair f = (a, b):
    ((a_u + b_v)/2, (b_u - a_v)/2)."""
    a, b = f
    return ((a.derivative(0) + b.derivative(1)) * 0.5,
            (b.derivative(0) - a.derivative(1)) * 0.5)


def wirtinger_dzbar(f):
    """d/dzbar = (d/du + i d/dv)/2 of the pair f = (a, b):
    ((a_u - b_v)/2, (b_u + a_v)/2)."""
    a, b = f
    return ((a.derivative(0) - b.derivative(1)) * 0.5,
            (b.derivative(0) + a.derivative(1)) * 0.5)


def _value(f):
    """The complex value of the pair f = (a, b)."""
    return f[0].value + 1j * f[1].value


@dataclass(frozen=True)
class WSection:
    """The complex derivative section of a map, one pair of real jets per
    component, with the isothermal factor of the domain metric it was
    computed for."""
    state: MapState
    components: tuple  # (re, im) jet pairs
    mu_sq: object  # jet of the isothermal factor


def section_of(state):
    """The derivative section phi_sec = d phi/dz, read from a map state.

    Requires a 2d domain, an isothermal domain metric g = mu^2 (du^2+dv^2),
    and a flat Cartesian target metric (identity components).  The section
    shares the state's jets; :func:`w3_residual` needs a state of order 4.
    """
    if state.m != 2:
        raise GeometryInputError("conformal-coordinate calculus needs a "
                                 "2d domain")
    # off the diagonal max_abs() reads a known zero without a copy; an entry
    # shared with its transpose is tested once
    h = state.h_yjets
    if any((h[a][b] - 1.0 if a == b else h[a][b]).max_abs() > 1e-12
           for a in range(state.n) for b in range(state.n)
           if a <= b or h[a][b] is not h[b][a]):
        raise GeometryInputError("target metric must be flat "
                                 "Cartesian (identity components)")
    scale = state.g_jets[0][0].max_abs()
    off = state.g_jets[0][1].max_abs()
    gap = (state.g_jets[0][0] - state.g_jets[1][1]).max_abs()
    if max(off, gap) > 1e-9 * max(1.0, scale):
        raise GeometryInputError("domain metric must be isothermal, "
                                 "g = mu^2 (du^2 + dv^2)")
    comps = tuple((pj.derivative(0) * 0.5, pj.derivative(1) * -0.5)
                  for pj in state.phi_jets)
    return WSection(state, comps, state.g_jets[0][0])


def section(phi, g, h, x):
    """Build the derivative section phi_sec = (phi_u - i phi_v)/2."""
    return section_of(MapState(phi, g, h, x, 4))


def conformality_sums(ws):
    """(sum of squares, sum of squared moduli) of the section components.

    The first vanishes exactly for conformal maps; the second is half the
    conformal factor of the pullback metric and must stay positive for an
    immersion.
    """
    values = [_value(c) for c in ws.components]
    return (sum(v * v for v in values),
            sum(v.real ** 2 + v.imag ** 2 for v in values))


def w3_residual(ws):
    """d/dzbar d/dz (mu^-2 d/dzbar phi_sec), one complex value per
    component; all zero exactly when the map is biharmonic."""
    inv = 1.0 / ws.mu_sq
    out = []
    for c in ws.components:
        inner = tuple(part * inv for part in wirtinger_dzbar(c))
        out.append(_value(wirtinger_dzbar(wirtinger_dz(inner))))
    return np.stack(out, axis=-1)


def bitension_complex(ws):
    """The bitension field as 16 mu^-2 times the biharmonicity residual."""
    inv = (1.0 / ws.mu_sq).value
    return 16.0 * inv[..., None] * w3_residual(ws)


def nonholomorphicity(ws):
    """Norm of d phi_sec/dzbar at each point: the section's distance from
    holomorphic, zero exactly where the map is harmonic."""
    return np.linalg.norm(np.stack([_value(wirtinger_dzbar(c))
                                    for c in ws.components], axis=-1),
                          axis=-1)


@dataclass(frozen=True)
class WrappedCase:
    """A wrapped-holomorphic immersion of a square into flat 3-space,
    with the exponent that decides biharmonicity of its domain metric."""
    phi: SmoothMap
    g: RiemannianMetric
    h: RiemannianMetric
    exponent: float
    biharmonic: bool


_RE_W = "(ar*u - ai*v + br*(u^2-v^2) - bi*2*u*v)"
_IM_W = "(ai*u + ar*v + br*2*u*v + bi*(u^2-v^2))"
_DW_SQ = "((ar + 2*(br*u - bi*v))^2 + (ai + 2*(bi*u + br*v))^2)"


def random_wrapped_pool(count, seed):
    """Conformal immersions: wrap a random holomorphic W(z) = a z + b z^2
    around the cylinder of radius R = 1, with domain metric
    |W'|^2 exp(c Im W / R) |dz|^2.  The metric makes the immersion proper
    biharmonic exactly for exponent c = 1; other exponents give controls.
    """
    rng = np.random.default_rng(seed)
    dom = ChartDomain(("u", "v"), ((-0.5, 0.5), (-0.5, 0.5)))
    target = ChartDomain(("p", "q", "r"),
                         ((-1.5, 1.5),) * 2 + ((-3.0, 3.0),))
    flat = RiemannianMetric.euclidean(target)
    cases = []
    for k in range(count):
        bindings = {
            "ar": rng.uniform(0.8, 1.4),
            "ai": rng.uniform(-0.4, 0.4),
            "br": rng.uniform(-0.12, 0.12),
            "bi": rng.uniform(-0.12, 0.12),
            "R": 1.0,
        }
        exponent = (1.0, 0.0, 1.7)[k % 3]
        phi = SmoothMap.from_components(
            dom, target,
            (f"R*cos({_RE_W}/R)", f"R*sin({_RE_W}/R)", _IM_W), bindings)
        g = RiemannianMetric.conformally_flat(
            dom, f"{_DW_SQ}*exp({exponent!r}*{_IM_W}/R)", bindings)
        cases.append(WrappedCase(phi, g, flat, exponent, exponent == 1.0))
    return cases
