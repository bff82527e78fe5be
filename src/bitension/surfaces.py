"""Extrinsic geometry of isometric surface immersions into 3-space charts.

Works natively in curvilinear target coordinates (e.g. cylindrical): the unit
normal comes from the metric cross product of the coordinate tangents, and all
inner products route through the target metric, so ``(R, theta, z)``-style
immersions need no Cartesian detour.
"""

import numpy as np

from . import geometry, jets
from .conformal import _FactorData
from .geometry import GeometryInputError, MapState

# (d, a, b, sign) with epsilon_{dab} = sign
_EPSILON = ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
            (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0))


def _det3(m):
    # cofactor expansion; through jets.contract a flat target's zero
    # entries cost no products
    def minor(a, b, c, d):
        return jets.contract([(m[1][a], m[2][b]), (m[1][c], m[2][d], -1.0)])
    return jets.contract([(m[0][0], minor(1, 2, 2, 1)),
                          (m[0][1], minor(0, 2, 2, 0), -1.0),
                          (m[0][2], minor(0, 1, 1, 0))])


class SurfaceData:
    """Normal, shape operator, and curvature data of an isometric immersion.

    Built from an order-4 map state whose domain metric must be the metric
    the immersion actually induces (checked against the pullback).  The
    normal is oriented by the ordered coordinate tangents: on a cylinder
    parametrized by (theta, z) it points outward, along +d/d rho.
    """

    def __init__(self, state):
        if state.m != 2 or state.n != 3:
            raise GeometryInputError("surface machinery needs a 2d domain "
                                     f"and a 3d target, got {state.m} -> "
                                     f"{state.n}")
        gap = np.max(np.abs(state.pullback - state.g_val)
                     / (1.0 + np.abs(state.g_val)), axis=(-2, -1))
        outside = gap > 1e-8
        if np.any(outside):
            err = GeometryInputError(
                "declared induced metric differs from the immersion pullback "
                f"(off by {gap.max():g})")
            err.outside = outside
            raise err
        self.state = state

        monos = jets.Monomials(state.phi_jets, state.order - 1)
        hx = [[jets.compose(e, monos) for e in row] for row in state.h_yjets]
        vol = jets.sqrt(_det3(hx))
        t1, t2 = state.Dphi[0], state.Dphi[1]
        cross = [vol * jets.contract((t1[a], t2[b], s)
                                     for p, a, b, s in _EPSILON if p == d)
                 for d in range(3)]
        hinv = geometry._jet_matrix_inverse(hx)
        raw = [jets.contract((hinv[c][d], cross[d]) for d in range(3))
               for c in range(3)]
        norm_sq = jets.contract((hx[c][d], raw[c], raw[d])
                                for c in range(3) for d in range(3))
        if np.min(norm_sq.value) <= 1e-12:
            raise GeometryInputError("immersion is rank-deficient at a "
                                     "sample point")
        scale = 1.0 / jets.sqrt(norm_sq)
        self.normal = [raw[c] * scale for c in range(3)]
        self._hx = hx

        dxi = state.covariant_derivative(self.normal)
        # A^k_i = -gbar^{kj} <nabla_i xi, dphi_j>_h ; stored as shape[i][k]
        paired = [[jets.contract((hx[a][b], dxi[i][a], state.Dphi[j][b])
                                 for a in range(3) for b in range(3))
                   for j in range(2)] for i in range(2)]
        self.shape = [[-jets.contract((state.ginv_jets[k][j], paired[i][j])
                                      for j in range(2))
                       for k in range(2)] for i in range(2)]
        self.mean_curvature = (self.shape[0][0] + self.shape[1][1]) * 0.5
        self.second_form_sq = jets.contract(
            (self.shape[i][k], self.shape[k][i])
            for i in range(2) for k in range(2))

    # -- value views -------------------------------------------------------------

    @property
    def normal_values(self):
        return jets.stack_values(self.normal)

    @property
    def mean_curvature_values(self):
        return self.mean_curvature.value

    # -- tangent algebra ----------------------------------------------------------

    def apply_shape(self, vec):
        """Shape operator on a domain vector given by component jets."""
        return [jets.contract((self.shape[i][k], vec[i]) for i in range(2))
                for k in range(2)]

    def push_values(self, vec):
        """Target-frame values of dphi applied to domain-vector jets."""
        return jets.stack_values(self.state.dphi_apply(vec))


def surface_data(phi, induced, target_metric, x):
    """Assemble normal/shape/curvature data for an isometric immersion."""
    return SurfaceData(MapState(phi, induced, target_metric, x, 4))


def chen_bitension(sd):
    """Bitension of the isometric immersion from its extrinsic data:
    2(Lap H - H|B|^2) xi - 2 dphi(2 A(grad H) + grad(H^2)),
    with Laplacian and gradients of the induced metric."""
    st = sd.state
    H = sd.mean_curvature
    lap_h = st.scalar_laplacian(H).value
    grad_h = st.gradient_jets(H)
    bracket_jets = []
    grad_h2 = st.gradient_jets(H * H)
    a_grad = sd.apply_shape(grad_h)
    for i in range(2):
        bracket_jets.append(a_grad[i] * 2.0 + grad_h2[i])
    pushed = sd.push_values(bracket_jets)
    normal_part = (lap_h - H.value * sd.second_form_sq.value)
    return 2.0 * normal_part[..., None] * sd.normal_values - 2.0 * pushed


def r3_system_residual(sd, lam, stg):
    """Residuals of the two-equation biharmonicity system for a conformal
    surface immersion into flat 3-space, with operators of the conformal
    domain metric g and |B|^2 = lambda^2 |B|^2_induced.

    ``lam`` is a :class:`conformal.ConformalFactor`, or a source string
    or tree with no parameters; ``stg`` is a map state of order 3 or more
    for the same map and points as ``sd``, carrying the conformal domain
    metric g.

    Returns (tangential, normal): A(grad H) + grad(H^2)/2 + 2H A(grad ln lam)
    as domain-vector values, and Lap H - H|B|^2 + 2H(Lap ln lam
    + 2|grad ln lam|^2) + 4 g(grad ln lam, grad H) as a scalar.  A factor
    that is not positive at every point raises DomainError.
    """
    fac = _FactorData(stg, lam)
    H = sd.mean_curvature
    hv = H.value
    grad_h = stg.gradient_jets(H)
    tangential = (jets.stack_values(sd.apply_shape(grad_h))
                  + 0.5 * jets.stack_values(stg.gradient_jets(H * H))
                  + 2.0 * hv[..., None]
                  * jets.stack_values(sd.apply_shape(fac.grad)))
    b2 = fac.values ** 2 * sd.second_form_sq.value
    cross = stg.domain_inner(fac.grad_values, jets.stack_values(grad_h))
    normal = (stg.scalar_laplacian(H).value - hv * b2
              + 2.0 * hv * (fac.laplacian + 2.0 * fac.grad_norm_sq)
              + 4.0 * cross)
    return tangential, normal

