"""Canonical test geometries: flat space, the unit-ball metric built from its
defining function, perturbed variants, and synthetic non-integrable complex
structures for tensor-identity tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fieldexpr as fx
from . import geometry as geo


@dataclass
class ExampleGeometry:
    chart: fx.Chart
    J: geo.AlmostComplexStructure
    g: geo.TensorField
    rho: fx.ScalarExpr = None
    provenance: str = "custom"
    C: float = None
    extras: dict = field(default_factory=dict)


def gradient_exprs(rho, chart):
    return [fx.differentiate(rho, i) for i in range(chart.n)]


def theta_exprs(rho, J: geo.AlmostComplexStructure):
    """theta_a = -rho_i J^i_a as expressions."""
    chart = J.chart
    drho = gradient_exprs(rho, chart)
    Jm = J.expr_matrix
    out = []
    for a in range(chart.n):
        acc = fx.const(0.0)
        for i in range(chart.n):
            acc = acc - drho[i] * Jm[i, a]
        out.append(acc)
    return out


def grho_from_rho(rho, J: geo.AlmostComplexStructure) -> geo.TensorField:
    """Metric from a defining function:
    g(xi, eta) = (-1/rho^2)(drho(xi) drho(eta) + theta(xi) theta(eta))
                 + (1/rho) dtheta(xi, J eta)."""
    chart = J.chart
    n = chart.n
    drho = gradient_exprs(rho, chart)
    theta = theta_exprs(rho, J)
    dtheta = [[fx.differentiate(theta[b], a) - fx.differentiate(theta[a], b)
               for b in range(n)] for a in range(n)]
    Jm = J.expr_matrix
    inv_rho = fx.const(1.0) / rho
    inv_rho2 = inv_rho * inv_rho
    comps = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            had = fx.const(0.0)
            for i in range(n):
                had = had + dtheta[a][i] * Jm[i, b]
            raw = (fx.const(-1.0) * inv_rho2) * (drho[a] * drho[b] + theta[a] * theta[b]) \
                + inv_rho * had
            comps[a, b] = raw
    # symmetrize; exact no-op whenever dtheta is Hermitean
    sym = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            sym[a, b] = (comps[a, b] + comps[b, a]) * fx.const(0.5)
    return geo.tensor_from_exprs(chart, sym, (-1, -1), 0.0, "g_rho")


def ball_defining_function(chart) -> fx.ScalarExpr:
    terms = " - ".join(f"{name}^2" for name in chart.names)
    return fx.parse_expression(f"1 - {terms}", chart)


def unit_ball(m: int) -> ExampleGeometry:
    """Complete metric on the unit ball from rho = 1 - |z|^2; compactifiable
    with constant -1."""
    chart = fx.Chart(m)
    J = geo.standard_J(chart)
    rho = ball_defining_function(chart)
    g = grho_from_rho(rho, J)
    return ExampleGeometry(chart, J, g, rho, "ball", C=-1.0)


def perturbed_ball(m: int, eps: float, direction=None,
                   probe_seed: int = 23) -> ExampleGeometry:
    """Ball defining function rescaled by exp(eps * direction); non-Einstein
    for non-pluriharmonic directions while keeping the same boundary sphere.

    Two pitfalls constrain the choice of direction.  A pluriharmonic direction
    (such as x1 itself) leaves the metric identically unchanged, because the
    construction only sees the complex Hessian of -log rho.  A generic
    direction makes the scalar trace of the Schouten tensor pick up a nonzero
    normal derivative at the boundary, in which case the tracefree Hermitean
    part of the Schouten tensor genuinely blows up like 1/rho there.  The
    default perturbation therefore vanishes to second order at the boundary:
    the interior scalar curvature varies by O(1) while every boundary
    asymptotic stays certifiable."""
    chart = fx.Chart(m)
    J = geo.standard_J(chart)
    if direction is None:
        direction = boundary_flat_direction(chart)
    elif isinstance(direction, str):
        direction = fx.parse_expression(direction, chart)
    rho = ball_defining_function(chart) * fx.exp(fx.const(eps) * direction)
    g = grho_from_rho(rho, J)
    geom = ExampleGeometry(chart, J, g, rho, "perturbed-ball", C=-1.0)
    _check_nondegenerate(geom, probe_seed)
    return geom


def boundary_flat_direction(chart) -> fx.ScalarExpr:
    """x1^2 * rho^2: a non-pluriharmonic bump vanishing to second order on the
    unit sphere."""
    rho = ball_defining_function(chart)
    x1 = fx.var(chart, 0)
    return x1 * x1 * rho * rho


def _check_nondegenerate(geom, seed, count=12, floor=1e-6):
    pts = geo.seeded_points(geom.chart, count=count, seed=seed, radius=0.6,
                            rho=geom.rho, rho_min=0.05)
    signatures = set()
    for g in geom.g.value(pts):
        eigs = np.linalg.eigvalsh(g)
        if np.min(np.abs(eigs)) < floor:
            raise geo.GeometryError(
                f"metric degenerates on the probe region (|eig| < {floor})")
        signatures.add((int(np.sum(eigs > 0)), int(np.sum(eigs < 0))))
    if len(signatures) > 1:
        raise geo.GeometryError(
            f"metric signature jumps across the probe region: {signatures}")


def flat_space(m: int) -> ExampleGeometry:
    chart = fx.Chart(m)
    J = geo.standard_J(chart)
    g = geo.tensor_constant(chart, np.eye(chart.n), (-1, -1), 0.0, "euclidean")
    return ExampleGeometry(chart, J, g, None, "flat")


def synthetic_variable_J(chart, eps: float = 0.4) -> geo.AlmostComplexStructure:
    """Non-integrable complex structure: the standard J conjugated by a
    point-dependent Cayley rotation in the (y1, x2) plane with angle parameter
    eps*x1.  Rational entries keep it inside the expression grammar."""
    n = chart.n
    t = fx.const(eps) * fx.var(chart, 0)
    one = fx.const(1.0)
    denom = one + t * t
    cos_like = (one - t * t) / denom
    sin_like = (fx.const(2.0) * t) / denom
    # rotation R in the plane spanned by coordinates 1 (y1) and 2 (x2)
    R = np.empty((n, n), dtype=object)
    Rt = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            R[i, j] = fx.const(1.0 if i == j else 0.0)
            Rt[i, j] = fx.const(1.0 if i == j else 0.0)
    R[1, 1], R[1, 2], R[2, 1], R[2, 2] = cos_like, -sin_like, sin_like, cos_like
    Rt[1, 1], Rt[1, 2], Rt[2, 1], Rt[2, 2] = cos_like, sin_like, -sin_like, cos_like
    J0 = geo.standard_J(chart).expr_matrix
    JR = _expr_matmul(J0, Rt)
    full = _expr_matmul(R, JR)
    return geo.AlmostComplexStructure(chart, full, name="J_synthetic")


def gauge_flat_connection(chart, A, A_inv) -> geo.ConnectionField:
    """Connection preserving J = A J0 A^{-1}: the flat connection conjugated by
    the frame change A.  G^c_{ab} = A^c_i d_a (A^{-1})^i_b."""
    n = chart.n
    comps = np.empty((n, n, n), dtype=object)
    for c in range(n):
        for a in range(n):
            for b in range(n):
                acc = fx.const(0.0)
                for i in range(n):
                    acc = acc + A[c, i] * fx.differentiate(A_inv[i, b], a)
                comps[c, a, b] = acc
    return geo.connection_from_exprs(chart, comps, complex_flag=True,
                                     name="gauged-flat")


def cayley_frames(chart, eps: float = 0.4):
    """The (A, A^{-1}) pair matching synthetic_variable_J."""
    n = chart.n
    t = fx.const(eps) * fx.var(chart, 0)
    one = fx.const(1.0)
    denom = one + t * t
    cos_like = (one - t * t) / denom
    sin_like = (fx.const(2.0) * t) / denom
    R = np.empty((n, n), dtype=object)
    Rt = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            R[i, j] = fx.const(1.0 if i == j else 0.0)
            Rt[i, j] = fx.const(1.0 if i == j else 0.0)
    R[1, 1], R[1, 2], R[2, 1], R[2, 2] = cos_like, -sin_like, sin_like, cos_like
    Rt[1, 1], Rt[1, 2], Rt[2, 1], Rt[2, 2] = cos_like, sin_like, -sin_like, cos_like
    return R, Rt


def _expr_matmul(A, B):
    n = A.shape[0]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = fx.const(0.0)
            for k in range(n):
                acc = acc + A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def synthetic_almost_kahler(chart, eps: float = 0.3):
    """Closed-form almost-Kahler pair (J, g) with non-integrable J.

    The standard symplectic form is kept fixed and the complex structure is
    conjugated by the point-dependent symplectic shear S = I + eps*x1*N with
    nilpotent N in sp(4).  Then J stays omega-compatible, g = omega(., J.)
    is symmetric and positive for small eps, and d(omega) = 0 makes the pair
    quasi-Kahler, so the canonical-connection machinery applies while the
    Nijenhuis tensor is genuinely nonzero."""
    if chart.m != 2:
        raise ValueError("synthetic almost-Kahler example is built on m = 2")
    n = chart.n
    Omega = np.zeros((n, n))
    for k in range(chart.m):
        Omega[2 * k, 2 * k + 1] = 1.0
        Omega[2 * k + 1, 2 * k] = -1.0
    # N = -Omega (e_02 + e_20) is nilpotent and symplectic (Omega N symmetric)
    Nmat = np.zeros((n, n))
    Nmat[1, 2] = 1.0
    Nmat[3, 0] = 1.0
    f = fx.const(eps) * fx.var(chart, 0)
    J0 = geo.standard_J(chart).expr_matrix
    Ne = np.array([[fx.const(Nmat[i, j]) for j in range(n)] for i in range(n)],
                  dtype=object)
    Se = np.array([[fx.const(1.0 if i == j else 0.0) + f * Ne[i, j]
                    for j in range(n)] for i in range(n)], dtype=object)
    Sinv = np.array([[fx.const(1.0 if i == j else 0.0) - f * Ne[i, j]
                      for j in range(n)] for i in range(n)], dtype=object)
    Je = _expr_matmul(Se, _expr_matmul(J0, Sinv))
    J = geo.AlmostComplexStructure(chart, Je, name="J_almost_kahler")
    ge = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            acc = fx.const(0.0)
            for i in range(n):
                if Omega[a, i] != 0.0:
                    acc = acc + fx.const(Omega[a, i]) * Je[i, b]
            ge[a, b] = acc
    g = geo.tensor_from_exprs(chart, ge, (-1, -1), 0.0, "g_almost_kahler")
    return J, g
