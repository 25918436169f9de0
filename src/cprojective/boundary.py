"""Boundary geometry and asymptotic certification.

The boundary is always the zero set of a defining function inside one chart.
"Admits a smooth extension to the boundary" is made falsifiable as: sample the
quantity along a ray hitting the boundary on the geometric step schedule
t_k = t0 * 2^-k and require Richardson extrapolation to converge, with the
difference of successive extrapolation orders as the error estimate.  Each
certifier below turns one asymptotic statement (compactness normal form,
volume growth, boundary constancy of scalar curvature, Schouten and curvature
decay rates, torsion decay) into extrapolated defects compared against a
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fieldexpr as fx
from . import geometry as geo
from .geometry import (AlmostComplexStructure, ConnectionField, TensorField,
                       covariant_derivative, field_einsum, tensor_constant)


class BoundaryError(ValueError):
    pass


@dataclass
class DefiningFunction:
    """rho >= 0 with the interior on the positive side and d(rho) nonvanishing
    on the probed boundary patch."""
    chart: fx.Chart
    expr: fx.ScalarExpr

    def __post_init__(self):
        self.gradient = [fx.differentiate(self.expr, i) for i in range(self.chart.n)]
        self._value_tape = fx.compile_tape([self.expr])
        self._grad_tape = fx.compile_tape(self.gradient)

    def value(self, x):
        """rho at a point (a float) or at a batch of points (a (B,) array)."""
        values = fx.evaluate(self._value_tape, x)
        return values[0] if isinstance(values, list) else values[:, 0]

    def grad(self, x):
        return np.array(fx.evaluate(self._grad_tape, x))

    def field(self):
        return geo.scalar_from_expr(self.chart, self.expr, 0.0, "rho")

    def one_form(self):
        return geo.tensor_from_exprs(self.chart, np.array(self.gradient, dtype=object),
                                     (-1,), 0.0, "drho")


def theta(rho: DefiningFunction, J: AlmostComplexStructure) -> TensorField:
    """theta_a = -J^i_a rho_i, the contact-form candidate of a defining function."""
    return field_einsum("i,ia->a", rho.one_form(), J.field, (-1,)).scaled(-1.0)


def dtheta(theta_field: TensorField) -> TensorField:
    d = geo.coordinate_derivative(theta_field)
    return d - d.transposed((1, 0))


@dataclass
class Ray:
    """Inward ray from a boundary point with the geometric step schedule."""
    base: np.ndarray
    direction: np.ndarray
    t0: float = 0.1
    K: int = 8

    def ts(self):
        return [self.t0 * 2.0 ** (-k) for k in range(self.K + 1)]

    def points(self):
        """The samples as one (K + 1, n) batch."""
        return self.base + np.array(self.ts())[:, None] * self.direction

    def samples(self):
        return list(self.points())


def _stack_rays(rays):
    """The samples of all rays stacked into one batch, ray after ray."""
    return np.concatenate([ray.points() for ray in rays])


def _split_by_ray(values, rays):
    out = []
    start = 0
    for ray in rays:
        out.append(values[start:start + ray.K + 1])
        start += ray.K + 1
    return out


def along_rays(field_obj: TensorField, rays):
    """Values of a field at the samples of every ray, from one evaluation on
    the stacked batch of all rays: one (K + 1, ...) array per ray."""
    rays = list(rays)
    if not rays:
        return []
    return _split_by_ray(field_obj.value(_stack_rays(rays)), rays)


def project_to_boundary(rho: DefiningFunction, x, tol=1e-12, max_iter=60):
    """Newton steps along the gradient until |rho| < tol."""
    x = np.asarray(x, dtype=float).copy()
    for _ in range(max_iter):
        v = rho.value(x)
        if abs(v) < tol:
            return x
        g = rho.grad(x)
        norm2 = float(g @ g)
        if norm2 < 1e-12:
            raise BoundaryError(f"defining function has degenerate gradient near {tuple(x)}")
        x = x - v * g / norm2
    raise BoundaryError("boundary projection did not converge")


def make_ray(rho: DefiningFunction, approx_point, direction=None, t0=0.1, K=8) -> Ray:
    base = project_to_boundary(rho, approx_point)
    grad = rho.grad(base)
    if direction is None:
        direction = grad / np.linalg.norm(grad)
    direction = np.asarray(direction, dtype=float)
    if float(grad @ direction) <= 0.0:
        raise BoundaryError("ray direction must point inward (d(rho)(v) > 0)")
    ray = Ray(base, direction, t0, K)
    if (rho.value(ray.points()) <= 0.0).any():
        raise BoundaryError("ray leaves the interior within the step schedule")
    return ray


@dataclass
class LimitEstimate:
    value: float
    error_estimate: float
    converged: bool
    samples_used: int
    note: str = ""


def richardson(values, order: int):
    """Extrapolate f(t_k) on the 2^-k schedule to t = 0 with a polynomial
    model of the given degree; exact on polynomials of degree <= order."""
    values = [float(v) for v in values]
    K = len(values) - 1
    if order > K:
        raise ValueError("need at least order+1 samples")
    T = [values[:]]
    for j in range(1, order + 1):
        prev = T[-1]
        T.append([prev[k] + (prev[k] - prev[k - 1]) / (2.0 ** j - 1.0)
                  for k in range(1, len(prev))])
    value = T[order][-1]
    prev_order = T[order - 1][-1] if order >= 1 else value
    return value, abs(value - prev_order)


_EVALUATION_ERRORS = (fx.EvaluationDomainError, ArithmeticError, np.linalg.LinAlgError)


def extrapolate_limit(fn, ray: Ray, tol: float = 1e-8, order: int = 3,
                      values=None) -> LimitEstimate:
    """Boundary limit of a scalar-valued function along the ray.  `values`
    are fn at the ray samples when one batch already computed them; without
    them fn is evaluated sample by sample, so the first failing sample is the
    one reported.  Evaluation failures and divergence are reported, never
    raised."""
    if values is None:
        values = []
        for s in ray.samples():
            try:
                v = float(fn(s))
            except _EVALUATION_ERRORS as err:
                return LimitEstimate(math.nan, math.inf, False, len(values),
                                     f"evaluation failed: {err}")
            if not math.isfinite(v):
                return LimitEstimate(math.nan, math.inf, False, len(values),
                                     "non-finite sample")
            values.append(v)
    else:
        finite = np.isfinite(values)
        if not finite.all():
            return LimitEstimate(math.nan, math.inf, False, int(finite.argmin()),
                                 "non-finite sample")
    value, err = richardson(values, order)
    if not math.isfinite(value):
        return LimitEstimate(math.nan, math.inf, False, len(values), "diverged")
    return LimitEstimate(value, err, bool(err < tol), len(values))


def limits_along_rays(fn, rays, tol: float = 1e-8, order: int = 3):
    """extrapolate_limit of fn along every ray, with fn evaluated once on the
    stacked samples of all rays; fn maps a point to a number and a batch of
    points to one number per point.  If the batch fails, each ray is
    evaluated again sample by sample, so the failing sample is reported as
    the pointwise evaluation reports it."""
    rays = list(rays)
    if not rays:
        return []
    try:
        per_ray = _split_by_ray(np.asarray(fn(_stack_rays(rays)), dtype=float), rays)
    except _EVALUATION_ERRORS:
        per_ray = [None] * len(rays)
    return [extrapolate_limit(fn, ray, tol, order, values)
            for ray, values in zip(rays, per_ray)]


def frame_in_levi_subspace(rho: DefiningFunction, J: AlmostComplexStructure, x):
    """Orthonormal frame of ker(d rho) cap ker(theta) at x, by Gram-Schmidt of
    the coordinate fields against the gradient directions of rho and theta.
    For a batch of points (shape (B, n)), the list of their frames."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        return [_levi_frame(g, Jm) for g, Jm in zip(rho.grad(x), J.field.value(x))]
    return _levi_frame(rho.grad(x), J.field.value(x))


def _levi_frame(g, Jm):
    n = len(g)
    th = -Jm.T @ g          # theta_a = -rho_i J^i_a
    basis = []
    for w in (g, th):
        w = w.copy()
        for b in basis:
            w -= (w @ b) * b
        nrm = np.linalg.norm(w)
        if nrm > 1e-10:
            basis.append(w / nrm)
    frame = []
    for i in range(n):
        w = np.zeros(n)
        w[i] = 1.0
        for b in basis + frame:
            w -= (w @ b) * b
        nrm = np.linalg.norm(w)
        if nrm > 1e-8:
            frame.append(w / nrm)
    if len(frame) != n - 2:
        raise BoundaryError("could not build a frame for the CR subspace")
    return frame


@dataclass
class LeviReport:
    nondegenerate: bool
    min_levi_eigenvalue: float
    signature: tuple
    hermitean_residual: float
    tangential_residual: float
    contact: bool


def levi_checks(rho: DefiningFunction, J: AlmostComplexStructure,
                boundary_points, nondeg_threshold: float = 1e-8) -> LeviReport:
    """Non-degeneracy, signature and Hermitean-ness of the restriction of
    d(theta) to the CR subspace, plus tangentiality of the Nijenhuis tensor,
    over a grid of boundary points."""
    th = theta(rho, J)
    dth = dtheta(th)
    N = geo.nijenhuis(J)
    drho = rho.one_form()
    min_eig = math.inf
    herm_res = 0.0
    tang_res = 0.0
    signature = None
    X = np.array([project_to_boundary(rho, pt) for pt in boundary_points])
    fields = zip(dth.value(X), J.field.value(X), N.value(X), drho.value(X),
                 frame_in_levi_subspace(rho, J, X)) if len(X) else ()
    for dth_x, Jm, N_x, dr_x, frame in fields:
        herm_res = max(herm_res, float(np.abs(Jm.T @ dth_x @ Jm - dth_x).max()))
        tang_res = max(tang_res, float(np.abs(np.einsum("c,cab->ab", dr_x, N_x)).max()))
        F = np.array(frame).T                       # columns are frame vectors
        levi_skew = F.T @ dth_x @ F
        sv = np.linalg.svd(levi_skew, compute_uv=False)
        min_eig = min(min_eig, float(sv.min()) if sv.size else 0.0)
        # symmetric Levi form d(theta)(., J.) on the subspace
        levi_sym = F.T @ dth_x @ (Jm @ F)
        levi_sym = 0.5 * (levi_sym + levi_sym.T)
        eigs = np.linalg.eigvalsh(levi_sym)
        pos = int(np.sum(eigs > nondeg_threshold))
        negs = int(np.sum(eigs < -nondeg_threshold))
        sig = (pos // 2, negs // 2)
        if signature is None:
            signature = sig
        elif signature != sig:
            raise BoundaryError(f"Levi signature jumps across the patch: {signature} vs {sig}")
    nondeg = min_eig > nondeg_threshold
    return LeviReport(nondeg, min_eig, signature or (0, 0), herm_res, tang_res,
                      contact=nondeg)


@dataclass
class Certificate:
    name: str
    passed: bool
    applicable: bool = True
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def verdict(self):
        if not self.applicable:
            return "not-applicable"
        return "pass" if self.passed else "fail"


def asymptotic_smooth_part(g: TensorField, rho: DefiningFunction, C: float,
                           J: AlmostComplexStructure) -> TensorField:
    """h = rho*g - (C/rho)(drho x drho + theta x theta); smooth up to the
    boundary exactly when g has the compactified normal form with constant C."""
    chart = g.chart
    rho_f = rho.field()
    drho = rho.one_form()
    th = theta(rho, J)
    dd = field_einsum("a,b->ab", drho, drho, (-1, -1))
    tt = field_einsum("a,b->ab", th, th, (-1, -1))
    rho_g = field_einsum(",ab->ab", rho_f, g, (-1, -1))
    inv_rho = geo.scalar_from_expr(chart, fx.const(1.0) / rho.expr)
    correction = field_einsum(",ab->ab", inv_rho, dd + tt, (-1, -1)).scaled(C)
    return rho_g - correction


def _components(samples):
    """The (K + 1, ...) samples of one ray as one list of K + 1 floats per
    component, in index order."""
    return samples.reshape(len(samples), -1).T.tolist()


def _component_limits(samples, tol, order):
    """(limit, error estimate, converged) of every component, in index order,
    from the (K + 1, ...) samples of one ray.  A component with a non-finite
    sample has limit NaN, infinite error and does not converge."""
    out = []
    for vals in _components(samples):
        if not all(math.isfinite(v) for v in vals):
            out.append((math.nan, math.inf, False))
            continue
        value, err = richardson(vals, order)
        out.append((value, err, math.isfinite(value) and err < tol))
    return out


def certify_asymptotic_form(g: TensorField, rho: DefiningFunction,
                            J: AlmostComplexStructure, C: float, rays,
                            tol: float = 1e-6, order: int = 3) -> Certificate:
    """Compactness normal-form certificate: every component of the smooth part
    extrapolates convergently along every ray, and on the CR subspace the
    boundary value couples to d(theta) through the constant C."""
    rays = list(rays)
    h = asymptotic_smooth_part(g, rho, C, J)
    th = theta(rho, J)
    dth = dtheta(th)
    max_err = 0.0
    max_defect = 0.0
    all_converged = True
    n = g.chart.n
    upper = np.triu_indices(n)
    bases = np.array([ray.base for ray in rays])
    feet = zip(along_rays(h, rays), J.field.value(bases), dth.value(bases),
               frame_in_levi_subspace(rho, J, bases)) if rays else ()
    for h_samples, Jm, dth0, frame in feet:
        for _, err, converged in _component_limits(
                h_samples[:, upper[0], upper[1]], tol, order):
            all_converged &= converged
            max_err = max(max_err, err)
        # boundary coupling: h(xi, J zeta) -> C * dtheta(xi, zeta) for zeta in
        # the CR subspace at the foot point, xi the coordinate vectors
        for zeta in frame:
            Jz = Jm @ zeta
            for a in range(n):
                vals = [float(hs[a] @ Jz) for hs in h_samples]
                value, err = richardson(vals, order)
                target = C * float(dth0[a] @ zeta)
                defect = abs(value - target)
                max_defect = max(max_defect, defect)
                if not (math.isfinite(value) and err < tol and defect < tol):
                    all_converged = False
    return Certificate("asymptotic-form", all_converged,
                       diagnostics={"max_error_estimate": max_err,
                                    "max_boundary_defect": max_defect,
                                    "C": C, "tolerance": tol,
                                    "rays": len(rays)})


def certify_volume_density(tau: TensorField, rho: DefiningFunction, rays,
                           tol: float = 1e-6, order: int = 3,
                           nonzero_floor: float = 1e-4) -> Certificate:
    """tau extends by zero to a defining density: tau/rho has a finite nonzero
    boundary limit along every ray."""
    rays = list(rays)
    limits = []
    ok = True
    for est in limits_along_rays(lambda x: tau.value(x) / rho.value(x), rays, tol, order):
        limits.append(est.value)
        ok &= est.converged and math.isfinite(est.value) \
            and abs(est.value) > nonzero_floor
    return Certificate("volume-density", ok,
                       diagnostics={"limits": limits, "tolerance": tol})


def scalar_boundary_constancy(S: TensorField, rays, tol: float = 1e-5,
                              order: int = 3,
                              nonzero_floor: float = 1e-3) -> Certificate:
    """Boundary values of the scalar curvature across a connected patch agree
    within tolerance and are nonzero.  A patch of vanishing boundary values is
    reported as not applicable (the nonzero-scalar-curvature hypothesis fails)."""
    rays = list(rays)
    limits = []
    converged = True
    for est in limits_along_rays(S.value, rays, tol, order):
        converged &= est.converged
        limits.append(est.value)
    spread = max(limits) - min(limits) if limits else math.inf
    nonzero = all(abs(v) > nonzero_floor for v in limits)
    if converged and not nonzero and spread < tol:
        return Certificate("scalar-boundary-constancy", False, applicable=False,
                           diagnostics={"limits": limits, "spread": spread,
                                        "note": "boundary scalar curvature vanishes",
                                        "tolerance": tol})
    passed = converged and nonzero and spread < tol
    return Certificate("scalar-boundary-constancy", passed,
                       diagnostics={"limits": limits, "spread": spread,
                                    "tolerance": tol})


def compactification_constant(g: TensorField, P: TensorField, rays,
                              tol: float = 1e-6, order: int = 3) -> LimitEstimate:
    """Boundary limit of -(m/2) / (g^{ij} P_{ij}); for a compactified metric it
    reproduces the constant of the asymptotic normal form for any defining
    function."""
    rays = list(rays)
    m = g.chart.m
    trace = field_einsum("ij,ij->", geo.metric_inverse(g), P, ())
    limits = []
    worst = None
    for est in limits_along_rays(lambda x: -0.5 * m / trace.value(x), rays, tol, order):
        limits.append(est.value)
        if worst is None or est.error_estimate > worst.error_estimate:
            worst = est
        if not est.converged:
            return LimitEstimate(est.value, est.error_estimate, False,
                                 est.samples_used, "ray failed to converge")
    spread = max(limits) - min(limits) if limits else math.inf
    value = float(np.mean(limits))
    err = max(worst.error_estimate, spread)
    return LimitEstimate(value, err, bool(err < tol), worst.samples_used)


def rank_one_curvature(phi: TensorField, J: AlmostComplexStructure,
                       check_points=None, tol: float = 1e-10) -> TensorField:
    """Complex rank-one curvature tensor of a symmetric Hermitean phi_ab:
    C_ab^c_d = 2(d^c_[a phi_b]d - J^i_[a phi_b]i J^c_d - J^c_[a phi_b]i J^i_d)."""
    chart = phi.chart
    if check_points is not None:
        X = np.asarray(check_points, dtype=float)
        for p, Jm in zip(phi.value(X), J.field.value(X)) if len(X) else ():
            if np.abs(p - p.T).max() > tol or np.abs(Jm.T @ p @ Jm - p).max() > tol:
                raise BoundaryError("rank-one curvature needs a symmetric Hermitean input")
    eye = tensor_constant(chart, np.eye(chart.n), (+1, -1))
    Jf = J.field
    phiJ = field_einsum("bi,id->bd", phi, Jf, (-1, -1))        # phi_bi J^i_d
    Q = field_einsum("bi,ia->ab", phi, Jf, (-1, -1))           # J^i_a phi_bi

    t1 = field_einsum("ca,bd->abcd", eye, phi, (-1, -1, +1, -1))
    t1 = t1 - t1.transposed((1, 0, 2, 3))
    t2 = field_einsum("ab,cd->abcd", Q, Jf, (-1, -1, +1, -1))
    t2 = t2 - t2.transposed((1, 0, 2, 3))
    t3 = field_einsum("ca,bd->abcd", Jf, phiJ, (-1, -1, +1, -1))
    t3 = t3 - t3.transposed((1, 0, 2, 3))
    return t1 - t2 - t3


def gradient_squared_form(rho: DefiningFunction, J: AlmostComplexStructure) -> TensorField:
    """rho_a rho_b + theta_a theta_b."""
    drho = rho.one_form()
    th = theta(rho, J)
    return field_einsum("a,b->ab", drho, drho, (-1, -1)) \
        + field_einsum("a,b->ab", th, th, (-1, -1))


def certify_curvature_asymptotics(R: TensorField, rho: DefiningFunction,
                                  J: AlmostComplexStructure, rays,
                                  order: int = 1, tol: float = 1e-6,
                                  fit_order: int = 3) -> Certificate:
    """Decay of the curvature toward the boundary.

    order 1: rho^2 R + (1/4) C(drho x drho + theta x theta) extrapolates to 0.
    order 2 (integrable case): rho (R + (1/(4 rho^2)) C) minus half of the
    d(theta) insertion extrapolates to 0 componentwise.
    """
    chart = R.chart
    phi = gradient_squared_form(rho, J)
    Cfield = rank_one_curvature(phi, J)
    rho_f = rho.field()
    rho2 = field_einsum(",->", rho_f, rho_f, ())
    if order == 1:
        defect = field_einsum(",abcd->abcd", rho2, R, (-1, -1, +1, -1)) \
            + Cfield.scaled(0.25)
    elif order == 2:
        inner = R + field_einsum(",abcd->abcd",
                                 geo.scalar_from_expr(
                                     chart, fx.const(0.25) / (rho.expr * rho.expr)),
                                 Cfield, (-1, -1, +1, -1))
        th = theta(rho, J)
        dth = dtheta(th)
        E = _dtheta_insertion(dth, J)
        defect = field_einsum(",abcd->abcd", rho_f, inner, (-1, -1, +1, -1)) \
            - E.scaled(0.5)
    else:
        raise ValueError("order must be 1 or 2")
    ok, max_limit, max_err = _decay_to_zero(defect, rays, tol, fit_order)
    return Certificate(f"curvature-asymptotics-order{order}", ok,
                       diagnostics={"max_boundary_defect": max_limit,
                                    "max_error_estimate": max_err,
                                    "tolerance": tol})


def _decay_to_zero(field_obj: TensorField, rays, tol, order):
    """Whether every component of the field extrapolates to 0 along every
    ray, with the largest finite |limit| and the largest error estimate."""
    ok = True
    max_limit = 0.0
    max_err = 0.0
    for samples in along_rays(field_obj, rays):
        for value, err, converged in _component_limits(samples, tol, order):
            ok &= converged and abs(value) < tol
            if math.isfinite(value):
                max_limit = max(max_limit, abs(value))
            max_err = max(max_err, err)
    return ok, max_limit, max_err


def _dtheta_insertion(dth: TensorField, J: AlmostComplexStructure) -> TensorField:
    """d^c_[a J^i_b] (dth)_{di} - (dth)_{ab} J^c_d + J^c_[a J^i_b] (dth)_{ij} J^j_d."""
    chart = dth.chart
    eye = tensor_constant(chart, np.eye(chart.n), (+1, -1))
    Jf = J.field
    dthJ = field_einsum("di,ib->bd", dth, Jf, (-1, -1))        # J^i_b (dth)_{di}
    t1 = field_einsum("ca,bd->abcd", eye, dthJ, (-1, -1, +1, -1))
    t1 = (t1 - t1.transposed((1, 0, 2, 3))).scaled(0.5)
    t2 = field_einsum("ab,cd->abcd", dth, Jf, (-1, -1, +1, -1))
    JdthJ = field_einsum("ij,ia->aj", dth, Jf, (-1, -1))       # J^i_a (dth)_{ij}
    JdthJ = field_einsum("aj,jd->ad", JdthJ, Jf, (-1, -1))     # ... J^j_d
    t3 = field_einsum("ca,bd->abcd", Jf, JdthJ, (-1, -1, +1, -1))
    t3 = (t3 - t3.transposed((1, 0, 2, 3))).scaled(0.5)
    return t1 - t2 + t3


def trimmed_ray(ray: Ray, trim: int) -> Ray:
    return Ray(ray.base, ray.direction, ray.t0, max(ray.K - trim, 3))


def _boundedness_ok(samples, tol: float, order: int, rel: float = 1e-3) -> bool:
    """Convergence in the sense of 'admits a smooth extension', from the
    (K + 1, ...) samples of one ray: extrapolation error small relative to
    each component's own scale.  A 1/rho divergence doubles along the
    schedule and fails with O(1) relative error."""
    for vals in _components(samples):
        if not all(math.isfinite(v) for v in vals):
            return False
        _, err = richardson(vals, order)
        scale_ref = 1.0 + max(abs(v) for v in vals)
        if err > max(tol, rel * scale_ref):
            return False
    return True


def certify_schouten_asymptotics(dec: geo.SchoutenDecomposition,
                                 rho: DefiningFunction,
                                 conn_hat: ConnectionField,
                                 J: AlmostComplexStructure, rays,
                                 tol: float = 1e-6,
                                 fit_order: int = 3,
                                 boundedness_trim: int = 3) -> Certificate:
    """Schouten decay certificate:
    (a) rho P + (1/(4 rho))(drho x drho + theta x theta) - (1/2) hat-nabla d(rho)
        extrapolates to 0 componentwise;
    (b) the skew part and rho times the anti-Hermitean symmetric part converge;
    (c) the metric-tracefree Hermitean part converges (boundedness).

    The boundedness legs drop the tightest samples: near the boundary the
    float error of curvature-derived quantities grows like eps/rho^2 and would
    swamp an analytically-bounded component, while genuine 1/rho divergence is
    still detected loudly on the trimmed schedule."""
    rays = list(rays)
    chart = rho.chart
    rho_f = rho.field()
    phi = gradient_squared_form(rho, J)
    inv_rho4 = geo.scalar_from_expr(chart, fx.const(0.25) / rho.expr)
    lhs = field_einsum(",ab->ab", rho_f, dec.P, (-1, -1)) \
        + field_einsum(",ab->ab", inv_rho4, phi, (-1, -1))
    nabla_hat_drho = covariant_derivative(conn_hat, rho.one_form())
    defect = lhs - nabla_hat_drho.scaled(0.5)
    ok, max_defect, max_err = _decay_to_zero(defect, rays, tol, fit_order)
    beta_ok = True
    pzero_ok = True
    rho_pminus = field_einsum(",ab->ab", rho_f, dec.P_minus, (-1, -1))
    # the trimmed schedule is a prefix of each ray's samples
    kept = [trimmed_ray(ray, boundedness_trim).K + 1 for ray in rays]
    for keep, beta, pminus in zip(kept, along_rays(dec.beta, rays),
                                  along_rays(rho_pminus, rays)):
        beta_ok &= _boundedness_ok(beta[:keep], tol, fit_order)
        beta_ok &= _boundedness_ok(pminus[:keep], tol, fit_order)
    if dec.P_zero is not None:
        for keep, pzero in zip(kept, along_rays(dec.P_zero, rays)):
            pzero_ok &= _boundedness_ok(pzero[:keep], tol, fit_order)
    return Certificate("schouten-asymptotics", ok and beta_ok and pzero_ok,
                       diagnostics={"max_boundary_defect": max_defect,
                                    "max_error_estimate": max_err,
                                    "skew_and_antihermitean_converged": beta_ok,
                                    "tracefree_hermitean_converged": pzero_ok,
                                    "tolerance": tol})


def certify_asymptotically_parallel_nijenhuis(J: AlmostComplexStructure,
                                              conn: ConnectionField, rays,
                                              tol: float = 1e-6,
                                              fit_order: int = 3) -> Certificate:
    """nabla N extends by zero to the boundary: every component extrapolates
    to 0 along every ray."""
    N = geo.nijenhuis(J)
    DN = covariant_derivative(conn, N)
    ok, max_limit, _ = _decay_to_zero(DN, rays, tol, fit_order)
    return Certificate("nijenhuis-parallel-decay", ok,
                       diagnostics={"max_boundary_limit": max_limit,
                                    "tolerance": tol})


def psi_boundedness(conn: ConnectionField, psi: TensorField, rays,
                    tol: float = 1e-5, fit_order: int = 3) -> Certificate:
    """Extendability test for the c-projective structure: the tracefree
    coefficients extrapolate convergently while the raw coefficients diverge;
    reports the vanishing ratio max|Psi| / max|Gamma| at the tightest sample."""
    rays = list(rays)
    ok = True
    ratios = []
    for psi_samples, gamma_samples in zip(along_rays(psi, rays),
                                          along_rays(conn.coeffs, rays)):
        psi_vals = geo.max_abs_per_point(psi_samples)
        gamma_vals = geo.max_abs_per_point(gamma_samples)
        ok &= all(c for _, _, c in _component_limits(psi_samples, tol, fit_order))
        if gamma_vals[-1] > 1e-12:
            ratios.append(psi_vals[-1] / gamma_vals[-1])
        else:
            ratios.append(math.inf)
        ok &= bool(gamma_vals[-1] > gamma_vals[0])      # raw coefficients blow up
    return Certificate("tracefree-coefficient-boundedness", ok,
                       diagnostics={"final_psi_to_gamma_ratio": max(ratios),
                                    "tolerance": tol})
