"""Slot-form tractor calculus: the bundle of Hermitean tractor forms and its
dual (the metricity bundle), scale changes, canonical connections, splitting
operators, the metricity residual, determinants and inversion.

Sections are kept as slot triples in the splitting determined by a chosen
connection ("scale") in the c-projective class:

    H-side:  (tau; phi_a; psi_bc)        all of weight  2,
    dual:    (sigma^ab; mu^c; nu)        all of weight -2,

with psi and sigma symmetric Hermitean.  The pairing
tau*nu + phi_i mu^i + (1/2) psi_ij sigma^ij is scale-invariant, and the two
slot connections are dual to each other for it; both facts are exercised by
the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .cproj import cproj_change, schouten_transform
from .geometry import (AlmostComplexStructure, ConnectionField, TensorField,
                       covariant_derivative, field_contract, field_einsum,
                       tensor_constant)
from .jets import jabs_pow, jdet, jinv_matrix, jmul, jrecip


class TractorError(ValueError):
    pass


@dataclass
class Scale:
    """A connection in the c-projective class together with its Schouten
    tensor; fixes the slot splitting of both tractor bundles."""
    conn: ConnectionField
    J: AlmostComplexStructure
    P: TensorField
    m: int
    decomposition: geo.SchoutenDecomposition = None


def scale_from_connection(conn: ConnectionField, J: AlmostComplexStructure,
                          g: TensorField = None) -> Scale:
    R = geo.curvature(conn)
    dec = geo.schouten(geo.ricci(R), J, conn.chart.m, g)
    return Scale(conn, J, dec.P, conn.chart.m, dec)


def scale_from_metric(g: TensorField, J: AlmostComplexStructure) -> Scale:
    return scale_from_connection(geo.canonical_connection(g, J), J, g)


def change_scale(scale: Scale, upsilon: TensorField) -> Scale:
    conn_hat = cproj_change(scale.conn, upsilon, scale.J)
    P_hat = schouten_transform(scale.P, upsilon, scale.conn, scale.J)
    return Scale(conn_hat, scale.J, P_hat, scale.m)


@dataclass
class HSection:
    """Hermitean tractor form in a scale: slots (tau, phi_a, psi_bc), weight 2."""
    scale: Scale
    tau: TensorField
    phi: TensorField
    psi: TensorField


@dataclass
class HStarSection:
    """Metricity-bundle section in a scale: slots (sigma^ab, mu^c, nu), weight -2."""
    scale: Scale
    sigma: TensorField
    mu: TensorField
    nu: TensorField


@dataclass
class HSectionDerivative:
    """One-form with H-section values: slots carry a leading lower index."""
    tau: TensorField      # (a)
    phi: TensorField      # (a, b)
    psi: TensorField      # (a, c, d)


@dataclass
class HStarSectionDerivative:
    sigma: TensorField    # (a, b, c)
    mu: TensorField       # (a, d)
    nu: TensorField       # (a)


def _upsilon_J(upsilon, J):
    return field_einsum("i,ia->a", upsilon, J.field, (-1,))


def h_change_scale(h: HSection, upsilon: TensorField,
                   new_scale: Scale = None) -> HSection:
    """Slot transformation under a change of scale by a one-form:
    tau fixed, phi_a += U_a tau,
    psi_bc += (d^i_b d^j_c + J^i_b J^j_c)(U_i phi_j + U_j phi_i + U_i U_j tau)."""
    scale = new_scale if new_scale is not None else change_scale(h.scale, upsilon)
    J = h.scale.J
    tau, phi = h.tau, h.phi
    phi_hat = phi + field_einsum("a,->a", upsilon, tau, (-1,))
    X = field_einsum("i,j->ij", upsilon, phi, (-1, -1))
    X = X + X.transposed((1, 0))
    X = X + field_einsum("ij,->ij",
                         field_einsum("i,j->ij", upsilon, upsilon, (-1, -1)),
                         tau, (-1, -1))
    psi_hat = h.psi + X + geo._conjugate_by_J(X, J.field)
    return HSection(scale, tau, phi_hat, psi_hat)


def hstar_change_scale(s: HStarSection, upsilon: TensorField,
                       new_scale: Scale = None) -> HStarSection:
    """sigma fixed, mu^c -= 2 U_i sigma^ic, nu += -U_i mu^i + U_i U_j sigma^ij."""
    scale = new_scale if new_scale is not None else change_scale(s.scale, upsilon)
    mu_hat = s.mu - field_einsum("i,ic->c", upsilon, s.sigma, (+1,)).scaled(2.0)
    nu_hat = s.nu - field_einsum("i,i->", upsilon, s.mu, ()) \
        + field_einsum("i,i->", upsilon,
                       field_einsum("j,ij->i", upsilon, s.sigma, (+1,)), ())
    return HStarSection(scale, s.sigma, mu_hat, nu_hat)


def pairing(h: HSection, s: HStarSection) -> TensorField:
    """tau(h)*nu(s) + phi_i mu^i + (1/2) psi_ij sigma^ij; weight zero."""
    if h.scale is not s.scale:
        raise TractorError("pairing requires both sections in the same scale")
    t1 = field_einsum(",->", h.tau, s.nu, ())
    t2 = field_einsum("i,i->", h.phi, s.mu, ())
    t3 = field_einsum("ij,ij->", h.psi, s.sigma, ()).scaled(0.5)
    return t1 + t2 + t3


def tractor_connection_H(h: HSection, P: TensorField = None) -> HSectionDerivative:
    """Slotwise covariant derivative on the Hermitean-form bundle:
    (nabla_a tau - 2 phi_a;
     nabla_a phi_b + P_ab tau - psi_ab;
     nabla_a psi_cd + P_ac phi_d + P_ad phi_c
       + P_ai J^i_c phi_j J^j_d + P_ai J^i_d phi_j J^j_c)."""
    scale = h.scale
    if P is None:
        P = scale.P
    conn, J = scale.conn, scale.J
    Dtau = covariant_derivative(conn, h.tau)
    slot1 = Dtau - h.phi.scaled(2.0)
    Dphi = covariant_derivative(conn, h.phi)
    slot2 = Dphi + field_einsum("ab,->ab", P, h.tau, (-1, -1)) - h.psi
    Dpsi = covariant_derivative(conn, h.psi)
    PJ = field_einsum("ai,ic->ac", P, J.field, (-1, -1))     # P_ai J^i_c
    phiJ = field_einsum("j,jd->d", h.phi, J.field, (-1,))    # phi_j J^j_d
    t = field_einsum("ac,d->acd", P, h.phi, (-1, -1, -1))
    t = t + t.transposed((0, 2, 1))
    u = field_einsum("ac,d->acd", PJ, phiJ, (-1, -1, -1))
    u = u + u.transposed((0, 2, 1))
    slot3 = Dpsi + t + u
    return HSectionDerivative(slot1, slot2, slot3)


def tractor_connection_Hstar(s: HStarSection,
                             P: TensorField = None) -> HStarSectionDerivative:
    """Dual slotwise connection:
    (nabla_a sigma^bc + d^(b_a mu^c) + J_a^(b J_i^c) mu^i;
     nabla_a mu^d - 2 sigma^di P_ai + 2 nu d^d_a;
     nabla_a nu - mu^i P_ai)."""
    scale = s.scale
    if P is None:
        P = scale.P
    conn, J = scale.conn, scale.J
    chart = conn.chart
    eye = tensor_constant(chart, np.eye(chart.n), (+1, -1))
    Dsigma = covariant_derivative(conn, s.sigma)
    ins = field_einsum("ba,c->abc", eye, s.mu, (-1, +1, +1))
    ins = (ins + ins.transposed((0, 2, 1))).scaled(0.5)
    Jmu = field_einsum("ci,i->c", J.field, s.mu, (+1,))      # J^c_i mu^i
    ins2 = field_einsum("ba,c->abc", J.field, Jmu, (-1, +1, +1))
    ins2 = (ins2 + ins2.transposed((0, 2, 1))).scaled(0.5)
    slot1 = Dsigma + ins + ins2
    Dmu = covariant_derivative(conn, s.mu)
    sP = field_einsum("di,ai->ad", s.sigma, P, (-1, +1))     # sigma^di P_ai
    nu_eye = field_einsum(",da->ad", s.nu, eye, (-1, +1))
    slot2 = Dmu - sP.scaled(2.0) + nu_eye.scaled(2.0)
    Dnu = covariant_derivative(conn, s.nu)
    slot3 = Dnu - field_einsum("i,ai->a", s.mu, P, (-1,))
    return HStarSectionDerivative(slot1, slot2, slot3)


def pairing_of_derivative_h(hd: HSectionDerivative, s: HStarSection) -> TensorField:
    t1 = field_einsum("a,->a", hd.tau, s.nu, (-1,))
    t2 = field_einsum("ab,b->a", hd.phi, s.mu, (-1,))
    t3 = field_einsum("abc,bc->a", hd.psi, s.sigma, (-1,)).scaled(0.5)
    return t1 + t2 + t3


def pairing_of_derivative_hstar(h: HSection, sd: HStarSectionDerivative) -> TensorField:
    t1 = field_einsum(",a->a", h.tau, sd.nu, (-1,))
    t2 = field_einsum("b,ab->a", h.phi, sd.mu, (-1,))
    t3 = field_einsum("bc,abc->a", h.psi, sd.sigma, (-1,)).scaled(0.5)
    return t1 + t2 + t3


def tfp(psi: TensorField, J: AlmostComplexStructure = None) -> TensorField:
    """Tracefree projection of psi_a^{bc} (symmetric Hermitean in bc):
    psi - (1/m)(d_a^(b tr^c) + J^(b_a J^c)_i tr^i),  tr^b = psi_i^{bi}."""
    chart = psi.chart
    m = chart.m
    if J is None:
        J = geo.standard_J(chart)
    Jf = J.field
    eye = tensor_constant(chart, np.eye(chart.n), (+1, -1))
    # slots (a, b, c); the single trace contracts the form index with an
    # argument index
    tr = field_contract("aba->b", psi, (+1,), psi.weight)
    t1 = field_einsum("ba,c->abc", eye, tr, (-1, +1, +1), psi.weight)
    t1 = (t1 + t1.transposed((0, 2, 1))).scaled(0.5)
    # J^(b_a J^c)_i tr^i
    Jtr = field_einsum("ci,i->c", Jf, tr, (+1,), psi.weight)
    t2 = field_einsum("ba,c->abc", Jf, Jtr, (-1, +1, +1), psi.weight)
    t2 = (t2 + t2.transposed((0, 2, 1))).scaled(0.5)
    return psi - (t1 + t2).scaled(1.0 / m)


def metricity_residual(sigma: TensorField, conn: ConnectionField) -> TensorField:
    """tfp(nabla_a sigma^bc): the invariant metricity operator; vanishes exactly
    on solutions and is independent of the scale used to compute it."""
    return tfp(covariant_derivative(conn, sigma), conn.J)


def metric_sigma(g: TensorField, tau: TensorField) -> TensorField:
    """sigma^ab = tau^-1 g^ab (weight -2): the metricity solution of a metric,
    with tau its weight-2 volume scale (geometry.volume_density_and_tau)."""
    tau_inv = TensorField(g.chart, (), -2.0, lambda x, k: jrecip(tau.jet(x, k)),
                          "tau_inv")
    return field_einsum(",ab->ab", tau_inv, geo.metric_inverse(g), (+1, +1))


def splitting_L_sigma(sigma: TensorField, scale: Scale) -> HStarSection:
    """Lift of sigma^ab to the metricity bundle:
    (sigma; -(1/m) nabla_i sigma^ic;
     (1/(4m^2)) nabla_i nabla_j sigma^ij + (1/(2m)) sigma^ij P_ij)."""
    m = scale.m
    conn = scale.conn
    Dsigma = covariant_derivative(conn, sigma)
    div = field_contract("aab->b", Dsigma, (+1,), sigma.weight)   # nabla_i sigma^ic
    mu = div.scaled(-1.0 / m)
    div2 = field_contract("aa->", covariant_derivative(conn, div), (),
                          sigma.weight)
    trace = field_einsum("ij,ij->", sigma, scale.P, ())
    nu = div2.scaled(1.0 / (4.0 * m * m)) + trace.scaled(1.0 / (2.0 * m))
    return HStarSection(scale, sigma, mu, nu)


def splitting_L_tau(tau: TensorField, scale: Scale) -> HSection:
    """Lift of a weight-2 scalar:
    (tau; (1/2) nabla_a tau;
     (1/2)(d^i_(b d^j_c) + J^i_(b J^j_c))((1/2) nabla_i nabla_j tau + P_ij tau))."""
    conn, J = scale.conn, scale.J
    Dtau = covariant_derivative(conn, tau)
    phi = Dtau.scaled(0.5)
    DDtau = covariant_derivative(conn, Dtau)
    Y = DDtau.scaled(0.5) + field_einsum("ij,->ij", scale.P, tau, (-1, -1))
    Ysym = (Y + Y.transposed((1, 0))).scaled(0.5)
    JYJ = geo._conjugate_by_J(Ysym, J.field)
    psi = (Ysym + JYJ).scaled(0.5)
    return HSection(scale, tau, phi, psi)


def bgg_residual_tau(tau: TensorField, scale: Scale) -> TensorField:
    """Anti-Hermitean symmetric part of nabla_a nabla_b tau + 2 P_ab tau; the
    overdetermined equation solved by parallel volume scales."""
    conn, J = scale.conn, scale.J
    DDtau = covariant_derivative(conn, covariant_derivative(conn, tau))
    X = DDtau + field_einsum("ab,->ab", scale.P, tau, (-1, -1)).scaled(2.0)
    Xsym = (X + X.transposed((1, 0))).scaled(0.5)
    return (Xsym - geo._conjugate_by_J(Xsym, J.field)).scaled(0.5)


def einstein_residual(sigma: TensorField, scale: Scale) -> TensorField:
    """(1/m) sigma^ij P_ij d^b_a - 2 sigma^bi P_ai: the middle slot of the
    derivative of the lifted solution in its parallel scale; zero exactly for
    Einstein metrics."""
    chart = scale.conn.chart
    eye = tensor_constant(chart, np.eye(chart.n), (+1, -1))
    trace = field_einsum("ij,ij->", sigma, scale.P, ())
    t1 = field_einsum(",ba->ab", trace, eye, (-1, +1)).scaled(1.0 / scale.m)
    t2 = field_einsum("bi,ai->ab", sigma, scale.P, (-1, +1))
    return t1 - t2.scaled(2.0)


def _require_mu_zero(s: HStarSection, x, tol=1e-8):
    points = np.atleast_2d(x)
    mu = np.abs(s.mu.value(x)).reshape(len(points), -1).max(axis=1)
    above = mu > tol
    if above.any():
        i = above.argmax()
        raise TractorError("operation requires a scale with vanishing middle slot"
                           f" (|mu| = {mu[i]:.3e} at {tuple(points[i].tolist())})")


def det_H(s: HStarSection, tol_mu: float = 1e-8) -> TensorField:
    """Signed square root of the real Gram determinant, in a scale with mu = 0:
    the Gram matrix is block-diagonal with the real 2m x 2m sigma block and
    nu times a 2 x 2 identity, so det = det(sigma) * nu^2.  Defined up to one
    global constant per chart; consumers compare ratios."""
    chart = s.sigma.chart

    def jet_fn(x, k):
        _require_mu_zero(s, x, tol_mu)
        dets = jdet(s.sigma.jet(x, k))
        nu = s.nu.jet(x, k)
        gram = jmul(",->", dets, jmul(",->", nu, nu))
        sign = np.where(gram.terms[0] >= 0, 1.0, -1.0)
        return jabs_pow(gram, 0.5).scaled(sign)

    return TensorField(chart, (), 0.0, jet_fn, "detH")


def invert_H(s: HStarSection, tol_mu: float = 1e-8) -> HSection:
    """Inverse Hermitean form of a nondegenerate section in a mu = 0 scale:
    slots (1/nu; 0; inverse of sigma lowered)."""
    chart = s.sigma.chart

    def tau_fn(x, k):
        _require_mu_zero(s, x, tol_mu)
        nu = s.nu.jet(x, k)
        if (nu.terms[0] == 0.0).any():
            raise TractorError("inverse undefined where nu vanishes")
        return jrecip(nu)

    def psi_fn(x, k):
        _require_mu_zero(s, x, tol_mu)
        return jinv_matrix(s.sigma.jet(x, k))

    tau = TensorField(chart, (), 2.0, tau_fn, "invH-tau")
    phi = tensor_constant(chart, np.zeros(chart.n), (-1,), 2.0)
    psi = TensorField(chart, (-1, -1), 2.0, psi_fn, "invH-psi")
    return HSection(s.scale, tau, phi, psi)


def invert_H_section(h: HSection, tol_phi: float = 1e-8) -> HStarSection:
    """Inverse map back to the metricity bundle for sections with phi = 0."""
    chart = h.psi.chart

    def nu_fn(x, k):
        if np.abs(h.phi.value(x)).max() > tol_phi:
            raise TractorError("inversion requires a vanishing middle slot")
        tau = h.tau.jet(x, k)
        if (tau.terms[0] == 0.0).any():
            raise TractorError("inverse undefined where tau vanishes")
        return jrecip(tau)

    def sigma_fn(x, k):
        if np.abs(h.phi.value(x)).max() > tol_phi:
            raise TractorError("inversion requires a vanishing middle slot")
        return jinv_matrix(h.psi.jet(x, k))

    sigma = TensorField(chart, (+1, +1), -2.0, sigma_fn)
    mu = tensor_constant(chart, np.zeros(chart.n), (+1,), -2.0)
    nu = TensorField(chart, (), -2.0, nu_fn)
    return HStarSection(h.scale, sigma, mu, nu)
