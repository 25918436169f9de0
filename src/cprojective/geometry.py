"""Tensor fields, complex structures, metrics, connections and curvature.

Everything lives on a single chart in real abstract-index form.  A TensorField
is a pointwise-evaluable array of components with declared index variances and
a real density weight; it exposes exact derivative arrays ("jets") to any
order.  Leaf fields are backed by symbolic expressions; composite fields
(inverse metrics, Christoffel symbols, curvature, ...) propagate jets through
exact algebraic recursions from :mod:`cprojective.jets`.

Density bundles of weight w are trivialized against the coordinate volume, so
sections are plain scalar fields and the induced connection acts through the
trace of the Christoffel symbols; the sign is normalized so the metric volume
density (weight -2m-2) is parallel for metric connections.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from . import fieldexpr as fx
from .jets import (Jet, jcontract, jdet, jinv_matrix, jmul, jpartial,
                   jabs_pow, jtranspose)


class GeometryError(ValueError):
    pass


class TensorField:
    """Pointwise-evaluable tensor with exact derivatives to any order.

    variance: tuple of +1 (upper) / -1 (lower) in notational index order.
    weight:   real density weight; composes additively under products.
    """

    def __init__(self, chart, variance, weight, jet_fn, name=""):
        self.chart = chart
        self.variance = tuple(variance)
        self.weight = float(weight)
        self._jet_fn = jet_fn
        self._cache = {}
        self.name = name

    @property
    def rank(self):
        return len(self.variance)

    def jet(self, x, order) -> Jet:
        """Jet at a point x of shape (n,), or at every point of a batch of
        shape (B, n): then every term has a leading batch axis of length B.
        Jets are cached per point or batch."""
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        cached = self._cache.get(key)
        if cached is not None and cached.order >= order:
            return cached.truncated(order)
        jet = self._jet_fn(x, order)
        if x.ndim > 1 and jet.terms[0].ndim == len(jet.comp_shape):
            # a constant: give it the batch axis callers index by point
            jet = Jet(jet.n, jet.comp_shape,
                      [np.broadcast_to(t, x.shape[:-1] + t.shape) for t in jet.terms])
        self._cache[key] = jet
        return jet

    def value(self, x) -> np.ndarray:
        return self.jet(x, 0).terms[0]

    def __add__(self, other):
        _check_compatible(self, other)
        return TensorField(self.chart, self.variance, self.weight,
                           lambda x, k: self.jet(x, k) + other.jet(x, k))

    def __sub__(self, other):
        _check_compatible(self, other)
        return TensorField(self.chart, self.variance, self.weight,
                           lambda x, k: self.jet(x, k) - other.jet(x, k))

    def __neg__(self):
        return TensorField(self.chart, self.variance, self.weight,
                           lambda x, k: -self.jet(x, k))

    def scaled(self, c):
        return TensorField(self.chart, self.variance, self.weight,
                           lambda x, k: self.jet(x, k).scaled(c))

    def transposed(self, perm, variance=None):
        if variance is None:
            variance = tuple(self.variance[p] for p in perm)
        return TensorField(self.chart, variance, self.weight,
                           lambda x, k: jtranspose(self.jet(x, k), perm))

    def __repr__(self):
        sig = "".join("+" if v > 0 else "-" for v in self.variance)
        return f"<TensorField ({sig}) w={self.weight} {self.name}>"


def _check_compatible(a, b):
    if a.variance != b.variance:
        raise GeometryError(f"variance mismatch {a.variance} vs {b.variance}")
    if a.weight != b.weight:
        raise GeometryError(f"weight mismatch {a.weight} vs {b.weight}")


def tensor_from_exprs(chart, comps, variance, weight=0.0, name=""):
    """Leaf field whose components are closed-form expressions.

    The first jet of each order compiles the derivative trees of every
    component along every sorted multi-index up to that order into one Tape,
    with one gather index per order that fills the symmetric derivative
    array; every later point or batch of that order is one pass over the
    tape.
    """
    comps = np.asarray(comps, dtype=object)
    n = chart.n
    programs = {}

    def compile_jet(order):
        roots = []
        gathers = []
        ranks = np.arange(comps.size).reshape(comps.shape)
        for k in range(order + 1):
            midxs = list(itertools.combinations_with_replacement(range(n), k))
            gathers.append(len(roots) + ranks.reshape(comps.shape + (1,) * k) * len(midxs)
                           + fx.symmetric_index(n, k))
            roots += [fx.derivative_trees(comps[ci], midx)
                      for ci in np.ndindex(comps.shape) for midx in midxs]
        return fx.compile_tape(roots), gathers

    def jet_fn(x, order):
        program = programs.get(order)
        if program is None:
            program = programs[order] = compile_jet(order)
        tape, gathers = program
        values = fx.evaluate(tape, np.atleast_2d(x))
        if x.ndim == 1:
            values = values[0]
        return Jet(n, comps.shape, [values[..., g] for g in gathers])

    return TensorField(chart, variance, weight, jet_fn, name)


def tensor_constant(chart, array, variance, weight=0.0, name=""):
    array = np.asarray(array, dtype=float)
    return TensorField(chart, variance, weight,
                       lambda x, k: Jet.constant(chart.n, array, k), name)


def scalar_from_expr(chart, expr, weight=0.0, name=""):
    return tensor_from_exprs(chart, np.array(expr, dtype=object), (), weight, name)


def field_einsum(spec, a: TensorField, b: TensorField, variance, weight=None, name=""):
    """Pointwise einsum of two fields with exact Leibniz jets."""
    if weight is None:
        weight = a.weight + b.weight
    return TensorField(a.chart, variance, weight,
                       lambda x, k: jmul(spec, a.jet(x, k), b.jet(x, k)), name)


def field_contract(spec, a: TensorField, variance, weight=None, name=""):
    if weight is None:
        weight = a.weight
    return TensorField(a.chart, variance, weight,
                       lambda x, k: jcontract(spec, a.jet(x, k)), name)


def coordinate_derivative(a: TensorField):
    """Raw coordinate derivative (leading lower axis).  Tensorial only for
    weight-zero scalars and for antisymmetrized one-forms; used as a building
    block elsewhere."""
    return TensorField(a.chart, (-1,) + a.variance, a.weight,
                       lambda x, k: jpartial(a.jet(x, k + 1)))


# -- almost complex structures ---------------------------------------------------

class AlmostComplexStructure:
    """J as a (1,1) tensor field with J^2 = -id, backed by expressions."""

    def __init__(self, chart, expr_matrix, name="J"):
        self.chart = chart
        self.expr_matrix = np.asarray(expr_matrix, dtype=object)
        self.field = tensor_from_exprs(chart, self.expr_matrix, (+1, -1), 0.0, name)
        self.is_constant = all(isinstance(e, fx.Const) for e in self.expr_matrix.flat)

    def matrix(self, x):
        return self.field.value(x)


def standard_J(chart) -> AlmostComplexStructure:
    """Constant complex structure with J dx_k = dy_k in interleaved coordinates.

    Calls for one chart share one J while it is in use.  The chart holds it
    through a weak reference: a strong one would make a reference cycle
    (J.chart is the chart) that only the cyclic garbage collector frees,
    holding J's jet caches until it runs."""
    cached = getattr(chart, "_standard_J", None)
    cached = cached() if cached is not None else None
    if cached is not None:
        return cached
    n = chart.n
    M = np.zeros((n, n))
    for k in range(chart.m):
        M[2 * k + 1, 2 * k] = 1.0
        M[2 * k, 2 * k + 1] = -1.0
    exprs = np.array([[fx.const(M[i, j]) for j in range(n)] for i in range(n)],
                     dtype=object)
    J = AlmostComplexStructure(chart, exprs)
    J.constant_matrix = M
    chart._standard_J = weakref.ref(J)
    return J


def nijenhuis(J: AlmostComplexStructure) -> TensorField:
    """Nijenhuis tensor of J, normalized so a minimal complex connection has
    torsion -N/4 and d(theta)(J.,.) + d(theta)(.,J.) = d(rho)(N(.,.)) for
    theta = -d(rho) o J."""
    chart = J.chart
    Jf = J.field
    if J.is_constant:
        return tensor_constant(chart, np.zeros((chart.n,) * 3), (+1, -1, -1), 0.0, "N")

    def jet_fn(x, k):
        Jk = Jf.jet(x, k)
        dJ = jpartial(Jf.jet(x, k + 1))  # axes (e, c, b) = d_e J^c_b
        t1 = jmul("ib,ica->cab", Jk, dJ)      # J^i_b d_i J^c_a
        t3 = jmul("ci,aib->cab", Jk, dJ)      # J^c_i d_a J^i_b
        t1s = jtranspose(t1, (0, 2, 1))
        t3s = jtranspose(t3, (0, 2, 1))
        return t1 - t1s + t3 - t3s

    return TensorField(chart, (+1, -1, -1), 0.0, jet_fn, "N")


# -- connections ------------------------------------------------------------------

class ConnectionField:
    """Connection coefficients G[c,a,b] meaning nabla_{e_a} e_b = G[c,a,b] e_c."""

    def __init__(self, chart, coeffs: TensorField, J=None, complex_flag=False,
                 minimal_flag=False, name=""):
        self.chart = chart
        self.coeffs = coeffs
        self.J = J
        self.complex_flag = complex_flag
        self.minimal_flag = minimal_flag
        self.name = name
        self._trace = None

    def value(self, x):
        return self.coeffs.value(x)

    def torsion(self) -> TensorField:
        c = self.coeffs
        return c - c.transposed((0, 2, 1), variance=c.variance)

    def trace_field(self) -> TensorField:
        """G^i_{ai}, the density-connection generator."""
        if self._trace is None:
            self._trace = field_contract("cac->a", self.coeffs, (-1,), 0.0, "trG")
        return self._trace

    def __repr__(self):
        return f"<ConnectionField {self.name or 'G'}>"


def connection_from_exprs(chart, comps, J=None, complex_flag=False,
                          minimal_flag=False, name=""):
    return ConnectionField(chart, tensor_from_exprs(chart, comps, (+1, -1, -1)),
                           J, complex_flag, minimal_flag, name)


def flat_connection(chart, J=None) -> ConnectionField:
    zero = tensor_constant(chart, np.zeros((chart.n,) * 3), (+1, -1, -1))
    return ConnectionField(chart, zero, J, complex_flag=J is not None,
                           minimal_flag=True, name="flat")


def covariant_derivative(conn: ConnectionField, T: TensorField) -> TensorField:
    """nabla T with the new lower index first; includes the density-weight term
    (w / (2m+2)) G^i_{ai} T for weighted fields."""
    chart = T.chart
    r = T.rank
    letters = "bcdefgh"[:r]
    w_factor = T.weight / (2.0 * chart.m + 2.0)

    def jet_fn(x, k):
        Tj1 = T.jet(x, k + 1)
        G = conn.coeffs.jet(x, k)
        out = jpartial(Tj1)
        Tj = Tj1.truncated(k)
        for s in range(r):
            ls = letters[s]
            dummy = "z"
            t_in = letters.replace(ls, dummy)
            if T.variance[s] > 0:
                spec = f"{ls}a{dummy},{t_in}->a{letters}"
                out = out + jmul(spec, G, Tj)
            else:
                spec = f"{dummy}a{ls},{t_in}->a{letters}"
                out = out - jmul(spec, G, Tj)
        if w_factor != 0.0:
            tr = jcontract("cac->a", G)
            out = out + jmul(f"a,{letters}->a{letters}", tr, Tj).scaled(w_factor)
        return out

    return TensorField(chart, (-1,) + T.variance, T.weight, jet_fn,
                       f"D{T.name}")


def density_covariant_derivative(conn: ConnectionField, s: TensorField) -> TensorField:
    """Covariant derivative of a weighted scalar in the coordinate trivialization:
    nabla_a s = d_a s + (w/(2m+2)) G^i_{ai} s."""
    if s.rank != 0:
        raise GeometryError("density_covariant_derivative expects a scalar field")
    return covariant_derivative(conn, s)


def levi_civita(g: TensorField) -> ConnectionField:
    """Torsion-free metric connection from the Koszul formula."""
    chart = g.chart

    def jet_fn(x, k):
        gj1 = g.jet(x, k + 1)
        ginv = jinv_matrix(gj1.truncated(k))
        dg = jpartial(gj1)  # (e, a, b) = d_e g_{ab}
        # S[i,a,b] = d_a g_{ib} + d_b g_{ia} - d_i g_{ab}
        S = jtranspose(dg, (1, 0, 2)) + jtranspose(dg, (1, 2, 0)) - dg
        return jmul("ci,iab->cab", ginv, S).scaled(0.5)

    coeffs = TensorField(chart, (+1, -1, -1), 0.0, jet_fn, "LC")
    return ConnectionField(chart, coeffs, name="levi-civita")


def metric_inverse(g: TensorField) -> TensorField:
    return TensorField(g.chart, (+1, +1), -g.weight,
                       lambda x, k: jinv_matrix(g.jet(x, k)), f"inv({g.name})")


def curvature(conn: ConnectionField) -> TensorField:
    """Curvature R[a,b,c,d] with R(e_a,e_b) e_d = R[a,b,c,d] e_c."""
    chart = conn.chart

    def jet_fn(x, k):
        Gj1 = conn.coeffs.jet(x, k + 1)
        dG = jpartial(Gj1)             # (e, c, a, b) = d_e G^c_{ab}
        G = Gj1.truncated(k)
        t1 = jtranspose(dG, (0, 2, 1, 3))   # [a, b, c, d] = d_a G^c_{bd}
        combined = t1 + jmul("cai,ibd->abcd", G, G)
        # single alternation keeps the a,b antisymmetry bitwise exact
        return combined - jtranspose(combined, (1, 0, 2, 3))

    return TensorField(chart, (-1, -1, +1, -1), 0.0, jet_fn, "R")


def ricci(R: TensorField) -> TensorField:
    return field_contract("iaib->ab", R, (-1, -1), 0.0, "Ric")


def scalar_curvature(g: TensorField, Ric: TensorField) -> TensorField:
    return field_einsum("ab,ab->", metric_inverse(g), Ric, (), 0.0, "S")


@dataclass
class SchoutenDecomposition:
    """Schouten tensor with its skew, Hermitean and anti-Hermitean symmetric
    parts; the metric-tracefree Hermitean part when a metric is supplied."""
    P: TensorField
    beta: TensorField
    P_plus: TensorField
    P_minus: TensorField
    P_zero: TensorField = None
    trace_with_metric: TensorField = None


def schouten(Ric: TensorField, J: AlmostComplexStructure, m: int,
             g: TensorField = None) -> SchoutenDecomposition:
    """Schouten tensor of a complex connection from its (generally asymmetric)
    Ricci tensor."""
    chart = Ric.chart
    Jf = J.field
    sym = Ric.scaled(0.5) + Ric.transposed((1, 0)).scaled(0.5)
    JsymJ = _conjugate_by_J(sym, Jf)
    P = (Ric + (sym - JsymJ).scaled(1.0 / (m - 1))).scaled(1.0 / (2.0 * (m + 1)))
    P.name = "P"
    beta = P.scaled(0.5) - P.transposed((1, 0)).scaled(0.5)
    Psym = P.scaled(0.5) + P.transposed((1, 0)).scaled(0.5)
    JPJ = _conjugate_by_J(Psym, Jf)
    P_plus = Psym.scaled(0.5) + JPJ.scaled(0.5)
    P_minus = Psym.scaled(0.5) - JPJ.scaled(0.5)
    P_zero = None
    trace = None
    if g is not None:
        trace = field_einsum("ij,ij->", metric_inverse(g), P, (), 0.0, "gP")
        P_zero = P_plus - field_einsum(",ab->ab", trace, g, (-1, -1), 0.0) \
            .scaled(1.0 / (2.0 * m))
    return SchoutenDecomposition(P, beta, P_plus, P_minus, P_zero, trace)


def _conjugate_by_J(T: TensorField, Jf: TensorField) -> TensorField:
    """J^i_a J^j_b T_{ij} for a (0,2) field."""
    half = field_einsum("ia,ij->aj", Jf, T, (-1, -1), T.weight)
    return field_einsum("aj,jb->ab", half, Jf, (-1, -1), T.weight)


def hermitean_part(T: TensorField, J: AlmostComplexStructure) -> TensorField:
    return T.scaled(0.5) + _conjugate_by_J(T, J.field).scaled(0.5)


def weyl_candidate(R: TensorField, P: TensorField,
                   J: AlmostComplexStructure) -> TensorField:
    """Curvature minus the Schouten insertion; its (c, a)-trace vanishes exactly
    when P is normalized correctly."""
    chart = R.chart
    Jf = J.field
    n = chart.n
    delta = tensor_constant(chart, np.eye(n), (+1, -1), 0.0, "Id")
    PJ = field_einsum("bi,id->bd", P, Jf, (-1, -1))        # P_{bi} J^i_d
    Q = field_einsum("bi,ia->ab", P, Jf, (-1, -1))         # Q_{ab} = J^i_a P_{bi}

    def term(A, B, spec, variance=(-1, -1, +1, -1)):
        return field_einsum(spec, A, B, variance)

    # delta^c_a P_{bd} - delta^c_b P_{ad}
    t1 = term(delta, P, "ca,bd->abcd")
    t1 = t1 - t1.transposed((1, 0, 2, 3))
    # (P_{ab} - P_{ba}) delta^c_d
    t2 = term(P, delta, "ab,cd->abcd")
    t2 = t2 - t2.transposed((1, 0, 2, 3))
    # (Q_{ab} - Q_{ba}) J^c_d
    t3 = term(Q, Jf, "ab,cd->abcd")
    t3 = t3 - t3.transposed((1, 0, 2, 3))
    # J^c_a (PJ)_{bd} - J^c_b (PJ)_{ad}
    t4 = term(Jf, PJ, "ca,bd->abcd")
    t4 = t4 - t4.transposed((1, 0, 2, 3))
    return R - (t1 - t2 - t3 - t4)


def volume_density_and_tau(g: TensorField):
    """Metric volume density (weight -2m-2) and its -1/(m+1) power (weight 2),
    in the coordinate trivialization; the absolute value keeps both real for
    metrics of any signature."""
    chart = g.chart
    m = chart.m
    vol = TensorField(chart, (), -2.0 * m - 2.0,
                      lambda x, k: jabs_pow(jdet(g.jet(x, k)), 0.5), "vol")
    tau = TensorField(chart, (), 2.0,
                      lambda x, k: jabs_pow(jdet(g.jet(x, k)), -0.5 / (m + 1.0)),
                      "tau")
    return vol, tau


def fundamental_two_form(g: TensorField, J: AlmostComplexStructure) -> TensorField:
    """omega(xi, eta) = -g(xi, J eta)."""
    return field_einsum("ai,ib->ab", g, J.field, (-1, -1), g.weight).scaled(-1.0)


def quasi_kahler_check(g: TensorField, J: AlmostComplexStructure, points,
                       tol: float = 1e-8):
    """Gray-Hervella W1+W2 test: max |(D^g omega)(xi,eta,zeta)
    + (D^g omega)(J xi, J eta, zeta)| over frame triples at the points."""
    omega = fundamental_two_form(g, J)
    nabla_omega = covariant_derivative(levi_civita(g), omega)
    Jf = J.field
    JJ = field_einsum("ie,ja->eaij", Jf, Jf, (-1, -1, +1, +1))
    rotated = field_einsum("eaij,ijb->eab", JJ, nabla_omega, (-1, -1, -1))
    residual_field = nabla_omega + rotated
    residual = max_abs_over_points(residual_field, points, 0.0)
    return residual < tol, residual


def hermitean_metric_residual(g: TensorField, J: AlmostComplexStructure, points):
    gJJ = _conjugate_by_J(g, J.field)
    return max_abs_over_points(g - gJJ, points, 0.0)


def max_abs_per_point(values):
    """max |component| of each point of a batch of field values."""
    return np.abs(values).reshape(len(values), -1).max(axis=1)


def max_abs_over_points(field: TensorField, points, start=None):
    """The largest |component| of a field over a list or batch of points
    (from start, when given), from one evaluation on the batch."""
    X = np.asarray(points, dtype=float).reshape(-1, field.chart.n)
    per_point = max_abs_per_point(field.value(X)).tolist() if len(X) else []
    return max(per_point) if start is None else max([start] + per_point)


def canonical_connection(g: TensorField, J: AlmostComplexStructure,
                         points=None, tol: float = 1e-8) -> ConnectionField:
    """The unique minimal complex connection preserving a quasi-Kahler metric.
    Coincides with the Levi-Civita connection exactly when the torsion -N/4
    vanishes."""
    chart = g.chart
    if points is None:
        points = seeded_points(chart, count=8, seed=7, radius=0.35)
    herm = hermitean_metric_residual(g, J, points)
    if herm > tol:
        raise GeometryError(f"metric is not Hermitean for J (residual {herm:.3e})")
    ok, residual = quasi_kahler_check(g, J, points, tol)
    if not ok:
        raise GeometryError(f"metric is not quasi-Kahler (residual {residual:.3e})")

    lc = levi_civita(g)
    N = nijenhuis(J)
    if J.is_constant:
        return ConnectionField(chart, lc.coeffs, J, complex_flag=True,
                               minimal_flag=True, name="canonical")
    T = N.scaled(-0.25)
    ginv = metric_inverse(g)
    # A^c_{ab} = (1/2)(-g_{ib} T^i_{aj} g^{jc} - g_{ia} T^i_{bj} g^{jc} + T^c_{ab})
    gT = field_einsum("ib,iaj->baj", g, T, (-1, -1, -1))
    t1 = field_einsum("baj,jc->abc", gT, ginv, (-1, -1, +1))   # g_{ib}T^i_{aj}g^{jc}
    t1 = t1.transposed((2, 0, 1), variance=(+1, -1, -1))       # [c,a,b]
    t2 = t1.transposed((0, 2, 1), variance=(+1, -1, -1))       # a<->b
    A = (T - t1 - t2).scaled(0.5)
    coeffs = lc.coeffs + A
    return ConnectionField(chart, coeffs, J, complex_flag=True,
                           minimal_flag=True, name="canonical")


def seeded_points(chart, count, seed, radius=0.6, rho=None, rho_min=0.05):
    """Deterministic interior sample points as a (count, n) batch;
    rejection-sampled against a defining function when one is supplied.
    Candidates are drawn in batches of the number still missing, so no
    candidate past the last accepted one is ever evaluated."""
    rng = np.random.default_rng(seed)
    tape = fx.compile_tape([rho]) if rho is not None else None
    pts = np.empty((0, chart.n))
    while len(pts) < count:
        candidates = rng.uniform(-radius, radius, size=(count - len(pts), chart.n))
        if tape is not None:
            candidates = candidates[~(fx.evaluate(tape, candidates)[:, 0] < rho_min)]
        pts = np.concatenate([pts, candidates])
    return pts
