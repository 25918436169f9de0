"""C-projective changes of connection, the Schouten transformation law, and
the tracefree connection-coefficient test for extendability of the structure.

A change by a one-form U sends nabla to

    hat-nabla_xi eta = nabla_xi eta + U(xi) eta - U(J xi) J eta
                       + U(eta) xi - U(J eta) J xi,

which preserves J-parallelism and torsion exactly.
"""

from __future__ import annotations

import numpy as np

from . import fieldexpr as fx
from . import geometry as geo
from .geometry import (AlmostComplexStructure, ConnectionField, TensorField,
                       covariant_derivative, field_einsum, tensor_constant)
from .jets import jmul, jtranspose


def cproj_change(conn: ConnectionField, upsilon: TensorField,
                 J: AlmostComplexStructure) -> ConnectionField:
    """New connection coefficients
    G^c_{ab} + U_a d^c_b + U_b d^c_a - (UJ)_a J^c_b - (UJ)_b J^c_a."""
    chart = conn.chart
    n = chart.n
    eye = np.eye(n)
    Jf = J.field

    def jet_fn(x, k):
        G = conn.coeffs.jet(x, k)
        U = upsilon.jet(x, k)
        Jj = Jf.jet(x, k)
        UJ = jmul("i,ia->a", U, Jj)
        eye_jet = geo.Jet.constant(n, eye, k)
        t1 = jmul("a,cb->cab", U, eye_jet)            # U_a d^c_b
        t3 = jmul("a,cb->cab", UJ, Jj)                # (UJ)_a J^c_b
        delta = t1 + jtranspose(t1, (0, 2, 1)) - t3 - jtranspose(t3, (0, 2, 1))
        return G + delta

    coeffs = TensorField(chart, (+1, -1, -1), 0.0, jet_fn, "G-hat")
    return ConnectionField(chart, coeffs, J, complex_flag=conn.complex_flag,
                           minimal_flag=conn.minimal_flag, name="changed")


def schouten_transform(P: TensorField, upsilon: TensorField,
                       conn: ConnectionField,
                       J: AlmostComplexStructure) -> TensorField:
    """Transformation law of the Schouten tensor under a c-projective change:
    hat-P_ab = P_ab - nabla_a U_b + U_a U_b - J^i_a J^j_b U_i U_j."""
    nabla_u = covariant_derivative(conn, upsilon)
    UU = field_einsum("a,b->ab", upsilon, upsilon, (-1, -1))
    UJ = field_einsum("i,ia->a", upsilon, J.field, (-1,))
    UJUJ = field_einsum("a,b->ab", UJ, UJ, (-1, -1))
    return P - nabla_u + UU - UJUJ


def one_form_from_exprs(chart, comps) -> TensorField:
    return geo.tensor_from_exprs(chart, np.asarray(comps, dtype=object), (-1,))


def defining_one_form(rho, chart) -> TensorField:
    """U = d(rho) / (2 rho), the scale change attached to a defining function."""
    comps = [fx.differentiate(rho, i) / (rho * fx.const(2.0))
             for i in range(chart.n)]
    return one_form_from_exprs(chart, comps)


def modified_connection_for_defining_function(conn: ConnectionField, rho,
                                              J: AlmostComplexStructure
                                              ) -> ConnectionField:
    """The c-projective modification by d(rho)/(2 rho); for a compactifiable
    connection this is the one that stays bounded up to the boundary.
    Evaluation is restricted to the interior rho > 0."""
    hat = cproj_change(conn, defining_one_form(rho, conn.chart), J)
    inner = hat.coeffs
    rho_tape = fx.compile_tape([rho])

    def guarded(x, k):
        points = np.atleast_2d(x)
        outside = fx.evaluate(rho_tape, points)[:, 0] <= 0.0
        if outside.any():
            point = tuple(points[outside.argmax()].tolist())
            raise fx.EvaluationDomainError(
                rho, f"defining function is non-positive at {point}")
        return inner.jet(x, k)

    coeffs = geo.TensorField(conn.chart, (+1, -1, -1), 0.0, guarded, "G-hat")
    return ConnectionField(conn.chart, coeffs, J, complex_flag=conn.complex_flag,
                           minimal_flag=conn.minimal_flag, name="modified")


def tracefree_coefficients(conn: ConnectionField,
                           J: AlmostComplexStructure) -> TensorField:
    """Complex tracefree part of coordinate-frame connection coefficients:
    Psi^i_{jk} = Phi^i_{jk} - (1/(2m+2)) (phi_j d^i_k + phi_k d^i_j
                 - J^l_j phi_l J^i_k - J^l_k phi_l J^i_j),  phi_j = Phi^k_{jk}.

    Invariant under c-projective changes, so boundedness of Psi near a
    boundary certifies extendability of the c-projective structure."""
    chart = conn.chart
    n = chart.n
    factor = 1.0 / (2.0 * chart.m + 2.0)
    eye_field = tensor_constant(chart, np.eye(n), (+1, -1))
    phi = conn.trace_field()                                   # phi_j
    phiJ = field_einsum("l,lj->j", phi, J.field, (-1,))        # J^l_j phi_l
    t1 = field_einsum("j,ik->ijk", phi, eye_field, (+1, -1, -1))
    t2 = t1.transposed((0, 2, 1), variance=(+1, -1, -1))
    t3 = field_einsum("j,ik->ijk", phiJ, J.field, (+1, -1, -1))
    t4 = t3.transposed((0, 2, 1), variance=(+1, -1, -1))
    correction = (t1 + t2 - t3 - t4).scaled(factor)
    psi = TensorField(chart, (+1, -1, -1), 0.0,
                      lambda x, k: conn.coeffs.jet(x, k) - correction.jet(x, k),
                      "Psi")
    return psi
