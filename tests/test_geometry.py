import gc
import itertools
import weakref

import numpy as np
import pytest

from cprojective import examples as ex
from cprojective import fieldexpr as fx
from cprojective import geometry as geo

from conftest import EVERY_NODE_TEXT, random_one_form, reference_evaluate


# ---------------------------------------------------------------- flat space

def test_flat_zero_suite():
    flat = ex.flat_space(2)
    conn = geo.levi_civita(flat.g)
    R = geo.curvature(conn)
    Ric = geo.ricci(R)
    dec = geo.schouten(Ric, flat.J, 2, flat.g)
    W = geo.weyl_candidate(R, dec.P, flat.J)
    N = geo.nijenhuis(flat.J)
    rng = np.random.default_rng(100)
    for _ in range(20):
        x = rng.uniform(-1, 1, 4)
        for field in (conn.coeffs, R, Ric, dec.P, W, N):
            assert np.abs(field.value(x)).max() < 1e-12


def test_levi_civita_scaling_invariance():
    flat = ex.flat_space(2)
    g2 = flat.g.scaled(3.7)
    x = [0.3, 0.1, -0.2, 0.4]
    assert np.abs(geo.levi_civita(g2).value(x)).max() < 1e-14


# ------------------------------------------------------------- standard J, N

def test_standard_J_action():
    J = geo.standard_J(fx.Chart(2))
    M = J.matrix([0, 0, 0, 0])
    e_x1, e_y1 = np.eye(4)[0], np.eye(4)[1]
    assert np.array_equal(M @ e_x1, e_y1)          # J dx1 = dy1
    assert np.array_equal(M @ e_y1, -e_x1)         # J dy1 = -dx1
    assert np.abs(M @ M + np.eye(4)).max() == 0.0


def test_constant_J_jets_are_broadcast_over_a_batch():
    """The metric of a defining function reads J's jets to order k + 1; a
    constant J hands them out as views, not one evaluated copy per point."""
    J = geo.standard_J(fx.Chart(3))
    jet = J.field.jet(np.zeros((9, 6)), 3)
    assert all(t.shape[0] == 9 and t.strides[0] == 0 for t in jet.terms)
    assert np.array_equal(jet.terms[0][4], J.constant_matrix)
    assert not any(t.any() for t in jet.terms[1:])


def test_nijenhuis_of_standard_J_vanishes():
    J = geo.standard_J(fx.Chart(2))
    N = geo.nijenhuis(J)
    assert np.abs(N.value([0.3, 0.2, -0.5, 0.1])).max() == 0.0


def bracket_oracle_nijenhuis(J, x):
    """[xi,eta] + J[J xi,eta] + J[xi,J eta] - [J xi,J eta] for coordinate
    fields, from exact derivatives of the J components."""
    n = J.chart.n
    Jx = J.field.value(x)
    dJ = J.field.jet(x, 1).terms[1]     # dJ[c, b, e] = d_e J^c_b
    N = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            # [J e_a, e_b]^c = -d_b J^c_a ; [e_a, J e_b]^c = d_a J^c_b
            # [J e_a, J e_b]^c = J^i_a d_i J^c_b - J^i_b d_i J^c_a
            br_JaJb = np.einsum("i,ci->c", Jx[:, a], dJ[:, b, :]) \
                - np.einsum("i,ci->c", Jx[:, b], dJ[:, a, :])
            br_Ja_b = -dJ[:, a, b]
            br_a_Jb = dJ[:, b, a]
            N[:, a, b] = Jx @ br_Ja_b + Jx @ br_a_Jb - br_JaJb
    return N


def test_nijenhuis_matches_bracket_formula():
    chart = fx.Chart(2)
    J = ex.synthetic_variable_J(chart, eps=0.5)
    N = geo.nijenhuis(J)
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = rng.uniform(-0.8, 0.8, 4)
        assert np.abs(N.value(x) - bracket_oracle_nijenhuis(J, x)).max() < 1e-12


def test_nijenhuis_conjugate_linear_and_antisymmetric():
    chart = fx.Chart(2)
    J = ex.synthetic_variable_J(chart, eps=0.5)
    N = geo.nijenhuis(J)
    rng = np.random.default_rng(22)
    for _ in range(50):
        x = rng.uniform(-0.8, 0.8, 4)
        Nx, Jx = N.value(x), J.field.value(x)
        assert np.abs(Nx + Nx.transpose(0, 2, 1)).max() < 1e-13
        # N(J xi, eta) = -J N(xi, eta)
        lhs = np.einsum("ia,cib->cab", Jx, Nx)
        rhs = -np.einsum("ci,iab->cab", Jx, Nx)
        assert np.abs(lhs - rhs).max() < 1e-10
        # N(J xi, J eta) = -N(xi, eta)
        lhs2 = np.einsum("ia,jb,cij->cab", Jx, Jx, Nx)
        assert np.abs(lhs2 + Nx).max() < 1e-10


# ------------------------------------------------------- metric connections

def test_levi_civita_metricity_on_ball(ball, ball_points):
    """Oracle: d g - Gamma g - g Gamma assembled by hand from the symbolic
    derivative trees of the metric entries."""
    conn = geo.levi_civita(ball.g)
    for x in ball_points[:8]:
        G = conn.value(x)
        gj = ball.g.jet(tuple(x), 1)
        dg = gj.terms[1]             # dg[a,b,e] = d_e g_{ab}
        nabla = np.transpose(dg, (2, 0, 1)) \
            - np.einsum("iea,ib->eab", G, gj.terms[0]) \
            - np.einsum("ieb,ai->eab", G, gj.terms[0])
        assert np.abs(nabla).max() < 1e-10


def test_canonical_equals_levi_civita_for_kahler(ball, ball_conn, ball_points):
    lc = geo.levi_civita(ball.g)
    for x in ball_points[:5]:
        assert np.abs(ball_conn.value(x) - lc.value(x)).max() == 0.0


def test_canonical_connection_contracts_almost_kahler():
    chart = fx.Chart(2)
    J, g = ex.synthetic_almost_kahler(chart, 0.3)
    pts = geo.seeded_points(chart, count=6, seed=4, radius=0.5)
    conn = geo.canonical_connection(g, J, pts)
    N = geo.nijenhuis(J)
    T = conn.torsion()
    Dg = geo.covariant_derivative(conn, g)
    DJ = geo.covariant_derivative(conn, J.field)
    for x in pts:
        assert np.abs(Dg.value(x)).max() < 1e-10
        assert np.abs(DJ.value(x)).max() < 1e-10
        assert np.abs(T.value(x) + 0.25 * N.value(x)).max() < 1e-9


def test_canonical_connection_flat_is_zero():
    flat = ex.flat_space(2)
    conn = geo.canonical_connection(flat.g, flat.J)
    assert np.abs(conn.value([0.3, -0.2, 0.1, 0.4])).max() == 0.0


def test_canonical_connection_preserves_J(ball, ball_conn, ball_points):
    DJ = geo.covariant_derivative(ball_conn, ball.J.field)
    for x in ball_points:
        assert np.abs(DJ.value(x)).max() < 1e-10


def test_canonical_connection_rejects_non_hermitean():
    chart = fx.Chart(2)
    J = geo.standard_J(chart)
    bad = geo.tensor_constant(chart, np.diag([1.0, 2.0, 1.0, 1.0]), (-1, -1))
    with pytest.raises(geo.GeometryError, match="Hermitean"):
        geo.canonical_connection(bad, J)


def test_quasi_kahler_check_rejects_conformal_euclidean():
    chart = fx.Chart(2)
    J = geo.standard_J(chart)
    scale_expr = fx.parse_expression("exp(x1)", chart)
    comps = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            comps[i, j] = scale_expr if i == j else fx.const(0.0)
    g = geo.tensor_from_exprs(chart, comps, (-1, -1))
    pts = geo.seeded_points(chart, count=6, seed=5, radius=0.5)
    ok, residual = geo.quasi_kahler_check(g, J, pts)
    assert not ok
    assert residual > 0.1


def test_quasi_kahler_check_accepts_ball(ball, ball_points):
    ok, residual = geo.quasi_kahler_check(ball.g, ball.J, ball_points[:6])
    assert ok and residual < 1e-10


# ---------------------------------------------------------------- curvature

def parallel_transport_loop(conn, x0, a, b, h, steps=64):
    """RK4 transport of a frame around the square spanned by e_a, e_b."""
    n = conn.chart.n
    legs = [(a, h), (b, h), (a, -h), (b, -h)]
    V = np.eye(n)
    x = np.array(x0, dtype=float)
    for direction, length in legs:
        dt = length / steps
        v_dir = np.zeros(n)
        v_dir[direction] = 1.0

        def rhs(xc, Vc):
            G = conn.value(xc)
            return -np.einsum("cib,i,bk->ck", G.transpose(0, 1, 2), v_dir, Vc)

        for _ in range(steps):
            k1 = rhs(x, V)
            k2 = rhs(x + 0.5 * dt * v_dir, V + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * v_dir, V + 0.5 * dt * k2)
            k4 = rhs(x + dt * v_dir, V + dt * k3)
            V = V + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x + dt * v_dir
    return V


def test_curvature_matches_parallel_transport(ball, ball_conn):
    """Holonomy of small square loops, step-extrapolated to kill the O(h)
    and O(h^2) loop errors."""
    R = geo.curvature(ball_conn)
    x0 = np.array([0.2, -0.1, 0.15, 0.1])
    for (a, b) in [(0, 1), (0, 2), (1, 3)]:
        levels = []
        for h in (0.02, 0.01, 0.005):
            hol = parallel_transport_loop(ball_conn, x0, a, b, h, steps=32)
            levels.append((np.eye(4) - hol) / h ** 2)
        e1 = [2 * levels[i + 1] - levels[i] for i in range(2)]
        approx = (4 * e1[1] - e1[0]) / 3.0
        exact = R.value(x0)[a, b]
        assert np.abs(approx - exact).max() < 1e-5 * max(1.0, np.abs(exact).max())


def test_curvature_antisymmetry_and_complex_linearity(ball, ball_conn,
                                                      ball_points):
    R = geo.curvature(ball_conn)
    Jm = ball.J.field.value(ball_points[0])
    for x in ball_points[:6]:
        Rx = R.value(x)
        assert np.abs(Rx + Rx.transpose(1, 0, 2, 3)).max() == 0.0
        lhs = np.einsum("abid,ci->abcd", Rx, Jm)
        rhs = np.einsum("abci,id->abcd", Rx, Jm)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_curvature_of_torsionful_complex_connection():
    """Antisymmetry and complex-linearity also hold for the canonical
    connection of a non-integrable almost-Kahler pair."""
    chart = fx.Chart(2)
    J, g = ex.synthetic_almost_kahler(chart, 0.3)
    pts = geo.seeded_points(chart, count=4, seed=8, radius=0.5)
    conn = geo.canonical_connection(g, J, pts)
    R = geo.curvature(conn)
    for x in pts:
        Rx, Jx = R.value(x), J.field.value(x)
        assert np.abs(Rx + Rx.transpose(1, 0, 2, 3)).max() == 0.0
        lhs = np.einsum("abid,ci->abcd", Rx, Jx)
        rhs = np.einsum("abci,id->abcd", Rx, Jx)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_first_bianchi_torsion_free(ball, ball_conn, ball_points):
    R = geo.curvature(ball_conn)
    for x in ball_points[:6]:
        Rx = R.value(x)
        alt = Rx + Rx.transpose(1, 3, 2, 0) + Rx.transpose(3, 0, 2, 1)
        assert np.abs(alt).max() < 1e-10


# ------------------------------------------------------------ Ricci, Einstein

def wirtinger_hermitean_coefficients(potential, chart, x):
    """Complex Hessian d^2 phi / dz_j dz-bar_k from exact real partials."""
    m = chart.m
    H = np.zeros((m, m), dtype=complex)
    hess = fx.derivative_tensor(potential, x, 2, chart.n)
    for j in range(m):
        for k in range(m):
            xj, yj, xk, yk = 2 * j, 2 * j + 1, 2 * k, 2 * k + 1
            re = 0.25 * (hess[xj, xk] + hess[yj, yk])
            im = 0.25 * (hess[xj, yk] - hess[yj, xk])
            H[j, k] = re + 1j * im
    return H


def hermitean_to_real(H, chart):
    """Real symmetric tensor of the (1,1)-form with coefficient matrix H."""
    m = chart.m
    T = np.zeros((chart.n, chart.n))
    for j in range(m):
        for k in range(m):
            T[2 * j, 2 * k] = 2 * H[j, k].real
            T[2 * j + 1, 2 * k + 1] = 2 * H[j, k].real
            T[2 * j, 2 * k + 1] = 2 * H[j, k].imag
            T[2 * j + 1, 2 * k] = -2 * H[j, k].imag
    return T


def complex_ricci_oracle(rho_expr, chart, x):
    """Ricci of the potential metric via -(d d-bar log det) of the complex
    Hessian, entirely through symbolic real partials; independent of the
    Christoffel/curvature pipeline."""
    phi = fx.log(rho_expr)          # potential is -log rho; signs tracked below
    # entries of B = d d-bar (-log rho): real/imag parts as expressions
    m = chart.m
    re = [[None] * m for _ in range(m)]
    im = [[None] * m for _ in range(m)]
    for j in range(m):
        for k in range(m):
            xj, yj, xk, yk = 2 * j, 2 * j + 1, 2 * k, 2 * k + 1
            dxx = fx.differentiate(fx.differentiate(phi, xj), xk)
            dyy = fx.differentiate(fx.differentiate(phi, yj), yk)
            dxy = fx.differentiate(fx.differentiate(phi, xj), yk)
            dyx = fx.differentiate(fx.differentiate(phi, yj), xk)
            quarter = fx.const(-0.25)   # minus from -log rho
            re[j][k] = quarter * (dxx + dyy)
            im[j][k] = quarter * (dxy - dyx)
    # det B for m = 2 (B Hermitean: B11, B22 real; B21 = conj B12)
    det = re[0][0] * re[1][1] - (re[0][1] * re[0][1] + im[0][1] * im[0][1])
    log_det = fx.log(det)
    ricci_coeff = -wirtinger_hermitean_coefficients(log_det, chart, x)
    return hermitean_to_real(ricci_coeff, chart)


def test_ball_metric_matches_complex_hessian_dictionary(ball, ball_points, perturbed,
                                                        perturbed_points):
    """g_rho equals -2 times the real metric of the potential -log rho, for the
    ball and for the perturbed ball."""
    for geom, points in ((ball, ball_points), (perturbed, perturbed_points)):
        chart = geom.chart
        for x in points[:6]:
            B = wirtinger_hermitean_coefficients(
                fx.log(geom.rho), chart, x) * (-1.0)
            assert np.abs(hermitean_to_real(B, chart) + 0.5 * geom.g.value(x)).max() \
                < 1e-11


def test_ricci_matches_complex_coordinate_oracle(ball, ball_conn, ball_points):
    Ric = geo.ricci(geo.curvature(ball_conn))
    chart = ball.chart
    for x in ball_points[:6]:
        oracle = complex_ricci_oracle(ball.rho, chart, x)
        assert np.abs(Ric.value(x) - oracle).max() < 1e-9


def test_ball_is_einstein(ball, ball_conn, ball_points):
    Ric = geo.ricci(geo.curvature(ball_conn))
    ratios = []
    for x in ball_points:
        ric, g = Ric.value(x), ball.g.value(x)
        mask = np.abs(g) > 1e-8
        ratios.extend((ric[mask] / g[mask]).ravel())
    ratios = np.array(ratios)
    assert ratios.max() - ratios.min() < 1e-8
    assert ratios.mean() == pytest.approx(1.5, abs=1e-10)  # (m+1)/2 for m = 2


def test_ricci_hermitean_on_ball(ball, ball_conn, ball_points):
    Ric = geo.ricci(geo.curvature(ball_conn))
    Jm = ball.J.field.value(ball_points[0])
    for x in ball_points[:8]:
        r = Ric.value(x)
        assert np.abs(r - Jm.T @ r @ Jm).max() < 1e-10


def test_scalar_curvature_constant_six(ball, ball_conn, ball_points):
    S = geo.scalar_curvature(ball.g, geo.ricci(geo.curvature(ball_conn)))
    values = [float(S.value(x)) for x in ball_points]
    assert max(values) - min(values) < 1e-8
    assert values[0] == pytest.approx(6.0, abs=1e-9)   # m(m+1)


def test_scalar_curvature_scaling(ball, ball_conn, ball_points):
    Ric = geo.ricci(geo.curvature(ball_conn))
    S1 = geo.scalar_curvature(ball.g, Ric)
    S2 = geo.scalar_curvature(ball.g.scaled(2.5), Ric)
    for x in ball_points[:4]:
        assert float(S2.value(x)) == pytest.approx(float(S1.value(x)) / 2.5,
                                                   rel=1e-12)


# --------------------------------------------------------------- Schouten, W

def test_schouten_of_hermitean_symmetric_ricci(ball, ball_conn, ball_points):
    Ric = geo.ricci(geo.curvature(ball_conn))
    dec = geo.schouten(Ric, ball.J, 2, ball.g)
    for x in ball_points[:6]:
        assert np.abs(dec.P.value(x) - Ric.value(x) / 6.0).max() < 1e-12
        assert np.abs(dec.P_zero.value(x)).max() < 1e-9   # Einstein
        assert np.abs(dec.beta.value(x)).max() < 1e-12
        assert np.abs(dec.P_minus.value(x)).max() < 1e-12


def test_schouten_zero_for_zero_ricci():
    flat = ex.flat_space(2)
    conn = geo.levi_civita(flat.g)
    dec = geo.schouten(geo.ricci(geo.curvature(conn)), flat.J, 2)
    assert np.abs(dec.P.value([0.1, 0.2, 0.3, 0.4])).max() == 0.0


def test_schouten_decomposition_reassembles(perturbed, perturbed_conn,
                                            perturbed_points):
    dec = geo.schouten(geo.ricci(geo.curvature(perturbed_conn)),
                       perturbed.J, 2, perturbed.g)
    Jm = perturbed.J.field.value(perturbed_points[0])
    for x in perturbed_points[:5]:
        total = dec.beta.value(x) + dec.P_plus.value(x) + dec.P_minus.value(x)
        assert np.abs(total - dec.P.value(x)).max() < 1e-13
        pp = dec.P_plus.value(x)
        assert np.abs(pp - Jm.T @ pp @ Jm).max() < 1e-12
        gx = perturbed.g.value(x)
        ginv = np.linalg.inv(gx)
        assert abs(np.einsum("ij,ij->", ginv, dec.P_zero.value(x))) < 1e-10


def test_weyl_trace_vanishes(ball, ball_conn, ball_points):
    R = geo.curvature(ball_conn)
    dec = geo.schouten(geo.ricci(R), ball.J, 2)
    W = geo.weyl_candidate(R, dec.P, ball.J)
    for x in ball_points[:20]:
        Wx = W.value(x)
        assert np.abs(np.einsum("iaib->ab", Wx)).max() < 1e-9
        assert np.abs(Wx + Wx.transpose(1, 0, 2, 3)).max() == 0.0


def test_weyl_trace_vanishes_for_asymmetric_ricci(ball, ball_conn,
                                                  ball_points):
    """A change by a non-closed one-form produces a connection with genuinely
    asymmetric Ricci; the trace characterization still pins the Schouten
    normalization including its skew part."""
    from cprojective import cproj as cp
    chart = ball.chart
    ups = geo.tensor_from_exprs(chart, np.array(
        [fx.const(0.0), fx.var(chart, 0), fx.const(0.0), fx.var(chart, 3)],
        dtype=object), (-1,))
    hat = cp.cproj_change(ball_conn, ups, ball.J)
    R = geo.curvature(hat)
    Ric = geo.ricci(R)
    r = Ric.value(ball_points[0])
    assert np.abs(r - r.T).max() > 1.0          # genuinely asymmetric
    dec = geo.schouten(Ric, ball.J, 2)
    assert np.abs(dec.beta.value(ball_points[0])).max() > 0.1
    W = geo.weyl_candidate(R, dec.P, ball.J)
    for x in ball_points[:6]:
        assert np.abs(np.einsum("iaib->ab", W.value(x))).max() < 1e-9


def test_weyl_trace_vanishes_torsionful():
    chart = fx.Chart(2)
    J, g = ex.synthetic_almost_kahler(chart, 0.3)
    pts = geo.seeded_points(chart, count=4, seed=8, radius=0.5)
    conn = geo.canonical_connection(g, J, pts)
    R = geo.curvature(conn)
    dec = geo.schouten(geo.ricci(R), J, 2)
    W = geo.weyl_candidate(R, dec.P, J)
    for x in pts:
        assert np.abs(np.einsum("iaib->ab", W.value(x))).max() < 1e-12


def test_weyl_trace_vanishes_perturbed(perturbed, perturbed_conn,
                                       perturbed_points):
    R = geo.curvature(perturbed_conn)
    dec = geo.schouten(geo.ricci(R), perturbed.J, 2)
    W = geo.weyl_candidate(R, dec.P, perturbed.J)
    for x in perturbed_points[:6]:
        assert np.abs(np.einsum("iaib->ab", W.value(x))).max() < 1e-9


# --------------------------------------------------------- densities, volume

def test_volume_and_tau_euclidean():
    flat = ex.flat_space(2)
    vol, tau = geo.volume_density_and_tau(flat.g)
    assert float(vol.value([0.2, 0.1, 0, 0])) == 1.0
    assert float(tau.value([0.2, 0.1, 0, 0])) == 1.0


def test_volume_and_tau_ball_origin(ball):
    vol, tau = geo.volume_density_and_tau(ball.g)
    assert float(vol.value([0, 0, 0, 0])) == pytest.approx(16.0, rel=1e-12)
    assert float(tau.value([0, 0, 0, 0])) == pytest.approx(16.0 ** (-1.0 / 3.0),
                                                           rel=1e-12)


def test_tau_parallel_for_canonical(ball, ball_conn, ball_points):
    _, tau = geo.volume_density_and_tau(ball.g)
    dtau = geo.density_covariant_derivative(ball_conn, tau)
    for x in ball_points[:30] if len(ball_points) >= 30 else ball_points:
        assert np.abs(dtau.value(x)).max() < 1e-10


def test_vol_parallel_for_levi_civita(ball, ball_points):
    vol, _ = geo.volume_density_and_tau(ball.g)
    lc = geo.levi_civita(ball.g)
    dvol = geo.density_covariant_derivative(lc, vol)
    for x in ball_points[:5]:
        assert np.abs(dvol.value(x)).max() < 1e-12 * abs(float(vol.value(x)))


def test_weight_zero_density_derivative_is_plain_gradient(ball, ball_conn):
    chart = ball.chart
    expr = fx.parse_expression("x1*y2 + x2", chart)
    s = geo.scalar_from_expr(chart, expr, 0.0)
    ds = geo.density_covariant_derivative(ball_conn, s)
    x = np.array([0.2, 0.1, -0.3, 0.2])
    expected = np.array([fx.evaluate(fx.differentiate(expr, i), x)
                         for i in range(4)])
    assert np.abs(ds.value(x) - expected).max() < 1e-14


def test_density_transform_law(ball, ball_conn, ball_points):
    """Under a c-projective change the weighted derivative picks up exactly
    w * Upsilon * s, for weights -6, -2, 0, 2."""
    from cprojective import cproj as cp
    chart = ball.chart
    rng = np.random.default_rng(55)
    _, tau = geo.volume_density_and_tau(ball.g)
    for w in (-6.0, -2.0, 0.0, 2.0):
        ups = random_one_form(chart, rng)
        hat = cp.cproj_change(ball_conn, ups, ball.J)
        s = geo.TensorField(chart, (), w, lambda x, k: tau.jet(x, k))
        lhs = geo.density_covariant_derivative(hat, s)
        rhs = geo.density_covariant_derivative(ball_conn, s)
        for x in ball_points[:6]:
            expected = w * ups.value(x) * float(s.value(x))
            assert np.abs(lhs.value(x) - rhs.value(x) - expected).max() < 1e-10


def test_hermitean_residual_detects_non_hermitean():
    chart = fx.Chart(2)
    J = geo.standard_J(chart)
    bad = geo.tensor_constant(chart, np.diag([1.0, 2.0, 1.0, 1.0]), (-1, -1))
    res = geo.hermitean_metric_residual(bad, J, [np.zeros(4)])
    assert res == pytest.approx(1.0)


# ------------------------------------------------------------ leaf tapes

CHART2 = fx.Chart(2)


def test_leaf_jets_are_bit_equal_to_derivative_tensor():
    comps = np.array([fx.parse_expression(EVERY_NODE_TEXT, CHART2),
                      fx.parse_expression("x1*y2 - 1/(2 + x2)", CHART2)], dtype=object)
    leaf = geo.tensor_from_exprs(CHART2, comps, (-1,))
    scalar = geo.scalar_from_expr(CHART2, comps[0])
    x = (0.3, -0.4, 0.5, 0.7)
    jet = leaf.jet(x, 3)
    sjet = scalar.jet(x, 3)
    for k in range(4):
        assert jet.terms[k].shape == (2,) + (4,) * k
        assert isinstance(sjet.terms[k], np.ndarray) and sjet.terms[k].shape == (4,) * k
        assert np.array_equal(sjet.terms[k], fx.derivative_tensor(comps[0], x, k))
        for i in range(2):
            assert np.array_equal(jet.terms[k][i], fx.derivative_tensor(comps[i], x, k))
            for idx in itertools.combinations_with_replacement(range(4), k):
                tree = fx.derivative_trees(comps[i], idx)
                assert jet.terms[k][(i,) + idx] == reference_evaluate(tree, x)


@pytest.mark.parametrize("text, point, order, node, message", [
    # d/dx1 sqrt(x1) = 1/(2 sqrt(x1)): fine at order 0, divides by zero at 1
    ("sqrt(x1)", 0.0, 1,
     lambda e: fx.differentiate(e, 0), "division by zero"),
    # d/dx1 x1^0.5 = 0.5 x1^-0.5
    ("x1^0.5", 0.0, 2,
     lambda e: fx.pow_(fx.var(CHART2, 0), -0.5), "zero raised to a negative power"),
    ("x1^1.5", -1.0, 1,
     lambda e: e, "negative base with non-integer exponent"),
    ("exp(x1)", 710.0, 1, lambda e: e, "exp overflow"),
    ("log(x1)", -1.0, 2, lambda e: e, "log of non-positive value -1.0"),
    ("sqrt(x1)", -1.0, 1, lambda e: e, "sqrt of negative value -1.0"),
])
def test_leaf_jet_domain_errors_carry_node_and_message(text, point, order, node, message):
    e = fx.parse_expression(text, CHART2)
    leaf = geo.scalar_from_expr(CHART2, e)
    with pytest.raises(fx.EvaluationDomainError) as err:
        leaf.jet((point, 0.5, 0.5, 0.5), order)
    assert err.value.node is node(e)
    assert str(err.value) == message


def test_leaf_compiles_each_jet_order_once(monkeypatch):
    compiled = []
    compile_tape = fx.compile_tape

    def counting(roots):
        compiled.append(len(roots))
        return compile_tape(roots)

    monkeypatch.setattr(fx, "compile_tape", counting)
    leaf = geo.scalar_from_expr(CHART2, fx.parse_expression(EVERY_NODE_TEXT, CHART2))
    rng = np.random.default_rng(23)
    points = [rng.uniform(0.1, 0.9, 4) for _ in range(20)]
    for x in points:
        leaf.jet(x, 2)
    assert compiled == [1 + 4 + 10]
    for x in points:
        leaf.jet(x + 0.01, 1)
    assert compiled == [1 + 4 + 10, 1 + 4]


def test_standard_J_is_kept_on_its_chart():
    chart = fx.Chart(2)
    assert geo.standard_J(chart) is geo.standard_J(chart)
    assert geo.standard_J(fx.Chart(2)) is not geo.standard_J(chart)
    ref = weakref.ref(chart)
    geo.standard_J(chart).field.jet((0.1, 0.2, 0.3, 0.4), 1)
    del chart
    gc.collect()
    assert ref() is None


def test_standard_J_and_its_chart_need_no_cycle_collector():
    """Reference counting alone frees a chart and its standard J."""
    gc.collect()
    gc.disable()
    try:
        chart = fx.Chart(2)
        ref = weakref.ref(chart)
        geo.standard_J(chart).field.jet(np.array([[0.1, 0.2, 0.3, 0.4]] * 3), 1)
        del chart
        assert ref() is None
    finally:
        gc.enable()
