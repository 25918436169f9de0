
import numpy as np
import pytest

from cprojective import boundary as bd
from cprojective import cproj as cp
from cprojective import examples as ex
from cprojective import fieldexpr as fx
from cprojective import geometry as geo

from conftest import reference_grho

CHART = fx.Chart(2)


# ----------------------------------------------------------------- theta, dth

def test_theta_on_ball_boundary(ball, ball_rho):
    th = bd.theta(ball_rho, ball.J)
    assert np.abs(th.value([1, 0, 0, 0]) - np.array([0, -2, 0, 0])).max() == 0.0


def test_theta_pairs_with_J():
    """theta(J xi) = d(rho)(xi) identically."""
    rho = bd.DefiningFunction(CHART, fx.parse_expression(
        "1 - x1^2 - y1^2 - x2^2 - y2^2", CHART))
    J = geo.standard_J(CHART)
    th = bd.theta(rho, J)
    rng = np.random.default_rng(81)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 4)
        Jm = J.field.value(x)
        th_x, dr_x = th.value(x), rho.grad(x)
        assert np.abs(Jm.T @ th_x - dr_x).max() < 1e-14    # theta(J.) = drho
        assert np.abs(Jm.T @ dr_x + th_x).max() < 1e-14    # drho(J.) = -theta


def test_theta_flat_halfspace_orientation():
    rho = bd.DefiningFunction(CHART, fx.parse_expression("x1", CHART))
    th = bd.theta(rho, geo.standard_J(CHART))
    assert np.array_equal(th.value([0.3, 0.1, 0, 0]), [0, 1, 0, 0])  # dy1


def test_hermitean_identity_everywhere():
    """d(theta)(J xi, eta) + d(theta)(xi, J eta) = d(rho)(N(xi, eta)) as an
    exact tensor identity, for a variable J with nonzero Nijenhuis tensor."""
    J = ex.synthetic_variable_J(CHART, eps=0.5)
    rho = bd.DefiningFunction(CHART, fx.parse_expression(
        "1 - x1^2 - y1^2 - x2^2 - y2^2", CHART))
    th = bd.theta(rho, J)
    dth = bd.dtheta(th)
    N = geo.nijenhuis(J)
    rng = np.random.default_rng(82)
    for _ in range(30):
        x = rng.uniform(-0.7, 0.7, 4)
        Jx, dthx, Nx = J.field.value(x), dth.value(x), N.value(x)
        lhs = np.einsum("ia,ib->ab", Jx, dthx) + np.einsum("aj,jb->ab", dthx, Jx)
        rhs = np.einsum("c,cab->ab", rho.grad(x), Nx)
        assert np.abs(lhs - rhs).max() < 1e-10


# --------------------------------------------------------------- projections

def test_projection_reaches_boundary(ball_rho):
    x = bd.project_to_boundary(ball_rho, [0.8, 0.1, 0.2, -0.3])
    assert abs(ball_rho.value(x)) < 1e-12


def test_ray_requires_inward_direction(ball_rho):
    with pytest.raises(bd.BoundaryError):
        bd.make_ray(ball_rho, [0.99, 0, 0, 0], direction=[1.0, 0, 0, 0])


def test_ray_samples_interior(ball_rho):
    ray = bd.make_ray(ball_rho, [0.7, 0.5, 0.2, 0.4])
    for s in ray.samples():
        assert ball_rho.value(s) > 0


# --------------------------------------------------------------- extrapolation

def test_extrapolate_constant():
    ray = bd.Ray(np.zeros(4), np.eye(4)[0])
    est = bd.extrapolate_limit(lambda s: 7.0, ray, tol=1e-12)
    assert est.value == 7.0 and est.error_estimate < 1e-14 and est.converged


def test_extrapolate_polynomial_exact():
    ray = bd.Ray(np.zeros(4), np.eye(4)[0])
    est = bd.extrapolate_limit(lambda s: 3 + 2 * s[0] + s[0] ** 2, ray, 1e-10)
    assert est.value == pytest.approx(3.0, abs=1e-12)
    assert est.converged


def test_extrapolate_exact_on_degree_le_order():
    for degree in range(4):
        ts = [0.1 * 2.0 ** (-k) for k in range(9)]
        vals = [sum((j + 1) * t ** j for j in range(degree + 1)) for t in ts]
        value, err = bd.richardson(vals, 3)
        assert abs(value - 1.0) < 1e-12
        if degree < 3:
            assert err < 1e-11   # estimate sees the last surviving term only


def test_extrapolate_divergence_detected():
    ray = bd.Ray(np.zeros(4), np.eye(4)[0])
    est = bd.extrapolate_limit(lambda s: 1.0 / s[0], ray, tol=1e-6)
    assert not est.converged


def test_extrapolate_reports_evaluation_failure(ball_rho):
    ray = bd.Ray(np.zeros(4), np.eye(4)[0])

    def bad(s):
        raise fx.EvaluationDomainError(None, "boom")

    est = bd.extrapolate_limit(bad, ray, tol=1e-6)
    assert not est.converged and "failed" in est.note


# ------------------------------------------------------------------ Levi form

def test_levi_checks_ball(ball, ball_rho):
    rep = bd.levi_checks(ball_rho, ball.J,
                         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                          [0.6, 0.5, 0.4, 0.2]])
    assert rep.nondegenerate and rep.contact
    assert rep.signature[0] + rep.signature[1] == 1     # m - 1
    assert rep.min_levi_eigenvalue == pytest.approx(4.0, rel=1e-10)
    assert rep.hermitean_residual < 1e-12
    assert rep.tangential_residual < 1e-12


def test_levi_checks_flat_degenerate():
    rho = bd.DefiningFunction(CHART, fx.parse_expression("x1", CHART))
    rep = bd.levi_checks(rho, geo.standard_J(CHART), [[0, 0.3, 0.1, 0.2]])
    assert not rep.nondegenerate


def test_levi_frame_annihilates_forms(ball, ball_rho):
    x = bd.project_to_boundary(ball_rho, [0.5, 0.5, 0.5, 0.2])
    th = bd.theta(ball_rho, ball.J)
    frame = bd.frame_in_levi_subspace(ball_rho, ball.J, x)
    assert len(frame) == 2
    for v in frame:
        assert abs(ball_rho.grad(x) @ v) < 1e-12
        assert abs(th.value(x) @ v) < 1e-12


# ------------------------------------------------------------ metric g_rho

_METRIC_CASES = {
    "ball": (lambda: ex.unit_ball(2),
             [[0.99, 0, 0, 0], [0, 0, 0, 0.99], [-0.6, 0.3, -0.4, 0.4]]),
    "perturbed": (lambda: ex.perturbed_ball(2, 0.4),
                  [[0.99, 0, 0, 0], [0, 0.99, 0, 0], [0.5, 0.5, 0.5, 0.2]]),
    "ball3": (lambda: ex.unit_ball(3),
              [[0.99, 0, 0, 0, 0, 0], [0.5, 0.5, 0.4, 0.2, 0.1, 0.3]]),
}


@pytest.mark.parametrize("case", sorted(_METRIC_CASES))
def test_defining_metric_jets_match_symbolic_assembly(case):
    """The jet-built g_rho agrees with the metric assembled as expression
    trees, at jet orders 0-3, on ray samples down to rho ~ 8e-4 and at seeded
    interior points: per point and order, the largest deviation is within
    1e-13 of the largest reference entry."""
    build, seeds = _METRIC_CASES[case]
    geom = build()
    rho = bd.DefiningFunction(geom.chart, geom.rho)
    g = bd.defining_metric(rho, geom.J)
    reference = reference_grho(geom.rho, geom.J)
    rays = [bd.make_ray(rho, p) for p in seeds]
    batches = [np.concatenate([ray.points() for ray in rays]),
               geo.seeded_points(geom.chart, count=10, seed=5, radius=0.6,
                                 rho=geom.rho, rho_min=0.05)]
    for X in batches:
        jet, ref = g.jet(X, 3), reference.jet(X, 3)
        for order, (t, r) in enumerate(zip(jet.terms, ref.terms)):
            deviation = geo.max_abs_per_point(t - r)
            scale = geo.max_abs_per_point(r)
            assert (deviation <= 1e-13 * scale).all(), (order, (deviation / scale).max())


def test_defining_function_fields_are_shared(ball_rho):
    """field(), one_form() and reciprocal() hand out one object each, all
    composites of the one rho leaf."""
    assert ball_rho.field() is ball_rho.field()
    assert ball_rho.one_form() is ball_rho.one_form()
    assert ball_rho.reciprocal() is ball_rho.reciprocal()
    x = np.array([0.3, -0.2, 0.1, 0.4])
    assert ball_rho.reciprocal().value(x) == 1.0 / ball_rho.value(x)
    assert np.array_equal(ball_rho.grad(x), -2.0 * x)


# --------------------------------------------------------- asymptotic form

def test_smooth_part_constant_on_ball(ball, ball_rho, ball_points):
    h = bd.asymptotic_smooth_part(ball.g, ball_rho, -1.0, ball.J)
    for x in ball_points[:8]:
        assert h.value(x)[0, 0] == pytest.approx(-4.0, abs=1e-11)


def test_smooth_part_flat_halfspace():
    flat = ex.flat_space(2)
    rho = bd.DefiningFunction(CHART, fx.parse_expression("x1", CHART))
    h = bd.asymptotic_smooth_part(flat.g, rho, -1.0, flat.J)
    # at x1 = 1: rho*g(dx2,dx2) = 1, no correction in that slot
    assert h.value([1.0, 0, 0, 0])[2, 2] == pytest.approx(1.0)


def test_asymptotic_form_certificate_ball(ball, ball_rho, ball_rays):
    cert = bd.certify_asymptotic_form(ball.g, ball_rho, ball.J, -1.0,
                                      ball_rays, tol=1e-6)
    assert cert.passed
    assert cert.diagnostics["max_boundary_defect"] < 1e-8


def test_asymptotic_form_wrong_constant_fails(ball, ball_rho, ball_rays):
    cert = bd.certify_asymptotic_form(ball.g, ball_rho, ball.J, -2.0,
                                      ball_rays[:2], tol=1e-6)
    assert not cert.passed


def test_asymptotic_form_rescaled_defining_function(ball, ball_conn):
    chart = ball.chart
    rho_hat_expr = ball.rho * fx.exp(fx.parse_expression("0.3*x1", chart))
    rho_hat = bd.DefiningFunction(chart, rho_hat_expr)
    rays = [bd.make_ray(rho_hat, p) for p in [[0.99, 0, 0, 0], [0, 0, 0, 0.99]]]
    cert = bd.certify_asymptotic_form(ball.g, rho_hat, ball.J, -1.0, rays,
                                      tol=1e-6)
    assert cert.passed


def test_smooth_part_transformation_law(ball, ball_rho, ball_rays):
    """h with respect to e^f rho against the displayed transformation built
    from h, df, the rescaled gradient form and contact form."""
    chart = ball.chart
    C = -1.0
    f_expr = fx.parse_expression("0.3*x1", chart)
    rho_hat_expr = ball.rho * fx.exp(f_expr)
    rho_hat = bd.DefiningFunction(chart, rho_hat_expr)
    h = bd.asymptotic_smooth_part(ball.g, ball_rho, C, ball.J)
    h_hat = bd.asymptotic_smooth_part(ball.g, rho_hat, C, ball.J)
    df = geo.tensor_from_exprs(chart, np.array(
        [fx.differentiate(f_expr, i) for i in range(4)], dtype=object), (-1,))
    dfJ = geo.field_einsum("i,ia->a", df, ball.J.field, (-1,))
    ef = geo.scalar_from_expr(chart, fx.exp(f_expr))

    def sym2(A, B):
        t = geo.field_einsum("a,b->ab", A, B, (-1, -1))
        return (t + t.transposed((1, 0))).scaled(0.5)

    rhs = geo.field_einsum(",ab->ab", ef, h, (-1, -1)) \
        + (sym2(df, rho_hat.one_form()).scaled(-1.0)
           + sym2(dfJ, bd.theta(rho_hat, ball.J))).scaled(2 * C) \
        + geo.field_einsum(",ab->ab", rho_hat.field(),
                           sym2(df, df) + sym2(dfJ, dfJ), (-1, -1)).scaled(C)
    for ray in ball_rays[:2]:
        for s in ray.samples()[::3]:
            assert np.abs(h_hat.value(s) - rhs.value(s)).max() < 1e-7


# ------------------------------------------------------------ volume density

def test_volume_density_ball(ball, ball_tau, ball_rho, ball_rays):
    cert = bd.certify_volume_density(ball_tau, ball_rho, ball_rays)
    assert cert.passed
    limits = cert.diagnostics["limits"]
    assert all(abs(l / limits[0] - 1.0) < 0.01 for l in limits)


def test_volume_density_flat_fails():
    flat = ex.flat_space(2)
    rho = bd.DefiningFunction(CHART, fx.parse_expression("x1", CHART))
    _, tau = geo.volume_density_and_tau(flat.g)
    rays = [bd.Ray(np.array([0.0, 0.1, 0.2, 0.0]), np.eye(4)[0])]
    cert = bd.certify_volume_density(tau, rho, rays)
    assert not cert.passed


def test_volume_density_scaled_metric(ball, ball_rho, ball_rays):
    _, tau = geo.volume_density_and_tau(ball.g.scaled(2.0))
    cert = bd.certify_volume_density(tau, ball_rho, ball_rays[:2])
    assert cert.passed      # limit still finite and nonzero


# ------------------------------------------------------- scalar constancy etc

def test_scalar_constancy_ball(ball, ball_conn, ball_rays):
    S = geo.scalar_curvature(ball.g, geo.ricci(geo.curvature(ball_conn)))
    cert = bd.scalar_boundary_constancy(S, ball_rays, tol=1e-6)
    assert cert.passed
    for lim in cert.diagnostics["limits"]:
        assert lim == pytest.approx(6.0, abs=1e-6)


def test_scalar_constancy_flat_not_applicable():
    flat = ex.flat_space(2)
    conn = geo.flat_connection(flat.chart, flat.J)
    S = geo.scalar_curvature(flat.g, geo.ricci(geo.curvature(conn)))
    rays = [bd.Ray(np.array([0.0, 0.1, 0.2, 0.0]), np.eye(4)[0])]
    cert = bd.scalar_boundary_constancy(S, rays)
    assert cert.verdict == "not-applicable"


def test_compactification_constant_ball(ball, ball_scale, ball_rays):
    est = bd.compactification_constant(ball.g, ball_scale.P, ball_rays)
    assert est.converged
    assert est.value == pytest.approx(-1.0, abs=1e-6)


def test_compactification_constant_perturbed_matches_certified(perturbed,
                                                               perturbed_scale,
                                                               perturbed_rays):
    est = bd.compactification_constant(perturbed.g, perturbed_scale.P,
                                       perturbed_rays[:3])
    assert est.converged
    assert est.value == pytest.approx(perturbed.C, abs=1e-5)


def test_compactification_constant_rescaled(ball, ball_scale):
    chart = ball.chart
    rho_hat = bd.DefiningFunction(chart, ball.rho
                                  * fx.exp(fx.parse_expression("0.3*x1", chart)))
    rays = [bd.make_ray(rho_hat, p) for p in [[0.99, 0, 0, 0], [0, 0.99, 0, 0]]]
    est = bd.compactification_constant(ball.g, ball_scale.P, rays)
    assert est.value == pytest.approx(-1.0, abs=1e-6)   # rho-independent


# ------------------------------------------------------- rank-one curvature

def test_rank_one_curvature_zero():
    J = geo.standard_J(CHART)
    phi = geo.tensor_constant(CHART, np.zeros((4, 4)), (-1, -1))
    C = bd.rank_one_curvature(phi, J)
    assert np.abs(C.value([0.1, 0, 0, 0])).max() == 0.0


def test_rank_one_curvature_symmetries():
    J = geo.standard_J(CHART)
    arr = np.zeros((4, 4))
    arr[0, 0] = arr[1, 1] = 1.0        # dx1^2 + dy1^2, Hermitean symmetric
    phi = geo.tensor_constant(CHART, arr, (-1, -1))
    Cx = bd.rank_one_curvature(phi, J).value([0.2, 0.1, 0, 0])
    Jm = J.field.value([0, 0, 0, 0])
    assert np.abs(Cx + Cx.transpose(1, 0, 2, 3)).max() < 1e-12
    alt = Cx + Cx.transpose(1, 3, 2, 0) + Cx.transpose(3, 0, 2, 1)
    assert np.abs(alt).max() < 1e-12
    lhs = np.einsum("abid,ci->abcd", Cx, Jm)
    rhs = np.einsum("abci,id->abcd", Cx, Jm)
    assert np.abs(lhs - rhs).max() < 1e-12
    assert np.abs(Cx - np.einsum("ia,jb,ijcd->abcd", Jm, Jm, Cx)).max() < 1e-12


def test_rank_one_curvature_linear():
    J = geo.standard_J(CHART)
    arr = np.zeros((4, 4))
    arr[0, 0] = arr[1, 1] = 1.0
    phi1 = geo.tensor_constant(CHART, arr, (-1, -1))
    phi2 = geo.tensor_constant(CHART, 3.5 * arr, (-1, -1))
    x = [0.1, 0, 0, 0]
    assert np.abs(bd.rank_one_curvature(phi2, J).value(x)
                  - 3.5 * bd.rank_one_curvature(phi1, J).value(x)).max() < 1e-13


def test_rank_one_curvature_rejects_non_hermitean():
    J = geo.standard_J(CHART)
    arr = np.zeros((4, 4))
    arr[0, 0] = 1.0      # dx1^2 alone is not Hermitean
    phi = geo.tensor_constant(CHART, arr, (-1, -1))
    with pytest.raises(bd.BoundaryError):
        bd.rank_one_curvature(phi, J, check_points=[np.zeros(4)])


# ------------------------------------------------------ curvature asymptotics

def test_curvature_asymptotics_ball(ball, ball_conn, ball_rho, ball_rays):
    R = geo.curvature(ball_conn)
    c1 = bd.certify_curvature_asymptotics(R, ball_rho, ball.J, ball_rays, 1,
                                          tol=1e-6)
    assert c1.passed
    assert c1.diagnostics["max_boundary_defect"] < 1e-6
    c2 = bd.certify_curvature_asymptotics(R, ball_rho, ball.J, ball_rays, 2,
                                          tol=1e-5)
    assert c2.passed
    assert c2.diagnostics["max_boundary_defect"] < 1e-5


def test_curvature_asymptotics_flat_fails():
    """Flat curvature is zero but the rank-one comparison tensor is not, so
    the order-1 defect has the nonzero limit (1/4) C."""
    flat = ex.flat_space(2)
    conn = geo.flat_connection(flat.chart, flat.J)
    R = geo.curvature(conn)
    rho = bd.DefiningFunction(CHART, fx.parse_expression("x1", CHART))
    rays = [bd.Ray(np.array([0.0, 0.1, 0.2, 0.0]), np.eye(4)[0])]
    cert = bd.certify_curvature_asymptotics(R, rho, flat.J, rays, 1, tol=1e-6)
    assert not cert.passed
    # the defect limit equals max |(1/4) C(drho x drho + theta x theta)|
    phi = bd.gradient_squared_form(rho, flat.J)
    Cf = bd.rank_one_curvature(phi, flat.J)
    expected = np.abs(Cf.value([0.0, 0.1, 0.2, 0.0])).max() / 4.0
    assert cert.diagnostics["max_boundary_defect"] == pytest.approx(expected,
                                                                    rel=1e-8)


# ------------------------------------------------------- Schouten asymptotics

def test_schouten_asymptotics_ball(ball, ball_scale, ball_conn, ball_rho,
                                   ball_rays):
    conn_hat = cp.modified_connection_for_defining_function(ball_conn,
                                                            ball.rho, ball.J)
    cert = bd.certify_schouten_asymptotics(ball_scale.decomposition, ball_rho,
                                           conn_hat, ball.J, ball_rays,
                                           tol=1e-6)
    assert cert.passed
    assert cert.diagnostics["max_boundary_defect"] < 1e-6


def test_schouten_asymptotics_perturbed(perturbed, perturbed_scale,
                                        perturbed_conn, perturbed_rays):
    rho = bd.DefiningFunction(perturbed.chart, perturbed.rho)
    conn_hat = cp.modified_connection_for_defining_function(
        perturbed_conn, perturbed.rho, perturbed.J)
    cert = bd.certify_schouten_asymptotics(perturbed_scale.decomposition, rho,
                                           conn_hat, perturbed.J,
                                           perturbed_rays, tol=1e-5)
    assert cert.passed
    assert cert.diagnostics["max_boundary_defect"] < 1e-5
    assert cert.diagnostics["tracefree_hermitean_converged"]


def test_schouten_asymptotics_flat_fails():
    flat = ex.flat_space(2)
    conn = geo.flat_connection(flat.chart, flat.J)
    dec = geo.schouten(geo.ricci(geo.curvature(conn)), flat.J, 2, flat.g)
    rho = bd.DefiningFunction(CHART, fx.parse_expression("x1", CHART))
    conn_hat = cp.modified_connection_for_defining_function(conn, rho.expr,
                                                            flat.J)
    rays = [bd.Ray(np.array([0.0, 0.1, 0.2, 0.0]), np.eye(4)[0])]
    cert = bd.certify_schouten_asymptotics(dec, rho, conn_hat, flat.J, rays)
    assert not cert.passed


def test_rescaled_defining_function_full_battery(ball, ball_conn, ball_scale):
    """With rho-hat = e^{0.3 x1} rho the modified connection, the gradient
    form and the rank-one comparison tensor are all genuinely nonconstant,
    so these runs exercise the certifiers away from the ball's exactly-flat
    special values."""
    chart = ball.chart
    rho_hat = bd.DefiningFunction(
        chart, ball.rho * fx.exp(fx.parse_expression("0.3*x1", chart)))
    rays = [bd.make_ray(rho_hat, p)
            for p in [[0.99, 0, 0, 0], [0.5, 0.5, 0.5, 0.2]]]
    R = geo.curvature(ball_conn)
    c2 = bd.certify_curvature_asymptotics(R, rho_hat, ball.J, rays, 2,
                                          tol=1e-5)
    assert c2.passed
    conn_hat = cp.modified_connection_for_defining_function(
        ball_conn, rho_hat.expr, ball.J)
    # the modified coefficients are nonzero for this defining function
    assert np.abs(conn_hat.value(rays[0].samples()[0])).max() > 1e-2
    cs = bd.certify_schouten_asymptotics(ball_scale.decomposition, rho_hat,
                                         conn_hat, ball.J, rays, tol=1e-6)
    assert cs.passed
    _, tau = geo.volume_density_and_tau(ball.g)
    cv = bd.certify_volume_density(tau, rho_hat, rays)
    assert cv.passed
    psi = cp.tracefree_coefficients(ball_conn, ball.J)
    cp_cert = bd.psi_boundedness(ball_conn, psi, rays)
    assert cp_cert.passed


def test_certificates_covariant_under_rescalings(ball, ball_conn, ball_scale):
    """Verdicts are independent of the defining function: three fixed
    rescalings e^f rho give the same asymptotic-form and curvature-decay
    verdicts and the same normal-form constant."""
    chart = ball.chart
    R = geo.curvature(ball_conn)
    for f_text in ("0.3*x1", "0.2*y2 - 0.1", "0.15*x1 + 0.15*y1"):
        f = fx.parse_expression(f_text, chart)
        rho_hat = bd.DefiningFunction(chart, ball.rho * fx.exp(f))
        rays = [bd.make_ray(rho_hat, p)
                for p in [[0.99, 0, 0, 0], [0.5, 0.5, 0.5, 0.2]]]
        assert bd.certify_asymptotic_form(ball.g, rho_hat, ball.J, -1.0,
                                          rays, tol=1e-6).passed
        assert bd.certify_curvature_asymptotics(R, rho_hat, ball.J, rays, 1,
                                                tol=1e-6).passed
        est = bd.compactification_constant(ball.g, ball_scale.P, rays)
        assert est.value == pytest.approx(-1.0, abs=1e-6)


# ---------------------------------------------------- Nijenhuis decay

def test_nijenhuis_decay_integrable_trivial(ball, ball_conn, ball_rays):
    cert = bd.certify_asymptotically_parallel_nijenhuis(ball.J, ball_conn,
                                                        ball_rays[:2])
    assert cert.passed


def test_nijenhuis_decay_synthetic_matches_direct_oracle(ball_rho):
    """The certificate agrees with directly extrapolating the covariant
    derivative, computed term by term at sample points."""
    J = ex.synthetic_variable_J(CHART, 0.5)
    A, Ainv = ex.cayley_frames(CHART, 0.5)
    conn = ex.gauge_flat_connection(CHART, A, Ainv)
    ray = bd.make_ray(ball_rho, [0.99, 0, 0, 0])
    cert = bd.certify_asymptotically_parallel_nijenhuis(J, conn, [ray],
                                                        tol=1e-6)
    N = geo.nijenhuis(J)
    DN = geo.covariant_derivative(conn, N)
    # term-by-term oracle at the tightest sample: dN + Gamma N - ... assembled
    s = ray.samples()[-1]
    G = conn.value(s)
    Nj = N.jet(tuple(s), 1)
    manual = np.moveaxis(Nj.terms[1], 3, 0).copy()
    manual += np.einsum("cei,iab->ecab", G, Nj.terms[0])
    manual -= np.einsum("iea,cib->ecab", G, Nj.terms[0])
    manual -= np.einsum("ieb,cai->ecab", G, Nj.terms[0])
    assert np.abs(manual - DN.value(s)).max() < 1e-12
    # the gauged flat connection keeps N covariantly nonzero at the boundary
    vals = [np.abs(DN.value(p)).max() for p in ray.samples()]
    limit, _ = bd.richardson(vals, 3)
    assert cert.passed == (abs(limit) < 1e-6)


def test_nijenhuis_decay_constant_tensor_fails(ball_rho, ball_conn, ball):
    """A constant nonzero stand-in for the derivative cannot certify decay;
    checked through the same extrapolation core."""
    ray = bd.make_ray(ball_rho, [0.99, 0, 0, 0])
    vals = [1.0 for _ in ray.samples()]
    value, err = bd.richardson(vals, 3)
    assert err < 1e-12 and abs(value - 1.0) < 1e-12   # converges, but not to 0
