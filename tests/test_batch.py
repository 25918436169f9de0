"""A batch of points goes through the same code as a single point: jets with a
leading batch axis, leaf tapes replayed over columns, composite fields and
boundary limits.  Every result here is compared against the per-point
evaluation of the same thing."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import EVERY_NODE_TEXT, reference_evaluate
from cprojective import boundary as bd
from cprojective import cli
from cprojective import fieldexpr as fx
from cprojective import geometry as geo
from cprojective import jets as J
from cprojective import tractor as tr

N = 4
B = 5


def random_jet(rng, comp_shape, order, batch=(B,)):
    terms = [rng.standard_normal(batch + comp_shape + (N,) * k) for k in range(order + 1)]
    # symmetric derivative axes, as every real jet has
    terms = [J.sym_last(t, k) for k, t in enumerate(terms)]
    return J.Jet(N, comp_shape, terms)


def element(jet, i):
    return J.Jet(jet.n, jet.comp_shape, [t[i] for t in jet.terms])


def assert_batch_matches(batched, per_point):
    assert batched.batch_shape == (len(per_point),)
    for i, single in enumerate(per_point):
        assert single.batch_shape == ()
        assert batched.comp_shape == single.comp_shape
        for k in range(single.order + 1):
            assert np.array_equal(batched.terms[k][i], single.terms[k]), (i, k)


@pytest.mark.parametrize("spec, shape_a, shape_b", [
    (",->", (), ()),
    ("ci,ibd->cbd", (N, N), (N, N, N)),
    ("cai,ibd->abcd", (N, N, N), (N, N, N)),
    ("ab,ab->", (N, N), (N, N)),
    ("a,b->ab", (N,), (N,)),
])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_jmul_batch_matches_points(spec, shape_a, shape_b, order):
    rng = np.random.default_rng(1)
    a, b = random_jet(rng, shape_a, order), random_jet(rng, shape_b, order)
    out = J.jmul(spec, a, b)
    assert_batch_matches(out, [J.jmul(spec, element(a, i), element(b, i))
                               for i in range(B)])


def test_jmul_broadcasts_an_unbatched_constant():
    rng = np.random.default_rng(2)
    a = random_jet(rng, (N,), 2)
    eye = J.Jet.constant(N, np.eye(N), 2)
    out = J.jmul("a,cb->cab", a, eye)
    assert_batch_matches(out, [J.jmul("a,cb->cab", element(a, i), eye) for i in range(B)])


@pytest.mark.parametrize("order", [0, 1, 3])
def test_single_operand_functions_batch_matches_points(order):
    rng = np.random.default_rng(3)
    t = random_jet(rng, (N, N, N), order)
    cases = [
        (lambda j: J.jcontract("cac->a", j)),
        (lambda j: J.jtranspose(j, (2, 0, 1))),
        (lambda j: j.scaled(-0.5)),
    ]
    if order >= 1:
        cases.append(J.jpartial)
    for fn in cases:
        assert_batch_matches(fn(t), [fn(element(t, i)) for i in range(B)])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_jinv_matrix_batch_matches_points(order):
    rng = np.random.default_rng(4)
    g = random_jet(rng, (N, N), order)
    g.terms[0] = g.terms[0] + 4.0 * np.eye(N)
    assert_batch_matches(J.jinv_matrix(g), [J.jinv_matrix(element(g, i)) for i in range(B)])


def test_jdet_pivots_per_element():
    """Elements whose largest first-column entry sits in different rows take
    different pivots; a singular element has determinant zero."""
    rng = np.random.default_rng(5)
    g = random_jet(rng, (N, N), 2)
    base = rng.uniform(0.1, 0.5, (B, N, N))
    for i, row in enumerate([0, 2, 3, 1]):
        base[i, row, 0] = 5.0
    base[4, :, 0] = 0.0                           # a zero pivot column
    g.terms[0] = base
    pivots = [int(np.abs(base[i, :, 0]).argmax()) for i in range(4)]
    assert pivots == [0, 2, 3, 1]
    det = J.jdet(g)
    assert_batch_matches(det, [J.jdet(element(g, i)) for i in range(B)])
    assert all(np.all(t[4] == 0.0) for t in det.terms)
    assert np.allclose(det.terms[0][:4], np.linalg.det(base[:4]), rtol=1e-12)


@pytest.mark.parametrize("fn", [
    J.jrecip, J.jexp, J.jlog, J.jsqrt,
    lambda u: J.jpow(u, 1.7), lambda u: J.jpow(u, -2.5), lambda u: J.jpow(u, 3.0),
], ids=["recip", "exp", "log", "sqrt", "pow1.7", "pow-2.5", "pow3"])
@pytest.mark.parametrize("order", [0, 1, 2, 4])
def test_scalar_functions_batch_matches_points(fn, order):
    rng = np.random.default_rng(6)
    u = random_jet(rng, (), order)
    u.terms[0] = rng.uniform(0.5, 2.0, B)
    assert_batch_matches(fn(u), [fn(element(u, i)) for i in range(B)])


def test_abs_pow_takes_the_sign_of_each_element():
    rng = np.random.default_rng(7)
    u = random_jet(rng, (), 3)
    u.terms[0] = np.array([1.5, -0.7, 2.0, -3.0, 0.9])
    out = J.jabs_pow(u, -0.5)
    assert_batch_matches(out, [J.jabs_pow(element(u, i), -0.5) for i in range(B)])


@pytest.mark.parametrize("fn, bad, error", [
    (J.jrecip, 0.0, ZeroDivisionError),
    (J.jlog, -1.0, ValueError),
    (J.jlog, 0.0, ValueError),
    (lambda u: J.jpow(u, 0.5), -1.0, ValueError),
    (lambda u: J.jpow(u, -1.5), 0.0, ZeroDivisionError),
], ids=["recip-zero", "log-negative", "log-zero", "pow-negative-base", "pow-zero-base"])
def test_domain_errors_raise_for_any_failing_element(fn, bad, error):
    rng = np.random.default_rng(8)
    u = random_jet(rng, (), 2)
    u.terms[0] = np.array([1.0, 2.0, bad, 0.5, 3.0])
    with pytest.raises(error):
        fn(u)
    with pytest.raises(error):
        fn(element(u, 2))
    for i in (0, 1, 3, 4):
        fn(element(u, i))


# ------------------------------------------------------------------ leaves

CHART = fx.Chart(2)


def test_leaf_jets_on_a_batch_are_bit_equal_to_points():
    """numpy's own exp, log and power differ from libm in the last bit on a
    few percent of inputs; the tape replay uses libm for them, so a point in
    a batch gets exactly the value it gets alone."""
    comps = np.array([fx.parse_expression(EVERY_NODE_TEXT, CHART),
                      fx.parse_expression("x1^3*y2 - 1/(2 + x2) + exp(y1)^0.5", CHART)],
                     dtype=object)
    leaf = geo.tensor_from_exprs(CHART, comps, (-1,))
    X = np.random.default_rng(9).uniform(0.1, 0.9, (7, 4))
    batch = leaf.jet(X, 3)
    pointwise = [geo.tensor_from_exprs(CHART, comps, (-1,)).jet(x, 3) for x in X]
    assert_batch_matches(batch, pointwise)


def test_tape_on_a_batch_matches_points_and_reference():
    e = fx.parse_expression(EVERY_NODE_TEXT, CHART)
    trees = [fx.derivative_trees(e, idx) for order in range(3)
             for idx in itertools.combinations_with_replacement(range(4), order)]
    tape = fx.compile_tape(trees)
    X = np.random.default_rng(10).uniform(0.1, 0.9, (6, 4))
    values = fx.evaluate(tape, X)
    assert values.shape == (6, len(trees))
    for x, row in zip(X, values):
        assert row.tolist() == fx.evaluate(tape, x)
        assert row.tolist() == [reference_evaluate(t, x) for t in trees]


def test_tape_reuses_registers():
    e = fx.parse_expression(EVERY_NODE_TEXT, CHART)
    trees = [fx.derivative_trees(e, idx) for order in range(4)
             for idx in itertools.combinations_with_replacement(range(4), order)]
    tape = fx.compile_tape(trees)
    assert len(set(tape.outputs)) == len(set(map(id, trees)))
    assert tape.registers < len(tape.code)


def test_batch_domain_error_names_first_failing_point():
    e = fx.parse_expression("log(x1) + y1", CHART)
    X = np.array([[1.0, 1.0, 0, 0], [-2.0, -1.0, 0, 0], [-3.0, 1.0, 0, 0]])
    with pytest.raises(fx.EvaluationDomainError, match=r"^log of non-positive value -2\.0$"):
        fx.evaluate(e, X)


# ------------------------------------------------------- composite fields

def composed_fields(geom, conn, scale, sigma):
    S = geo.scalar_curvature(geom.g, geo.ricci(geo.curvature(conn)))
    L = tr.splitting_L_sigma(sigma, scale)
    return {
        "g": geom.g,
        "connection": conn.coeffs,
        "R": geo.curvature(conn),
        "S": S,
        "sigma": sigma,
        "det_H": tr.det_H(L),
        "einstein": tr.einstein_residual(sigma, scale),
    }


def sigma_of(g):
    _, tau = geo.volume_density_and_tau(g)
    tau_inv = geo.TensorField(g.chart, (), -2.0, lambda x, k: tr.jrecip(tau.jet(x, k)))
    return geo.field_einsum(",ab->ab", tau_inv, geo.metric_inverse(g), (+1, +1))


@pytest.mark.parametrize("which", ["ball", "perturbed"])
def test_composed_fields_on_a_batch_match_points(request, which):
    geom = request.getfixturevalue(which)
    points = request.getfixturevalue(f"{which}_points")[:4]

    def build():
        conn = geo.canonical_connection(geom.g, geom.J)
        scale = tr.scale_from_connection(conn, geom.J, geom.g)
        return composed_fields(geom, conn, scale, sigma_of(geom.g))

    # fresh fields for each side, so no value comes from a shared cache
    batched = {name: f.jet(points, 1) for name, f in build().items()}
    pointwise = build()
    for name, jet in batched.items():
        for i, x in enumerate(points):
            single = pointwise[name].jet(x, 1)
            for k in range(2):
                scale = np.abs(single.terms[k]).max() + 1e-300
                assert np.abs(jet.terms[k][i] - single.terms[k]).max() <= 1e-13 * scale, \
                    (name, i, k)


# ------------------------------------------------------------ boundary

def test_limit_with_a_failing_middle_sample_keeps_samples_used(ball_rho):
    """The batch over all rays fails; each ray is replayed point by point,
    so the estimate names the first failing sample as before."""
    rays = [bd.make_ray(ball_rho, p) for p in ([0.99, 0, 0, 0], [0, 0, 0.6, 0.7])]
    expr = fx.log(ball_rho.expr - fx.const(0.02))
    fn = lambda x: fx.evaluate(expr, x)
    batched = bd.limits_along_rays(fn, rays, 1e-8, 3)
    for ray, est in zip(rays, batched):
        single = bd.extrapolate_limit(fn, ray, 1e-8, 3)
        assert 0 < est.samples_used < ray.K + 1
        assert (est.samples_used, est.note) == (single.samples_used, single.note)
        assert est.note.startswith("evaluation failed: log of non-positive value")
        assert math.isnan(est.value) and not est.converged


def test_limit_with_a_non_finite_middle_sample(ball_rho):
    ray = bd.make_ray(ball_rho, [0.99, 0, 0, 0])
    cut = ray.samples()[5][0]
    fn = lambda x: np.where(np.asarray(x)[..., 0] > cut, np.inf, 1.0)
    est, = bd.limits_along_rays(fn, [ray], 1e-8, 3)
    single = bd.extrapolate_limit(fn, ray, 1e-8, 3)
    assert (est.samples_used, est.note) == (single.samples_used, single.note) \
        == (6, "non-finite sample")


def test_limits_along_rays_match_single_rays(ball_rho, ball_tau):
    rays = [bd.make_ray(ball_rho, p) for p in ([0.99, 0, 0, 0], [0.5, 0.5, 0.5, 0.2])]
    fn = lambda x: ball_tau.value(x) / ball_rho.value(x)
    for ray, est in zip(rays, bd.limits_along_rays(fn, rays, 1e-6, 3)):
        single = bd.extrapolate_limit(lambda s: float(fn(s)), ray, 1e-6, 3)
        assert (est.value, est.error_estimate, est.samples_used) \
            == (single.value, single.error_estimate, single.samples_used)


def test_interior_points_are_one_batch():
    cfg = cli.load_config(str(Path(__file__).resolve().parent.parent
                              / "configs" / "ball.json"))
    points = cli.interior_points(cfg)
    assert points.shape == (20, 4)
    assert np.array_equal(points, cli.GeometryContext(cfg).points)
