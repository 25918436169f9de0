import math

import numpy as np
import pytest

from cprojective import boundary as bd
from cprojective import cproj as cp
from cprojective import examples as ex
from cprojective import fieldexpr as fx
from cprojective import geometry as geo
from cprojective import tractor as tr


@pytest.fixture(scope="session")
def ball():
    return ex.unit_ball(2)


@pytest.fixture(scope="session")
def ball_conn(ball):
    return geo.canonical_connection(ball.g, ball.J)


@pytest.fixture(scope="session")
def ball_scale(ball, ball_conn):
    return tr.scale_from_connection(ball_conn, ball.J, ball.g)


@pytest.fixture(scope="session")
def ball_rho(ball):
    return bd.DefiningFunction(ball.chart, ball.rho)


@pytest.fixture(scope="session")
def ball_points(ball):
    return geo.seeded_points(ball.chart, count=20, seed=42, radius=0.6,
                             rho=ball.rho, rho_min=0.05)


@pytest.fixture(scope="session")
def ball_rays(ball_rho):
    seeds = [[0.99, 0, 0, 0], [0, 0.99, 0, 0], [0, 0, 0, 0.99],
             [0.5, 0.5, 0.5, 0.2], [-0.6, 0.3, -0.4, 0.4]]
    return [bd.make_ray(ball_rho, p) for p in seeds]


@pytest.fixture(scope="session")
def ball_sigma(ball, ball_tau):
    return tr.metric_sigma(ball.g, ball_tau)


@pytest.fixture(scope="session")
def ball_tau(ball):
    return geo.volume_density_and_tau(ball.g)[1]


@pytest.fixture(scope="session")
def flat():
    return ex.flat_space(2)


@pytest.fixture(scope="session")
def perturbed():
    return ex.perturbed_ball(2, 0.4)


@pytest.fixture(scope="session")
def perturbed_conn(perturbed):
    return geo.canonical_connection(perturbed.g, perturbed.J)


@pytest.fixture(scope="session")
def perturbed_scale(perturbed, perturbed_conn):
    return tr.scale_from_connection(perturbed_conn, perturbed.J, perturbed.g)


@pytest.fixture(scope="session")
def perturbed_points(perturbed):
    return geo.seeded_points(perturbed.chart, count=20, seed=42, radius=0.6,
                             rho=perturbed.rho, rho_min=0.05)


@pytest.fixture(scope="session")
def perturbed_rays(perturbed):
    rho = bd.DefiningFunction(perturbed.chart, perturbed.rho)
    seeds = [[0.99, 0, 0, 0], [0, 0.99, 0, 0], [0, 0, 0, 0.99],
             [0.5, 0.5, 0.5, 0.2]]
    return [bd.make_ray(rho, p) for p in seeds]


def random_polynomial(chart, rng, degree=2, scale=1.0):
    """Low-degree polynomial expression with seeded coefficients."""
    from cprojective import fieldexpr as fx
    e = fx.const(rng.uniform(-scale, scale))
    for i in range(chart.n):
        e = e + fx.const(rng.uniform(-scale, scale)) * fx.var(chart, i)
    if degree >= 2:
        for i in range(chart.n):
            for j in range(i, chart.n):
                e = e + fx.const(rng.uniform(-scale, scale) / 2.0) \
                    * fx.var(chart, i) * fx.var(chart, j)
    return e


def random_one_form(chart, rng, degree=1, scale=0.5):
    import numpy as _np
    comps = _np.array([random_polynomial(chart, rng, degree, scale)
                       for _ in range(chart.n)], dtype=object)
    return geo.tensor_from_exprs(chart, comps, (-1,))


# Uses every node type: Const, Var, Mul, Exp, Add, Neg, Log, Sqrt, Div, Pow.
EVERY_NODE_TEXT = "exp(2*x1) - log(3 + y1) + sqrt(1 + x2)/y2^2"

_REFERENCE_OPS = {
    fx.Add: lambda e, r: r(e.a) + r(e.b),
    fx.Mul: lambda e, r: r(e.a) * r(e.b),
    fx.Div: lambda e, r: r(e.a) / r(e.b),
    fx.Pow: lambda e, r: r(e.a) ** e.p,
    fx.Neg: lambda e, r: -r(e.a),
    fx.Exp: lambda e, r: math.exp(r(e.a)),
    fx.Log: lambda e, r: math.log(r(e.a)),
    fx.Sqrt: lambda e, r: math.sqrt(r(e.a)),
}


def reference_evaluate(e, x):
    """Recursive tree evaluation, one float operation per node and no domain
    checks: the reference the compiled tapes must match bit for bit."""
    memo = {}

    def rec(node):
        key = id(node)
        if key not in memo:
            if isinstance(node, fx.Const):
                memo[key] = node.value
            elif isinstance(node, fx.Var):
                memo[key] = float(x[node.index])
            else:
                memo[key] = _REFERENCE_OPS[type(node)](node, rec)
        return memo[key]

    return rec(e)


def reference_grho(rho, J):
    """The metric of a defining function assembled symbolically, one
    expression tree per component:
    g(xi, eta) = (-1/rho^2)(drho(xi) drho(eta) + theta(xi) theta(eta))
                 + (1/rho) dtheta(xi, J eta), symmetrized;
    the oracle for boundary.defining_metric, which builds g by jets."""
    chart = J.chart
    n = chart.n
    Jm = J.expr_matrix
    drho = [fx.differentiate(rho, i) for i in range(n)]
    theta = []
    for a in range(n):
        acc = fx.const(0.0)
        for i in range(n):
            acc = acc - drho[i] * Jm[i, a]
        theta.append(acc)
    dtheta = [[fx.differentiate(theta[b], a) - fx.differentiate(theta[a], b)
               for b in range(n)] for a in range(n)]
    inv_rho = fx.const(1.0) / rho
    inv_rho2 = inv_rho * inv_rho
    comps = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            had = fx.const(0.0)
            for i in range(n):
                had = had + dtheta[a][i] * Jm[i, b]
            comps[a, b] = (fx.const(-1.0) * inv_rho2) \
                * (drho[a] * drho[b] + theta[a] * theta[b]) + inv_rho * had
    sym = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            sym[a, b] = (comps[a, b] + comps[b, a]) * fx.const(0.5)
    return geo.tensor_from_exprs(chart, sym, (-1, -1), 0.0, "g_rho_reference")
