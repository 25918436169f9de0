import itertools
import math

import numpy as np
import pytest

from cprojective import fieldexpr as fx

from conftest import EVERY_NODE_TEXT, reference_evaluate

CHART = fx.Chart(2)
BALL = "1 - x1^2 - y1^2 - x2^2 - y2^2"


def finite_difference(e, x, i, step=1e-4):
    xp = np.array(x, dtype=float)
    xm = xp.copy()
    xp[i] += step
    xm[i] -= step
    return (fx.evaluate(e, xp) - fx.evaluate(e, xm)) / (2 * step)


def test_parse_ball_at_reference_points():
    rho = fx.parse_expression(BALL, CHART)
    assert fx.evaluate(rho, [0, 0, 0, 0]) == 1.0
    assert fx.evaluate(rho, [1, 0, 0, 0]) == 0.0
    assert fx.evaluate(rho, [0.5, 0.5, 0.5, 0.5]) == 0.0


def test_parse_tree_depth():
    rho = fx.parse_expression(BALL, CHART)
    # a sum of five terms cannot be a leaf or a single operator node
    assert isinstance(rho, fx.Add)
    assert isinstance(rho.a, (fx.Add, fx.Const))


def test_exp_of_zero():
    e = fx.parse_expression("exp(0.1*x1)", CHART)
    assert fx.evaluate(e, [0, 0, 0, 0]) == 1.0


def test_log_domain_error():
    e = fx.parse_expression("log(x1)", CHART)
    with pytest.raises(fx.EvaluationDomainError):
        fx.evaluate(e, [-1, 0, 0, 0])


def test_sqrt_domain_error_carries_node():
    e = fx.parse_expression("sqrt(x1)", CHART)
    try:
        fx.evaluate(e, [-2, 0, 0, 0])
    except fx.EvaluationDomainError as err:
        assert err.node is e
    else:
        pytest.fail("expected a domain error")


def test_division_by_zero():
    e = fx.parse_expression("1/x1", CHART)
    with pytest.raises(fx.EvaluationDomainError):
        fx.evaluate(e, [0, 0, 0, 0])


def test_differentiate_power():
    e = fx.parse_expression("x1^2", CHART)
    d = fx.differentiate(e, 0)
    for v in (0.0, 1.5, -2.0):
        assert fx.evaluate(d, [v, 0, 0, 0]) == 2 * v


def test_differentiate_ball_y2():
    rho = fx.parse_expression(BALL, CHART)
    d = fx.differentiate(rho, 3)
    for v in (0.0, 0.7, -0.3):
        assert fx.evaluate(d, [0, 0, 0, v]) == -2 * v


def test_mixed_partials_commute():
    e = fx.parse_expression("exp(x1*y1)", CHART)
    d01 = fx.differentiate(fx.differentiate(e, 0), 1)
    d10 = fx.differentiate(fx.differentiate(e, 1), 0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-1, 1, 4)
        assert abs(fx.evaluate(d01, x) - fx.evaluate(d10, x)) < 1e-14


def test_unknown_variable_rejected():
    with pytest.raises(fx.ParseError):
        fx.parse_expression("x1 + z9", CHART)


def test_syntax_error_has_position():
    with pytest.raises(fx.ParseError) as err:
        fx.parse_expression("x1 + * y1", CHART)
    assert err.value.position > 0


def test_malformed_exponent():
    with pytest.raises(fx.ParseError, match="exponent"):
        fx.parse_expression("x1^y1", CHART)


def test_derivative_tensor_order1_at_boundary_point():
    rho = fx.parse_expression(BALL, CHART)
    grad = fx.derivative_tensor(rho, [1, 0, 0, 0], 1)
    assert np.array_equal(grad, [-2.0, 0.0, 0.0, 0.0])


def test_derivative_tensor_order2_constant_hessian():
    rho = fx.parse_expression(BALL, CHART)
    hess = fx.derivative_tensor(rho, [0.3, -0.1, 0.2, 0.4], 2)
    assert np.array_equal(hess, np.diag([-2.0, -2.0, -2.0, -2.0]))


def test_derivative_tensor_order3_zero_for_quadratic():
    rho = fx.parse_expression(BALL, CHART)
    third = fx.derivative_tensor(rho, [0.3, -0.1, 0.2, 0.4], 3)
    assert np.abs(third).max() == 0.0


def test_derivative_tensor_bitwise_symmetric():
    e = fx.parse_expression("exp(x1*y1)*sqrt(1 + x2^2)/(2 + y2)", CHART)
    x = [0.3, -0.4, 0.5, 0.2]
    for order in (2, 3, 4):
        arr = fx.derivative_tensor(e, x, order)
        for idx in itertools.permutations(range(4), order):
            assert arr[idx] == arr[tuple(sorted(idx))]


def test_derivatives_match_finite_differences():
    exprs = [
        BALL,
        "exp(0.3*x1*y2)",
        "log(2 + x1 + y1^2)",
        "sqrt(1 + x2^2 + y2^2)",
        "(1 + x1*x2)/(2 + y1^2)",
        "x1^3 - 2*y2^-2 + 0.5",
    ]
    rng = np.random.default_rng(7)
    for text in exprs:
        e = fx.parse_expression(text, CHART)
        trees = [fx.differentiate(e, i) for i in range(4)]
        for _ in range(100 // len(exprs) + 1):
            x = rng.uniform(0.2, 0.8, 4)
            for i in range(4):
                exact = fx.evaluate(trees[i], x)
                approx = finite_difference(e, x, i)
                denom = max(1.0, abs(exact))
                assert abs(exact - approx) / denom < 1e-6


def test_print_and_reparse_evaluates_identically():
    texts = [
        BALL,
        "exp(0.1*x1)*sqrt(1 + x2^2)/(2 - y1) - log(2 + y2)",
        "-x1 + (x2 - y1)^3*0.25",
        "1/(1 + x1^2) - y2^-1",
    ]
    rng = np.random.default_rng(11)
    for text in texts:
        e = fx.parse_expression(text, CHART)
        e2 = fx.parse_expression(fx.to_text(e), CHART)
        for _ in range(25):
            x = rng.uniform(0.1, 0.9, 4)
            assert fx.evaluate(e, x) == pytest.approx(fx.evaluate(e2, x),
                                                      rel=0, abs=0)


def test_roundtrip_of_derivative_trees():
    e = fx.parse_expression("exp(x1*y1)/(1 + x2^2)", CHART)
    d = fx.differentiate(fx.differentiate(e, 0), 2)
    d2 = fx.parse_expression(fx.to_text(d), CHART)
    rng = np.random.default_rng(13)
    for _ in range(25):
        x = rng.uniform(-0.9, 0.9, 4)
        assert fx.evaluate(d, x) == fx.evaluate(d2, x)


def test_chart_requires_m_at_least_two():
    with pytest.raises(ValueError):
        fx.Chart(1)


def test_chart_coordinate_order():
    chart = fx.Chart(3)
    assert chart.names == ("x1", "y1", "x2", "y2", "x3", "y3")
    assert chart.n == 6


def test_operator_sugar_builds_equivalent_trees():
    x1 = fx.var(CHART, 0)
    y1 = fx.var(CHART, 1)
    e = 1.0 - x1 ** 2 - y1 ** 2
    parsed = fx.parse_expression("1 - x1^2 - y1^2", CHART)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.uniform(-1, 1, 4)
        assert fx.evaluate(e, x) == pytest.approx(fx.evaluate(parsed, x), abs=1e-15)


def test_hash_consing_shares_nodes():
    a = fx.parse_expression("x1*y1", CHART)
    b = fx.parse_expression("x1*y1", CHART)
    assert a is b


def every_node_closed_form(idx, x):
    """Mixed partial of EVERY_NODE_TEXT along the multi-index idx, from the
    one-variable derivatives of its separable terms."""
    x1, y1, x2, y2 = x
    counts = [idx.count(i) for i in range(4)]
    k = len(idx)
    if k == 0:
        return math.exp(2 * x1) - math.log(3 + y1) + math.sqrt(1 + x2) / y2 ** 2
    if counts[0] == k:
        return 2.0 ** k * math.exp(2 * x1)
    if counts[1] == k:
        return (-1) ** k * math.factorial(k - 1) / (3 + y1) ** k
    if counts[0] or counts[1]:
        return 0.0
    a, b = counts[2], counts[3]
    s = math.prod(0.5 - j for j in range(a)) * (1 + x2) ** (0.5 - a)
    t = math.prod(-2.0 - j for j in range(b)) * y2 ** (-2.0 - b)
    return s * t


def test_derivative_tensor_matches_closed_forms():
    e = fx.parse_expression(EVERY_NODE_TEXT, CHART)
    x = [0.3, -0.4, 0.5, 0.7]
    for order in range(4):
        arr = fx.derivative_tensor(e, x, order)
        for idx in np.ndindex(arr.shape):
            expected = every_node_closed_form(tuple(sorted(idx)), x)
            assert arr[idx] == pytest.approx(expected, rel=1e-12, abs=0)


def test_tape_is_bit_equal_to_reference_walk():
    e = fx.parse_expression(EVERY_NODE_TEXT, CHART)
    trees = [fx.derivative_trees(e, idx) for order in range(4)
             for idx in itertools.combinations_with_replacement(range(4), order)]
    tape = fx.compile_tape(trees)
    rng = np.random.default_rng(19)
    for _ in range(5):
        x = rng.uniform(0.1, 0.9, 4)
        assert fx.evaluate(tape, x) == [reference_evaluate(t, x) for t in trees]


def test_tape_records_shared_subtrees_once():
    e = fx.parse_expression(EVERY_NODE_TEXT, CHART)
    d = fx.differentiate(e, 3)
    single = len(fx.compile_tape([e]).code) + len(fx.compile_tape([d]).code)
    assert len(fx.compile_tape([e, d, e]).code) < single


@pytest.mark.parametrize("text, message", [
    ("x1 + 1/0", "division by constant zero"),
    ("x1 + log(0 - 1)", "log of non-positive constant"),
    ("x1 + sqrt(0 - 4)", "sqrt of negative constant"),
    ("x1 + 0^-1", "zero raised to a negative power"),
    ("x1 + (0 - 8)^0.5", "negative base with non-integer exponent"),
    ("x1 + exp(710)", "exp overflow"),
])
def test_constant_folding_rejects_constants_outside_their_domain(text, message):
    with pytest.raises(ArithmeticError, match=message):
        fx.parse_expression(text, CHART)
