"""Engine tests: grammar, printing, evaluation, derivatives, equivalence."""

import copy
import gc
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptnls import jetexpr
from ptnls.catalog import CaseId, Kind, load_catalog
from ptnls.jetexpr import (DEFAULT_MAX_JET_ORDER, Binary, Const,
                           EvalError, Jet, JetBatch, JetOrderError,
                           JetPoint, JetSampler, ParamValues, ParseError, Sym,
                           Unary, Var, add, collect_coords, complete_coords, const,
                           contains_t_derivative,
                           coord_from_name, div, erf, euler_operator, eval_expr,
                           exp, expr_equiv, gradient, jet, mul, neg, nodes,
                           parse_expr, partial, pow_, random_polynomial, sqrt,
                           sub, substitute, to_text, total_derivative)

U, V = jet("u"), jet("v")
UX, VX = jet("u", 0, 1), jet("v", 0, 1)
UT = jet("u", 1, 0)


# ---------------------------------------------------------------------------
# coordinates


def test_coord_names_canonical_t_before_x():
    assert jet("u", 2, 1).name() == "u_ttx"
    assert jet("v", 0, 3).name() == "v_xxx"
    assert jet("u", 0, 0).name() == "u"


def test_coord_from_name_roundtrip():
    for dep in ("u", "v"):
        for i in range(4):
            for j in range(4 - i):
                c = jet(dep, i, j)
                assert coord_from_name(c.name()) == c
    assert coord_from_name("u_xt") is None
    assert coord_from_name("w_x") is None
    assert coord_from_name("eps") is None


def test_coord_bumped():
    c = jet("u", 1, 1)
    assert c.bumped("t") == jet("u", 2, 1)
    assert c.bumped("x") == jet("u", 1, 2)


def test_coord_ordering():
    coords = [jet("v", 0, 1), jet("u", 2, 0), jet("u", 0, 0)]
    assert sorted(coords)[0] == jet("u", 0, 0)


def test_jet_is_the_coordinate():
    with pytest.raises(ValueError):
        jet("w")
    with pytest.raises(ValueError):
        jet("u", -1, 0)
    assert coord_from_name("u_tx") is jet("u", 1, 1)
    assert jet("u", 1, 1).bumped("x") is jet("u", 1, 2)
    c = Jet("v", 2, 1)
    assert pickle.loads(pickle.dumps(c)) is c
    assert copy.deepcopy(c) is c


# euler_operator of the case1a charge block Q1*E1 + Q2*E2: terms follow the
# (dep, t_order, x_order) order of the coordinates
_CASE1A_CHARGE_EULER = (
    ('u_t + 1/2*v_xx - eps*x*u - 1/2*x^2*v + '
     '2*mu^2*sigma*exp((-alpha)*x^2)*(u^2 + v^2)*v + u*(-(eps*x) + '
     '2*mu^2*sigma*exp((-alpha)*x^2)*(2*u)*v) + (-v)*(-(1/2*x^2) + '
     '(2*mu^2*sigma*exp((-alpha)*x^2)*(2*u)*u + '
     '2*mu^2*sigma*exp((-alpha)*x^2)*(u^2 + v^2))) + (-v_xx)*(1/2) - u_t'),
    ('u*(-(1/2*x^2) + (2*mu^2*sigma*exp((-alpha)*x^2)*(2*v)*v + '
     '2*mu^2*sigma*exp((-alpha)*x^2)*(u^2 + v^2))) + ((-1)*(-v_t + 1/2*u_xx - '
     '1/2*x^2*u + eps*x*v + 2*mu^2*sigma*exp((-alpha)*x^2)*(u^2 + v^2)*u) + '
     '(-v)*(eps*x + 2*mu^2*sigma*exp((-alpha)*x^2)*(2*v)*u)) + u_xx*(1/2) - '
     '(-v_t)*(-1)'),
)


def test_euler_operator_term_order_on_a_catalog_block():
    cat = load_catalog()
    system, mult = cat.build_system(CaseId.CASE1A), cat.multiplier(Kind.CHARGE)
    qe = add(mul(mult.Q1, system.E1), mul(mult.Q2, system.E2))
    assert tuple(map(to_text, euler_operator(qe, max_order=6))) == _CASE1A_CHARGE_EULER


# ---------------------------------------------------------------------------
# parsing and printing


@pytest.mark.parametrize("text,canon", [
    ("u - (v - u)", "u - (v - u)"),
    ("(u+v)*x", "(u + v)*x"),
    ("-(u*v)", "-(u*v)"),
    ("-u + v", "-u + v"),
    ("u^(3/2)", "u^(3/2)"),
    ("2*u / (3*v)", "2*u/(3*v)"),
    ("exp(-alpha*x^2)", "exp((-alpha)*x^2)"),
    ("-1/2*u", "(-1/2)*u"),
    ("0.25*u", "0.25*u"),
    ("u_tx", "u_tx"),
])
def test_parse_print_known(text, canon):
    assert to_text(parse_expr(text)) == canon


@pytest.mark.parametrize("text,offset,fragment", [
    ("u_t + (", 7, "end of input"),
    ("u_xt", 0, "all t's before all x's"),
    ("2 + * 3", 4, "expected an expression"),
    ("u ^ v", 2, "rational constant"),
    ("q + 1", 0, "unknown identifier 'q'"),
    ("3/0", 1, "division by constant zero"),
    ("0^(-2)", 1, "zero raised to a negative power"),
])
def test_parse_errors_carry_offsets(text, offset, fragment):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.offset == offset
    assert fragment in str(exc.value)


def test_jet_order_limit():
    with pytest.raises(JetOrderError):
        parse_expr("u_ttttt")
    parse_expr("u_ttttt", max_order=5)
    with pytest.raises(JetOrderError):
        parse_expr("u_ttxx", max_order=3)


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as exc:
        parse_expr("u v")
    assert exc.value.offset == 2


def test_folding_identities():
    assert add(U, const(0)) is U
    assert mul(U, const(1)) is U
    assert mul(U, const(0)) == const(0)
    assert neg(neg(U)) is U
    assert exp(const(0)) == const(1)
    assert erf(const(0)) == const(0)
    assert add(const(2), const(3)) == const(5)
    assert pow_(const(Fraction(2)), Fraction(3)) == const(8)
    assert div(const(1), const(4)) == const(Fraction(1, 4))
    assert pow_(U, Fraction(1)) is U
    assert pow_(U, Fraction(0)) == const(1)


def test_fraction_arithmetic_stays_exact():
    e = parse_expr("1/3 + 1/6")
    assert isinstance(e, Const) and e.value == Fraction(1, 2)


_PARAMS = ("eps", "mu", "sigma", "alpha", "g")
_COORDS = [jet(d, i, j) for d in "uv" for i in range(3) for j in range(3 - i)]

_leaf = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6).map(const),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
              allow_infinity=False).map(const),
    st.sampled_from(_PARAMS).map(Sym),
    st.sampled_from(["t", "x"]).map(Var),
    st.sampled_from(_COORDS),
)


def _compose(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: add(*ab)),
        pair.map(lambda ab: sub(*ab)),
        pair.map(lambda ab: mul(*ab)),
        pair.filter(lambda ab: not (isinstance(ab[1], Const) and ab[1].value == 0))
            .map(lambda ab: div(*ab)),
        children.map(neg),
        children.map(exp),
        children.map(erf),
        children.map(sqrt),
        st.tuples(children,
                  st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2),
                                   Fraction(3, 2)]))
          .map(lambda be: pow_(*be)),
    )


_tree = st.recursive(_leaf, _compose, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_tree)
@example(neg(sqrt(pow_(Const(-0.0), Fraction(1, 2)))))  # prints as -sqrt((-0.0)^(1/2))
def test_print_parse_roundtrip(e):
    assert parse_expr(to_text(e)) == e


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_polynomial_roundtrip(seed):
    e = random_polynomial(np.random.default_rng(seed))
    assert parse_expr(to_text(e)) == e


# ---------------------------------------------------------------------------
# evaluation

# erf reference values at 40-digit precision
_ERF_TABLE = [
    (-2.5, -0.9995930479825550410604),
    (-1.0, -0.8427007929497148693412),
    (-0.3, -0.3286267594591274276389),
    (0.1, 0.1124629160182848922033),
    (0.7, 0.6778011938374184729756),
    (1.3, 0.9340079449406524366039),
    (2.2, 0.9981371537020181085565),
    (3.7, 0.9999998328489420908538),
]


def test_erf_against_reference_table():
    e = erf(Var("x"))
    xs = np.array([x for x, _ in _ERF_TABLE])
    batch = JetBatch(np.zeros_like(xs), xs, 0, {})
    got = eval_expr(e, batch, ParamValues())
    want = np.array([y for _, y in _ERF_TABLE])
    assert np.max(np.abs(got - want)) < 1e-12


def test_eval_vectorized_matches_scalar():
    e = parse_expr("u_x^2*exp(-x^2) + eps*v - sqrt(mu)")
    sampler = JetSampler(seed=11)
    batch = sampler.batch(17, 2)
    params = ParamValues(eps=0.3, mu=4.0)
    vec = eval_expr(e, batch, params)
    for i in (0, 5, 16):
        assert eval_expr(e, batch.point(i), params) == pytest.approx(vec[i], rel=1e-15)


def test_eval_shared_child_and_leaf_roots():
    sampler = JetSampler(seed=4)
    batch = sampler.batch(9, 1)
    u, v = batch.values[jet("u", 0, 0)], batch.values[jet("v", 0, 0)]
    square = mul(U, U)
    assert square.lhs is square.rhs
    s = add(U, V)
    # s feeds mul(s, s) twice and sub(s, square) once more
    e = add(mul(s, s), sub(s, square))
    uses = {}
    nodes(e, uses=uses)
    assert (uses[U], uses[V], uses[s], uses[square], uses[e]) == (3, 1, 3, 1, 1)
    assert np.array_equal(eval_expr(square, batch), u * u)
    want = (u + v) * (u + v) + ((u + v) - u * u)
    assert np.array_equal(eval_expr(e, batch), want)
    assert eval_expr(e, batch.point(2)) == want[2]
    assert eval_expr(U, batch) is u
    assert np.array_equal(eval_expr(Var("x"), batch), batch.x)
    assert eval_expr(Const(2.5), batch) == 2.5
    assert eval_expr(Sym("mu"), batch, ParamValues(mu=3.0)) == 3.0


def test_eval_frees_intermediates_after_last_use():
    points = 10_000
    rng = np.random.default_rng(0)
    batch = JetBatch(np.zeros(points), np.zeros(points), 0,
                     {jet("u", 0, 0): rng.standard_normal(points),
                      jet("v", 0, 0): rng.standard_normal(points)})
    e = U
    for k in range(100):  # 200 array intermediates, each used once
        e = add(mul(e, Const(1.0 + k / 1000)), V)
    tracemalloc.start()
    try:
        eval_expr(e, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the live value, its successor and the result; not 200 arrays
    assert peak < 4 * points * 8


def test_batch_length_is_the_broadcast_point_count():
    rows, n = 3, 5
    batch = JetBatch(np.zeros((rows, 1)), np.zeros(n), 0,
                     {jet("u", 0, 0): np.zeros((rows, n))})
    assert len(batch) == rows * n
    assert len(JetSampler(seed=0).batch(7, 1)) == 7


def test_eval_missing_coord_raises():
    e = parse_expr("u_tt")
    batch = JetBatch(np.array([1.0]), np.array([0.5]), 2,
                     {jet("u", 0, 0): np.array([1.0])})
    with pytest.raises(EvalError, match="u_tt"):
        eval_expr(e, batch, ParamValues())


@pytest.mark.parametrize("text,u,message", [
    ("1/u", 0.0, "division by zero"),
    ("sqrt(u)", -1.0, "sqrt of a negative value"),
    ("u^(1/2)", -1.0, "fractional power of a negative"),
    ("u^(-2)", 0.0, "zero raised to a negative power"),
    ("u^(-5)", 0.0, "zero raised to a negative power"),
    ("u^(-1/2)", 0.0, "zero raised to a negative power"),
    ("u^(-3/2)", -1.0, "fractional power of a negative"),
])
def test_eval_domain_errors(text, u, message):
    e = parse_expr(text)
    point = JetPoint.from_names(1.0, 0.5, 0, {"u": u, "v": 0.0})
    with pytest.raises(EvalError, match=message):
        eval_expr(e, point, ParamValues())


@pytest.mark.parametrize("p", range(-3, 9))
def test_integer_powers_are_the_plain_product(p):
    # repeated squaring rounds in another order than the product u*u*...*u,
    # a few ulps at most for |p| <= 8; small integers and p = 2, 3 are exact
    # (pow_ folds u^0 to 1 and u^1 to u)
    e = pow_(U, Fraction(p))
    rng = np.random.default_rng(p + 3)
    u = np.concatenate([rng.uniform(-3.0, 3.0, 200), [-2.0, -1.0, 1.0, 3.0, 1e-30, -7e20]])
    product = np.ones_like(u)
    for _ in range(abs(p)):
        product = product * u
    want = 1.0 / product if p < 0 else product
    got = np.broadcast_to(eval_expr(e, JetBatch(np.zeros(u.size), np.zeros(u.size), 0,
                                                {U: u})), u.shape)
    np.testing.assert_allclose(got, want, rtol=16 * np.finfo(float).eps, atol=0.0)
    exact = np.isin(u, [-2.0, -1.0, 1.0, 3.0])
    assert np.array_equal(got[exact], want[exact])
    if p in (2, 3):
        assert np.array_equal(got, want)
    for value, expected in zip(u[::25], want[::25]):
        scalar = eval_expr(e, JetPoint.from_names(0.0, 0.0, 0, {"u": float(value), "v": 0.0}))
        assert type(scalar) is float
        assert scalar == pytest.approx(expected, rel=16 * np.finfo(float).eps, abs=0.0)


def test_power_domain_errors_and_overflow_on_batches():
    # one bad point fails the batch, as a scalar point fails alone
    zero_in = JetBatch(np.zeros(3), np.zeros(3), 0, {U: np.array([1.0, 0.0, 2.0])})
    for expo in (Fraction(-1), Fraction(-2), Fraction(-5), Fraction(-1, 2)):
        with pytest.raises(EvalError, match="zero raised to a negative power"):
            eval_expr(pow_(U, expo), zero_in)
    negative_in = JetBatch(np.zeros(2), np.zeros(2), 0, {U: np.array([4.0, -1.0])})
    for expo in (Fraction(1, 2), Fraction(-3, 2)):
        with pytest.raises(EvalError, match="fractional power of a negative"):
            eval_expr(pow_(U, expo), negative_in)
    # a nonzero base whose power underflows gives inf, as np.power does, on
    # a scalar point as on a batch
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        tiny = eval_expr(pow_(U, Fraction(-2)),
                         JetPoint.from_names(0.0, 0.0, 0, {"u": 1e-200, "v": 0.0}))
        tinies = eval_expr(pow_(U, Fraction(-2)), JetBatch(np.zeros(1), np.zeros(1), 0,
                                                           {U: np.array([1e-200])}))
    assert tiny == math.inf and tinies[0] == math.inf


def test_param_values_validation():
    with pytest.raises(ValueError):
        ParamValues(eps=-0.1)
    p = ParamValues(eps=0.2)
    assert p.get("eps") == 0.2
    assert p.replace(mu=3.0).mu == 3.0
    assert p.replace(mu=3.0).eps == 0.2


def test_jet_point_completeness():
    with pytest.raises(ValueError):
        JetPoint.from_names(0.0, 1.0, 1, {"u": 1.0, "v": 2.0, "u_x": 0.5})
    p = JetPoint.from_names(0.0, 1.0, 1,
                            {"u": 1.0, "v": 2.0, "u_t": 0.0, "v_t": 0.0,
                             "u_x": 0.5, "v_x": -1.0})
    assert p.named()["u_x"] == 0.5


def _batch_per_coordinate(sampler, n, order):
    """Reference for JetSampler.batch: one rng.uniform call per coordinate."""
    rng = np.random.default_rng(sampler.seed)
    t = rng.uniform(*sampler.t_range, size=n)
    x = rng.uniform(*sampler.x_magnitude, size=n) * rng.choice([-1.0, 1.0], size=n)
    values = {}
    for dep in ("u", "v"):
        for i in range(order + 1):
            for j in range(order + 1 - i):
                values[jet(dep, i, j)] = rng.uniform(*sampler.jet_range, size=n)
    return t, x, values


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("n", [1, 7, 20])
@pytest.mark.parametrize("order", [0, 1, 2, 6])
def test_jet_sampler_batch_matches_per_coordinate_draws(seed, n, order):
    sampler = JetSampler(seed=seed)
    batch = sampler.batch(n, order)
    t, x, values = _batch_per_coordinate(sampler, n, order)
    assert batch.order == order and len(batch) == n
    assert np.array_equal(batch.t, t) and np.array_equal(batch.x, x)
    assert list(batch.values) == list(values)  # same coordinates, same order
    for c, want in values.items():
        assert batch.values[c].shape == (n,)
        assert np.array_equal(batch.values[c], want), c.name()


def test_jet_sampler_memo_returns_fresh_batches_of_the_same_draws():
    sampler = JetSampler(seed=3)
    t, x, values = _batch_per_coordinate(sampler, 20, 2)
    first = sampler.batch(20, 2)
    for round_ in range(3):
        # other keys in between push the first one out of the bounded memo
        for k in range(round_ * 10):
            JetSampler(seed=100 + k).batch(5, 1)
        again = sampler.batch(20, 2)
        assert again is not first and again.values is not first.values
        assert again.t.tobytes() == t.tobytes() and again.x.tobytes() == x.tobytes()
        assert list(again.values) == list(values)
        for c, want in values.items():
            assert again.values[c].tobytes() == want.tobytes(), c.name()


def test_jet_sampler_draws_are_read_only_and_values_dicts_independent():
    sampler = JetSampler(seed=8)
    batch = sampler.batch(6, 1)
    for a in (batch.t, batch.x, *batch.values.values()):
        with pytest.raises(ValueError):
            a[0] = 0.0
    want = sampler.batch(6, 1).values[U].copy()
    batch.values[U] = np.zeros(6)
    del batch.values[V]
    again = sampler.batch(6, 1)
    assert np.array_equal(again.values[U], want)
    assert V in again.values and len(again.values) == len(complete_coords(1))


@pytest.mark.parametrize("n", [0, -3])
def test_sample_count_must_be_positive(n):
    with pytest.raises(ValueError, match=r"\bn must be at least 1"):
        JetSampler(seed=0).batch(n, 1)
    with pytest.raises(ValueError, match=r"\bn must be at least 1"):
        expr_equiv(U, U, n=n)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-10])
def test_equiv_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        expr_equiv(U, U, tol=tol)


def test_complete_coords_is_one_immutable_tuple_per_order():
    for order in (0, 2, 6):
        coords = complete_coords(order)
        assert isinstance(coords, tuple)
        assert complete_coords(order) is coords
        assert len(coords) == (order + 1) * (order + 2)
        with pytest.raises(TypeError):
            coords[0] = jet("u", 9, 9)
    assert complete_coords(1) == (jet("u", 0, 0), jet("u", 0, 1),
                                  jet("u", 1, 0), jet("v", 0, 0),
                                  jet("v", 0, 1), jet("v", 1, 0))


def test_jet_sampler_deterministic_and_in_range():
    a = JetSampler(seed=5).batch(50, 2)
    b = JetSampler(seed=5).batch(50, 2)
    assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)
    for c in a.values:
        assert np.array_equal(a.values[c], b.values[c])
    assert np.all((a.t >= 0.1) & (a.t <= 2.0))
    assert np.all((np.abs(a.x) >= 0.4) & (np.abs(a.x) <= 2.0))
    assert np.any(a.x < 0) and np.any(a.x > 0)


# ---------------------------------------------------------------------------
# derivatives


def test_partial_basic():
    e = parse_expr("u^2*v + x*u_x")
    assert expr_equiv(partial(e, "u"), parse_expr("2*u*v"))
    assert expr_equiv(partial(e, "v"), parse_expr("u^2"))
    assert expr_equiv(partial(e, "u_x"), parse_expr("x"))
    assert partial(e, "u_tt") == const(0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_partial_product_rule(seed):
    rng = np.random.default_rng(seed)
    f = random_polynomial(rng)
    g = random_polynomial(rng)
    c = _COORDS[int(rng.integers(0, len(_COORDS)))]
    lhs = partial(mul(f, g), c)
    rhs = add(mul(partial(f, c), g), mul(f, partial(g, c)))
    assert expr_equiv(lhs, rhs, n=25)


def test_chain_rules():
    x = Var("x")
    assert expr_equiv(partial(exp(mul(U, U)), "u"), parse_expr("2*u*exp(u^2)"))
    two_over_sqrt_pi = div(const(2), sqrt(Sym("pi")))
    assert expr_equiv(total_derivative(erf(x), "x"),
                      mul(two_over_sqrt_pi, exp(neg(pow_(x, 2)))))
    root = sqrt(parse_expr("1 + u^2"))
    assert expr_equiv(partial(root, "u"), div(U, root), n=30)


def test_total_derivative_basics():
    assert total_derivative(Var("x"), "x") == const(1)
    assert total_derivative(Var("x"), "t") == const(0)
    assert total_derivative(U, "x") == UX
    assert total_derivative(U, "t") == UT
    assert expr_equiv(total_derivative(mul(U, V), "x"),
                      add(mul(UX, V), mul(U, VX)))


def test_total_derivative_order_guard():
    e = parse_expr("u_ttxx")
    with pytest.raises(JetOrderError):
        total_derivative(e, "x", max_order=4)
    total_derivative(e, "x", max_order=5)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_total_derivatives_commute(seed):
    f = random_polynomial(np.random.default_rng(seed))
    dtx = total_derivative(total_derivative(f, "t", max_order=6), "x", max_order=6)
    dxt = total_derivative(total_derivative(f, "x", max_order=6), "t", max_order=6)
    assert expr_equiv(dtx, dxt, n=25)


def test_collect_coords_and_t_flag():
    e = parse_expr("u_tx*v + x*exp(v_xx)")
    assert collect_coords(e) == frozenset(
        {jet("u", 1, 1), jet("v", 0, 0), jet("v", 0, 2)})
    assert contains_t_derivative(e)
    assert not contains_t_derivative(parse_expr("u*v_xx + x"))


# ---------------------------------------------------------------------------
# euler operator


def test_euler_known_lagrangians():
    eu, ev = euler_operator(parse_expr("1/2*u_x^2"))
    assert expr_equiv(eu, parse_expr("-u_xx"))
    assert ev == const(0)
    eu, ev = euler_operator(parse_expr("1/2*u_t^2"))
    assert expr_equiv(eu, parse_expr("-u_tt"))
    eu, ev = euler_operator(parse_expr("u*v"))
    assert expr_equiv(eu, V) and expr_equiv(ev, U)
    # second order enters with a plus sign
    eu, ev = euler_operator(parse_expr("u_xx*v"))
    assert expr_equiv(eu, parse_expr("v_xx")) and expr_equiv(ev, parse_expr("u_xx"))


def test_euler_order_guard():
    with pytest.raises(JetOrderError):
        euler_operator(parse_expr("u_ttx^2"), max_order=4)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["t", "x"]))
def test_euler_annihilates_total_derivatives(seed, direction):
    f = random_polynomial(np.random.default_rng(seed))
    df = total_derivative(f, direction, max_order=6)
    eu, ev = euler_operator(df, max_order=6)
    assert expr_equiv(eu, const(0), n=20, tol=1e-9)
    assert expr_equiv(ev, const(0), n=20, tol=1e-9)


def _euler_reference(e, max_order):
    """The Euler operator as a loop over coordinates: a fresh `partial`, then
    a fresh `total_derivative` per D, for every coordinate of e."""
    out = []
    for dep in ("u", "v"):
        acc = const(0)
        for c in sorted(collect_coords(e)):
            if c.dep != dep:
                continue
            term = partial(e, c)
            if type(term) is Const and term.value == 0:
                continue
            for _ in range(c.t_order):
                term = total_derivative(term, "t", max_order)
            for _ in range(c.x_order):
                term = total_derivative(term, "x", max_order)
            acc = add(acc, term) if c.order % 2 == 0 else sub(acc, term)
        out.append(acc)
    return tuple(out)


def _assert_euler_is_reference(e, max_order):
    grad = gradient(e)
    assert set(grad) == collect_coords(e)
    for c, d in grad.items():
        assert d is partial(e, c), c.name()
    eu, ev = euler_operator(e, max_order=max_order)
    ref_u, ref_v = _euler_reference(e, max_order)
    assert eu is ref_u and ev is ref_v


_FLOAT_PARAMS = ParamValues(eps=0.3, mu=1.5, sigma=0.7, alpha=0.25, g=2.0)


@pytest.mark.parametrize("params", [None, _FLOAT_PARAMS], ids=["symbolic", "float-params"])
def test_euler_operator_is_the_per_coordinate_loop_on_catalog_blocks(params):
    cat = load_catalog()
    for case_id in CaseId:
        system = cat.build_system(case_id, params)
        for kind in Kind:
            mult = cat.multiplier(kind)
            _assert_euler_is_reference(
                add(mul(mult.Q1, system.E1), mul(mult.Q2, system.E2)), max_order=6)


def test_euler_operator_is_the_per_coordinate_loop_on_random_total_derivatives():
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        f = random_polynomial(rng)
        for direction in ("t", "x"):
            _assert_euler_is_reference(total_derivative(f, direction, max_order=6), 6)


# hand-written densities reaching the chain rules random polynomials do not:
# erf, sqrt, quotients, fractional powers and float constants
_CHAIN_RULE_DENSITIES = [
    "erf(x)*u_x^2",
    "sqrt(1 + u^2)*v_x",
    "u/(1 + v^2)",
    "(u^2 + v^2)^(3/2)",
    "2.5*x*u + 3*v",
    "u + 2.5*x",
    "0.5*u_t*v - (1 + x^2)^(-1/2)*u_x/(2 + v_x^2) + exp(-0.25*x^2)*u*v",
]


@pytest.mark.parametrize("text", _CHAIN_RULE_DENSITIES)
def test_euler_chain_rules_are_the_loop_and_annihilate_total_derivatives(text):
    f = parse_expr(text)
    _assert_euler_is_reference(f, 6)
    for direction in ("t", "x"):
        df = total_derivative(f, direction, max_order=6)
        _assert_euler_is_reference(df, 6)
        eu, ev = euler_operator(df, max_order=6)
        assert expr_equiv(eu, const(0), n=40, tol=1e-9)
        assert expr_equiv(ev, const(0), n=40, tol=1e-9)


def test_gradient_keeps_float_zero_partials():
    # d(2.5*x)/du folds to the float 0.0, so d(u + 2.5*x)/du is 1.0, not 1
    e = parse_expr("u + 2.5*x")
    assert partial(e, "u") is Const(1.0)
    assert gradient(e) == {jet("u"): Const(1.0)}
    assert gradient(parse_expr("2.5*x")) == {}


def test_nodes_stops_at_seen_nodes():
    s = add(U, V)
    seen = set()
    assert nodes(s, seen=seen) == [U, V, s]
    e = mul(s, UX)
    assert nodes(e, seen=seen) == [UX, e]
    assert seen == {U, V, s, UX, e}
    assert nodes(e, seen=seen) == []


# ---------------------------------------------------------------------------
# substitution


def test_substitute_is_single_pass():
    # u -> v while v -> x: a second pass would turn the new v into x too
    e = parse_expr("u*v + u_x")
    out = substitute(e, {"u": V, "v": Var("x")})
    assert expr_equiv(out, parse_expr("v*x + u_x"))
    assert not expr_equiv(out, parse_expr("x^2 + u_x"))


def test_substitute_numeric_and_symbols():
    e = parse_expr("eps*u + x")
    out = substitute(e, {"eps": const(0)})
    assert expr_equiv(out, Var("x"))
    assert "eps" not in to_text(out)


def test_substitute_untouched_returns_same_object():
    e = parse_expr("u_x^2 + exp(v)")
    assert substitute(e, {"u_tt": const(1)}) is e


def test_substitute_swaps_in_one_pass():
    # bindings that mention their own keys are replaced once, never again
    assert substitute(parse_expr("u - 2*v"), {"u": V, "v": U}) is parse_expr("v - 2*u")
    assert substitute(U, {"u": parse_expr("u + 1")}) is parse_expr("u + 1")
    out = substitute(parse_expr("mu*u_x"), {"mu": parse_expr("2*mu"),
                                            jet("u", 0, 1): parse_expr("u_x*eps")})
    assert out is parse_expr("2*mu*(u_x*eps)")


def test_substitute_on_solution_removes_t_derivatives():
    e = parse_expr("u_t*v - v_t*u + u_x")
    out = substitute(e, {"u_t": parse_expr("-1/2*v_xx + x*v"),
                         "v_t": parse_expr("1/2*u_xx - x*u")})
    assert not contains_t_derivative(out)


# ---------------------------------------------------------------------------
# equivalence testing


def test_expr_equiv_accepts_rewrites():
    assert expr_equiv(parse_expr("(u+v)^2"), parse_expr("u^2 + 2*u*v + v^2"))
    assert expr_equiv(parse_expr("exp(u+v)"), parse_expr("exp(u)*exp(v)"), n=40)


def test_expr_equiv_distinguishes_and_witnesses():
    res = expr_equiv(parse_expr("u_tx"), parse_expr("u_x"), n=10)
    assert not res
    assert res.witness is not None
    assert res.worst_rel_error > 1e-3


def test_expr_equiv_scale_normalization():
    # equal up to 1e-12 relative at magnitude 1e8: passes under the
    # max(1, |a|, |b|) normalization
    a = parse_expr("100000000*u")
    b = parse_expr("100000000.0001*u")
    assert expr_equiv(a, b, tol=1e-10)
    assert not expr_equiv(a, parse_expr("100000001*u"), tol=1e-10)


# ---------------------------------------------------------------------------
# interning and deep expressions


def test_equal_expressions_are_one_object():
    text = "u_t + 1/2*v_xx - eps*x*u + 2*mu^2*sigma*exp(-alpha*x^2)*(u^2 + v^2)*v"
    e = parse_expr(text)
    assert parse_expr(text) is e
    assert add(U, V) is add(U, V) and add(U, V) is not add(V, U)
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(e) is e


def test_constants_keep_type_and_sign_of_zero():
    assert Const(1) is Const(Fraction(1))
    assert Const(1) is not Const(1.0)
    zero = Const(0.0)
    assert Const(-0.0) is not zero
    assert to_text(zero) == "0.0"
    assert to_text(Const(-0.0)) == "-0.0"


def test_weak_interning_drops_dead_nodes():
    gc.collect()
    baseline = len(jetexpr._NODES)
    for k in range(10_000):
        e = add(mul(Const(Fraction(k, 7919)), U), exp(mul(Const(k + 0.5), V)))
        if k == 0:
            assert len(jetexpr._NODES) > baseline
    del e
    gc.collect()
    assert len(jetexpr._NODES) == baseline


def test_child_of_a_live_parent_stays_interned():
    gc.collect()
    baseline = len(jetexpr._NODES)
    keep = mul(Const(Fraction(104729, 3)), V)
    drop = add(Const(Fraction(104729, 3)), U)
    child_id = id(keep.lhs)
    # the constant lives on only through `keep`; `drop` dying releases its
    # key's references to the constant without removing its entry
    del drop
    gc.collect()
    assert id(Const(Fraction(104729, 3))) == child_id
    assert Const(Fraction(104729, 3)) is keep.lhs
    assert mul(keep.lhs, V) is keep
    del keep
    gc.collect()
    assert len(jetexpr._NODES) == baseline


# The folding rules before constants were told apart by one type test: a
# reference for the constructors, which must return the node these do.

def _ref_is_const(e, value=None):
    if type(e) is not Const:
        return False
    return True if value is None else e.value == value


def _ref_add(a, b):
    if _ref_is_const(a) and _ref_is_const(b):
        return Const(a.value + b.value)
    if _ref_is_const(a, 0):
        return b
    if _ref_is_const(b, 0):
        return a
    return Binary("+", a, b)


def _ref_sub(a, b):
    if _ref_is_const(a) and _ref_is_const(b):
        return Const(a.value - b.value)
    if _ref_is_const(b, 0):
        return a
    if _ref_is_const(a, 0):
        return _ref_neg(b)
    return Binary("-", a, b)


def _ref_mul(a, b):
    if _ref_is_const(a) and _ref_is_const(b):
        return Const(a.value * b.value)
    if _ref_is_const(a, 0) or _ref_is_const(b, 0):
        return Const(0)
    if _ref_is_const(a, 1):
        return b
    if _ref_is_const(b, 1):
        return a
    return Binary("*", a, b)


def _ref_div(a, b):
    if _ref_is_const(b, 0):
        raise ZeroDivisionError("division by constant zero")
    if _ref_is_const(a) and _ref_is_const(b):
        if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
            return Const(a.value / b.value)
        return Const(float(a.value) / float(b.value))
    if _ref_is_const(a, 0):
        return Const(0)
    if _ref_is_const(b, 1):
        return a
    return Binary("/", a, b)


def _ref_neg(a):
    if _ref_is_const(a):
        return Const(-a.value)
    if type(a) is Unary and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _ref_pow(base, expo):
    if expo == 1:
        return base
    if expo == 0:
        return Const(1)
    if _ref_is_const(base) and expo.denominator == 1:
        p = int(expo)
        if base.value == 0 and p < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        return Const(base.value ** p)
    return Binary("^", base, Const(expo))


def _ref_unary(op, zero, one_folds):
    def fold(a):
        if _ref_is_const(a, 0):
            return zero if zero is not None else a
        if one_folds and _ref_is_const(a, 1):
            return a
        return Unary(op, a)
    return fold


_FOLD_POOL = (Const(0), Const(1), Const(0.0), Const(-0.0), Const(1.0), Const(2),
              Const(Fraction(-3, 2)), Const(math.inf), U, Var("x"))


def _same_fold(got, want):
    """One node, or (inf - inf and the like) two Consts of the same float NaN."""
    if got is want:
        return True
    return (type(got) is Const and type(want) is Const and type(got.value) is float
            and type(want.value) is float and math.isnan(got.value) and math.isnan(want.value))


def _fold_outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("ours, ref", [(add, _ref_add), (sub, _ref_sub), (mul, _ref_mul),
                                       (div, _ref_div)], ids=["add", "sub", "mul", "div"])
def test_binary_folding_is_the_reference_rules(ours, ref):
    for a in _FOLD_POOL:
        for b in _FOLD_POOL:
            got, want = _fold_outcome(ours, a, b), _fold_outcome(ref, a, b)
            assert _same_fold(got, want), (to_text(a), to_text(b), got, want)


def test_unary_and_power_folding_is_the_reference_rules():
    unary = [(neg, _ref_neg), (exp, _ref_unary("exp", Const(1), False)),
             (erf, _ref_unary("erf", Const(0), False)), (sqrt, _ref_unary("sqrt", None, True))]
    exponents = [Fraction(e) for e in (1, 0, 2, 3, -1, -2)] + [Fraction(1, 2), Fraction(-3, 2)]
    for a in _FOLD_POOL + (neg(U),):
        for ours, ref in unary:
            assert _same_fold(ours(a), ref(a)), (ours.__name__, to_text(a))
        for expo in exponents:
            got, want = _fold_outcome(pow_, a, expo), _fold_outcome(_ref_pow, a, expo)
            assert _same_fold(got, want), (to_text(a), expo, got, want)
    # the case a shortcut on the rational zero's identity would get wrong
    assert to_text(add(Const(0), Const(-0.0))) == "0.0"


def test_infinite_constants_roundtrip():
    # constant folding overflows to inf, e.g. 4.0/5e-324
    for e in (Const(math.inf), erf(neg(sqrt(Const(math.inf)))), Const(-math.inf)):
        assert parse_expr(to_text(e)) is e


def test_nodes_lists_each_node_once_after_its_children():
    s = add(U, V)
    e = add(mul(s, s), exp(U))
    order = nodes(e)
    assert order == [U, V, s, mul(s, s), exp(U), e]
    assert nodes(e, s, U) == order


def test_import_leaves_recursion_limit_alone():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; before = sys.getrecursionlimit(); import ptnls.cli; "
            "print(before, sys.getrecursionlimit())")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert before == after


def test_deep_sum_needs_no_recursion():
    terms = 5000
    text = " + ".join(f"{k}*u_x" for k in range(1, terms + 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        e = parse_expr(text)
        assert parse_expr(to_text(e)) is e
        batch = JetSampler(seed=0).batch(8, 1)
        want = terms * (terms + 1) / 2 * batch.values[jet("u", 0, 1)]
        np.testing.assert_allclose(eval_expr(e, batch), want, rtol=1e-10)
        assert collect_coords(total_derivative(e, "x")) == {jet("u", 0, 2)}
        assert collect_coords(substitute(e, {"u_x": V})) == {jet("v", 0, 0)}
    finally:
        sys.setrecursionlimit(limit)
