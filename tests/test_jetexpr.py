"""Engine tests: grammar, printing, evaluation, derivatives, equivalence."""

import copy
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptnls.jetexpr import (DEFAULT_MAX_JET_ORDER, Const, CyclicBindingError,
                           EvalError, Jet, JetBatch, JetCoord, JetOrderError,
                           JetPoint, JetSampler, ParamValues, ParseError, Sym,
                           Var, add, collect_coords, const, contains_t_derivative,
                           coord_from_name, div, erf, euler_operator, eval_expr,
                           exp, expr_equiv, jet, mul, neg, nodes, parse_expr,
                           partial, pow_, random_polynomial, sqrt, sub,
                           substitute, to_text, total_derivative)

U, V = jet("u"), jet("v")
UX, VX = jet("u", 0, 1), jet("v", 0, 1)
UT = jet("u", 1, 0)


# ---------------------------------------------------------------------------
# coordinates


def test_coord_names_canonical_t_before_x():
    assert JetCoord("u", 2, 1).name() == "u_ttx"
    assert JetCoord("v", 0, 3).name() == "v_xxx"
    assert JetCoord("u", 0, 0).name() == "u"


def test_coord_from_name_roundtrip():
    for dep in ("u", "v"):
        for i in range(4):
            for j in range(4 - i):
                c = JetCoord(dep, i, j)
                assert coord_from_name(c.name()) == c
    assert coord_from_name("u_xt") is None
    assert coord_from_name("w_x") is None
    assert coord_from_name("eps") is None


def test_coord_bumped():
    c = JetCoord("u", 1, 1)
    assert c.bumped("t") == JetCoord("u", 2, 1)
    assert c.bumped("x") == JetCoord("u", 1, 2)


def test_coord_ordering():
    coords = [JetCoord("v", 0, 1), JetCoord("u", 2, 0), JetCoord("u", 0, 0)]
    assert sorted(coords)[0] == JetCoord("u", 0, 0)


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
_COORDS = [JetCoord(d, i, j) for d in "uv" for i in range(3) for j in range(3 - i)]

_leaf = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6).map(const),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
              allow_infinity=False).map(const),
    st.sampled_from(_PARAMS).map(Sym),
    st.sampled_from(["t", "x"]).map(Var),
    st.sampled_from(_COORDS).map(Jet),
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


def test_eval_missing_coord_raises():
    e = parse_expr("u_tt")
    batch = JetBatch(np.array([1.0]), np.array([0.5]), 2,
                     {JetCoord("u", 0, 0): np.array([1.0])})
    with pytest.raises(EvalError, match="u_tt"):
        eval_expr(e, batch, ParamValues())


@pytest.mark.parametrize("text,u,message", [
    ("1/u", 0.0, "division by zero"),
    ("sqrt(u)", -1.0, "sqrt of a negative value"),
    ("u^(1/2)", -1.0, "fractional power of a negative"),
    ("u^(-2)", 0.0, "zero raised to a negative power"),
])
def test_eval_domain_errors(text, u, message):
    e = parse_expr(text)
    point = JetPoint.from_names(1.0, 0.5, 0, {"u": u, "v": 0.0})
    with pytest.raises(EvalError, match=message):
        eval_expr(e, point, ParamValues())


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
        {JetCoord("u", 1, 1), JetCoord("v", 0, 0), JetCoord("v", 0, 2)})
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


def test_substitute_cycle_detected():
    with pytest.raises(CyclicBindingError):
        substitute(parse_expr("u + v"), {"u": V, "v": U})
    with pytest.raises(CyclicBindingError):
        substitute(U, {"u": parse_expr("u + 1")})


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
        want = terms * (terms + 1) / 2 * batch.values[JetCoord("u", 0, 1)]
        np.testing.assert_allclose(eval_expr(e, batch), want, rtol=1e-10)
        assert collect_coords(total_derivative(e, "x")) == {JetCoord("u", 0, 2)}
        assert collect_coords(substitute(e, {"u_x": V})) == {JetCoord("v", 0, 0)}
    finally:
        sys.setrecursionlimit(limit)
