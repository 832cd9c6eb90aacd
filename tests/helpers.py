"""Helpers shared by several test modules."""

import math
from dataclasses import fields
from decimal import Decimal, localcontext
from fractions import Fraction

from ptnls.catalog import CaseId, Kind, PdeSystem, load_catalog
from ptnls.jetexpr import Const, Expr, Jet, ParamValues, Sym, Unary, Var, nodes, substitute


def with_params(system: PdeSystem, params: ParamValues) -> PdeSystem:
    """The system with the five model parameters substituted numerically
    (eps = 0 removes the b-terms outright, since they fold away with the
    zero factor)."""
    binds = {f.name: getattr(params, f.name) for f in fields(ParamValues)}
    return PdeSystem(system.case_id, substitute(system.E1, binds),
                     substitute(system.E2, binds))


def cataloged_densities() -> list:
    """(case, kind, form) of every density the catalog holds."""
    cat = load_catalog()
    out = []
    for case_id in CaseId:
        for kind in Kind:
            cv = cat.conserved_vector(case_id, kind)
            if cv is not None:
                out += [(case_id, kind, form) for form, e in
                        (("Tt", cv.Tt), ("PhiT", cv.complex_density)) if e is not None]
    return out


# pi to 50 digits, more than the evaluator below carries
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")
DECIMAL_DIGITS = 40


def _decimal_erf(z: Decimal) -> Decimal:
    """erf by its Taylor series 2/sqrt(pi) sum (-1)^n z^(2n+1) / (n! (2n+1)),
    with guard digits for the terms' growth (about z^2 / ln 10 digits)."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS + 10 + int(z * z / Decimal("2.3"))
        z2, power, total, n = z * z, z, Decimal(0), 0
        tiny = Decimal(10) ** -(ctx.prec + 2)
        while True:
            term = power / (math.factorial(n) * (2 * n + 1))
            total += term
            if abs(term) <= tiny * abs(total):
                break
            power *= -z2
            n += 1
        return 2 * total / (+_PI).sqrt()


def _decimal_pow(base: Decimal, expo: Fraction) -> Decimal:
    if expo.denominator == 1:
        return base ** int(expo)
    return base ** (Decimal(expo.numerator) / Decimal(expo.denominator))


def eval_decimal(e: Expr, t: float, x: float, jets: dict, params: ParamValues) -> Decimal:
    """e at one jet point in 40-digit decimal arithmetic: the floats given
    (t, x, the jet values keyed by `Jet`, the parameters) are taken exactly,
    and every operation rounds to DECIMAL_DIGITS digits.  A reference for
    the float evaluators at a single grid node, where they cancel."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        val: dict[Expr, Decimal] = {}
        for n in nodes(e):
            kind = type(n)
            if kind is Const:
                v = n.value
                v = (Decimal(v) if isinstance(v, float)
                     else Decimal(v.numerator) / Decimal(v.denominator))
            elif kind is Sym:
                v = +_PI if n.name == "pi" else Decimal(float(getattr(params, n.name)))
            elif kind is Var:
                v = Decimal(t if n.name == "t" else x)
            elif kind is Jet:
                v = Decimal(float(jets[n]))
            elif kind is Unary:
                a = val[n.arg]
                v = {"neg": lambda: -a, "exp": a.exp, "sqrt": a.sqrt,
                     "erf": lambda: _decimal_erf(a)}[n.op]()
            else:
                a, b = val[n.lhs], val[n.rhs]
                v = (a + b if n.op == "+" else a - b if n.op == "-" else a * b if n.op == "*"
                     else a / b if n.op == "/" else _decimal_pow(a, n.rhs.value))
            val[n] = +v
        return val[e]
