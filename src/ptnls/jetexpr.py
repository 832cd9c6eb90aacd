"""Exact symbolic expressions on the jet space of two independent variables
(t, x) and two dependent variables (u, v).

Expressions are immutable DAGs over rational/float constants, the model
parameters (eps, mu, sigma, alpha, g), pi, the independent variables, and jet
coordinates such as u_t, v_xx, u_tx (derivative suffixes are written with all
t's before all x's).  Nodes are interned (hash-consed): a constructor returns
the live node with the same class and fields if there is one, so structurally
equal expressions are one object, `==` and `hash` are identity, and a shared
subexpression is evaluated or differentiated once.  Constants are keyed by
type and sign as well as value: Const(1) (rational) and Const(1.0) are
distinct nodes, as are 0.0 and -0.0.  Every traversal goes through `nodes`,
an iterative post-order walk, so deep expressions need no recursion limit.
The module provides

  * a line-oriented text grammar (`parse_expr` / `to_text`) with byte-offset
    error reporting,
  * pointwise evaluation on scalar jet points or vectorized batches,
  * partial derivatives with respect to any coordinate or parameter,
  * total derivatives D_t and D_x,
  * the variational (Euler) derivative with respect to u and v,
  * simultaneous substitution, and
  * seeded randomized equivalence testing in the style of polynomial
    identity testing: two expressions are declared equivalent when they agree
    at n random jet points to a relative tolerance.

No canonical simplifier is attempted; constructors only fold constants and
drop additive/multiplicative identities, so a derivative of a transcribed
expression stays structurally close to its source.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

import numpy as np
from scipy.special import erf as _np_erf

__all__ = [
    "DEFAULT_MAX_JET_ORDER", "DEPENDENTS", "PARAMETERS",
    "Expr", "Const", "Sym", "Var", "Jet", "Unary", "Binary", "JetCoord",
    "ExprError", "ParseError", "JetOrderError", "EvalError", "CyclicBindingError",
    "const", "jet", "add", "sub", "mul", "div", "neg", "pow_", "exp", "erf", "sqrt",
    "parse_expr", "to_text", "eval_expr", "partial", "total_derivative",
    "euler_operator", "substitute", "collect_coords", "contains_t_derivative",
    "nodes", "expr_equiv", "EquivResult", "JetPoint", "JetBatch", "JetSampler",
    "ParamValues", "random_polynomial",
]

DEFAULT_MAX_JET_ORDER = 4
DEPENDENTS = ("u", "v")
PARAMETERS = ("eps", "mu", "sigma", "alpha", "g", "pi")
INDEPENDENTS = ("t", "x")

Number = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for all errors raised by this module."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.reason = message


class JetOrderError(ExprError):
    pass


class EvalError(ExprError):
    pass


class CyclicBindingError(ExprError):
    pass


# ---------------------------------------------------------------------------
# coordinates and AST nodes


@dataclass(frozen=True, order=True)
class JetCoord:
    """A dependent variable differentiated t_order times in t and x_order in x."""

    dep: str
    t_order: int = 0
    x_order: int = 0

    def __post_init__(self):
        if self.dep not in DEPENDENTS:
            raise ValueError(f"dependent variable must be one of {DEPENDENTS}, got {self.dep!r}")
        if self.t_order < 0 or self.x_order < 0:
            raise ValueError("derivative orders must be non-negative")

    @property
    def order(self) -> int:
        return self.t_order + self.x_order

    def name(self) -> str:
        if self.order == 0:
            return self.dep
        return self.dep + "_" + "t" * self.t_order + "x" * self.x_order

    def bumped(self, direction: str) -> "JetCoord":
        if direction == "t":
            return JetCoord(self.dep, self.t_order + 1, self.x_order)
        if direction == "x":
            return JetCoord(self.dep, self.t_order, self.x_order + 1)
        raise ValueError(f"direction must be 't' or 'x', got {direction!r}")


def coord_from_name(name: str) -> Optional[JetCoord]:
    """Return the JetCoord named by an identifier, or None if it is not one."""
    if name in DEPENDENTS:
        return JetCoord(name, 0, 0)
    m = re.fullmatch(r"([uv])_(t*)(x*)", name)
    if m and (m.group(2) or m.group(3)):
        return JetCoord(m.group(1), len(m.group(2)), len(m.group(3)))
    return None


class Expr:
    """Immutable, interned expression node.  `order` is the syntactic jet
    order.  Constructors return the existing node for an equal key, so
    structurally equal expressions are one object and `==` is identity."""

    __slots__ = ("order", "__weakref__")

    def __reduce__(self):
        # pickling and copying go back through the interning constructor
        return type(self), tuple(getattr(self, s) for s in type(self).__slots__)

    # arithmetic sugar; all routes go through the folding constructors
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return to_text(self)


# Every live node, keyed by its class and fields; children are keyed by
# identity, which interning makes the same as structure.
_NODES: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()


def _interned(key: tuple, order: int, **fields) -> Expr:
    """The live node for `key` (whose first item is the node's class), or a
    new one with the given fields."""
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(key[0])
        node.order = order
        for name, value in fields.items():
            setattr(node, name, value)
        _NODES[key] = node
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: Number):
        if isinstance(value, bool):
            raise TypeError("bool is not a valid constant")
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, (float, Fraction)):
            raise TypeError(f"constant must be rational or float, got {type(value)}")
        # 1 and 1.0, or 0.0 and -0.0, compare equal but print differently
        key = (cls, type(value), value, math.copysign(1.0, value))
        return _interned(key, 0, value=value)


class Sym(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if name not in PARAMETERS:
            raise ValueError(f"unknown parameter {name!r}")
        return _interned((cls, name), 0, name=name)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if name not in INDEPENDENTS:
            raise ValueError(f"independent variable must be 't' or 'x', got {name!r}")
        return _interned((cls, name), 0, name=name)


class Jet(Expr):
    __slots__ = ("coord",)

    def __new__(cls, coord: JetCoord):
        return _interned((cls, coord), coord.order, coord=coord)


_UNARY_OPS = ("neg", "exp", "erf", "sqrt")
_BINARY_OPS = ("+", "-", "*", "/", "^")


class Unary(Expr):
    __slots__ = ("op", "arg")

    def __new__(cls, op: str, arg: Expr):
        if op not in _UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        return _interned((cls, op, arg), arg.order, op=op, arg=arg)


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __new__(cls, op: str, lhs: Expr, rhs: Expr):
        if op not in _BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        return _interned((cls, op, lhs, rhs), max(lhs.order, rhs.order),
                         op=op, lhs=lhs, rhs=rhs)


def nodes(*roots: Expr) -> list[Expr]:
    """The distinct nodes reachable from `roots`, each listed after its
    children (left operand first).  Iterative, so depth is unbounded."""
    out: list[Expr] = []
    seen: set[Expr] = set()
    stack: list[tuple[Expr, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            out.append(n)
            continue
        if n in seen:
            continue
        seen.add(n)
        stack.append((n, True))
        t = type(n)
        if t is Binary:
            stack.append((n.rhs, False))
            stack.append((n.lhs, False))
        elif t is Unary:
            stack.append((n.arg, False))
    return out


# ---------------------------------------------------------------------------
# folding constructors


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        return Const(x)
    raise TypeError(f"cannot interpret {x!r} as an expression")


def const(value: Number) -> Const:
    return Const(value)


def jet(dep: str, t: int = 0, x: int = 0) -> Jet:
    return Jet(JetCoord(dep, t, x))


ZERO = Const(0)
ONE = Const(1)


def _is_const(e: Expr, value=None) -> bool:
    if type(e) is not Const:
        return False
    return True if value is None else e.value == value


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        raise ZeroDivisionError("division by constant zero")
    if _is_const(a) and _is_const(b):
        if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
            return Const(a.value / b.value)
        return Const(float(a.value) / float(b.value))
    if _is_const(a, 0):
        return ZERO
    if _is_const(b, 1):
        return a
    return Binary("/", a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if type(a) is Unary and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def pow_(base: Expr, expo) -> Expr:
    """Power with a rational constant exponent."""
    if isinstance(expo, Const):
        expo = expo.value
    if isinstance(expo, int):
        expo = Fraction(expo)
    if not isinstance(expo, Fraction):
        raise TypeError(f"power exponent must be a rational constant, got {expo!r}")
    if expo == 1:
        return base
    if expo == 0:
        return ONE
    if _is_const(base) and expo.denominator == 1:
        p = int(expo)
        if base.value == 0 and p < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        return Const(base.value ** p)
    return Binary("^", base, Const(expo))


def exp(a: Expr) -> Expr:
    if _is_const(a, 0):
        return ONE
    return Unary("exp", a)


def erf(a: Expr) -> Expr:
    if _is_const(a, 0):
        return ZERO
    return Unary("erf", a)


def sqrt(a: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(a, 1):
        return a
    return Unary("sqrt", a)


T = Var("t")
X = Var("x")

_UNARY_FNS = {"neg": neg, "exp": exp, "erf": erf, "sqrt": sqrt}
_BINARY_FNS = {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, max_order: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.max_order = max_order

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            what = f"{text!r}" if kind != "end" else "end of input"
            raise ParseError(f"expected {op!r}, found {what}", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right = self.term()
                left = add(left, right) if text == "+" else sub(left, right)
            else:
                return left

    def term(self) -> Expr:
        left = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right = self.unary()
                if text == "*":
                    left = mul(left, right)
                else:
                    try:
                        left = div(left, right)
                    except ZeroDivisionError:
                        raise ParseError("division by constant zero", off) from None
            else:
                return left

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            expo = self.unary()
            if not (type(expo) is Const and isinstance(expo.value, Fraction)):
                raise ParseError("power exponent must be a rational constant", off)
            try:
                return pow_(base, expo.value)
            except ZeroDivisionError:
                raise ParseError("zero raised to a negative power", off) from None
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            if "." in text or "e" in text or "E" in text:
                return Const(float(text))
            return Const(Fraction(int(text)))
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            return self.ident(text, off)
        what = f"{text!r}" if kind != "end" else "end of input"
        raise ParseError(f"expected an expression, found {what}", off)

    def ident(self, name: str, off: int) -> Expr:
        if name in INDEPENDENTS:
            return Var(name)
        coord = coord_from_name(name)
        if coord is not None:
            if coord.order > self.max_order:
                raise JetOrderError(
                    f"jet order {coord.order} of {name!r} exceeds the limit {self.max_order}"
                    f" at offset {off}")
            return Jet(coord)
        if name in PARAMETERS:
            return Sym(name)
        if name in ("exp", "erf", "sqrt"):
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return _UNARY_FNS[name](arg)
        hint = ""
        if re.fullmatch(r"[uv]_[tx]+", name):
            hint = " (derivative suffixes are written with all t's before all x's)"
        raise ParseError(f"unknown identifier {name!r}{hint}", off)


def parse_expr(text: str, max_order: int = DEFAULT_MAX_JET_ORDER) -> Expr:
    """Parse expression text.  Raises ParseError with the byte offset of the
    failure, or JetOrderError for a derivative suffix above max_order."""
    return _Parser(text, max_order).parse()


# ---------------------------------------------------------------------------
# printing; parse(to_text(e)) reproduces e node for node


def _const_prec(value) -> int:
    if isinstance(value, Fraction):
        if value < 0:
            return 15
        return 100 if value.denominator == 1 else 20
    return 15 if value < 0 else 100


def _prec(e: Expr) -> int:
    if type(e) is Binary:
        return {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}[e.op]
    if type(e) is Unary:
        return 15 if e.op == "neg" else 100
    if type(e) is Const:
        return _const_prec(e.value)
    return 100


def _fmt_const(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if math.isinf(value):  # folding can overflow; this literal parses back to inf
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


def to_text(e: Expr) -> str:
    text: dict[Expr, str] = {}

    def part(child: Expr, ctx: int) -> str:
        # the parent's context decides whether the child needs parentheses
        return f"({text[child]})" if _prec(child) < ctx else text[child]

    for n in nodes(e):
        t = type(n)
        if t is Const:
            s = _fmt_const(n.value)
        elif t is Sym or t is Var:
            s = n.name
        elif t is Jet:
            s = n.coord.name()
        elif t is Unary:
            s = "-" + part(n.arg, 21) if n.op == "neg" else f"{n.op}({part(n.arg, 0)})"
        elif n.op in "+-":
            s = f"{part(n.lhs, 10)} {n.op} {part(n.rhs, 11)}"
        elif n.op in "*/":
            s = f"{part(n.lhs, 20)}{n.op}{part(n.rhs, 21)}"
        else:
            s = f"{part(n.lhs, 31)}^{part(n.rhs, 40)}"
        text[n] = s
    return text[e]


# ---------------------------------------------------------------------------
# parameters, points, evaluation


@dataclass(frozen=True)
class ParamValues:
    """Numeric values for the model parameters."""

    eps: float = 0.05
    mu: float = 1.0
    sigma: float = 1.0
    alpha: float = 0.5
    g: float = 1.0

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")

    def get(self, name: str) -> float:
        try:
            return getattr(self, name)
        except AttributeError:
            raise EvalError(f"unknown parameter {name!r}") from None

    def replace(self, **kw) -> "ParamValues":
        return replace(self, **kw)


def _complete_coords(order: int) -> list[JetCoord]:
    out = []
    for dep in DEPENDENTS:
        for i in range(order + 1):
            for j in range(order + 1 - i):
                out.append(JetCoord(dep, i, j))
    return out


@dataclass
class JetPoint:
    """One point of the jet space: values for t, x, and every jet coordinate
    of both dependent variables up to `order`.  Lookups of coordinates that
    were never supplied raise, they are never silently zero."""

    t: float
    x: float
    order: int
    values: Mapping[JetCoord, float]

    def __post_init__(self):
        missing = [c.name() for c in _complete_coords(self.order) if c not in self.values]
        if missing:
            raise ValueError(f"jet point is missing coordinates: {', '.join(missing)}")

    @classmethod
    def from_names(cls, t: float, x: float, order: int, values: Mapping[str, float]) -> "JetPoint":
        coords = {}
        for name, val in values.items():
            c = coord_from_name(name)
            if c is None:
                raise ValueError(f"{name!r} does not name a jet coordinate")
            coords[c] = float(val)
        return cls(t, x, order, coords)

    def named(self) -> dict[str, float]:
        return {c.name(): float(v) for c, v in sorted(self.values.items())}


@dataclass
class JetBatch:
    """Vectorized jet points; arrays share one length."""

    t: np.ndarray
    x: np.ndarray
    order: int
    values: Mapping[JetCoord, np.ndarray]

    def __len__(self):
        return len(self.t)

    def point(self, i: int) -> JetPoint:
        return JetPoint(float(self.t[i]), float(self.x[i]), self.order,
                        {c: float(a[i]) for c, a in self.values.items()})


def eval_expr(e: Expr, point=None, params: Optional[ParamValues] = None):
    """Evaluate at a JetPoint/JetBatch.  Scalar points give floats, batches
    give ndarrays.  Missing coordinates, division by zero, sqrt/fractional
    powers of negative values all raise EvalError."""
    if params is None:
        params = ParamValues()
    val: dict[Expr, object] = {}
    for n in nodes(e):
        t = type(n)
        if t is Const:
            v = float(n.value)
        elif t is Sym:
            v = math.pi if n.name == "pi" else float(params.get(n.name))
        elif t is Var:
            if point is None:
                raise EvalError(f"expression references {n.name!r} but no point was given")
            v = point.t if n.name == "t" else point.x
        elif t is Jet:
            if point is None:
                raise EvalError(f"expression references {n.coord.name()!r} but no point was given")
            try:
                v = point.values[n.coord]
            except KeyError:
                raise EvalError(f"jet point carries no value for {n.coord.name()!r}") from None
        elif t is Unary:
            a = val[n.arg]
            if n.op == "neg":
                v = -a
            elif n.op == "exp":
                v = np.exp(a)
            elif n.op == "erf":
                v = _np_erf(a)
            else:
                if np.any(np.asarray(a) < 0):
                    raise EvalError("sqrt of a negative value")
                v = np.sqrt(a)
        else:
            l = val[n.lhs]
            if n.op == "^":
                v = _eval_pow(l, n.rhs.value)
            else:
                r = val[n.rhs]
                if n.op == "+":
                    v = l + r
                elif n.op == "-":
                    v = l - r
                elif n.op == "*":
                    v = l * r
                else:
                    if np.any(np.asarray(r) == 0):
                        raise EvalError("division by zero")
                    v = l / r
        val[n] = v

    out = val[e]
    if isinstance(out, np.ndarray) and out.ndim:
        return out
    return float(out)


def _eval_pow(base, expo: Fraction):
    if expo.denominator == 1:
        p = int(expo)
        if p < 0 and np.any(np.asarray(base) == 0):
            raise EvalError("zero raised to a negative power")
        return np.power(base, p)
    if np.any(np.asarray(base) < 0):
        raise EvalError("fractional power of a negative base")
    if expo < 0 and np.any(np.asarray(base) == 0):
        raise EvalError("zero raised to a negative power")
    return np.power(base, float(expo))


# ---------------------------------------------------------------------------
# derivatives


def _norm_wrt(wrt):
    """Normalize a differentiation/substitution key to ('jet', coord),
    ('var', name) or ('sym', name)."""
    if isinstance(wrt, JetCoord):
        return ("jet", wrt)
    if isinstance(wrt, Jet):
        return ("jet", wrt.coord)
    if isinstance(wrt, Var):
        return ("var", wrt.name)
    if isinstance(wrt, Sym):
        return ("sym", wrt.name)
    if isinstance(wrt, str):
        if wrt in INDEPENDENTS:
            return ("var", wrt)
        if wrt in PARAMETERS:
            return ("sym", wrt)
        c = coord_from_name(wrt)
        if c is not None:
            return ("jet", c)
    raise ValueError(f"cannot differentiate or substitute with respect to {wrt!r}")


_TWO_OVER_SQRT_PI = div(Const(2), sqrt(Sym("pi")))


def _differentiate(e: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """Shared chain-rule walk; `leaf` supplies derivatives of terminals."""
    d: dict[Expr, Expr] = {}
    for n in nodes(e):
        t = type(n)
        if t is Unary:
            da = d[n.arg]
            if n.op == "neg":
                out = neg(da)
            elif n.op == "exp":
                out = mul(da, n)
            elif n.op == "erf":
                out = mul(da, mul(_TWO_OVER_SQRT_PI, exp(neg(pow_(n.arg, 2)))))
            else:
                out = div(da, mul(Const(2), n))
        elif t is Binary:
            dl, dr = d[n.lhs], d[n.rhs]
            if n.op == "+":
                out = add(dl, dr)
            elif n.op == "-":
                out = sub(dl, dr)
            elif n.op == "*":
                out = add(mul(dl, n.rhs), mul(n.lhs, dr))
            elif n.op == "/":
                if _is_const(dr, 0):
                    out = div(dl, n.rhs)
                else:
                    out = div(sub(mul(dl, n.rhs), mul(n.lhs, dr)), pow_(n.rhs, 2))
            else:
                c = n.rhs.value
                out = mul(mul(Const(c), pow_(n.lhs, c - 1)), dl)
        else:
            out = leaf(n)
        d[n] = out
    return d[e]


def partial(e: Expr, wrt) -> Expr:
    """Partial derivative treating every other coordinate as independent."""
    kind, target = _norm_wrt(wrt)

    def leaf(n: Expr) -> Expr:
        if kind == "jet" and type(n) is Jet and n.coord == target:
            return ONE
        if kind == "var" and type(n) is Var and n.name == target:
            return ONE
        if kind == "sym" and type(n) is Sym and n.name == target:
            return ONE
        return ZERO

    return _differentiate(e, leaf)


def total_derivative(e: Expr, direction, max_order: int = DEFAULT_MAX_JET_ORDER) -> Expr:
    """Total derivative D_t or D_x: the explicit partial plus the jet chain
    u_J -> u_{J+direction} over every coordinate present."""
    kind, target = _norm_wrt(direction)
    if kind != "var":
        raise ValueError(f"total derivative direction must be 't' or 'x', got {direction!r}")
    if e.order + 1 > max_order:
        raise JetOrderError(
            f"total derivative would exceed jet order {max_order} (expression has order {e.order})")

    def leaf(n: Expr) -> Expr:
        if type(n) is Jet:
            return Jet(n.coord.bumped(target))
        if type(n) is Var and n.name == target:
            return ONE
        return ZERO

    return _differentiate(e, leaf)


def collect_coords(e: Expr) -> frozenset[JetCoord]:
    return frozenset(n.coord for n in nodes(e) if type(n) is Jet)


def contains_t_derivative(e: Expr) -> bool:
    return any(c.t_order > 0 for c in collect_coords(e))


def euler_operator(e: Expr, max_order: int = DEFAULT_MAX_JET_ORDER) -> tuple[Expr, Expr]:
    """Variational derivative (delta e / delta u, delta e / delta v):
    sum over multi-indices J of (-1)^|J| D_J (partial e / partial w_J).

    Intermediate results reach jet order 2*order(e), hence the precondition;
    pass a larger max_order to apply the operator to higher-order input.
    """
    if 2 * e.order > max_order:
        raise JetOrderError(
            f"euler_operator needs max_order >= {2 * e.order} for an expression of order {e.order}")
    coords = sorted(collect_coords(e))
    out = []
    for dep in DEPENDENTS:
        acc: Expr = ZERO
        for c in coords:
            if c.dep != dep:
                continue
            term = partial(e, c)
            if _is_const(term, 0):
                continue
            for _ in range(c.t_order):
                term = total_derivative(term, "t", max_order)
            for _ in range(c.x_order):
                term = total_derivative(term, "x", max_order)
            acc = add(acc, term) if c.order % 2 == 0 else sub(acc, term)
        out.append(acc)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# substitution


def substitute(e: Expr, bindings: Mapping, max_order: int = DEFAULT_MAX_JET_ORDER) -> Expr:
    """Simultaneous replacement of jet coordinates, parameters and
    independent variables.  Bindings must be acyclic; replacement is a single
    pass, results are never re-substituted."""
    table: dict[tuple, Expr] = {}
    for k, val in bindings.items():
        table[_norm_wrt(k)] = as_expr(val)

    def refs(v: Expr) -> set[tuple]:
        return {_norm_wrt(n) for n in nodes(v) if type(n) in (Sym, Var, Jet)} & table.keys()

    graph = {k: refs(v) for k, v in table.items()}
    state: dict[tuple, int] = {}

    def visit(k):
        if state.get(k) == 2:
            return
        if state.get(k) == 1:
            who = k[1].name() if isinstance(k[1], JetCoord) else k[1]
            raise CyclicBindingError(f"cyclic binding involving {who!r}")
        state[k] = 1
        for nxt in graph[k]:
            visit(nxt)
        state[k] = 2

    for k in graph:
        visit(k)

    out: dict[Expr, Expr] = {}
    for n in nodes(e):
        t = type(n)
        if t is Unary:
            a = out[n.arg]
            new = n if a is n.arg else _UNARY_FNS[n.op](a)
        elif t is Binary:
            l, r = out[n.lhs], out[n.rhs]
            new = n if l is n.lhs and r is n.rhs else _BINARY_FNS[n.op](l, r)
        elif t is Const:
            new = n
        else:
            new = table.get(_norm_wrt(n), n)
        out[n] = new

    result = out[e]
    if result.order > max_order:
        raise JetOrderError(
            f"substitution produced jet order {result.order} above the limit {max_order}")
    return result


# ---------------------------------------------------------------------------
# randomized equivalence


@dataclass
class JetSampler:
    """Seeded sampler over the documented evaluation domain: t in [0.1, 2],
    |x| in [0.4, 2] (both signs), jet coordinates in [-2, 2].  The x domain
    keeps clear of x = 0 because several transcribed densities carry
    negative powers of x."""

    seed: int = 0
    t_range: tuple[float, float] = (0.1, 2.0)
    x_magnitude: tuple[float, float] = (0.4, 2.0)
    jet_range: tuple[float, float] = (-2.0, 2.0)

    def batch(self, n: int, order: int) -> JetBatch:
        rng = np.random.default_rng(self.seed)
        t = rng.uniform(*self.t_range, size=n)
        x = rng.uniform(*self.x_magnitude, size=n) * rng.choice([-1.0, 1.0], size=n)
        values = {c: rng.uniform(*self.jet_range, size=n) for c in _complete_coords(order)}
        return JetBatch(t, x, order, values)

    def point(self, order: int) -> JetPoint:
        return self.batch(1, order).point(0)


@dataclass
class EquivResult:
    equal: bool
    worst_rel_error: float
    n: int
    witness: Optional[JetPoint] = None
    witness_values: Optional[tuple[float, float]] = None

    def __bool__(self):
        return self.equal


def expr_equiv(e1: Expr, e2: Expr, n: int = 100, tol: float = 1e-10,
               params: Optional[ParamValues] = None,
               sampler: Optional[JetSampler] = None, seed: int = 0) -> EquivResult:
    """Randomized equivalence: evaluate both expressions at n sampled jet
    points and compare with relative tolerance tol (normalized by
    max(1, |v1|, |v2|) pointwise).  On failure the result carries a witness
    point and the two values there."""
    if sampler is None:
        sampler = JetSampler(seed=seed)
    order = max(e1.order, e2.order)
    batch = sampler.batch(n, order)
    v1 = np.broadcast_to(np.asarray(eval_expr(e1, batch, params), dtype=float), (n,))
    v2 = np.broadcast_to(np.asarray(eval_expr(e2, batch, params), dtype=float), (n,))
    scale = np.maximum(1.0, np.maximum(np.abs(v1), np.abs(v2)))
    rel = np.abs(v1 - v2) / scale
    worst = int(np.argmax(rel))
    equal = bool(rel[worst] <= tol)
    if equal:
        return EquivResult(True, float(rel[worst]), n)
    return EquivResult(False, float(rel[worst]), n, batch.point(worst),
                       (float(v1[worst]), float(v2[worst])))


# ---------------------------------------------------------------------------
# random expressions for the property suites


def random_polynomial(rng: np.random.Generator, jet_order: int = 2,
                      max_terms: int = 3, max_factors: int = 3,
                      allow_exp: bool = True, allow_tx: bool = True) -> Expr:
    """Random polynomial in jet coordinates, optionally times t, x or
    exp(-x^2) factors, with small rational coefficients."""
    coords = _complete_coords(jet_order)
    expr: Expr = ZERO
    n_terms = int(rng.integers(1, max_terms + 1))
    for _ in range(n_terms):
        num = int(rng.integers(-3, 4))
        if num == 0:
            num = 1
        term: Expr = Const(Fraction(num, int(rng.integers(1, 3))))
        for _ in range(int(rng.integers(1, max_factors + 1))):
            c = coords[int(rng.integers(0, len(coords)))]
            term = mul(term, Jet(c))
        if allow_tx and rng.random() < 0.3:
            term = mul(term, T if rng.random() < 0.5 else X)
        if allow_exp and rng.random() < 0.4:
            term = mul(term, exp(neg(pow_(X, 2))))
        expr = add(expr, term)
    return expr
