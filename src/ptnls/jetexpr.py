"""Exact symbolic expressions on the jet space of two independent variables
(t, x) and two dependent variables (u, v).

Expressions are immutable DAGs over rational/float constants, the model
parameters (eps, mu, sigma, alpha, g), pi, the independent variables, and jet
coordinates such as u_t, v_xx, u_tx (derivative suffixes are written with all
t's before all x's).  A jet coordinate is one type, the `Jet` leaf: it
appears in expressions and keys every dict of jet values, so u_x is
`jet("u", 0, 1)` in both places.  Nodes are interned (hash-consed): a
constructor returns the live node with the same class and fields if there
is one, so structurally equal expressions are one object, `==` and `hash`
are identity, and a shared subexpression is evaluated or differentiated
once.  The intern table holds weak references: an entry goes when its node
dies.  Constants are keyed by type and sign as well as value: Const(1)
(rational) and Const(1.0) are distinct nodes, as are 0.0 and -0.0.  Every
traversal goes through `nodes`, an iterative post-order walk, so deep
expressions need no recursion limit.
The module provides

  * a line-oriented text grammar (`parse_expr` / `to_text`) with byte-offset
    error reporting,
  * vectorized pointwise evaluation on batches of jet points (one point is
    a batch of one),
  * partial derivatives with respect to any coordinate or parameter, and
    every jet-coordinate partial of an expression from one walk,
  * total derivatives D_t and D_x,
  * the variational (Euler) derivative with respect to u and v, built from
    that one gradient walk and D_t / D_x memoized for the call,
  * simultaneous substitution,
  * the polynomial normal form in t and the jets (`to_poly` / `from_poly`),
    whose coefficients are jet-free subtrees of the expression, and
  * seeded randomized equivalence testing in the style of polynomial
    identity testing: two expressions are declared equivalent when they agree
    at n random jet points to a relative tolerance.

No canonical simplifier is attempted; constructors only fold constants and
drop additive/multiplicative identities, so a derivative of a transcribed
expression stays structurally close to its source.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "DEFAULT_MAX_JET_ORDER", "DEPENDENTS", "PARAMETERS",
    "Expr", "Const", "Sym", "Var", "Jet", "Unary", "Binary",
    "ExprError", "ParseError", "JetOrderError", "EvalError", "NotPolynomialError",
    "const", "jet", "add", "sub", "mul", "div", "neg", "pow_", "exp", "erf", "sqrt",
    "parse_expr", "to_text", "eval_expr", "partial", "gradient", "total_derivative",
    "euler_operator", "substitute", "to_poly", "from_poly", "Monomial",
    "collect_coords", "contains_t_derivative",
    "nodes", "expr_equiv", "EquivResult", "JetBatch", "JetSampler",
    "ParamValues", "complete_coords", "random_polynomial",
]

DEFAULT_MAX_JET_ORDER = 4
DEPENDENTS = ("u", "v")
_DEPENDENT_NAME = "|".join(DEPENDENTS)  # a dependent's name, as a regular expression
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


class NotPolynomialError(ExprError):
    """`to_poly` met a jet or t where a polynomial cannot have one."""


# ---------------------------------------------------------------------------
# coordinates and AST nodes


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


# Every live node, keyed by its class and fields, as a weak reference; a
# node's entry goes when the node dies.  Children are keyed by identity,
# which interning makes the same as structure, and a key holds its children
# alive, so a child of a live node is still the interned one.  A lookup is
# one dict probe; only `_interned`, `_unary`, `_binary` and `_forget` touch
# the table.
_NODES: dict[tuple, weakref.KeyedRef] = {}


def _forget(ref: weakref.KeyedRef, nodes: dict = _NODES) -> None:
    # A node's death releases its key and may kill its children, whose own
    # callbacks then run inside this one; and a key whose node is dead may be
    # given a new node before the old reference's callback runs.  So only the
    # entry that still holds this reference is removed.
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _interned(key: tuple, order: int, **fields) -> Expr:
    """The live leaf node for `key` (whose first item is the node's class),
    or a new one with the given fields, entered in the weak table."""
    ref = _NODES.get(key)
    node = ref() if ref is not None else None
    if node is None:
        node = object.__new__(key[0])
        node.order = order
        for name, value in fields.items():
            setattr(node, name, value)
        _NODES[key] = weakref.KeyedRef(node, _forget, key)
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
        # 1 and 1.0, or 0.0 and -0.0, compare equal but print differently; a
        # rational is keyed by its ints, whose hash and equality run in C
        if isinstance(value, float):
            key = (cls, type(value), value, math.copysign(1.0, value))
        else:
            key = (cls, type(value), value.numerator, value.denominator)
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
    """A jet coordinate: the dependent variable `dep` differentiated t_order
    times in t and x_order times in x.  Interned like every node, so a Jet
    hashes by identity and keys every dict of jet values; sorting orders
    coordinates by (dep, t_order, x_order)."""

    __slots__ = ("dep", "t_order", "x_order")

    def __new__(cls, dep: str, t_order: int = 0, x_order: int = 0):
        if dep not in DEPENDENTS:
            raise ValueError(f"dependent variable must be one of {DEPENDENTS}, got {dep!r}")
        if t_order < 0 or x_order < 0:
            raise ValueError("derivative orders must be non-negative")
        return _interned((cls, dep, t_order, x_order), t_order + x_order,
                         dep=dep, t_order=t_order, x_order=x_order)

    def __lt__(self, other):
        if type(other) is not Jet:
            return NotImplemented
        return (self.dep, self.t_order, self.x_order) < (other.dep, other.t_order, other.x_order)

    def name(self) -> str:
        if self.order == 0:
            return self.dep
        return self.dep + "_" + "t" * self.t_order + "x" * self.x_order

    def bumped(self, direction: str) -> "Jet":
        if direction == "t":
            return Jet(self.dep, self.t_order + 1, self.x_order)
        if direction == "x":
            return Jet(self.dep, self.t_order, self.x_order + 1)
        raise ValueError(f"direction must be 't' or 'x', got {direction!r}")


def coord_from_name(name: str) -> Optional[Jet]:
    """Return the jet coordinate named by an identifier, or None if it is not one."""
    if name in DEPENDENTS:
        return Jet(name)
    m = re.fullmatch(rf"({_DEPENDENT_NAME})_(t*)(x*)", name)
    if m and (m.group(2) or m.group(3)):
        return Jet(m.group(1), len(m.group(2)), len(m.group(3)))
    return None


def _leaf_named(name: str) -> Optional[Expr]:
    """The Var, Sym or Jet leaf an identifier names, or None."""
    if name in INDEPENDENTS:
        return Var(name)
    if name in PARAMETERS:
        return Sym(name)
    return coord_from_name(name)


_UNARY_OPS = ("neg", "exp", "erf", "sqrt")
_BINARY_OPS = ("+", "-", "*", "/", "^")


class Unary(Expr):
    __slots__ = ("op", "arg")

    def __new__(cls, op: str, arg: Expr):
        if op not in _UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        return _unary(op, arg)


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __new__(cls, op: str, lhs: Expr, rhs: Expr):
        if op not in _BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        return _binary(op, lhs, rhs)


# The one path to an operator node, for the public constructors above and
# the folding constructors below: a weak-table probe, and on a miss a new
# node with its slots set directly.

def _unary(op: str, arg: Expr) -> Unary:
    key = (Unary, op, arg)
    ref = _NODES.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    node = object.__new__(Unary)
    node.order, node.op, node.arg = arg.order, op, arg
    _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


def _binary(op: str, lhs: Expr, rhs: Expr) -> Binary:
    key = (Binary, op, lhs, rhs)
    ref = _NODES.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    node = object.__new__(Binary)
    node.order, node.op, node.lhs, node.rhs = max(lhs.order, rhs.order), op, lhs, rhs
    _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


_EMIT = object()


def nodes(*roots: Expr, uses: Optional[dict] = None,
          seen: Optional[set] = None) -> list[Expr]:
    """The distinct nodes reachable from `roots`, each listed after its
    children (left operand first).  Iterative, so depth is unbounded.
    Given a dict, `uses` receives each node's number of references: one per
    parent operand slot (twice for the child of u*u) and one per root.
    Given a set, `seen` holds nodes to stop at (they are neither listed nor
    descended into) and receives every node listed, so a sequence of walks
    sharing one set lists each node once."""
    out: list[Expr] = []
    if seen is None:
        seen = set()
    # an operator node goes back on the stack under the _EMIT marker and its
    # operands above it, so it is listed once they all are; a leaf is listed
    # at once
    stack: list = list(reversed(roots))
    push, pop = stack.append, stack.pop
    while stack:
        n = pop()
        if n is _EMIT:
            out.append(pop())
            continue
        if uses is not None:
            uses[n] = uses.get(n, 0) + 1
        if n in seen:
            continue
        seen.add(n)
        t = type(n)
        if t is Binary:
            push(n)
            push(_EMIT)
            push(n.rhs)
            push(n.lhs)
        elif t is Unary:
            push(n)
            push(_EMIT)
            push(n.arg)
        else:
            out.append(n)
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
    return Jet(dep, t, x)


ZERO = Const(0)
ONE = Const(1)


# Folding tests a Const operand's value and no other operand's.  An integer
# becomes a Fraction and every node is interned, so the rational 0 and 1 are
# the nodes ZERO and ONE themselves; only a float (0.0, -0.0, 1.0, ...) needs
# its value compared.

def _is_zero(c: Const) -> bool:
    return c is ZERO or (type(c.value) is not Fraction and c.value == 0)


def _is_one(c: Const) -> bool:
    return c is ONE or (type(c.value) is not Fraction and c.value == 1)


def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value + b.value)
        if _is_zero(a):
            return b
    elif type(b) is Const and _is_zero(b):
        return a
    return _binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value - b.value)
        if _is_zero(a):
            return neg(b)
    elif type(b) is Const and _is_zero(b):
        return a
    return _binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value * b.value)
        if _is_zero(a):
            return ZERO
        if _is_one(a):
            return b
    elif type(b) is Const:
        if _is_zero(b):
            return ZERO
        if _is_one(b):
            return a
    return _binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if _is_zero(b):
            raise ZeroDivisionError("division by constant zero")
        if type(a) is Const:
            if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
                return Const(a.value / b.value)
            return Const(float(a.value) / float(b.value))
        if _is_one(b):
            return a
    elif type(a) is Const and _is_zero(a):
        return ZERO
    return _binary("/", a, b)


def neg(a: Expr) -> Expr:
    t = type(a)
    if t is Const:
        return Const(-a.value)
    if t is Unary and a.op == "neg":
        return a.arg
    return _unary("neg", a)


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
    if type(base) is Const and expo.denominator == 1:
        p = int(expo)
        if p < 0 and _is_zero(base):
            raise ZeroDivisionError("zero raised to a negative power")
        return Const(base.value ** p)
    return _binary("^", base, Const(expo))


def exp(a: Expr) -> Expr:
    if type(a) is Const and _is_zero(a):
        return ONE
    return _unary("exp", a)


def erf(a: Expr) -> Expr:
    if type(a) is Const and _is_zero(a):
        return ZERO
    return _unary("erf", a)


def sqrt(a: Expr) -> Expr:
    if type(a) is Const and (_is_zero(a) or _is_one(a)):
        return a
    return _unary("sqrt", a)


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
        leaf = _leaf_named(name)
        if leaf is not None:
            if leaf.order > self.max_order:
                raise JetOrderError(
                    f"jet order {leaf.order} of {name!r} exceeds the limit {self.max_order}"
                    f" at offset {off}")
            return leaf
        if name in ("exp", "erf", "sqrt"):
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return _UNARY_FNS[name](arg)
        hint = ""
        if re.fullmatch(rf"(?:{_DEPENDENT_NAME})_[tx]+", name):
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
    # the sign bit, not `value < 0`: -0.0 prints with a leading minus too
    return 15 if math.copysign(1.0, value) < 0 else 100


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
            s = n.name()
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


ParamValue = Union[float, np.ndarray]


@dataclass(frozen=True)
class ParamValues:
    """Numeric values for the model parameters.

    Each value is a float, or for evaluation only a float ndarray; `shape`,
    set at construction, is the arrays' broadcast shape, () if there are
    none.  A sweep over K values goes on a new leading axis: (K, 1) against
    a batch of n points gives the (K, n) values, row k those of the k-th
    scalar.  Every entry must be finite and every eps entry non-negative.
    A ParamValues holding an array is not hashable."""

    eps: ParamValue = 0.05
    mu: ParamValue = 1.0
    sigma: ParamValue = 1.0
    alpha: ParamValue = 0.5
    g: ParamValue = 1.0

    def __post_init__(self):
        # floats take math.isfinite: np.isfinite on a scalar costs several
        # times more, and most ParamValues are scalar
        shapes = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                finite = np.isfinite(value).all()
                shapes.append(value.shape)
            else:
                finite = math.isfinite(value)
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {value}")
        eps = self.eps
        if (eps < 0).any() if isinstance(eps, np.ndarray) else eps < 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        # once here, not in each of the many evaluations that read it
        object.__setattr__(self, "shape", np.broadcast_shapes(*shapes) if shapes else ())

    def replace(self, **kw) -> "ParamValues":
        return replace(self, **kw)


# what `eval_expr` reads when it is given no parameters
_DEFAULT_PARAMS = ParamValues()
# the dtype `eval_expr` returns; native float64 is this one object
_FLOAT = np.dtype(float)
# an x of this dtype makes `eval_expr` work in long double (on platforms
# where long double is float64, with float64's results)
_LONG = np.dtype(np.longdouble)
_PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def _long(value: Number) -> np.longdouble:
    """A constant or parameter in np.longdouble: a rational as the rounded
    quotient of its integers, a float exactly."""
    if isinstance(value, Fraction):
        return np.longdouble(value.numerator) / np.longdouble(value.denominator)
    return np.longdouble(value)


@functools.cache
def complete_coords(order: int) -> tuple[Jet, ...]:
    """Every jet coordinate of both dependent variables up to `order`, in
    (dep, t_order, x_order) order.  Built once per order: repeat calls return
    the same immutable tuple."""
    return tuple(Jet(dep, i, j) for dep in DEPENDENTS
                 for i in range(order + 1) for j in range(order + 1 - i))


# The catalog applies erf to x-only arguments, one grid row at most, so the
# standard library's erf per element costs little and keeps SciPy off the
# import path.
_np_erf = np.vectorize(math.erf, otypes=[float])


@dataclass
class JetBatch:
    """Vectorized jet points; t and x span the batch and the coordinate
    arrays, keyed by `Jet` leaf, broadcast to its shape (a stack of rows may
    carry t as a column and x as one row).  A single point is a batch of one."""

    t: np.ndarray
    x: np.ndarray
    values: Mapping[Jet, np.ndarray]

    @property
    def shape(self) -> tuple[int, ...]:
        """The broadcast shape of t and x, which the batch's points fill."""
        t, x = self.t, self.x
        # equal shapes, the common case, skip np.broadcast's cost (~0.6 us)
        return t.shape if t.shape == x.shape else np.broadcast(t, x).shape

    def __len__(self):
        """The number of points: the size of `shape`."""
        return math.prod(self.shape)

    def point(self, i: int) -> "JetBatch":
        """Point i of a one-dimensional batch, as a batch of one."""
        return JetBatch(self.t[[i]], self.x[[i]], {c: a[[i]] for c, a in self.values.items()})

    def named(self) -> dict[str, float]:
        """The coordinate values of a batch of one by name, in `Jet` order."""
        return {c.name(): float(self.values[c][0]) for c in sorted(self.values)}


def eval_expr(e: Union[Expr, Sequence[Expr]], point, params: Optional[ParamValues] = None):
    """Evaluate at a JetBatch: a float ndarray of the batch's shape
    broadcast with `params.shape`, whatever the expression reads.  An array
    parameter enters as it is and broadcasts against the batch, so a sweep
    on a leading axis is one walk of the DAG whose elements are those of one
    evaluation per value.  A value of the full shape is returned as it is;
    any other, a constant say, as a read-only broadcast view.  `params`
    None reads the default ParamValues.  An x of dtype np.longdouble
    carries the walk in extended precision: constants, parameters and every
    intermediate (erf excepted, which math.erf takes in float64), with the
    result rounded to float64 once.  Given a sequence of expressions,
    one walk of their joint DAG gives a list of such arrays, one per
    expression, and a node they share is evaluated once, so several
    expressions on one batch take one call.  Missing coordinates, division
    by zero, sqrt/fractional powers of negative values all raise
    EvalError."""
    if params is None:
        params = _DEFAULT_PARAMS
    single = isinstance(e, Expr)
    roots = (e,) if single else tuple(e)
    val: dict[Expr, object] = {}
    uses: dict[Expr, int] = {}

    def take(child: Expr):
        # an intermediate is dropped at its last use, so a stacked batch
        # holds only the values still waiting for a parent; a root's own
        # use keeps it to the end
        v = val[child]
        uses[child] -= 1
        if not uses[child]:
            del val[child]
        return v

    # the scalar type of constants and parameters, and pi in it
    num, pi = (_long, _PI_LONG) if point.x.dtype is _LONG else (float, math.pi)
    for n in nodes(*roots, uses=uses):
        t = type(n)
        if t is Const:
            v = num(n.value)
        elif t is Sym:
            if n.name == "pi":
                v = pi
            else:
                v = getattr(params, n.name)
                if type(v) is not np.ndarray:
                    v = num(v)
        elif t is Var:
            v = point.t if n.name == "t" else point.x
        elif t is Jet:
            try:
                v = point.values[n]
            except KeyError:
                raise EvalError(f"jet point carries no value for {n.name()!r}") from None
        elif t is Unary:
            a = take(n.arg)
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
            l, r = take(n.lhs), take(n.rhs)
            if n.op == "^":
                v = _eval_pow(l, n.rhs.value)
            else:
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

    shape = np.broadcast_shapes(point.shape, params.shape) if params.shape else point.shape
    return _full(val[e], shape) if single else [_full(val[r], shape) for r in roots]


def _full(v, shape: tuple[int, ...]) -> np.ndarray:
    """v as it is if it is a float64 array of `shape`, else a read-only
    broadcast view of it."""
    if type(v) is np.ndarray and v.shape == shape and v.dtype is _FLOAT:
        return v
    return np.broadcast_to(np.asarray(v, dtype=float), shape)


def _eval_pow(base, expo: Fraction):
    if expo.denominator == 1:
        p = int(expo)
        if p < 0 and np.any(np.asarray(base) == 0):
            raise EvalError("zero raised to a negative power")
        return _int_pow(base, p)
    if np.any(np.asarray(base) < 0):
        raise EvalError("fractional power of a negative base")
    if expo < 0 and np.any(np.asarray(base) == 0):
        raise EvalError("zero raised to a negative power")
    return np.power(base, float(expo))


def _int_pow(base, p: int):
    """base^p for p != 0 (`pow_` folds x^0 to 1) by repeated squaring, and
    1 / base^|p| for p < 0: np.power calls libm pow for every integer
    exponent but 2, several times slower than the few products.  A scalar
    base gives a numpy float, as np.power does, so an overflow is inf."""
    x = base if isinstance(base, (np.ndarray, np.generic)) else np.float64(base)
    n, acc = abs(p), None
    while True:
        if n & 1:
            acc = x if acc is None else acc * x
        n >>= 1
        if not n:
            break
        x = x * x
    return 1.0 / acc if p < 0 else acc


# ---------------------------------------------------------------------------
# derivatives


def _norm_wrt(wrt) -> Expr:
    """The interned Jet, Var or Sym leaf named by a differentiation or
    substitution key (the leaf itself or its name)."""
    if isinstance(wrt, (Jet, Var, Sym)):
        return wrt
    leaf = _leaf_named(wrt) if isinstance(wrt, str) else None
    if leaf is not None:
        return leaf
    raise ValueError(f"cannot differentiate or substitute with respect to {wrt!r}")


_TWO_OVER_SQRT_PI = div(Const(2), sqrt(Sym("pi")))


def _d_erf(n: Expr, da: Expr, _) -> Expr:
    return mul(da, mul(_TWO_OVER_SQRT_PI, exp(neg(pow_(n.arg, 2)))))


def _d_quotient(n: Expr, dl: Expr, dr: Expr) -> Expr:
    if type(dr) is Const and _is_zero(dr):
        return div(dl, n.rhs)
    return div(sub(mul(dl, n.rhs), mul(n.lhs, dr)), pow_(n.rhs, 2))


def _d_power(n: Expr, dl: Expr, _) -> Expr:
    c = n.rhs.value
    return mul(mul(Const(c), pow_(n.lhs, c - 1)), dl)


# The chain rule of every operator: the derivative of node n from the
# derivatives of its operands (the second is None for a unary node).  Every
# derivative in the module is built from these constructor calls alone.
_CHAIN_RULES: dict[str, Callable[[Expr, Expr, Optional[Expr]], Expr]] = {
    "neg": lambda n, da, _: neg(da),
    "exp": lambda n, da, _: mul(da, n),
    "erf": _d_erf,
    "sqrt": lambda n, da, _: div(da, mul(Const(2), n)),
    "+": lambda n, dl, dr: add(dl, dr),
    "-": lambda n, dl, dr: sub(dl, dr),
    "*": lambda n, dl, dr: add(mul(dl, n.rhs), mul(n.lhs, dr)),
    "/": _d_quotient,
    "^": _d_power,
}


def _differentiate(e: Expr, leaf: Callable[[Expr], Expr],
                   d: Optional[dict] = None, seen: Optional[set] = None) -> Expr:
    """Shared chain-rule walk; `leaf` supplies derivatives of terminals.
    A dict `d` of derivatives and the set `seen` of nodes they cover, both
    kept from earlier walks with the same `leaf`, are reused and extended."""
    if d is None:
        d = {}
    for n in nodes(e, seen=seen):
        t = type(n)
        if t is Unary:
            d[n] = _CHAIN_RULES[n.op](n, d[n.arg], None)
        elif t is Binary:
            d[n] = _CHAIN_RULES[n.op](n, d[n.lhs], d[n.rhs])
        else:
            d[n] = leaf(n)
    return d[e]


def partial(e: Expr, wrt) -> Expr:
    """Partial derivative treating every other coordinate as independent."""
    target = _norm_wrt(wrt)
    return _differentiate(e, lambda n: ONE if n is target else ZERO)


def gradient(e: Expr) -> dict[Jet, Expr]:
    """`partial(e, c)` for every `Jet` leaf c present in e, keyed by c, node
    for node, from one walk of e.

    Each node keeps a sparse map of its partials.  For a coordinate an
    operand does not contain, the operand's derivative is the one `partial`
    gives it: its derivative with every leaf's derivative zero, which folding
    may make a float zero (0 * 2.5 is Const(0.0)), so it is built once per
    node by the same chain rule rather than assumed to be ZERO."""
    zero: dict[Expr, Expr] = {}
    grad: dict[Expr, dict[Jet, Expr]] = {}
    for n in nodes(e):
        t = type(n)
        if t is Unary:
            rule = _CHAIN_RULES[n.op]
            zero[n] = rule(n, zero[n.arg], None)
            grad[n] = {c: rule(n, da, None) for c, da in grad[n.arg].items()}
        elif t is Binary:
            rule, zl, zr = _CHAIN_RULES[n.op], zero[n.lhs], zero[n.rhs]
            gl, gr = grad[n.lhs], grad[n.rhs]
            zero[n] = rule(n, zl, zr)
            grad[n] = {c: rule(n, gl.get(c, zl), gr.get(c, zr)) for c in gl.keys() | gr.keys()}
        else:
            zero[n] = ZERO
            grad[n] = {n: ONE} if t is Jet else {}
    return grad[e]


def _total_leaf(target: Var) -> Callable[[Expr], Expr]:
    def leaf(n: Expr) -> Expr:
        if type(n) is Jet:
            return n.bumped(target.name)
        if n is target:
            return ONE
        return ZERO

    return leaf


def _order_guard(e: Expr, max_order: int) -> None:
    if e.order + 1 > max_order:
        raise JetOrderError(
            f"total derivative would exceed jet order {max_order} (expression has order {e.order})")


def total_derivative(e: Expr, direction, max_order: int = DEFAULT_MAX_JET_ORDER) -> Expr:
    """Total derivative D_t or D_x: the explicit partial plus the jet chain
    u_J -> u_{J+direction} over every coordinate present."""
    target = _norm_wrt(direction)
    if type(target) is not Var:
        raise ValueError(f"total derivative direction must be 't' or 'x', got {direction!r}")
    _order_guard(e, max_order)
    return _differentiate(e, _total_leaf(target))


def collect_coords(e: Expr) -> frozenset[Jet]:
    return frozenset(n for n in nodes(e) if type(n) is Jet)


def contains_t_derivative(e: Expr) -> bool:
    return any(c.t_order > 0 for c in collect_coords(e))


def euler_operator(e: Expr, max_order: int = DEFAULT_MAX_JET_ORDER) -> tuple[Expr, Expr]:
    """Variational derivative (delta e / delta u, delta e / delta v):
    sum over multi-indices J of (-1)^|J| D_J (partial e / partial w_J).

    One `gradient` walk gives every partial.  D_t and D_x each keep one
    memo of derivatives for the whole call, so a subexpression shared by
    several terms (or met again after an earlier D) is differentiated once
    per direction; the result is node for node that of `partial` followed
    by repeated `total_derivative`.

    Intermediate results reach jet order 2*order(e), hence the precondition;
    pass a larger max_order to apply the operator to higher-order input.
    """
    if 2 * e.order > max_order:
        raise JetOrderError(
            f"euler_operator needs max_order >= {2 * e.order} for an expression of order {e.order}")
    grad = gradient(e)
    # per direction: the leaf rule, the derivatives so far and the nodes they cover
    memo = {v: (_total_leaf(v), {}, set()) for v in (T, X)}
    out = []
    for dep in DEPENDENTS:
        acc: Expr = ZERO
        for c in sorted(grad):  # the keys are collect_coords(e)
            if c.dep != dep:
                continue
            term = grad[c]
            if type(term) is Const and _is_zero(term):
                continue
            for v in (T,) * c.t_order + (X,) * c.x_order:
                _order_guard(term, max_order)
                term = _differentiate(term, *memo[v])
            acc = add(acc, term) if c.order % 2 == 0 else sub(acc, term)
        out.append(acc)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# substitution


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous replacement of jet coordinates, parameters and
    independent variables in a single pass: replacements are never
    re-substituted, so {u: v, v: u} swaps and {u: u + 1} gives u + 1.
    JetOrderError if the result's jet order exceeds DEFAULT_MAX_JET_ORDER."""
    table = {_norm_wrt(k): as_expr(val) for k, val in bindings.items()}
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
            new = table.get(n, n)
        out[n] = new

    result = out[e]
    if result.order > DEFAULT_MAX_JET_ORDER:
        raise JetOrderError(f"substitution produced jet order {result.order} "
                            f"above the limit {DEFAULT_MAX_JET_ORDER}")
    return result


# ---------------------------------------------------------------------------
# polynomial normal form in the jets and t


# A monomial of the normal form: (leaf, exponent) pairs, each leaf t or a Jet
# with a positive exponent, t first and then the jets in Jet order; () is 1.
Monomial = tuple[tuple[Expr, int], ...]


def _leaf_rank(pair: tuple[Expr, int]) -> tuple:
    leaf = pair[0]
    return (0,) if type(leaf) is Var else (1, leaf.dep, leaf.t_order, leaf.x_order)


def _poly_sum(a: dict, b: dict, op: str) -> dict:
    out = dict(a)
    for m, c in b.items():
        if m in out:
            out[m] = add(out[m], c) if op == "+" else sub(out[m], c)
        else:
            out[m] = c if op == "+" else neg(c)
    return out


def _poly_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            powers = dict(ma)
            for leaf, k in mb:
                powers[leaf] = powers.get(leaf, 0) + k
            m, c = tuple(sorted(powers.items(), key=_leaf_rank)), mul(ca, cb)
            out[m] = add(out[m], c) if m in out else c
    return out


def to_poly(e: Expr) -> dict[Monomial, Expr]:
    """e as a polynomial in t and the `Jet` leaves: {monomial: coefficient},
    each monomial a `Monomial` ((leaf, exponent) pairs, t first, then the
    jets in Jet order; () for 1) and each coefficient an interned Expr free
    of jets and t, none a constant zero.  from_poly(to_poly(e)) is e
    rewritten, equal in value.  Every catalog record is polynomial; an
    on-shell density has 4 (charge) or 15 (energy) terms.

    One walk of e.  A node free of jets and t is its own coefficient and is
    never expanded; products distribute only over sums that read a jet or t,
    so a coefficient is built from e's own jet-free subtrees and keeps their
    order of operations (a cancelling sum under 1/x^4 stays one sum under
    it).  NotPolynomialError where a jet or t is under exp, erf or sqrt, in
    a denominator, or raised to a power that is not a whole number."""
    poly: dict[Expr, Optional[dict]] = {}  # None for a node free of jets and t
    for n in nodes(e):
        t = type(n)
        if t is Jet or n is T:
            p = {((n, 1),): ONE}
        elif t is Unary:
            p = poly[n.arg]
            if p is not None:
                if n.op != "neg":
                    raise NotPolynomialError(f"{n.op} of {to_text(n.arg)!r}, which reads a jet or t")
                p = {m: neg(c) for m, c in p.items()}
        elif t is Binary:
            pl, pr = poly[n.lhs], poly[n.rhs]
            if pl is None and pr is None:
                p = None
            elif n.op == "/":
                if pr is not None:
                    raise NotPolynomialError(f"division by {to_text(n.rhs)!r}, which reads a jet or t")
                p = {m: div(c, n.rhs) for m, c in pl.items()}
            elif n.op == "^":
                k = n.rhs.value
                if k.denominator != 1 or k < 0:
                    raise NotPolynomialError(f"power {k} of {to_text(n.lhs)!r}, which reads a jet or t")
                p = pl
                for _ in range(int(k) - 1):
                    p = _poly_product(p, pl)
            else:
                pl = {(): n.lhs} if pl is None else pl
                pr = {(): n.rhs} if pr is None else pr
                p = _poly_product(pl, pr) if n.op == "*" else _poly_sum(pl, pr, n.op)
        else:
            p = None
        poly[n] = p
    out = poly[e]
    if out is None:
        out = {(): e}
    return {m: c for m, c in out.items() if not (type(c) is Const and c.value == 0)}


def from_poly(poly: Mapping[Monomial, Expr]) -> Expr:
    """The sum of coefficient times monomial over a `to_poly` result, in its
    order; ZERO for an empty one."""
    out: Expr = ZERO
    for m, c in poly.items():
        for leaf, k in m:
            c = mul(c, pow_(leaf, k))
        out = add(out, c)
    return out


# ---------------------------------------------------------------------------
# randomized equivalence


# Draws kept by `JetSampler.batch`: a verification run asks for a few
# (seed, n, order) batches many times over, and more entries than this only
# raise the peak memory.
_SAMPLER_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_SAMPLER_MEMO_SIZE)
def _sampler_draws(seed: int, n: int, order: int) -> tuple[np.ndarray, np.ndarray,
                                                           tuple[np.ndarray, ...]]:
    """t, x and the jet values of one batch on the domain `JetSampler`
    documents, one row per coordinate of `complete_coords(order)`, all
    read-only so that every caller may share them.  The rows are kept as a
    tuple: slicing a 2-d array into rows anew costs more than the dict it
    fills."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.1, 2.0, size=n)
    x = rng.uniform(0.4, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    draws = rng.uniform(-2.0, 2.0, size=(len(complete_coords(order)), n))
    for a in (t, x, draws):
        a.flags.writeable = False
    return t, x, tuple(draws)


@dataclass
class JetSampler:
    """Seeded sampler over one fixed evaluation domain: t in [0.1, 2],
    |x| in [0.4, 2] (both signs), jet coordinates in [-2, 2].  The x domain
    keeps clear of x = 0 because several transcribed densities carry
    negative powers of x.  The seed alone chooses the draws."""

    seed: int = 0

    def batch(self, n: int, order: int) -> JetBatch:
        """n points of jet order `order`: t, x, the signs of x, then every
        coordinate of `complete_coords(order)` drawn in one call, one row
        each (the same stream and values as one draw per coordinate).

        The draws are memoised per (seed, n, order), at most
        `_SAMPLER_MEMO_SIZE` of them, least recently used first out.  Their
        arrays are read-only and shared by every batch with that key; each
        call returns a new JetBatch and a new `values` dict."""
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        t, x, rows = _sampler_draws(self.seed, n, order)
        return JetBatch(t, x, dict(zip(complete_coords(order), rows)))


@dataclass
class EquivResult:
    equal: bool
    worst_rel_error: float
    n: int
    witness: Optional[JetBatch] = None

    def __bool__(self):
        return self.equal


def expr_equiv(e1: Expr, e2: Expr, n: int = 100, tol: float = 1e-10,
               params: Optional[ParamValues] = None, seed: int = 0) -> EquivResult:
    """Randomized equivalence: evaluate both expressions, in one walk of
    their joint DAG, at the n jet points `JetSampler(seed).batch` draws and
    compare with relative tolerance tol (normalized by max(1, |v1|, |v2|)
    pointwise).  On failure the result carries the worst point as its
    witness.  The parameters are one point:
    array-valued `params` raise ValueError."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if params is not None and params.shape != ():
        raise ValueError(f"expr_equiv compares at one parameter point, but params.shape "
                         f"is {params.shape}")
    batch = JetSampler(seed).batch(n, max(e1.order, e2.order))
    v1, v2 = eval_expr([e1, e2], batch, params)
    scale = np.maximum(1.0, np.maximum(np.abs(v1), np.abs(v2)))
    rel = np.abs(v1 - v2) / scale
    worst = int(np.argmax(rel))
    equal = bool(rel[worst] <= tol)
    if equal:
        return EquivResult(True, float(rel[worst]), n)
    return EquivResult(False, float(rel[worst]), n, batch.point(worst))


# ---------------------------------------------------------------------------
# random expressions for the property suites


def random_polynomial(rng: np.random.Generator) -> Expr:
    """Random sum of one to three terms, each a small rational coefficient
    times one to three jet coordinates of order at most 2, times t or x with
    probability 0.3 and times exp(-x^2) with probability 0.4."""
    coords = complete_coords(2)
    expr: Expr = ZERO
    for _ in range(int(rng.integers(1, 4))):
        num = int(rng.integers(-3, 4))
        if num == 0:
            num = 1
        term: Expr = Const(Fraction(num, int(rng.integers(1, 3))))
        for _ in range(int(rng.integers(1, 4))):
            term = mul(term, coords[int(rng.integers(0, len(coords)))])
        if rng.random() < 0.3:
            term = mul(term, T if rng.random() < 0.5 else X)
        if rng.random() < 0.4:
            term = mul(term, exp(neg(pow_(X, 2))))
        expr = add(expr, term)
    return expr
