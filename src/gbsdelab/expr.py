"""Small arithmetic expression language for generators and coefficients.

Expressions are stated over the variables t, x, y, z with the usual
operators (+ - * /, unary minus) and the call set pow, abs, min, max,
sqrt, exp.  Parsed trees are immutable and evaluation is pure, so they
can be shared freely across threads.  Evaluation accepts scalars or
numpy arrays in the environment and broadcasts elementwise.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass

import numpy as np

VARIABLES = ("t", "x", "y", "z")

FUNCTIONS = {
    "pow": 2,
    "abs": 1,
    "min": 2,
    "max": 2,
    "sqrt": 1,
    "exp": 1,
}


class ParseError(ValueError):
    """Syntax error; carries the offset of the offending character or node."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ValueError):
    """Domain error during evaluation; names the offending subexpression."""

    def __init__(self, message, node):
        super().__init__(f"{message} in '{to_str(node)}'")
        self.node = node


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Expr = Num | Var | Neg | Bin | Call


# binding powers of the left-associative binary operators, for to_str
_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20}
_UNARY_BINDING = 30

_ILLEGAL = re.compile(r"[^0-9A-Za-z_+\-*/(),.\s]")
# zeros that lead a decimal integer, which Python refuses; not those of a
# fraction or an exponent
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree.

    Python's parser reads the text; only the nodes of this language are
    kept, so a Python-only form (x**2, 1_0, abs(x,), x.real, ...) is a
    ParseError at its offset."""
    if bad := _ILLEGAL.search(text):
        raise ParseError(f"illegal character {bad.group()!r}", bad.start())
    src = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()), re.sub(r"\s", " ", text))
    body = src.lstrip()  # Python refuses an indented expression
    lead = len(src) - len(body)

    def tree(node):
        at, seg = lead + node.col_offset, body[node.col_offset:node.end_col_offset]
        kind = type(node)
        if kind is ast.Constant and _NUMBER.fullmatch(seg):
            return Num(float(seg))
        elif kind is ast.Name:
            if node.id not in VARIABLES:
                raise ParseError(f"unknown identifier {node.id!r}", at)
            return Var(node.id)
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            return Neg(tree(node.operand))
        elif kind is ast.BinOp and type(node.op) in _OPS:
            return Bin(_OPS[type(node.op)], tree(node.left), tree(node.right))
        elif (kind is ast.Call and type(node.func) is ast.Name
              and node.func.col_offset == node.col_offset):
            name = node.func.id
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", at)
            args = tuple(tree(a) for a in node.args)
            # a comma after the last argument: abs(x,) or abs(x, **y)
            if args and "," in body[node.args[-1].end_col_offset:node.end_col_offset]:
                raise ParseError(f"unexpected ',' in {name}(...)", at)
            if len(args) != FUNCTIONS[name]:
                raise ParseError(f"{name} takes {FUNCTIONS[name]} argument(s), "
                                 f"got {len(args)}", at)
            return Call(name, args)
        raise ParseError(f"unsupported syntax {seg!r}", at)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. "invalid decimal literal"
            return tree(ast.parse(body, mode="eval").body)
    except SyntaxError as e:
        raise ParseError(e.msg, lead + max(e.offset or 1, 1) - 1) from None
    except RecursionError:
        raise ParseError("expression nested too deeply", lead) from None


def free_vars(e: Expr) -> frozenset[str]:
    """Set of variable names referenced by `e`."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Bin):
        return free_vars(e.left) | free_vars(e.right)
    return frozenset().union(*(free_vars(a) for a in e.args)) if e.args else frozenset()


def _any(v) -> bool:
    """Truth of any element: v.any() for an array, bool(v) for a scalar, so a
    scalar check costs no array round trip."""
    return bool(v.any()) if isinstance(v, np.ndarray) else bool(v)


def _is_integral(v) -> bool:
    return not _any(v != np.floor(v))


def evaluate(e: Expr, env: dict):
    """Evaluate `e` in IEEE doubles; env maps variable names to scalars/arrays."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}", e) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Bin):
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if _any(b == 0):
            raise EvalError("division by zero", e)
        return a / b
    a = [evaluate(arg, env) for arg in e.args]
    if e.name == "abs":
        return np.abs(a[0])
    if e.name == "min":
        return np.minimum(a[0], a[1])
    if e.name == "max":
        return np.maximum(a[0], a[1])
    if e.name == "exp":
        return np.exp(a[0])
    if e.name == "sqrt":
        if _any(a[0] < 0):
            raise EvalError("sqrt of negative value", e)
        return np.sqrt(a[0])
    # pow: negative base with non-integral exponent is a domain error
    base, expo = a
    if not _is_integral(expo) and _any(base < 0):
        raise EvalError("pow of negative base with fractional exponent", e)
    with np.errstate(divide="raise", invalid="raise"):
        try:
            return np.power(base, expo)
        except FloatingPointError:
            raise EvalError("pow domain error", e) from None


def to_str(e: Expr) -> str:
    """Pretty-print; parse(to_str(e)) reproduces the tree structurally."""

    def go(node, parent_bp):
        if isinstance(node, Num):
            s = repr(node.value)
            return f"({s})" if node.value < 0 else s
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Neg):
            s = "-" + go(node.arg, _UNARY_BINDING)
            return f"({s})" if parent_bp >= _UNARY_BINDING else s
        if isinstance(node, Call):
            return f"{node.name}({', '.join(go(a, 0) for a in node.args)})"
        bp = _BINDING[node.op]
        # right operand of a same-precedence operator needs parens to keep
        # left associativity on reparse
        s = f"{go(node.left, bp - 1)}{node.op}{go(node.right, bp)}"
        return f"({s})" if parent_bp >= bp else s

    return go(e, 0)
