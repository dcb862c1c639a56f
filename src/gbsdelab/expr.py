"""Small arithmetic expression language for generators and coefficients.

Expressions are stated over the variables t, x, y, z with the usual
operators (+ - * /, unary minus) and the call set pow, abs, min, max,
sqrt, exp.  Parsed trees are immutable and evaluation is pure, so they
can be shared freely across threads.  Evaluation accepts scalars or
numpy arrays in the environment and broadcasts elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


class LexError(ValueError):
    """Illegal character or malformed number; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ParseError(ValueError):
    """Syntax error; carries the offset of the offending token."""

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


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "ident", "op", "lparen", "rparen", "comma", "end"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens; whitespace is skipped."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                epos = i
                i += 1
                if i < n and text[i] in "+-":
                    i += 1
                if i >= n or not text[i].isdigit():
                    raise LexError("malformed exponent", epos)
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(Token("num", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("ident", text[start:i], start))
            continue
        if ch in "+-*/":
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("rparen", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(Token("comma", ch, i))
            i += 1
            continue
        raise LexError(f"illegal character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


# Pratt parser: binding powers for the left-associative binary operators.
_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20}
_UNARY_BINDING = 30


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, got {tok.text!r}", tok.pos)
        return self.advance()

    def parse_expr(self, min_bp: int = 0) -> Expr:
        left = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            bp = _BINDING[tok.text]
            if bp <= min_bp:
                break
            self.advance()
            right = self.parse_expr(bp)
            left = Bin(tok.text, left, right)
        return left

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "-":
            return Neg(self.parse_expr(_UNARY_BINDING))
        if tok.kind == "lparen":
            inner = self.parse_expr(0)
            self.expect("rparen")
            return inner
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                args = [self.parse_expr(0)]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.parse_expr(0))
                self.expect("rparen")
                if len(args) != FUNCTIONS[tok.text]:
                    raise ParseError(
                        f"{tok.text} takes {FUNCTIONS[tok.text]} argument(s), "
                        f"got {len(args)}",
                        tok.pos,
                    )
                return Call(tok.text, tuple(args))
            if tok.text not in VARIABLES:
                raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
            return Var(tok.text)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return expr


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


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace variables by expression trees; mapping maps names to Exprs."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Num):
        return e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, mapping), substitute(e.right, mapping))
    return Call(e.name, tuple(substitute(a, mapping) for a in e.args))


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
