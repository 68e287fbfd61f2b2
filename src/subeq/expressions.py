"""Tiny arithmetic expression language for domains and coefficient fields.

Grammar (byte-exact, documented in the README):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          -- '^' is right-associative
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'sin' | 'cos' | 'exp' | 'abs'
    VAR    := 'x' | 'y' | 'z' | 'x1' .. 'x9'
    NUMBER := digits ['.' digits] [('e'|'E') ['+'|'-'] digits]

'x', 'y', 'z' alias 'x1', 'x2', 'x3'.  Whitespace is ignored.  Evaluation
is vectorized: an expression maps points of shape (N, n) to values (N,).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, FrozenSet

import numpy as np

from .boundary import DomainSpec
from .errors import ConfigError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_VARS = {"x": 0, "y": 1, "z": 2, **{f"x{i}": i - 1 for i in range(1, 10)}}

_TOKEN = re.compile(r"""\s*(?:
      (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^()])
)""", re.VERBOSE)


def _tokenize(src: str):
    src = src.rstrip()
    pos, out = 0, []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            raise ConfigError(f"bad character at position {pos}: {src[pos]!r}")
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num")), pos))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), pos))
        elif m.group("op") is not None:
            out.append(("op", m.group("op"), pos))
        pos = m.end()
    out.append(("end", "", len(src)))
    return out


@dataclass(frozen=True)
class Expression:
    src: str
    fn: Callable
    variables: FrozenSet[str]
    max_index: int          # highest coordinate slot used, -1 if constant

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.max_index >= x.shape[1]:
            raise ConfigError(
                f"expression {self.src!r} uses coordinate "
                f"{self.max_index + 1} but points have {x.shape[1]}")
        with np.errstate(all="ignore"):
            out = self.fn(x)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               (len(x),)).copy()


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.vars: set = set()
        self.max_index = -1

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ConfigError(
                f"expected {op!r} at position {pos} in {self.src!r}")

    def parse(self) -> Expression:
        fn = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ConfigError(
                f"trailing input at position {pos} in {self.src!r}: {val!r}")
        return Expression(self.src, fn, frozenset(self.vars), self.max_index)

    def expr(self):
        left = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            right = self.term()
            if op == "+":
                left = (lambda a, b: lambda x: a(x) + b(x))(left, right)
            else:
                left = (lambda a, b: lambda x: a(x) - b(x))(left, right)
        return left

    def term(self):
        left = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            right = self.unary()
            if op == "*":
                left = (lambda a, b: lambda x: a(x) * b(x))(left, right)
            else:
                left = (lambda a, b: lambda x: a(x) / b(x))(left, right)
        return left

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            inner = self.unary()
            return (lambda a: lambda x: -a(x))(inner)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            expo = self.unary()      # right-associative by recursion
            return (lambda a, b: lambda x: np.power(a(x), b(x)))(base, expo)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return (lambda c: lambda x: np.full(len(x), c))(val)
        if kind == "name":
            if val in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return (lambda f, a: lambda x: f(a(x)))(_FUNCS[val], inner)
            if val in _VARS:
                idx = _VARS[val]
                self.vars.add(val)
                self.max_index = max(self.max_index, idx)
                return (lambda j: lambda x: x[:, j])(idx)
            raise ConfigError(
                f"unknown name {val!r} at position {pos} in {self.src!r}")
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ConfigError(
            f"unexpected token {val!r} at position {pos} in {self.src!r}")


def parse_expression(src: str) -> Expression:
    if not isinstance(src, str) or not src.strip():
        raise ConfigError("empty expression")
    return _Parser(src).parse()


def expression_domain(src: str, n: int) -> DomainSpec:
    """DomainSpec {expr < 0}; validates the coordinate count up front."""
    e = parse_expression(src)
    if e.max_index >= n:
        raise ConfigError(
            f"domain expression {src!r} needs {e.max_index + 1} coordinates, "
            f"domain has {n}")
    return DomainSpec(n, e, label=f"expr:{src}")
