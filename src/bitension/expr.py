"""Expression DSL for chart components: metric entries, map components, factors.

Grammar (no implicit multiplication):

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds tightest
    atom    := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

so ``-x^2`` parses as ``neg(pow(x, 2))`` and ``x^-2`` as ``pow(x, neg(2))``.
A NUMBER is ASCII digits with an optional fraction and exponent (``2``,
``.5``, ``1e-3``); a NAME is a letter or '_' followed by letters, digits or
'_'.  Besides these, operators, parentheses, commas and whitespace, any
character is an :class:`ExprLexError`.
Functions are fixed: exp, ln, sin, cos, sqrt take one argument, pow takes two.
Names resolve through an :class:`EvalContext` at evaluation time — nothing in
the grammar distinguishes a chart coordinate from a bound parameter.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping

from . import jets

_FUNCTIONS = {"exp": 1, "ln": 1, "sin": 1, "cos": 1, "sqrt": 1, "pow": 2}


class ExprError(Exception):
    pass


class ExprLexError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnboundNameError(ExprError):
    def __init__(self, name):
        super().__init__(f"unbound name '{name}'")
        self.name = name


class ExprEvalError(ExprError):
    def __init__(self, message, source):
        super().__init__(f"{message} in '{source}'")
        self.source = source


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg'
    child: Any


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/', '^'
    left: Any
    right: Any


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


# -- lexer ---------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # NUM NAME OP LP RP COMMA END
    text: str
    pos: int


# leading whitespace is skipped; re has no class for letters alone, so
# tokenize checks a NAME's first character itself
_TOKEN = re.compile(r"\s*(?:(?P<NUM>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
                    r"(?:[eE][-+]?[0-9]+)?)|(?P<NAME>\w+)|(?P<OP>[-+*/^])"
                    r"|(?P<LP>\()|(?P<RP>\))|(?P<COMMA>,)|(?P<BAD>\S))")


def tokenize(source):
    tokens = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text, pos = match[kind], match.start(kind)
        if kind == "BAD" or (kind == "NAME" and not (text[0].isalpha()
                                                     or text[0] == "_")):
            raise ExprLexError(f"unexpected character {text[0]!r}", pos)
        tokens.append(Token(kind, text, pos))
    tokens.append(Token("END", "", len(source)))
    return tokens


# -- parser ---------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}, found {tok.text or 'end of input'!r}",
                                  tok.pos)
        return tok

    def expr(self):
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.next().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.next().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.next()
            return Unary("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.next()
            node = Binary("^", node, self.unary())
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "NUM":
            return Const(float(tok.text))
        if tok.kind == "NAME":
            if self.peek().kind == "LP":
                if tok.text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function '{tok.text}'", tok.pos)
                self.next()
                args = [self.expr()]
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.expr())
                self.expect("RP", "')'")
                if len(args) != _FUNCTIONS[tok.text]:
                    raise ExprSyntaxError(
                        f"'{tok.text}' takes {_FUNCTIONS[tok.text]} argument(s), "
                        f"got {len(args)}", tok.pos)
                return Call(tok.text, tuple(args))
            return Name(tok.text)
        if tok.kind == "LP":
            node = self.expr()
            self.expect("RP", "')'")
            return node
        raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(source):
    p = _Parser(tokenize(source))
    node = p.expr()
    tok = p.peek()
    if tok.kind != "END":
        raise ExprSyntaxError(f"unexpected {tok.text!r} after expression", tok.pos)
    return node


# -- printing ---------------------------------------------------------------------

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 15, "^": 30}


def _prec(node):
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"]
    return 100


def to_source(node):
    """Canonical source with minimal parentheses; reparsing gives the same tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_source(a) for a in node.args)})"
    if isinstance(node, Unary):
        child = to_source(node.child)
        # after '-' the grammar resumes at unary level: only +,-,*,/ need grouping
        if isinstance(node.child, Binary) and node.child.op != "^":
            child = f"({child})"
        return f"-{child}"
    left, right = to_source(node.left), to_source(node.right)
    p = _PREC[node.op]
    if node.op == "^":
        # right-associative and tightest: group any structured left child,
        # and any right child not reachable from the unary level
        if _prec(node.left) <= p:
            left = f"({left})"
        if isinstance(node.right, Binary) and node.right.op != "^":
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(node.left) < p:
        left = f"({left})"
    if _prec(node.right) <= p:
        right = f"({right})"
    return f"{left} {node.op} {right}"


def free_names(node):
    if isinstance(node, Const):
        return set()
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, Unary):
        return free_names(node.child)
    if isinstance(node, Binary):
        return free_names(node.left) | free_names(node.right)
    out = set()
    for a in node.args:
        out |= free_names(a)
    return out


# -- evaluation ---------------------------------------------------------------------

@dataclass(frozen=True)
class EvalContext:
    """One namespace: variables (jets or numerics) then parameters (numbers)."""
    variables: Mapping[str, Any]
    parameters: Mapping[str, float] = None

    def resolve(self, name):
        if name in self.variables:
            return self.variables[name]
        if self.parameters and name in self.parameters:
            return self.parameters[name]
        raise UnboundNameError(name)


_CALLS = {"exp": jets.exp, "ln": jets.ln, "sin": jets.sin, "cos": jets.cos,
          "sqrt": jets.sqrt}


def evaluate(node, ctx):
    """Evaluate over whatever scalar kind the context supplies (jets, arrays, floats)."""
    try:
        return _eval(node, ctx)
    except jets.JetDomainError as err:
        raise ExprEvalError(str(err), to_source(node)) from err


def _eval(node, ctx):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Name):
        return ctx.resolve(node.ident)
    if isinstance(node, Unary):
        return -_eval(node.child, ctx)
    if isinstance(node, Binary):
        left = _eval(node.left, ctx)
        if node.op == "+":
            return left + _eval(node.right, ctx)
        if node.op == "-":
            return left - _eval(node.right, ctx)
        if node.op == "*":
            return left * _eval(node.right, ctx)
        if node.op == "/":
            return jets.divide(left, _eval(node.right, ctx))
        return jets.power(left, _eval(node.right, ctx))
    if node.fn == "pow":
        return jets.power(_eval(node.args[0], ctx), _eval(node.args[1], ctx))
    return _CALLS[node.fn](_eval(node.args[0], ctx))
