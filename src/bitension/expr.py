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
character is an :class:`ExprLexError`.  Nesting is bounded: parentheses,
call arguments and '-' and '^' chains nested more than ``MAX_DEPTH`` levels
deep are an :class:`ExprSyntaxError` at the token that goes one level too
deep.  Evaluating, printing and collecting names walk a tree with one loop,
so long flat sums and products of any length pass through them; an
evaluation keeps no value for another, so a subtree two trees share is
computed in each.
Functions are fixed: exp, ln, sin, cos, sqrt take one argument, pow takes two.
Names resolve through an :class:`EvalContext` at evaluation time — nothing in
the grammar distinguishes a chart coordinate from a bound parameter.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

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

class Token(NamedTuple):
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

# Deepest nesting parse accepts: parentheses, call arguments, '-' and '^'
# chains each pass through _Parser.unary once per level, which costs about
# five Python frames, so the bound keeps parse, the one recursion over user
# expressions, well inside the default recursion limit of 1000.  Its trees
# are walked by the loop of _postorder, which no depth or length stops.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

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
        if self.depth == MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} "
                                  "levels", self.peek().pos)
        self.depth += 1  # a raise ends the parse, so it needs no unwinding
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.next()
            node = Unary("neg", self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

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


# -- walking --------------------------------------------------------------------

def _postorder(root):
    """(node, name, arity) for every node of a tree, each node after its
    children and children left to right: the order in which evaluate
    computes them.  name is the node's operator or function (None for a
    leaf) and arity its number of children.  A loop, so no tree is too
    deep to walk."""
    walk, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary):
            walk.append((node, node.op, 2))
            stack += node.left, node.right
        elif isinstance(node, Unary):
            walk.append((node, node.op, 1))
            stack.append(node.child)
        elif isinstance(node, Call):
            walk.append((node, node.fn, len(node.args)))
            stack += node.args
        else:
            walk.append((node, None, 0))
    # with the right child popped first, each node comes before its
    # children and the right subtree before the left: postorder, reversed
    return walk[::-1]


# -- printing ---------------------------------------------------------------------

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 15, "^": 30}


def _prec(node):
    return _PREC.get(getattr(node, "op", None), 100)  # Unary's op is 'neg'


def to_source(root):
    """Canonical source with minimal parentheses; reparsing gives the same tree."""
    return _source(root, None)


# the longest source text an ExprEvalError quotes
_ERROR_CHARS = 200


def _source(root, limit):
    """to_source, with every partial text longer than ``limit`` characters
    (None: no bound) cut to its first ``limit`` and ``...`` as it is built.
    So the result is the full text cut the same way, made in time linear in
    the size of the tree."""
    texts = []
    for node, _, arity in _postorder(root):
        args = texts[len(texts) - arity:]  # texts[-0:] would take all
        del texts[len(texts) - arity:]
        if isinstance(node, Const):
            texts.append(repr(node.value))
        elif isinstance(node, Name):
            texts.append(node.ident)
        elif isinstance(node, Call):
            texts.append(f"{node.fn}({', '.join(args)})")
        elif isinstance(node, Unary):
            # after '-' the grammar resumes at unary level: only +,-,*,/
            # need grouping
            child, = args
            if isinstance(node.child, Binary) and node.child.op != "^":
                child = f"({child})"
            texts.append(f"-{child}")
        elif node.op == "^":
            # right-associative and tightest: group any structured left
            # child, and any right child not reachable from the unary level
            left, right = args
            if _prec(node.left) <= _PREC["^"]:
                left = f"({left})"
            if isinstance(node.right, Binary) and node.right.op != "^":
                right = f"({right})"
            texts.append(f"{left}^{right}")
        else:
            left, right = args
            p = _PREC[node.op]
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
            texts.append(f"{left} {node.op} {right}")
        if limit is not None and len(texts[-1]) > limit:
            texts[-1] = texts[-1][:limit] + "..."
    return texts[0]


def free_names(root):
    return {node.ident for node, _, _ in _postorder(root)
            if isinstance(node, Name)}


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


# every operator and function, by the name _postorder gives its nodes
_CALLS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "neg": operator.neg, "/": jets.divide, "^": jets.power,
          "pow": jets.power, "exp": jets.exp, "ln": jets.ln, "sin": jets.sin,
          "cos": jets.cos, "sqrt": jets.sqrt}


def evaluate(root, ctx):
    """Evaluate over whatever scalar kind the context supplies (jets, arrays, floats).

    The tree is walked once and every node computed once per path that
    reaches it: nothing is shared between evaluations.  A domain fault
    raises :class:`ExprEvalError` quoting the source of the node that
    raised, cut after 200 characters."""
    values = []
    try:
        for node, name, arity in _postorder(root):
            if name is None:
                value = (node.value if isinstance(node, Const)
                         else ctx.resolve(node.ident))
            else:
                args = values[-arity:]
                del values[-arity:]
                value = _CALLS[name](*args)
            values.append(value)
    except jets.JetDomainError as err:
        # quote the node that raised, not the root
        raise ExprEvalError(str(err), _source(node, _ERROR_CHARS)) from err
    return values[0]
