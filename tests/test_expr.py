import functools
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import support
from bitension import expr, jets
from bitension.expr import (Binary, Call, Const, EvalContext, ExprError,
                            ExprEvalError, ExprLexError, ExprSyntaxError,
                            Name, Unary, UnboundNameError, evaluate, parse,
                            to_source, tokenize)


def test_tokenize_fixture():
    kinds = [(t.kind, t.text) for t in tokenize("exp(y/R)")]
    assert kinds == [("NAME", "exp"), ("LP", "("), ("NAME", "y"), ("OP", "/"),
                     ("NAME", "R"), ("RP", ")"), ("END", "")]
    assert len(tokenize("1 + 2*x^3")) == 8  # seven tokens plus end marker


def test_lex_error_offset():
    with pytest.raises(ExprLexError) as err:
        tokenize("2.5e-1@")
    assert err.value.offset == 6


@pytest.mark.parametrize("source,offset", [
    ("x^\u00b2", 2), ("\u0663", 0), ("1.\u0663", 2), ("2\u00bd", 1)])
def test_numbers_are_ascii_digits(source, offset):
    # a superscript or non-ASCII decimal digit is no number, nor a name start
    with pytest.raises(ExprLexError) as err:
        tokenize(source)
    assert err.value.offset == offset


def test_names_keep_any_letters_and_digits_after_the_first():
    kinds = [(t.kind, t.text) for t in tokenize("x\u00b2 + \u00e9t\u00e9_1")]
    assert kinds == [("NAME", "x\u00b2"), ("OP", "+"),
                     ("NAME", "\u00e9t\u00e9_1"), ("END", "")]
    assert [t.text for t in tokenize("1.e5 .5.3 1e 2.5e-1x")] == [
        "1.e5", ".5", ".3", "1", "e", "2.5e-1", "x", ""]


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("\u00b2")
@example("x^\u00b2")
def test_parse_returns_a_tree_or_raises_an_expression_error(text):
    try:
        node = parse(text)
    except ExprError:
        return
    assert isinstance(node, (Const, Name, Unary, Binary, Call))


def test_precedence_fixtures():
    assert parse("1 + 2*x^3") == Binary(
        "+", Const(1.0), Binary("*", Const(2.0), Binary("^", Name("x"), Const(3.0))))
    # unary minus binds looser than ^
    assert parse("-x^2") == Unary("neg", Binary("^", Name("x"), Const(2.0)))
    assert parse("x^-2") == Binary("^", Name("x"), Unary("neg", Const(2.0)))
    # left-associative chains
    assert parse("a - b - c") == Binary("-", Binary("-", Name("a"), Name("b")), Name("c"))
    assert parse("a / b / c") == Binary("/", Binary("/", Name("a"), Name("b")), Name("c"))
    # ^ is right-associative
    assert parse("a^b^c") == Binary("^", Name("a"), Binary("^", Name("b"), Name("c")))
    assert parse("(a^b)^c") == Binary("^", Binary("^", Name("a"), Name("b")), Name("c"))
    assert parse("sin(x/R)^2") == Binary("^", Call("sin", (Binary("/", Name("x"),
                                                                  Name("R")),)), Const(2.0))


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2x")


def test_unknown_function_and_arity():
    with pytest.raises(ExprSyntaxError):
        parse("foo(x)")
    with pytest.raises(ExprSyntaxError):
        parse("pow(x)")
    with pytest.raises(ExprSyntaxError):
        parse("exp(x, y)")


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("1 + 2 )")


# 1000 levels of each kind of nesting that passes through _Parser.unary
DEEP = {"parentheses": "(" * 1000 + "x" + ")" * 1000,
        "minus chain": "-" * 1000 + "x",
        "power chain": "^".join(["x"] * 1000),
        "call arguments": "sin(" * 1000 + "x" + ")" * 1000}


@pytest.mark.parametrize("source", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_is_an_expression_error(source):
    with pytest.raises(ExprError, match="nested deeper than 100 levels"):
        parse(source)


def test_nesting_bound_is_exact_and_located():
    limit = expr.MAX_DEPTH
    # the outermost unary is level 1; each '(' adds one level
    assert parse("(" * (limit - 1) + "x" + ")" * (limit - 1)) == Name("x")
    with pytest.raises(ExprSyntaxError) as err:
        parse("(" * limit + "x" + ")" * limit)
    assert err.value.offset == limit  # the 'x' one level too deep
    nested = parse("-" * (limit - 1) + "x")
    assert to_source(nested) == "-" * (limit - 1) + "x"
    assert expr.free_names(nested) == {"x"}


def _random_tree(rng, depth, names=("x", "y", "R")):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(float(abs(rng.normal()) + 0.25))
        return Name(str(rng.choice(names)))
    kind = rng.choice(["bin", "bin", "bin", "neg", "call", "pow2"])
    if kind == "bin":
        op = str(rng.choice(["+", "-", "*", "/", "^"]))
        return Binary(op, _random_tree(rng, depth - 1, names),
                      _random_tree(rng, depth - 1, names))
    if kind == "neg":
        return Unary("neg", _random_tree(rng, depth - 1, names))
    if kind == "pow2":
        return Call("pow", (_random_tree(rng, depth - 1, names),
                            _random_tree(rng, depth - 1, names)))
    fn = str(rng.choice(["exp", "ln", "sin", "cos", "sqrt"]))
    return Call(fn, (_random_tree(rng, depth - 1, names),))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_print_reparse_round_trip(seed):
    rng = np.random.default_rng(seed)
    tree = _random_tree(rng, depth=int(rng.integers(1, 6)))
    assert parse(to_source(tree)) == tree


def test_evaluate_floats_and_parameters():
    ast = parse("(C2*exp(-z/R) - C1*R^2*exp(z/R)/C2)/2")
    ctx = EvalContext(variables={"z": 0.3}, parameters={"R": 1.0, "C1": 0.0, "C2": 2.0})
    assert evaluate(ast, ctx) == pytest.approx(math.exp(-0.3), rel=1e-14)
    ctx2 = EvalContext(variables={"z": 0.3}, parameters={"R": 2.0, "C1": -1.0, "C2": 1.0})
    expect = (math.exp(-0.15) + 4.0 * math.exp(0.15)) / 2.0
    assert evaluate(ast, ctx2) == pytest.approx(expect, rel=1e-14)


def test_evaluate_jets_matches_floats():
    rng = np.random.default_rng(8)
    ast = parse("exp(0.3*x)*sin(y) + pow(1.5 + x^2, -2) / (2.0 + cos(x*y))")
    for _ in range(5):
        x0, y0 = rng.uniform(-0.8, 0.8, size=2)
        jx = jets.Jet.variable(0, x0, 2)
        jy = jets.Jet.variable(1, y0, 2)
        jval = evaluate(ast, EvalContext(variables={"x": jx, "y": jy}))
        fval = evaluate(ast, EvalContext(variables={"x": x0, "y": y0}))
        assert jval.value == pytest.approx(fval, rel=1e-14)


def test_variable_shadows_parameter_and_unbound():
    ast = parse("a + b")
    ctx = EvalContext(variables={"a": 1.0}, parameters={"a": 100.0, "b": 2.0})
    assert evaluate(ast, ctx) == 3.0
    with pytest.raises(UnboundNameError) as err:
        evaluate(ast, EvalContext(variables={"a": 1.0}))
    assert err.value.name == "b"


def test_domain_error_carries_expression_source():
    ast = parse("ln(x - 2)")
    with pytest.raises(ExprEvalError) as err:
        evaluate(ast, EvalContext(variables={"x": jets.Jet.variable(0, 0.0, 1)}))
    assert "ln" in str(err.value)


def test_domain_error_quotes_the_node_that_raised():
    ast = parse("sin(x) + 3*ln(x - 2)")
    with pytest.raises(ExprEvalError) as err:
        evaluate(ast, EvalContext(variables={"x": jets.Jet.variable(0, 0.0, 1)}))
    assert str(err.value) == "ln of a nonpositive value in 'ln(x - 2.0)'"
    assert err.value.source == "ln(x - 2.0)"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=1, max_value=40))
def test_sources_cut_while_printing_are_the_full_source_cut(seed, limit):
    tree = _random_tree(np.random.default_rng(seed), depth=5)
    full = to_source(tree)
    want = full if len(full) <= limit else full[:limit] + "..."
    assert expr._source(tree, limit) == want


def test_integer_exponent_specialization_on_negative_base():
    ast = parse("x^-2 + x^3")
    val = evaluate(ast, EvalContext(variables={"x": -2.0}))
    assert val == pytest.approx((-2.0) ** -2 + (-2.0) ** 3, rel=1e-14)


def test_free_names():
    ast = parse("exp(y/R) + pow(z, 2)")
    assert expr.free_names(ast) == {"y", "R", "z"}


def _contexts(names, rng):
    """Every name bound as a float, then as one variable of order-4 jets at
    three points, both drawn from rng."""
    names = sorted(names)
    values = rng.uniform(0.6, 1.4, size=(len(names), 3))
    return (EvalContext({n: float(v[0]) for n, v in zip(names, values)}),
            EvalContext({n: jets.Jet.variable(k, v, len(names), 4)
                         for k, (n, v) in enumerate(zip(names, values))}))


def _assert_walks_as_the_recursion(tree, contexts):
    # bitwise equal values, or the same exception type and message
    assert to_source(tree) == support.reference_to_source(tree)
    assert expr.free_names(tree) == support.reference_free_names(tree)
    for ctx in contexts:
        assert (support.outcome(evaluate, tree, ctx)
                == support.outcome(support.reference_evaluate, tree, ctx))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_walkers_match_the_recursion_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    tree = _random_tree(rng, depth=int(rng.integers(1, 6)))
    # "y" and "R" unbound: the first name reached in evaluation order raises
    partial = EvalContext({"x": 0.9})
    _assert_walks_as_the_recursion(
        tree, _contexts(("x", "y", "R"), rng) + (partial,))


def test_walkers_match_the_recursion_on_catalog_and_config_expressions():
    root = Path(__file__).resolve().parent.parent
    rng = np.random.default_rng(20)
    trees = list(support.compare_outputs._expressions(root))
    # the 8 cases, their 8 controls and the 8 shipped configs
    assert len({tuple(label.split()[:2]) for label, _ in trees}) == 3 * 8
    for _, tree in trees:
        _assert_walks_as_the_recursion(
            tree, _contexts(support.reference_free_names(tree), rng))


@pytest.mark.parametrize("source,variables", [
    ("x + y*z", {"x": 1.0}),
    ("sin(x) + ln(x - 2)", {"x": jets.Jet.variable(0, [0.5, 1.5], 1, 4)}),
    ("exp(x) * y / ln(-x)", {"x": 0.5, "y": 2.0}),
    ("ln(-x) + y", {"x": 0.5})])  # the domain error comes before 'y'
def test_raising_trees_raise_as_the_recursion(source, variables):
    tree, ctx = parse(source), EvalContext(variables)
    raised = support.outcome(evaluate, tree, ctx)
    assert raised[0] in (UnboundNameError, ExprEvalError)
    assert raised == support.outcome(support.reference_evaluate, tree, ctx)


LONG = 10 ** 4  # terms, ten times what the recursion limit allowed


@pytest.mark.parametrize("op,fold", [
    ("+", operator.add), ("-", operator.sub), ("*", operator.mul),
    ("/", jets.divide)])
def test_long_chains_walk_without_recursion(op, fold):
    source = f" {op} ".join(["x", "y"] * (LONG // 2))
    tree = parse(source)
    # strings, since dataclass == recurses down the chain itself
    assert to_source(tree) == source
    assert expr.free_names(tree) == {"x", "y"}
    floats = {"x": 0.999, "y": 1.001}
    points = {"x": jets.Jet.variable(0, [0.999, 1.002], 2, 4),
              "y": jets.Jet.variable(1, [1.001, 0.998], 2, 4)}
    for variables in (floats, points):
        terms = [variables["x"], variables["y"]] * (LONG // 2)
        assert (support.bits(evaluate(tree, EvalContext(variables)))
                == support.bits(functools.reduce(fold, terms)))
