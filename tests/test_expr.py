import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsdelab.expr import (
    Bin,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    _is_integral,
    evaluate,
    free_vars,
    parse,
    to_str,
)
from barriers import substitute


def ev(text, **env):
    return evaluate(parse(text), env)


class TestParseText:
    """What the hand-written lexer checked, now read through parse."""

    def test_single_variable(self):
        assert parse("z") == Var("z")

    def test_generator_body(self):
        assert parse("-2.5*pow(abs(z),0.8)") == Bin(
            "*", Neg(Num(2.5)), Call("pow", (Call("abs", (Var("z"),)), Num(0.8)))
        )

    @pytest.mark.parametrize("text", ["2.5e", "1e+", "x*1e-", "2.5e+x"])
    def test_malformed_exponent(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_malformed_exponent_offset(self):
        # the offset is Python's tokenizer's, inside the literal; the
        # hand-written lexer gave 3, the "e"
        with pytest.raises(ParseError, match="invalid decimal literal") as exc:
            parse("2.5e")
        assert 0 <= exc.value.offset <= 3

    def test_exponent_forms(self):
        assert parse("1e3+2E-2+3.5e+1+5.e1+.5E0") == Bin("+", Bin("+", Bin("+", Bin(
            "+", Num(1e3), Num(2e-2)), Num(35.0)), Num(50.0)), Num(0.5))

    def test_illegal_character(self):
        with pytest.raises(ParseError, match="illegal character '\\^'") as exc:
            parse("x ^ 2")
        assert exc.value.offset == 2

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("  x y")
        assert exc.value.offset == 4

    def test_positions_recorded(self):
        # the three tokens of "  x + y" sit at offsets 2, 4 and 6
        for text, offset in (("  w + y", 2), ("  x ^ y", 4), ("  x + w", 6)):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.offset == offset

    @pytest.mark.parametrize("text, offset", [
        ("x +\n\tw", 5), ("\t\n w", 3), ("x\u00a0+\u2003w", 4),
    ])
    def test_whitespace_positions(self, text, offset):
        with pytest.raises(ParseError, match="unknown identifier 'w'") as exc:
            parse(text)
        assert exc.value.offset == offset


class TestParseGuards:
    """The checks that keep Python's parser to this language; each test
    fails when its check is taken out."""

    @pytest.mark.parametrize("text, offset", [
        ("x # w", 2), ("x\\\n+y", 1), ("x == y", 2), ("x + 'y'", 4),
        ("x[0]", 1), ("\u0663", 0), ("x*\uff13", 2),
    ])
    def test_illegal_characters_first(self, text, offset):
        with pytest.raises(ParseError, match="illegal character") as exc:
            parse(text)
        assert exc.value.offset == offset

    def test_whitespace_is_a_space(self):
        assert parse("x +\n\ty") == Bin("+", Var("x"), Var("y"))
        assert parse("x\u00a0*\u2003y") == Bin("*", Var("x"), Var("y"))

    def test_leading_whitespace(self):
        assert parse(" \n x") == Var("x")

    @pytest.mark.parametrize("text, value", [
        ("02", 2.0), ("007.5", 7.5), ("00", 0.0), ("100", 100.0),
        ("1.007", 1.007), ("1e-007", 1e-7), ("1E+005", 1e5), ("1e007", 1e7),
    ])
    def test_leading_zeros(self, text, value):
        assert parse(text) == Num(value)
        assert parse(f"x*{text}") == Bin("*", Var("x"), Num(value))

    @pytest.mark.parametrize("text", [
        "1_0", "0x1", "00x1", "0b1", "0o1", "1j", "01j", "True", "None", "...",
    ])
    def test_python_only_numbers(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("text", [
        "abs(x,)", "pow(x, y ,)", "abs((x),)", "(abs)(x)", "abs(x, **y)",
        "abs(*x)", "abs()", "abs(x)(y)", "2(3)", "x(1)",
    ])
    def test_calls(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("text, offset", [
        ("x**2", 0), ("1 + x//2", 4), ("+x", 0), ("x.real", 0), ("1..e", 0),
        ("x, y", 0), ("(x, y)", 0), ("()", 0), ("x if y else z", 0),
        ("not x", 0), ("x and y", 0), ("x in y", 0), ("await x", 0),
        ("abs(x for x in y)", 3),
    ])
    def test_other_python_syntax(self, text, offset):
        with pytest.raises(ParseError, match="unsupported syntax") as exc:
            parse(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("text", ["5x", "1if x else 2", "0x1for x in y"])
    def test_no_syntax_warning(self, text, capfd):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError):
                parse(text)
        assert caught == []
        assert capfd.readouterr().err == ""

    def test_nesting_to_python_limit(self):
        assert parse("(" * 200 + "x" + ")" * 200) == Var("x")
        tree = parse("abs(" * 199 + "x" + ")" * 199)
        assert free_vars(tree) == {"x"}

    @pytest.mark.parametrize("text", [
        "(" * 201 + "x" + ")" * 201,
        "abs(" * 201 + "x" + ")" * 201,
        "+".join(["x"] * 5000),
        "-" * 5000 + "x",
    ], ids=["parens-201", "calls-201", "sum-5000", "minus-5000"])
    def test_too_deep_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse(text)


class TestParse:
    def test_precedence(self):
        assert ev("1+2*3") == 7

    def test_left_associativity(self):
        assert ev("2-3-4") == -5
        assert ev("24/4/3") == 2

    def test_unary_minus_binds_tighter_than_mul(self):
        assert ev("-2*3") == -6
        assert ev("-pow(2,2)") == -4

    def test_parentheses(self):
        assert ev("(1+2)*3") == 9

    def test_generator_body_parses(self):
        e = parse("-2.5*pow(abs(z),0.8)")
        assert free_vars(e) == {"z"}

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse("pow(z)")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("sin(z)")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse("w+1")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1+2 3")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(1+2")


class TestEvaluate:
    def test_generator_at_one(self):
        assert ev("-2.5*pow(abs(z),0.8)", z=1) == -2.5

    def test_generator_at_zero(self):
        assert ev("-2.5*pow(abs(z),0.8)", z=0) == 0

    def test_min_max_identity(self):
        assert ev("min(x,y)+max(x,y)", x=2, y=5) == 7

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/x", x=0)

    def test_sqrt_negative(self):
        with pytest.raises(EvalError):
            ev("sqrt(x)", x=-1)

    def test_pow_negative_base_fractional(self):
        with pytest.raises(EvalError):
            ev("pow(x,0.5)", x=-4)

    def test_pow_negative_base_integer_ok(self):
        assert ev("pow(x,2)", x=-3) == 9

    def test_error_names_node(self):
        with pytest.raises(EvalError, match=r"sqrt\(y\)"):
            ev("x+sqrt(y)", x=1, y=-1)

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            ev("x+y", x=1)

    def test_array_broadcast(self):
        z = np.array([-1.0, 0.0, 2.0])
        out = ev("abs(z)*2", z=z)
        assert np.array_equal(out, [2.0, 0.0, 4.0])

    def test_exp(self):
        assert ev("exp(x)", x=0) == 1.0



def _old_is_integral(v):
    """The integrality rule as first written, through np.asarray/np.all."""
    v = np.asarray(v)
    return bool(np.all(v == np.floor(v)))


class TestDomainChecks:
    """Each domain check raises the same EvalError for scalar and array input."""

    CASES = [
        ("1/x", 0.0, "division by zero in '1.0/x'"),
        ("sqrt(x)", -1.0, "sqrt of negative value in 'sqrt(x)'"),
        ("pow(x,0.5)", -4.0, "pow of negative base with fractional exponent in 'pow(x, 0.5)'"),
        ("pow(x,-1)", 0.0, "pow domain error in 'pow(x, -1.0)'"),
    ]

    @pytest.mark.parametrize("text, bad, message", CASES)
    def test_same_error_scalar_and_array(self, text, bad, message):
        for x in (bad, np.float64(bad), np.array(bad), np.array([2.0, bad]),
                  np.array([[bad], [3.0]])):
            with pytest.raises(EvalError) as exc:
                ev(text, x=x)
            assert str(exc.value) == message

    @pytest.mark.parametrize("text, bad, message", CASES)
    def test_good_values_pass(self, text, bad, message):
        xs = np.array([0.5, 2.0, 4.0])
        out = ev(text, x=xs)
        assert np.array_equal(out, [ev(text, x=float(v)) for v in xs])

    @pytest.mark.parametrize("expo", [np.inf, -np.inf, np.nan, -0.0, 0.0, 2.0, 0.5])
    def test_pow_exponent_rule(self, expo):
        # a negative base is an error exactly when the old rule calls the
        # exponent fractional: inf counts as integral, NaN does not
        for y in (expo, np.array([expo, expo])):
            if _old_is_integral(y):
                with np.errstate(all="ignore"):
                    want = np.power(-4.0, y)
                assert np.array_equal(ev("pow(x,y)", x=-4.0, y=y), want, equal_nan=True)
            else:
                with pytest.raises(EvalError, match="fractional exponent"):
                    ev("pow(x,y)", x=-4.0, y=y)

    @pytest.mark.parametrize("v", [
        0.5, 2.0, -0.0, 0.0, np.inf, -np.inf, np.nan, 7, np.float64(3.0),
        np.float64(-2.5), np.array(3.0), np.array([]), np.array([1.0, 2.0]),
        np.array([1.0, 2.5]), np.array([np.inf, -0.0]), np.array([np.nan, 1.0]),
    ])
    def test_is_integral_matches_old_rule(self, v):
        assert _is_integral(v) is _old_is_integral(v)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_is_integral_matches_old_rule_on_floats(self, v):
        assert _is_integral(v) is _old_is_integral(v)
        assert _is_integral(np.array([v, 1.0])) is _old_is_integral(np.array([v, 1.0]))

class TestSubstitute:
    def test_zero_out_y_z(self):
        e = parse("y+2*z+x")
        s = substitute(e, {"y": Num(0.0), "z": Num(0.0)})
        assert evaluate(s, {"x": 5.0}) == 5.0
        assert free_vars(s) == {"x"}

    def test_nested_call(self):
        e = parse("pow(abs(z),0.8)")
        s = substitute(e, {"z": Var("x")})
        assert free_vars(s) == {"x"}


# recursive tree strategy; literals are nonnegative since the parser only
# produces negative constants through the unary-minus node
_num = st.floats(min_value=0, max_value=1e6, allow_nan=False).map(Num)
_var = st.sampled_from(["t", "x", "y", "z"]).map(Var)


def _trees():
    return st.recursive(
        _num | _var,
        lambda inner: st.one_of(
            inner.map(Neg),
            st.tuples(st.sampled_from("+-*/"), inner, inner).map(
                lambda p: Bin(p[0], p[1], p[2])
            ),
            st.tuples(st.sampled_from(["abs", "sqrt", "exp"]), inner).map(
                lambda p: Call(p[0], (p[1],))
            ),
            st.tuples(st.sampled_from(["pow", "min", "max"]), inner, inner).map(
                lambda p: Call(p[0], (p[1], p[2]))
            ),
        ),
        max_leaves=25,
    )


@settings(max_examples=200, deadline=None)
@given(_trees())
def test_roundtrip_structural(tree):
    assert parse(to_str(tree)) == tree


_EXPRESSION_KEYS = {"Phi", "b", "h", "sigma", "body", "reference"}


def _expressions(raw):
    """Every expression string of a raw config, wherever it sits."""
    if isinstance(raw, dict):
        for key, value in raw.items():
            if key in _EXPRESSION_KEYS and isinstance(value, str):
                yield value
            else:
                yield from _expressions(value)


def _readme_config():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(path) as fh:
        text = fh.read()
    block = text.split("Example config:", 1)[1].split("```json", 1)[1]
    return json.loads(block.split("```", 1)[0])


def _corpus():
    from test_bench_contract import _load_bench

    workloads = _load_bench("workloads")
    raws = [raw for make in workloads.WORKLOADS.values()
            for smoke in (False, True) for raw in make(1, smoke=smoke).configs.values()]
    return sorted({e for raw in raws + [_readme_config()] for e in _expressions(raw)})


def test_config_expressions_parse_and_round_trip():
    corpus = _corpus()
    assert {"x*x", "-2.5*pow(abs(z),0.8)", "-0.5*abs(z)"} <= set(corpus)
    for text in corpus:
        tree = parse(text)
        assert parse(to_str(tree)) == tree, text
