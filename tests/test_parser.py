from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from russell.parse import ParseError, parse
from russell.poly import Context
from russell.quotient import CTX_XYZT
from russell.sampling import random_poly

import random

LCTX = Context(("x", "z", "t", "lam"), laurent=frozenset({"x", "lam"}))


def p(text, ctx=CTX_XYZT):
    return parse(text, ctx)


def test_atoms():
    assert p("0").is_zero
    assert p("42") == 42
    assert p("5/3") == Fraction(5, 3)
    assert p("x") == CTX_XYZT.var("x")


def test_precedence_and_associativity():
    assert p("1 - 2 - 3") == -4
    assert p("2*x + 3*y") == 2 * CTX_XYZT.var("x") + 3 * CTX_XYZT.var("y")
    assert p("x + y*z^2") == CTX_XYZT.var("x") + CTX_XYZT.var("y") * CTX_XYZT.var("z") ** 2
    assert p("-x^2") == -(CTX_XYZT.var("x") ** 2)
    assert p("(x + y)^2") == (CTX_XYZT.var("x") + CTX_XYZT.var("y")) ** 2


def test_unary_minus_nests():
    assert p("--x") == CTX_XYZT.var("x")
    assert p("2 - -3") == 5


def test_running_sum_cancels_and_keeps_signs():
    x, y, z = (CTX_XYZT.var(n) for n in "xyz")
    assert p("x - x + y") == y
    assert p("x - x + y").terms == {(0, 1, 0, 0): Fraction(1)}
    assert p("x - x").terms == {}
    assert p("-x + y") == y - x
    assert p("-x - y + 2*x") == x - y
    assert p("x - (y - z)") == x - y + z
    assert p("x - (y - z) - (x + z)") == -y
    assert p("1/2*x + 1/3*x - 5/6*x + 7") == 7


def test_laurent_exponents():
    assert p("x^-2", LCTX) == LCTX.var("x", -2)
    assert p("3/2*lam^-1*x", LCTX) == Fraction(3, 2) * LCTX.var("lam", -1) * LCTX.var("x")


def test_variable_power_is_a_monomial():
    x = CTX_XYZT.var("x")
    assert p("x^0") == 1
    assert p("x^0").terms == {(0, 0, 0, 0): Fraction(1)}
    assert p("x^7") == x**7
    assert p("x^7").terms == {(7, 0, 0, 0): Fraction(1)}
    assert p("2*x^5*y^4*z*t^3") == 2 * x**5 * CTX_XYZT.var("y") ** 4 * CTX_XYZT.var("z") \
        * CTX_XYZT.var("t") ** 3
    assert p("(x+1)^2") == x**2 + 2 * x + 1
    tctx = Context(("x", "tau"), laurent=frozenset({"tau"}))
    assert p("tau^-3", tctx) == tctx.var("tau", -3)
    assert p("tau^-3", tctx).terms == {(0, -3): Fraction(1)}


def test_negative_exponent_rejected_without_laurent():
    with pytest.raises(ParseError) as info:
        p("y^-1")
    assert "Laurent" in info.value.message


@pytest.mark.parametrize("text,message,position", [
    ("y^-1", "negative exponent on non-Laurent variable 'y'", 3),
    ("(x)^-1", "negative exponent is only allowed on a Laurent variable", 5),
    ("2^-1", "negative exponent is only allowed on a Laurent variable", 3),
    ("(x+1)^-2", "negative exponent is only allowed on a Laurent variable", 7),
    ("x^-", "expected an integer exponent", 3),
])
def test_negative_exponent_errors_name_the_base(text, message, position):
    # x is Laurent in LCTX, but only a bare variable may carry a negative exponent
    ctx = CTX_XYZT if text.startswith("y") else LCTX
    with pytest.raises(ParseError) as info:
        p(text, ctx)
    assert (info.value.message, info.value.position) == (message, position)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        p("2x")
    with pytest.raises(ParseError):
        p("x y")


def test_no_exponent_chains():
    with pytest.raises(ParseError):
        p("x^2^3")


def test_rational_exponent_rejected():
    with pytest.raises(ParseError):
        p("x^(1/2)")


def test_zero_denominator():
    with pytest.raises(ParseError):
        p("1/0")


def test_unknown_variable():
    with pytest.raises(ParseError) as info:
        p("x + q")
    assert info.value.position == 4


def test_error_positions():
    with pytest.raises(ParseError) as info:
        p("x + ")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        p("(x + y")
    assert info.value.position == 6
    with pytest.raises(ParseError) as info:
        p("x ^")
    assert info.value.position == 3


def test_trailing_garbage():
    with pytest.raises(ParseError):
        p("x + y)")


def test_golden_roundtrip():
    text = "-1*x + -1*z^3 + -1*t^2"
    f = p(text)
    assert str(f) == text


@pytest.mark.parametrize("seed", range(25))
def test_print_parse_roundtrip_seeded(seed):
    rng = random.Random(seed)
    ctx = CTX_XYZT if seed % 2 == 0 else LCTX
    f = random_poly(ctx, rng)
    assert parse(str(f), ctx) == f


@given(st.text(alphabet="xyzt^*+-/() 0123456789", max_size=40))
@settings(max_examples=300, derandomize=True)
def test_parser_totality(text):
    # any input either parses or raises a positioned ParseError
    try:
        parse(text, CTX_XYZT)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
