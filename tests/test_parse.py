"""Parser grammar, round trips, and byte offset error reporting."""

import random
import tracemalloc

import pytest

from geolin.kernel import Expr, ParseError, exp, parse, rational, var
from geolin.kernel.parse import _Parser
from helpers import from_digits, random_expr

x = var("x")
y = var("y")


def test_precedence():
    assert parse("1 + 2*3") == 7
    assert parse("2*3^2") == 18
    assert parse("-x^2") == -(x**2)
    assert parse("(-x)^2") == x**2
    assert parse("x^2^3") == x**8
    assert parse("2 - 3 - 4") == -5
    assert parse("12/3/2") == 2
    assert parse("x^-2") == x**-2
    assert parse("x^(-2)") == x**-2


def test_numbers_exact():
    assert parse("1.25") == rational(5, 4)
    assert parse("0.5*x") == x / 2
    assert parse(".5") == rational(1, 2)
    assert parse("007") == 7


def test_kernels_parse():
    assert parse("exp(x + y)") == exp(x + y)
    assert parse("exp(x)*exp(-x)") == 1
    assert parse("sqrt(9/4)") == rational(3, 2)


def test_whitespace_tolerated():
    assert parse("  x  +\t y \n") == x + y


def test_error_offsets():
    with pytest.raises(ParseError) as e:
        parse("x + ")
    assert e.value.offset == 4
    with pytest.raises(ParseError) as e:
        parse("x + @y")
    assert e.value.offset == 4
    with pytest.raises(ParseError) as e:
        parse("foo(x)")
    assert e.value.offset == 0
    with pytest.raises(ParseError) as e:
        parse("x + sinh(x)")
    assert e.value.offset == 4
    with pytest.raises(ParseError) as e:
        parse("(x + y")
    assert e.value.offset == 6
    with pytest.raises(ParseError) as e:
        parse("x y")
    assert e.value.offset == 2
    with pytest.raises(ParseError) as e:
        parse("x^y")
    assert e.value.offset == 2
    with pytest.raises(ParseError) as e:
        parse("1/0")
    assert e.value.offset == 1
    with pytest.raises(ParseError) as e:
        parse("x^1.5")
    assert e.value.offset == 3
    for text, offset in (("0^-1", 1), ("x^2^-1", 3), (".", 0)):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert e.value.offset == offset, text


def test_non_string_input_is_type_error():
    with pytest.raises(TypeError):
        parse(5)


def test_exponent_tower_refused_before_it_is_computed():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            _Parser("10^(10^6)").parse_exponent()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 10^(10^6) alone would be an int of over 400 kB
    assert peak < 100_000
    with pytest.raises(ParseError) as e:
        parse("x^(10^(10^6))")
    assert "exponent tower" in str(e.value)
    assert e.value.offset == 5
    with pytest.raises(ParseError):
        parse("x^(2^9^9^9)")
    with pytest.raises(ParseError):
        parse("x^2^65")
    with pytest.raises(ParseError):
        parse("x^3^" + "9" * 400)
    assert parse("x^2^64") == x ** (2 ** 64)
    assert parse("x^1^(10^10)") == x
    assert parse("x^(-2)^3") == x ** -8


def test_plain_exponent_past_the_bound_is_refused():
    # int() refused 5000 digits with a ValueError that named no offset
    for text, offset in (("x^" + "7" * 5000, 2), ("x^18446744073709551617", 2),
                         ("x^-" + "9" * 21, 3), ("(x+1)^(2^3)^" + "1" * 30, 12)):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert "exponent exceeds 2^64" in str(e.value)
        assert e.value.offset == offset
    assert parse("x^18446744073709551616") == x ** (2 ** 64)
    assert parse("x^000000000000000000000000002") == x ** 2


def test_huge_literal_power_refused_before_it_is_built(monkeypatch):
    built = []
    real_pow = Expr.__pow__
    monkeypatch.setattr(Expr, "__pow__", lambda b, n: built.append(n) or real_pow(b, n))
    # (x+y+z+1)^40 would have 12341 terms
    with pytest.raises(ParseError) as e:
        parse("(x+y+z+1)^40")
    assert "terms" in str(e.value)
    assert e.value.offset == 9
    with pytest.raises(ParseError):
        parse("1/(x+1)^(-2000)")
    with pytest.raises(ParseError) as e:
        parse("(2*x)^(2^64)")
    assert "bit" in str(e.value)
    with pytest.raises(ParseError):
        parse("(1/3)^100000")
    with pytest.raises(ParseError):
        parse("2^8193")
    assert built == []
    # 2^8192 still prints: 2467 digits, under Python's 4300-digit limit
    assert len(str(parse("2^8192"))) == 2467
    assert len(parse("(x+y+z+1)^16").num) == 969
    assert parse("x^2^64 * 2^1000") == x ** (2 ** 64) * 2 ** 1000


def test_huge_parsed_product_refused_before_it_is_built(monkeypatch):
    seen = []
    real_mul, real_div = Expr.__mul__, Expr.__truediv__
    monkeypatch.setattr(Expr, "__mul__",
                        lambda a, b: seen.append(len(a.num) * len(b.num)) or real_mul(a, b))
    monkeypatch.setattr(Expr, "__truediv__",
                        lambda a, b: seen.append(len(a.num) * len(b.den)) or real_div(a, b))
    # each factor (x+y+z+1)^16 has 969 terms; the product would have 12341
    with pytest.raises(ParseError) as e:
        parse("(x+y+z+1)^16*(x+y+z+1)^16*(x+y+z+1)^8")
    assert "terms" in str(e.value)
    assert e.value.offset == 12
    with pytest.raises(ParseError):
        parse("(x+y+z+1)^16/(x+y+z+1)^(-16)")
    with pytest.raises(ParseError):
        parse("1/(x+y+z+1)^16/(x+y+z+1)^16")
    assert max(seen, default=0) <= 10_000
    assert len(parse("(x+y+z+1)^5*(x+y+z+1)^5").num) == 286


def test_huge_parsed_sum_refused_before_it_is_built():
    # each + over unequal denominators multiplies them: the 24th summand
    # 1/(x+y+z+i) would multiply a 2600-term denominator by a 4-term one,
    # and 29 summands once built a 4495/4960-term fraction in about 2 s
    sums = ["+".join(f"1/(x+y+z+{i})" for i in range(1, n + 1)) for n in (19, 28)]
    with pytest.raises(ParseError) as e:
        parse(sums[1])
    assert "sum" in str(e.value)
    assert e.value.offset == 289
    small = parse(sums[0])
    assert (len(small.num), len(small.den)) == (1330, 1540)
    # equal denominators only add their numerators
    assert parse("x/(y+1) + 1/(y+1)") == (x + 1) / (y + 1)


def test_digit_strings_past_the_int_limit_parse():
    e = parse("2^8000*2^8000*x")
    assert parse(str(e)) == e
    sevens = "7" * 5000
    assert parse(f"{sevens}*y") == from_digits(sevens) * y
    assert parse(f"0.{sevens}") == rational(from_digits(sevens), 10 ** 5000)


def test_runs_of_signs_are_read_in_a_loop():
    # each sign was one recursive call, so 1000 of them overflowed the stack
    assert parse("-" * 1000 + "x") == x
    assert parse("-" * 999 + "x") == -x
    assert parse("- + -x") == x
    assert parse("2*-x") == -2 * x
    assert parse("--x^2") == x ** 2
    assert parse("x^--2") == x ** 2


def test_missing_exponent_is_refused():
    # the exponent's sign loop once spun forever at the end of the input
    for text, offset in (("x^", 2), ("x^-", 3), ("x^+ -", 5)):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert "expected an integer exponent" in str(e.value)
        assert e.value.offset == offset


def test_nesting_past_the_bound_is_refused():
    # 200 parentheses or 400 exp( once ended in a RecursionError
    assert parse("(" * 100 + "x" + ")" * 100) == x
    assert parse("exp(" * 100 + "0" + ")" * 100) == parse("exp(" * 99 + "1" + ")" * 99)
    assert parse("x^" + "(" * 99 + "2" + ")" * 99) == x ** 2
    for text, offset in (
        ("(" * 200 + "x" + ")" * 200, 100),
        ("exp(" * 400 + "x" + ")" * 400, 400),
        ("x + " + "sin(" * 101 + "x" + ")" * 101, 404),
        ("x^" + "(" * 101 + "2" + ")" * 101, 102),
        ("x^" + "1^" * 1500 + "1", 203),
    ):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert "nesting exceeds 100 levels" in str(e.value)
        assert e.value.offset == offset


def test_long_literal_round_trips():
    # past int()'s 4300-digit limit, read in halves, printed back in full
    rng = random.Random(5)
    digits = "9" + "".join(rng.choice("0123456789") for _ in range(10 ** 5 - 1))
    e = parse(f"{digits}*x")
    assert e == from_digits(digits) * x
    assert parse(str(e)) == e
    assert str(parse(digits)) == digits


def test_literal_past_the_digit_bound_is_refused():
    with pytest.raises(ParseError) as err:
        parse("x + 0." + "1" * 10 ** 6)
    assert err.value.offset == 4
    assert "number literal exceeds 1000000 digits" in str(err.value)


def test_integers_past_the_str_limit_print():
    s = str(parse("2^8000*2^8000*x"))
    assert s.endswith("*x")
    digits = s[:-2]
    assert len(digits) == 4817 and from_digits(digits) == 2 ** 16000
    assert str(parse("2^8000*2^8000")) == digits
    assert str(parse("-x/2^8000/2^8000")) == f"-1/{digits}*x"


def test_empty_input():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")


def test_round_trip_seeded_corpus():
    rng = random.Random(42)
    for _ in range(150):
        e = random_expr(rng, depth=3, names=("x", "y", "z"))
        assert parse(str(e)) == e, str(e)


def test_round_trip_fixed_forms():
    forms = [
        "0",
        "-1",
        "x",
        "x^2 - y^2",
        "(x + y)/(x - y)",
        "exp(-x)",
        "1/2*sqrt(2)",
        "-x/(y^2)",
        "exp(x^2)*x + 1",
        "sqrt(x)/(x)",
        "3/2*x/(y)",
        "cos(x)^2*sin(x) - sin(x)",
        "ln(x + 2)",
        "1/(x^2 + 2*x*y + y^2)",
    ]
    for s in forms:
        e = parse(s)
        assert parse(str(e)) == e, s
