import math
import operator
import random

import numpy as np
import pytest
import sympy

from cmcsurf.builders import RotationType
from cmcsurf.errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from cmcsurf.generator import CmcParams, domain_validity
from cmcsurf import profiles
from cmcsurf.geometry import GRID_MATH, collect_faults
from cmcsurf.profiles import (
    BinOp,
    Const,
    Func,
    Jet2,
    Neg,
    Num,
    ProfileFunction,
    Var,
    eval_jet,
    parse,
    to_text,
)

from dsl_random import random_expression, run_randomized_cases


# --- parsing ------------------------------------------------------------------

def test_parse_sqrt_profile_tree():
    expr = parse("sqrt(-u^2+2*u)")
    expected = Func("sqrt", BinOp("+", Neg(BinOp("^", Var(), Num(2.0))),
                                  BinOp("*", Num(2.0), Var())))
    assert expr == expected


def test_parse_rejects_double_star():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2**u")
    assert err.value.offset == 1


def test_parse_bound_constant():
    expr = parse("cosh(u)+a", constants=("a",))
    assert expr == BinOp("+", Func("cosh", Var()), Const("a"))


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("cosh(u)+bogus")
    assert err.value.name == "bogus"
    assert err.value.offset == 8


def test_parse_precedence_and_associativity():
    assert parse("1+2*3") == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))
    assert parse("-u^2") == Neg(BinOp("^", Var(), Num(2.0)))
    assert parse("u-1-2") == BinOp("-", BinOp("-", Var(), Num(1.0)), Num(2.0))
    assert parse("u^2^3") == BinOp("^", BinOp("^", Var(), Num(2.0)), Num(3.0))
    assert parse("2*u/3") == BinOp("/", BinOp("*", Num(2.0), Var()), Num(3.0))


#: An exponent that reads u, and the offset of its caret.
VARIABLE_EXPONENTS = [("2^u", 1), ("u^(u+1)", 1), ("2^-u", 1), ("2^sin(u)", 1), ("u^2^u", 3),
                      ("2^(a*u)", 1), ("sin(2^--u)", 5), ("1+(u^a)^(2-u)", 7)]


def test_parse_rejects_variable_exponent():
    for text, caret in VARIABLE_EXPONENTS:
        with pytest.raises(ExprSyntaxError, match="exponent must not depend on u") as err:
            parse(text, constants=("a",))
        assert err.value.offset == caret, text
    # constant exponents are fine, including bound names and a u outside them
    assert parse("u^(a+1)", constants=("a",)) == BinOp(
        "^", Var(), BinOp("+", Const("a"), Num(1.0)))
    assert parse("(2^a)*u^-2", constants=("a",)) == BinOp(
        "*", BinOp("^", Num(2.0), Const("a")), BinOp("^", Var(), Neg(Num(2.0))))


def test_parse_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1+*2")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse("sin u")  # function requires parentheses
    with pytest.raises(ExprSyntaxError):
        parse("(1+2")
    with pytest.raises(ExprSyntaxError):
        parse("1 $ 2")


def test_print_reparse_idempotent_random():
    rng = random.Random(7)
    for _ in range(300):
        tree = parse(random_expression(rng))
        printed = to_text(tree)
        assert parse(printed) == tree, printed


def test_print_reparse_handles_exponent_minus():
    for text in ("u^-2", "(-u)^2", "-(u+1)", "1-(2-3)", "2/(u*3)", "u^2^3"):
        tree = parse(text)
        assert parse(to_text(tree)) == tree


# --- jets ---------------------------------------------------------------------

def test_eval_examples():
    assert eval_jet(parse("u^2"), 3.0) == Jet2(9.0, 6.0, 2.0)
    assert eval_jet(parse("cosh(u)"), 0.0) == Jet2(1.0, 0.0, 1.0)
    jet = eval_jet(parse("sqrt(-u^2+2*u)"), 1.0)
    assert jet.val == pytest.approx(1.0, abs=1e-15)
    assert jet.d1 == pytest.approx(0.0, abs=1e-15)
    assert jet.d2 == pytest.approx(-1.0, abs=1e-15)


def test_eval_with_constants():
    expr = parse("a*u^2+b", constants=("a", "b"))
    assert eval_jet(expr, 2.0, {"a": 3.0, "b": -1.0}) == Jet2(11.0, 12.0, 6.0)
    with pytest.raises(UnknownIdentifierError):
        eval_jet(expr, 2.0, {"a": 3.0})


def test_builtin_pi():
    assert eval_jet(parse("cos(pi)"), 0.0).val == pytest.approx(-1.0)


@pytest.mark.parametrize("text,bad_u", [
    ("sqrt(u)", -1.0),
    ("sqrt(u)", 0.0),
    ("ln(u)", 0.0),
    ("1/u", 0.0),
    ("abs(u)", 0.0),
    ("u^0.5", -2.0),
    ("exp(u)", 1000.0),
    ("u^-400", 0.1),  # pow overflows
    ("sqrt(u)", 1e-300),  # sqrt(u) * u, a divisor of the jet, underflows to 0
])
def test_domain_errors_carry_u(text, bad_u):
    with pytest.raises(EvalDomainError) as err:
        eval_jet(parse(text), bad_u)
    assert err.value.u == bad_u
    # at a column, the first offending u raises the float call's error
    with pytest.raises(EvalDomainError) as first:
        eval_jet(parse(text), np.array([1.0, bad_u, -bad_u]))
    assert (str(first.value), first.value.u) == (str(err.value), bad_u)


def test_failing_subexpression_free_of_u_fails_every_entry():
    prof = ProfileFunction(parse("u+sqrt(-1)"))
    column = np.array([0.25, 0.5, 0.75])
    with pytest.raises(EvalDomainError) as floating:
        prof.jet(0.25)
    with pytest.raises(EvalDomainError) as err:
        prof.jet(column)
    assert (str(err.value), err.value.u) == (str(floating.value), 0.25)
    with collect_faults() as faults:
        prof.jet(column)
    assert [mask.tolist() for mask in faults] == [[True, True, True]]
    assert domain_validity(prof, CmcParams(C=0.5), (0.0, 1.0), RotationType.ELLIPTIC) == []


def test_libm_errors_at_a_column_are_the_float_call_or_a_mask():
    column = np.array([1.0, -1.0, 0.0])
    with pytest.raises(ValueError) as floating:
        math.log(-1.0)
    with pytest.raises(ValueError) as err:
        GRID_MATH.log(column)
    assert str(err.value) == str(floating.value)
    with collect_faults() as faults:
        GRID_MATH.log(column)
    assert [mask.tolist() for mask in faults] == [[False, True, True]]


@pytest.mark.parametrize("text, message", [
    ("ln(0)+u", "ln of a non-positive value"),
    ("u*(1/0)", "jet division by zero"),
    ("sqrt(-1)*u", "sqrt of a non-positive value"),
    ("u+0^-1", "zero base with exponent below 2"),
])
def test_a_failing_constant_subexpression_fails_at_the_evaluated_u(text, message):
    # a constant folded when the profile is built would raise there, without a u
    with pytest.raises(EvalDomainError) as err:
        ProfileFunction.from_text(text, (0.0, 1.0))
    assert str(err.value) == f"{message} at u=0.029411764705882353"
    assert err.value.u == 0.029411764705882353
    with collect_faults() as faults:
        ProfileFunction(parse(text)).jet(np.linspace(0.0, 1.0, 9))
    assert np.logical_or.reduce(faults).tolist() == [True] * 9


def test_an_unknown_constant_fails_when_a_jet_is_evaluated():
    prof = ProfileFunction(parse("a*u", constants=("a",)))
    with pytest.raises(UnknownIdentifierError):
        prof.jet(0.5)
    with pytest.raises(UnknownIdentifierError):
        prof.jet(np.array([0.5]))


def test_a_profile_is_compiled_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return compile_jet(*args)

    compile_jet = profiles.compile_jet
    monkeypatch.setattr(profiles, "compile_jet", counted)
    prof = ProfileFunction.from_text("sqrt(-u^2+2*a*u+b)", (0.2, 1.8), {"a": 1.0, "b": 0.0})
    us = np.linspace(0.2, 1.8, 1000)
    floats = [prof.jet(u) for u in us.tolist()]
    column = prof.jet(us)
    assert len(calls) == 1
    assert np.array(column).T.tolist() == [list(jet) for jet in floats]


def test_a_number_on_the_left_of_a_jet_is_a_type_error():
    jet = Jet2(1.0, 2.0, 3.0)
    for number in (2, 2.0):
        with pytest.raises(TypeError, match="'Jet2'"):
            number * jet
    assert jet * Jet2(2.0) == Jet2(2.0, 4.0, 6.0)


@pytest.mark.parametrize("op, fn, by_jet", [
    ("+", operator.add, Jet2(3.0, 3.0, 3.0)), ("-", operator.sub, Jet2(-1.0, 1.0, 3.0)),
    ("*", operator.mul, Jet2(2.0, 5.0, 10.0)), ("/", operator.truediv, Jet2(0.5, 0.75, 0.75)),
])
def test_a_number_on_the_right_of_a_jet_is_a_type_error(op, fn, by_jet):
    jet = Jet2(1.0, 2.0, 3.0)
    for number in (2, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError, match=rf"for \{op}: 'Jet2' and '{type(number).__name__}'"):
            fn(jet, number)
    assert fn(jet, Jet2(2.0, 1.0)) == by_jet


def test_equal_profiles_hash_equally_constants_included():
    def profile(a):
        return ProfileFunction.from_text("a*u", (0.0, 1.0), {"a": a})

    assert profile(1.0) == profile(1.0)
    assert hash(profile(1.0)) == hash(profile(1.0))
    assert profile(1.0) != profile(2.0)
    assert len({profile(1.0), profile(1.0), profile(2.0)}) == 2


def test_abs_away_from_zero():
    assert eval_jet(parse("abs(u)"), -2.0) == Jet2(2.0, -1.0, 0.0)
    assert eval_jet(parse("abs(u)"), 2.0) == Jet2(2.0, 1.0, 0.0)


def test_integer_power_negative_base():
    assert eval_jet(parse("u^3"), -2.0) == Jet2(-8.0, 12.0, -12.0)
    assert eval_jet(parse("u^-1"), 2.0) == Jet2(0.5, -0.25, 0.25)


def test_jets_match_sympy():
    u = sympy.Symbol("u")
    cases = [
        ("sin(u)*cosh(2*u)", sympy.sin(u) * sympy.cosh(2 * u)),
        ("exp(u)/(1+u^2)", sympy.exp(u) / (1 + u**2)),
        ("sqrt(1+u^2)*ln(2+u)", sympy.sqrt(1 + u**2) * sympy.log(2 + u)),
        ("(u^3-2*u+1)/(u+3)", (u**3 - 2 * u + 1) / (u + 3)),
        ("cos(sinh(u))", sympy.cos(sympy.sinh(u))),
        ("u^0.5+u^-2", u**sympy.Rational(1, 2) + u**-2),
    ]
    points = [0.4, 1.1, 1.9]
    for text, sym in cases:
        expr = parse(text)
        d1_sym = sympy.diff(sym, u)
        d2_sym = sympy.diff(sym, u, 2)
        for point in points:
            jet = eval_jet(expr, point)
            val = float(sym.subs(u, point))
            d1 = float(d1_sym.subs(u, point))
            d2 = float(d2_sym.subs(u, point))
            assert jet.val == pytest.approx(val, rel=1e-12, abs=1e-12)
            assert jet.d1 == pytest.approx(d1, rel=1e-12, abs=1e-12)
            assert jet.d2 == pytest.approx(d2, rel=1e-11, abs=1e-11)


def test_central_difference_agreement_sample():
    cases, worst1, worst2 = run_randomized_cases(200, seed=11)
    assert cases == 200
    assert worst1 <= 1e-6 and worst2 <= 1e-6


# --- ProfileFunction ----------------------------------------------------------

def test_profile_function_spot_checks():
    prof = ProfileFunction.from_text("sqrt(-u^2+2*u)", (0.2, 1.8))
    assert prof.jet(1.0).val == pytest.approx(1.0)
    with pytest.raises(EvalDomainError):
        ProfileFunction.from_text("sqrt(-u^2+2*u)", (1.5, 2.5))


def test_profile_function_consts_sweep():
    prof = ProfileFunction.from_text("a*u", (0.5, 1.5), {"a": 2.0})
    assert prof.jet(1.0).val == 2.0
    assert eval_jet(prof.expr, 1.0, {"a": 5.0}).val == 5.0
