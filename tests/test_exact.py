"""Kernel tests: rational parsing and formatting, quadratic forms."""

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triopoly.exact import (
    QuadraticForm,
    as_rational,
    decimal_string,
    format_rational,
    rational_vector,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)
small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)


# --- canonical form and parsing ---------------------------------------------


def test_construction_is_canonical():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(3, -6)) == "-1/2"
    assert format_rational(Fraction(0, 7)) == "0/1"


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


def test_parse_accepted_forms():
    assert as_rational("114/35") == Fraction(114, 35)
    assert as_rational("-1/2") == Fraction(-1, 2)
    assert as_rational("3") == Fraction(3)
    assert as_rational("2.5") == Fraction(5, 2)
    assert as_rational("0.1") == Fraction(1, 10)
    assert as_rational(" 1/3 ") == Fraction(1, 3)
    assert as_rational(7) == Fraction(7)
    assert as_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_parse_rejects_garbage_and_floats():
    with pytest.raises(ValueError):
        as_rational("abc")
    with pytest.raises(ValueError):
        as_rational("1/0")
    with pytest.raises(TypeError):
        as_rational(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_parse_rejects_bools(value):
    # bool is an int, but True is no rational 1.
    with pytest.raises(TypeError, match="cannot convert bool"):
        as_rational(value)


@given(rationals)
def test_format_parse_round_trip(value):
    assert as_rational(format_rational(value)) == value


def test_decimal_string_12_digits():
    assert decimal_string(Fraction(114, 35)) == "3.25714285714"
    assert decimal_string(Fraction(1, 2)) == "0.5"


def test_rational_vector_length_check():
    with pytest.raises(ValueError):
        rational_vector((1, 2), dim=3)


# --- quadratic forms ----------------------------------------------------------


@st.composite
def quadratic_forms(draw, dim=3, values=small_rationals):
    sym = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = draw(values)
            sym[i][j] = sym[j][i] = value
    lin = tuple(draw(values) for _ in range(dim))
    const = draw(values)
    return QuadraticForm(tuple(tuple(row) for row in sym), lin, const)


@given(quadratic_forms(values=wide_rationals), st.integers(1, 10**6))
def test_form_from_integers_equals_form_from_fractions(form, scale):
    # The same values over any common positive denominator give the same form.
    values = [*(v for row in form.quad for v in row), *form.lin, form.const]
    den = lcm(*(v.denominator for v in values)) * scale
    rows = [[int(v * den) for v in row] for row in form.quad]
    same = QuadraticForm.from_numerators(rows, [int(v * den) for v in form.lin],
                                         int(form.const * den), den)
    assert same == form
    assert hash(same) == hash(form)
    assert repr(same) == repr(form)


def test_dimension_mismatch_rejected():
    message = "quadratic matrix must be 3x3 to match the linear part"
    with pytest.raises(ValueError, match=message):
        QuadraticForm(((0, 0), (0, 0)), (0, 0, 0), 0)
    with pytest.raises(ValueError, match=message):
        QuadraticForm.from_numerators(((0, 0, 0),) * 2, (0, 0, 0), 0, 1)
    with pytest.raises(ValueError, match=message):
        QuadraticForm.from_numerators(((0, 0, 0), (0, 0, 0), (0, 0)), (0, 0, 0), 0, 1)


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValueError):
        QuadraticForm(((0, 1, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), 0)
    with pytest.raises(ValueError):
        QuadraticForm(((0, 1), (1, 0)), (0, 0, 0), 0)
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm.from_numerators(((0, 1), (2, 0)), (0, 0), 0, 3)


@pytest.mark.parametrize("quad, lin, const, den, bad", [
    (((1, 0), (0, True)), (0, 0), 0, 1, "True"),
    (((1, 0), (0, 1)), (0, 0), 0, True, "True"),
    (((1, 0), (0, 1)), (0, 2.0), 0, 1, "2.0"),
    (((1, 0), (0, 1)), (0, 0), 0, 2.5, "2.5"),
    (((1, 0), (0, 1)), (0, 0), Fraction(3), 1, "Fraction(3, 1)"),
    (((1, 0), (0, 1)), (0, 0), 0, Fraction(2), "Fraction(2, 1)"),
], ids=["bool_entry", "bool_den", "float_entry", "float_den", "fraction_const",
        "fraction_den"])
def test_from_numerators_takes_only_ints(quad, lin, const, den, bad):
    # A bool, float or Fraction is no int here, even where it equals one.
    with pytest.raises(ValueError, match=f"must be ints, got {re.escape(bad)}$"):
        QuadraticForm.from_numerators(quad, lin, const, den)
