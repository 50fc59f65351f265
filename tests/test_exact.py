"""Kernel tests: rational parsing and formatting, quadratic forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
def quadratic_forms(draw, dim=3):
    sym = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = draw(small_rationals)
            sym[i][j] = sym[j][i] = value
    lin = tuple(draw(small_rationals) for _ in range(dim))
    const = draw(small_rationals)
    return QuadraticForm(tuple(tuple(row) for row in sym), lin, const)


def vectors(dim=3):
    return st.tuples(*([small_rationals] * dim))


def test_eval_single_term():
    form = QuadraticForm(((1, 0, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), 0)
    assert form.evaluate((3, 0, 0)) == 9
    assert form.gradient((3, 0, 0)) == (6, 0, 0)


@given(quadratic_forms())
def test_eval_at_zero_is_constant(form):
    zero = (0,) * form.dim
    assert form.evaluate(zero) == form.const
    assert form.gradient(zero) == form.lin


def test_dimension_mismatch_rejected():
    form = QuadraticForm.zero(3)
    with pytest.raises(ValueError):
        form.evaluate((1, 2))
    with pytest.raises(ValueError):
        form.gradient((1, 2, 3, 4))


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValueError):
        QuadraticForm(((0, 1, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), 0)
    with pytest.raises(ValueError):
        QuadraticForm(((0, 1), (1, 0)), (0, 0, 0), 0)


@given(quadratic_forms(), vectors(), small_rationals.filter(lambda v: v != 0))
@settings(max_examples=80, deadline=None)
def test_gradient_matches_central_difference_exactly(form, point, step):
    # Quadratics have zero third derivative, so central differences are exact
    # for any step size, not merely O(h^2).
    for i in range(form.dim):
        bumped_up = tuple(v + step if j == i else v for j, v in enumerate(point))
        bumped_down = tuple(v - step if j == i else v for j, v in enumerate(point))
        diff = (form.evaluate(bumped_up) - form.evaluate(bumped_down)) / (2 * step)
        assert diff == form.gradient(point)[i]


@given(quadratic_forms(), vectors())
@settings(max_examples=60, deadline=None)
def test_slice_agrees_with_full_evaluation(form, point):
    sliced = form.slice((0, 2), {1: point[1]})
    assert sliced.evaluate((point[0], point[2])) == form.evaluate(point)
    pinned_two = form.slice((1,), {0: point[0], 2: point[2]})
    assert pinned_two.evaluate((point[1],)) == form.evaluate(point)


def test_slice_requires_partition():
    form = QuadraticForm.zero(3)
    with pytest.raises(ValueError):
        form.slice((0, 1), {1: 0})
    with pytest.raises(ValueError):
        form.slice((0,), {1: 0})

