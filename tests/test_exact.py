"""Kernel tests: rational parsing and formatting, quadratic forms."""

import re
from fractions import Fraction
from math import lcm

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


def vectors(dim=3, values=small_rationals):
    return st.tuples(*([values] * dim))


# The Fraction formulas the integer form must reproduce.


def _reference_evaluate(form, point):
    v = rational_vector(point, form.dim)
    total = form.const
    for i in range(form.dim):
        total += form.lin[i] * v[i]
        row = form.quad[i]
        for j in range(form.dim):
            total += row[j] * v[i] * v[j]
    return total


def _reference_gradient(form, point):
    v = rational_vector(point, form.dim)
    return tuple(
        2 * sum(form.quad[i][j] * v[j] for j in range(form.dim)) + form.lin[i]
        for i in range(form.dim)
    )


def _reference_slice(form, keep, fixed):
    """(quad, lin, const) of the form restricted to ``keep`` with ``fixed`` pinned."""
    fixed_vals = {i: as_rational(v) for i, v in fixed.items()}
    m = len(keep)
    quad = tuple(tuple(form.quad[keep[r]][keep[s]] for s in range(m)) for r in range(m))
    lin = tuple(
        form.lin[keep[r]]
        + 2 * sum(form.quad[keep[r]][f] * val for f, val in fixed_vals.items())
        for r in range(m)
    )
    const = form.const
    for f, val in fixed_vals.items():
        const += form.lin[f] * val
    for f, vf in fixed_vals.items():
        for g, vg in fixed_vals.items():
            const += form.quad[f][g] * vf * vg
    return quad, lin, const


@st.composite
def _form_cases(draw):
    """A form of dimension 1-4 on wide denominators, a point, and a keep/fixed split."""
    dim = draw(st.integers(1, 4))
    form = draw(quadratic_forms(dim, wide_rationals))
    point = draw(vectors(dim, wide_rationals))
    order = draw(st.permutations(range(dim)))
    kept = draw(st.integers(0, dim))
    return form, point, tuple(order[:kept]), {f: point[f] for f in order[kept:]}


@given(_form_cases())
@settings(max_examples=300, deadline=None)
def test_integer_form_matches_fraction_reference(case):
    form, point, keep, fixed = case
    assert repr(form.evaluate(point)) == repr(_reference_evaluate(form, point))
    assert repr(form.gradient(point)) == repr(_reference_gradient(form, point))
    sliced = form.slice(keep, fixed)
    assert repr((sliced.quad, sliced.lin, sliced.const)) == \
        repr(_reference_slice(form, keep, fixed))


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
    form = QuadraticForm.from_numerators(((0, 0, 0),) * 3, (0, 0, 0), 0, 1)
    with pytest.raises(ValueError):
        form.evaluate((1, 2))
    with pytest.raises(ValueError):
        form.gradient((1, 2, 3, 4))


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValueError):
        QuadraticForm(((0, 1, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), 0)
    with pytest.raises(ValueError):
        QuadraticForm(((0, 1), (1, 0)), (0, 0, 0), 0)
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm.from_numerators(((0, 1), (2, 0)), (0, 0), 0, 3)


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
    form = QuadraticForm.from_numerators(((0, 0, 0),) * 3, (0, 0, 0), 0, 1)
    with pytest.raises(ValueError):
        form.slice((0, 1), {1: 0})
    with pytest.raises(ValueError):
        form.slice((0,), {1: 0})



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
