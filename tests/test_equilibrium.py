"""Equilibrium solver tests: payoff slices and slopes, FOC solve, oracles."""

import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triopoly.verify
from triopoly.equilibrium import (
    ClosedFormOutputs,
    ConcavityViolation,
    _adjugate,
    _operator,
    _operator_rows,
    _printed_output_table,
    best_response_iteration,
    closed_form_outputs,
    committed_values,
    direct_demand,
    direct_demand_numerators,
    own_payoff_slopes,
    payoff_slice,
    resolve_market,
    solve_equilibrium,
)
from triopoly.exact import SingularSystem
from triopoly.market import (
    ALL_ASSIGNMENTS,
    FIRMS,
    PATTERNS,
    PRICE,
    MarketState,
    ModelParams,
    ensure_float_safe,
    payoff_vector,
)
from triopoly.verify import (
    GridSpec,
    MinimaxSlice,
    _outer_derivative_bound,
    grid_minimax_pair,
    minimax_check,
    sample_model_params,
)

SPOT = ModelParams(10, "1/2", 2, 2, 3)

# Equilibrium outputs at SPOT, frozen after independent re-derivation.
SPOT_X = {
    1: (Fraction(114, 35), Fraction(114, 35), Fraction(94, 35)),
    2: (Fraction(114, 35), Fraction(114, 35), Fraction(94, 35)),
    3: (Fraction(1284, 385), Fraction(114, 35), Fraction(1004, 385)),
    4: (Fraction(216, 65), Fraction(216, 65), Fraction(166, 65)),
    5: (Fraction(638, 195), Fraction(216, 65), Fraction(508, 195)),
    6: (Fraction(216, 65), Fraction(216, 65), Fraction(166, 65)),
}

small = st.fractions(min_value=-8, max_value=8, max_denominator=16)


# --- payoff slices and slopes against the market ---------------------------------
#
# The definition psi = payoff_vector(params, resolve_market(params, asg, v)).psi
# reads none of the operator's payoff terms (psi_quad, cost_sums, linear_term,
# constant_term), so it is the reference for payoff_slice and own_payoff_slopes.


def _market_psi(params, asg, v) -> tuple:
    """The relative payoffs at committed values v, by their definition on the market."""
    return payoff_vector(params, resolve_market(params, asg, v)).psi


def _bumped(v, i, step) -> tuple:
    return tuple(x + step if j == i else x for j, x in enumerate(v))


def _evaluate(form, point) -> Fraction:
    """The form's value at ``point``, on its Fraction views."""
    quad, lin, total = form.quad, form.lin, form.const
    v = [Fraction(x) for x in point]
    for i in range(form.dim):
        total += (lin[i] + sum(quad[i][j] * v[j] for j in range(form.dim))) * v[i]
    return total


def _own_slopes(params, asg, v) -> list:
    """own_payoff_slopes at the committed values v, as Fractions."""
    den = math.lcm(*(Fraction(x).denominator for x in v))
    slopes, slope_den = own_payoff_slopes(params, asg, [int(Fraction(x) * den) for x in v], den)
    return [Fraction(slope, slope_den) for slope in slopes]


def _assert_slices_match_market(params, asg, chosen):
    # Each firm's slice in every ordered pair of coordinates, the third pinned at
    # its value in chosen, takes the market's psi at chosen.
    psi = _market_psi(params, asg, chosen)
    for i, firm in enumerate(FIRMS):
        for keep in itertools.permutations(range(3), 2):
            form = payoff_slice(params, asg, firm, keep, chosen[3 - sum(keep)])
            assert _evaluate(form, [chosen[k] for k in keep]) == psi[i]


def test_pattern1_payoff_coefficients():
    form = payoff_slice(SPOT, 1, "A", (0, 1), 0)
    assert form.quad[0][0] == -1
    # Coefficient of the x_A x_B cross term is -b/2; the symmetric matrix
    # stores half of it in each off-diagonal slot.
    assert form.quad[0][1] + form.quad[1][0] == -Fraction(1, 4)
    assert _own_slopes(SPOT, 1, (0, 0, 0))[0] == SPOT.a - SPOT.c_a
    assert Fraction(2 * form.quad_num[0][0], form.den) == -2  # the own curvature


def test_payoff_evaluates_spot_psi():
    assert _evaluate(payoff_slice(SPOT, 1, "A", (0, 2), 2), (2, 2)) == 1
    assert _market_psi(SPOT, 1, (2, 2, 2))[0] == 1


@given(st.sampled_from(ALL_ASSIGNMENTS), st.tuples(small, small, small))
@settings(max_examples=100, deadline=None)
def test_payoff_form_matches_resolved_market(asg, chosen):
    _assert_slices_match_market(SPOT, asg, chosen)


def test_own_curvature_negative_everywhere():
    rng = random.Random(7)
    for _ in range(10):
        params = sample_model_params(rng)
        for asg in ALL_ASSIGNMENTS:
            for i, firm in enumerate(FIRMS):
                assert payoff_slice(params, asg, firm, (i, (i + 1) % 3), 0).quad[0][0] < 0


# --- best responses ----------------------------------------------------------------


def _best_response(params, asg, i, others) -> Fraction:
    """Firm i's own value that maximizes psi_i against the rivals' ``others``.

    The own slope is affine in the own value, so its zero is where the slopes at
    0 and at 1 put it; the payoff must be concave there.
    """
    at = [_own_slopes(params, asg, (*others[:i], own, *others[i:]))[i] for own in (0, 1)]
    assert at[1] < at[0]
    return at[0] / (at[0] - at[1])


def test_best_response_examples():
    assert _best_response(SPOT, 1, 0, (2, 2)) == Fraction(7, 2)
    assert _best_response(SPOT, 2, 2, (2, 2)) == 5
    # On the market itself, either step away from 7/2 lowers psi_A.
    best = _market_psi(SPOT, 1, (Fraction(7, 2), 2, 2))[0]
    assert all(_market_psi(SPOT, 1, (x, 2, 2))[0] < best for x in (3, 4))


def test_best_response_symmetric_firms_agree():
    params = ModelParams(10, "1/3", 4, 4, 4)
    assert _best_response(params, 1, 0, (3, 3)) == _best_response(params, 1, 1, (3, 3))


def test_best_response_iteration_rejects_a_convex_payoff(monkeypatch):
    op = _operator(*SPOT.b.as_integer_ratio(), PATTERNS[1])
    # Firm B's own curvature, foc[1][1], set to zero: its payoff is flat in x_B.
    flat = tuple((row[0], 0, *row[2:]) if k == 1 else row for k, row in enumerate(op.foc))
    monkeypatch.setattr("triopoly.equilibrium._operator",
                        lambda n, e, asg: dataclasses.replace(op, foc=flat))
    with pytest.raises(ConcavityViolation, match="payoff of firm B under QQQ is not concave"):
        best_response_iteration(SPOT, 1)


# --- exact equilibrium solve ----------------------------------------------------------


@pytest.mark.parametrize("pattern", sorted(SPOT_X))
def test_spot_equilibria(pattern):
    eq = solve_equilibrium(SPOT, pattern)
    assert eq.state.x == SPOT_X[pattern]
    assert eq.soc_ok
    assert eq.interior


def test_spot_pattern1_prices_and_pattern2_chosen():
    eq1 = solve_equilibrium(SPOT, 1)
    assert eq1.state.p == (Fraction(132, 35), Fraction(132, 35), Fraction(142, 35))
    eq2 = solve_equilibrium(SPOT, 2)
    assert eq2.chosen == (Fraction(114, 35), Fraction(114, 35), Fraction(142, 35))
    assert eq1.state == eq2.state


def test_full_symmetry_collapse_all_assignments():
    params = ModelParams(10, "1/2", 4, 4, 4)
    expected = (params.a - 4) / (2 + params.b)
    for asg in ALL_ASSIGNMENTS:
        state = solve_equilibrium(params, asg).state
        assert state.x == (expected, expected, expected)


def test_foc_gradients_vanish_on_random_draws():
    rng = random.Random(11)
    for _ in range(15):
        params = sample_model_params(rng)
        for pattern in sorted(PATTERNS):
            eq = solve_equilibrium(params, pattern)
            assert _own_slopes(params, pattern, eq.chosen) == [0, 0, 0]
            # psi is quadratic in v, so a central difference on the market is the slope.
            for i in range(3):
                assert (_market_psi(params, pattern, _bumped(eq.chosen, i, 1))[i]
                        == _market_psi(params, pattern, _bumped(eq.chosen, i, -1))[i])


def _asymmetric_draws():
    """Draws with c_A != c_B, b over 64 and over two large primes."""
    rng = random.Random(41)
    draws = []
    for den in (64, 1_000_003, 2**61 - 1):
        found = 0
        while found < 4:
            a = rng.randint(5, 50)
            b = Fraction(rng.randint(1, den - 1), den)
            costs = [Fraction(rng.randint(0, 8 * a - 1), 8) for _ in range(3)]
            if costs[0] != costs[1]:
                draws.append(ModelParams(a, b, *costs))
                found += 1
    return draws


ASYMMETRIC_DRAWS = _asymmetric_draws()


def _det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _residual_vanishes(rows, rhs, chosen) -> bool:
    """rows . chosen == rhs exactly, with rows nonsingular: chosen is the unique solution."""
    return _det(rows) != 0 and [sum(map(mul, row, chosen)) for row in rows] == list(rhs)


@pytest.mark.parametrize("asg", ALL_ASSIGNMENTS, ids=str)
def test_operator_solve_matches_independent_routes(asg):
    # The stacked own-variable FOCs of the payoff terms, derived apart from the gain:
    # the own slopes are affine in v, so the slopes at 0 and at the unit vectors
    # give their rows and right-hand sides.
    for params in ASYMMETRIC_DRAWS:
        eq = solve_equilibrium(params, asg)
        at_zero = _own_slopes(params, asg, (0, 0, 0))
        at_unit = [_own_slopes(params, asg, _bumped((0, 0, 0), j, 1)) for j in range(3)]
        rows = [[at_unit[j][i] - at_zero[i] for j in range(3)] for i in range(3)]
        assert _residual_vanishes(rows, [-slope for slope in at_zero], eq.chosen)


# b over 64 and over three large primes; a and costs with mixed denominators, c_A != c_B.
_b_values = st.sampled_from([64, 1_000_003, 10**9 + 7, 2**61 - 1]).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda k: Fraction(k, den)))
_costs = st.fractions(min_value=0, max_value=40, max_denominator=10**4)
_margins = st.fractions(min_value=0, max_value=40, max_denominator=997).filter(lambda m: m > 0)


@st.composite
def _mixed_params(draw):
    costs = draw(st.tuples(_costs, _costs, _costs).filter(lambda c: c[0] != c[1]))
    return ModelParams(max(costs) + draw(_margins), draw(_b_values), *costs)


_HALF_WEIGHTS = tuple(tuple(Fraction(2 if k == i else -1, 2) for k in range(3)) for i in range(3))


def _reference_operator(b, asg) -> SimpleNamespace:
    """The (b, assignment) operator on any exact field: the reference for the integer build.

    ``x_map``/``x_const`` are the pinning map x = X v + x0 a, ``free_map``/
    ``free_const`` each firm's free variable F v + f0 a, ``foc``/``foc_rhs`` the
    stacked first-order conditions M v + L theta = 0, and ``psi_quad`` the
    relative payoffs' quadratic matrices, derived apart from ``foc``.
    """
    price = tuple(choice == PRICE for choice in asg.choices)
    d = 1 + (sum(price) - 1) * b
    own = (b - d) / (d * (1 - b))
    cross_price = b / (d * (1 - b))
    cross_quantity = -b / d
    zero, one = Fraction(0), Fraction(1)
    x_map, x_const = [], []
    for i in range(3):
        if price[i]:
            x_map.append(tuple(own if j == i else cross_price if price[j] else cross_quantity
                               for j in range(3)))
            x_const.append(1 / d)
        else:
            x_map.append(tuple(one if j == i else zero for j in range(3)))
            x_const.append(zero)
    free_map, free_const = [], []
    for i in range(3):
        if price[i]:
            free_map.append(x_map[i])
            free_const.append(x_const[i])
        else:
            j, k = (i + 1) % 3, (i + 2) % 3
            free_map.append(tuple(-x_map[i][s] - b * (x_map[j][s] + x_map[k][s])
                                  for s in range(3)))
            free_const.append(1 - b * (x_const[j] + x_const[k]))
    foc = tuple(tuple(free_map[i][j] + _HALF_WEIGHTS[i][j] * free_map[j][i] for j in range(3))
                for i in range(3))
    foc_rhs = tuple((free_const[i], *(-_HALF_WEIGHTS[i][k] * x_map[k][i] for k in range(3)))
                    for i in range(3))
    f, three_quarters = free_map, Fraction(3, 4)
    upper = {(r, s): (f[r][s] + f[s][r]) / -4 for r in range(3) for s in range(r, 3)}
    shared = [[upper[min(r, s), max(r, s)] for s in range(3)] for r in range(3)]
    psi_own = [[f[i][i] if s == i else shared[i][s] + three_quarters * f[i][s] for s in range(3)]
               for i in range(3)]
    psi_quad = tuple(tuple(tuple(psi_own[i][s] if r == i else psi_own[i][r] if s == i
                                 else shared[r][s] for s in range(3)) for r in range(3))
                     for i in range(3))
    return SimpleNamespace(x_map=x_map, x_const=x_const, free_map=free_map,
                           free_const=free_const, foc=foc, foc_rhs=foc_rhs, psi_quad=psi_quad)


@given(_mixed_params())
@settings(max_examples=150, deadline=None)
def test_integer_solve_matches_fraction_reference(params):
    theta = (params.a, params.c_a, params.c_b, params.c_c)
    for asg in ALL_ASSIGNMENTS:
        eq = solve_equilibrium(params, asg)
        ref = _reference_operator(params.b, asg)
        rhs = [-sum(coef * value for coef, value in zip(row, theta)) for row in ref.foc_rhs]
        assert _residual_vanishes(ref.foc, rhs, eq.chosen)
        assert committed_values(params, asg) == eq.chosen
        assert eq.soc_ok == all(ref.foc[i][i] < 0 for i in range(3))
        assert eq.state.x == tuple(sum(map(mul, row, eq.chosen)) + c * params.a
                                   for row, c in zip(ref.x_map, ref.x_const))
        values = (*eq.chosen, *eq.state.x, *eq.state.p, *eq.payoffs.pi, *eq.payoffs.psi)
        assert all(type(v) is Fraction for v in values)


@given(_mixed_params(), st.tuples(small, small, small))
@settings(max_examples=60, deadline=None)
def test_payoff_form_matches_resolved_market_at_fractional_theta(params, chosen):
    # Fractional a and costs put theta over a denominator above 1, unlike SPOT.
    for asg in ALL_ASSIGNMENTS:
        _assert_slices_match_market(params, asg, chosen)


@given(st.one_of(_mixed_params(), st.randoms(use_true_random=False).map(sample_model_params)),
       st.tuples(small, small, small))
@settings(max_examples=60, deadline=None)
def test_own_payoff_slopes_are_central_differences_of_the_market_psi(params, v):
    # v is no equilibrium, so the two routes meet where the slopes are not zero;
    # it is handed over the product of its denominators, not their lcm. psi is
    # quadratic in v, so the central difference with step 1 is exact.
    den = math.prod(x.denominator for x in v)
    nums = [int(x * den) for x in v]
    for asg in ALL_ASSIGNMENTS:
        slopes, slope_den = own_payoff_slopes(params, asg, nums, den)
        for i in range(3):
            difference = (_market_psi(params, asg, _bumped(v, i, 1))[i]
                          - _market_psi(params, asg, _bumped(v, i, -1))[i]) / 2
            assert Fraction(slopes[i], slope_den) == difference


_pinned_values = st.tuples(
    st.just(Fraction(0)),
    st.fractions(max_value=Fraction(-1, 10**6), min_value=-10**6, max_denominator=10**6),
    st.integers(-10**30, 10**30).map(lambda k: Fraction(k, 2**61 - 1)))


# Offsets that no nonzero quadratic in two variables vanishes on all of: a slice
# that takes the market's psi at a point plus each of them equals the restricted psi.
_UNISOLVENT = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@given(_mixed_params(), _pinned_values, st.tuples(small, small, small))
@settings(max_examples=40, deadline=None)
def test_payoff_slice_agrees_with_the_market_psi(params, values, base):
    for asg in ALL_ASSIGNMENTS:
        for pinned, value in itertools.product(range(3), values):
            kept = [k for k in range(3) if k != pinned]
            points = []
            for d0, d1 in _UNISOLVENT:
                v = list(base)
                v[kept[0]] += d0
                v[kept[1]] += d1
                v[pinned] = value
                points.append((v, _market_psi(params, asg, v)))
            for i, firm in enumerate(FIRMS):
                for keep in (kept, kept[::-1]):
                    form = payoff_slice(params, asg, firm, keep, value)
                    for v, psi in points:
                        assert _evaluate(form, [v[k] for k in keep]) == psi[i]


def _coefficients(form) -> tuple:
    return (*(v for row in form.quad for v in row), *form.lin, form.const)


@pytest.mark.parametrize("asg", ALL_ASSIGNMENTS, ids=str)
@given(_mixed_params(), _pinned_values)
@settings(max_examples=20, deadline=None)
def test_payoff_slices_of_the_three_firms_sum_to_zero(asg, params, values):
    # The game is zero-sum at every v, so the three firms' slices add up to the
    # zero form: the integer route's own zero-sum identity.
    for keep in itertools.permutations(range(3), 2):
        for value in values:
            forms = [payoff_slice(params, asg, firm, keep, value) for firm in FIRMS]
            assert all(sum(column) == 0 for column in zip(*map(_coefficients, forms)))


@pytest.mark.parametrize("keep", [(0, 0), (2, 2), (0, 3), (-1, 1), (0,), (0, 1, 2), (),
                                  (True, 0), (0.0, 1), (Fraction(1), 2)])
def test_payoff_slice_takes_two_distinct_indices(keep):
    with pytest.raises(ValueError, match="keep must be two distinct indices in 0..2"):
        payoff_slice(SPOT, 1, "A", keep, 1)


_prices = st.fractions(min_value=-16, max_value=64, max_denominator=10**4)


@given(st.builds(ModelParams, st.fractions(min_value=8, max_value=80,
                                           max_denominator=997).filter(lambda a: a > 8),
                 st.sampled_from([64, 1_000_003, 2**61 - 1]).flatmap(
                     lambda den: st.integers(1, den - 1).map(lambda k: Fraction(k, den))),
                 st.sampled_from([0, "1/8", "15/4"]), st.sampled_from([0, "7/3"]), st.just(8)),
       st.tuples(_prices, _prices, _prices), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_direct_demand_numerators_over_their_denominator_are_direct_demand(params, p, scale):
    # Prices may be negative or zero and are handed over a multiple of their lcm;
    # a is fractional. The outputs, put through the textbook inverse demand, give
    # the prices back.
    den = math.lcm(*(v.denominator for v in p)) * scale
    nums = [v.numerator * (den // v.denominator) for v in p]
    x_nums, x_den = direct_demand_numerators(params, nums, den)
    assert all(type(v) is int for v in (*x_nums, x_den)) and x_den > 0
    x = tuple(Fraction(v, x_den) for v in x_nums)
    assert x == direct_demand(params, p)
    a, b = params.a, params.b
    assert tuple(a - x[i] - b * (sum(x) - x[i]) for i in range(3)) == p


@pytest.mark.parametrize("den", [0, -1, -64])
def test_integer_maps_reject_a_nonpositive_denominator(den):
    message = f"den must be positive, got {den}$"
    with pytest.raises(ValueError, match=message):
        own_payoff_slopes(SPOT, 1, (1, 2, 3), den)
    with pytest.raises(ValueError, match=message):
        direct_demand_numerators(SPOT, (1, 2, 3), den)


_NOT_INTS = "nums must be three ints, got"


@pytest.mark.parametrize("nums, den, message", [
    ((1, 2, 3), 2.5, "den must be an int, got 2.5$"),
    ((1, 2, 3), 2.0, "den must be an int, got 2.0$"),
    ((1, 2, 3), True, "den must be an int, got True$"),
    ((1, 2, 3), Fraction(2), r"den must be an int, got Fraction\(2, 1\)$"),
    ((1.5, 2, 3), 1, _NOT_INTS),
    ((1, 2, 3.0), 1, _NOT_INTS),
    ((True, 2, 3), 1, _NOT_INTS),
    ((1, Fraction(2), 3), 1, _NOT_INTS),
    ((1, 2), 1, _NOT_INTS),
    ((1, 2, 3, 4), 1, _NOT_INTS),
])
def test_integer_maps_take_only_ints(nums, den, message):
    # A float, a bool or a Fraction is no int here, even where it equals one.
    with pytest.raises(ValueError, match=message):
        own_payoff_slopes(SPOT, 1, nums, den)
    with pytest.raises(ValueError, match=message):
        direct_demand_numerators(SPOT, nums, den)


def _count_fraction_arithmetic(monkeypatch) -> list:
    """Record every Fraction add/sub/mul/truediv from now on."""
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        real = getattr(Fraction, name)

        def counted(self, other, _real=real, _name=name):
            calls.append(_name)
            return _real(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) * Fraction(1, 3) == Fraction(1, 6)
    assert calls == ["__mul__"]  # the counters see Fraction arithmetic
    calls.clear()
    return calls


def test_warm_solve_does_no_fraction_arithmetic(monkeypatch):
    b = Fraction(5, 1_000_003)
    cold = ModelParams("37/3", b, "7/2", "11/5", 3)
    warm = ModelParams(50, b, "1/3", "2/7", "5/11")
    chosen = (Fraction(7, 3), Fraction(-2, 5), 4)
    for asg in ALL_ASSIGNMENTS:
        solve_equilibrium(cold, asg)
    calls = _count_fraction_arithmetic(monkeypatch)
    for params in (cold, warm):
        for asg in ALL_ASSIGNMENTS:
            solve_equilibrium(params, asg)
            resolve_market(params, asg, chosen)
    assert calls == []


def test_warm_results_build_no_fraction_until_a_field_is_read(monkeypatch):
    # A solve's or a payoff vector's public Fractions are built on their first read.
    params = ModelParams("37/3", Fraction(5, 1_000_003), "7/2", "11/5", 3)
    x = (Fraction(7, 3), Fraction(-2, 5), Fraction(4))  # Fractions already: none is coerced
    for asg in ALL_ASSIGNMENTS:
        solve_equilibrium(params, asg)
    made = []
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert Fraction(1, 2) and made  # the counter sees constructions
    made.clear()
    solved = [solve_equilibrium(params, asg) for asg in ALL_ASSIGNMENTS]
    payoffs = payoff_vector(params, MarketState.from_outputs(params, x))
    assert made == [] and payoffs
    state = solved[0].state
    state.x
    assert len(made) == 3
    state.x
    assert len(made) == 3


def test_warm_payoff_forms_and_tables_do_no_fraction_arithmetic(monkeypatch):
    b = Fraction(5, 1_000_003)
    cold = ModelParams("37/3", b, "7/2", "7/2", 3)
    warm = ModelParams(50, b, "1/3", "1/3", "5/11")
    prices = (Fraction(7, 3), Fraction(-2, 5), 0)
    fixed = Fraction(17, 7)

    def payoff_forms(params):
        for asg in ALL_ASSIGNMENTS:
            own_payoff_slopes(params, asg, (7, -3, 2), 5)
            for firm in FIRMS:
                payoff_slice(params, asg, firm, (0, 2), fixed)

    payoff_forms(cold)
    for pattern in sorted(PATTERNS):
        closed_form_outputs(cold, pattern)
    direct_demand(cold, prices)
    calls = _count_fraction_arithmetic(monkeypatch)
    for params in (cold, warm):
        payoff_forms(params)
        for pattern in sorted(PATTERNS):
            closed_form_outputs(params, pattern)
        direct_demand(params, prices)
    assert calls == []


def test_no_kernel_rederives_parameter_integers(monkeypatch):
    # ModelParams puts b and theta on integers once; from warm caches on, no
    # solve, table, payoff slice or slope, payoff vector or float guard does it
    # again. A payoff slice takes the pinned value's own ratio, and no other.
    params = ModelParams("101/3", "123457/1000003", "1/4", "1/4", "2/9")
    state = MarketState.from_outputs(params, (Fraction(7, 3), Fraction(-2, 5), 4))
    fixed = Fraction(17, 7)

    def kernels():
        for pattern in sorted(PATTERNS):
            solve_equilibrium(params, pattern)
            closed_form_outputs(params, pattern)
            own_payoff_slopes(params, pattern, (7, -3, 2), 5)
            for firm in FIRMS:
                payoff_slice(params, pattern, firm, (0, 2), fixed)
        payoff_vector(params, state)
        ensure_float_safe(params)

    kernels()
    calls = []
    real = Fraction.as_integer_ratio

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "as_integer_ratio", counted)
    assert Fraction(1, 2).as_integer_ratio() == (1, 2) and calls  # the counter sees calls
    calls.clear()
    kernels()
    assert calls == [fixed] * (len(PATTERNS) * len(FIRMS))


def test_warm_minimax_chains_do_no_fraction_arithmetic(monkeypatch):
    # From a warm operator to the chain values: the one-pass slice of
    # payoff_slice, both chains in either mode and the outer-derivative bound
    # all run on ints. So does a whole minimax check: its pinned value,
    # tolerance and verdict, with no solve of the market.
    b = Fraction(5, 1_000_003)
    params = ModelParams("37/3", b, "7/2", "11/5", 3)
    grid = GridSpec(Fraction(-1, 3), params.a, 1001)
    fixed = Fraction(17, 7)
    m, s = max(abs(grid.lo), abs(grid.hi)).as_integer_ratio()
    for asg in ALL_ASSIGNMENTS:
        payoff_slice(params, asg, "A", (0, 2), fixed)
    solves = []
    real_solve = triopoly.verify.solve_equilibrium
    monkeypatch.setattr(triopoly.verify, "solve_equilibrium",
                        lambda *args: solves.append(args) or real_solve(*args))
    calls = _count_fraction_arithmetic(monkeypatch)
    for asg in ALL_ASSIGNMENTS:
        for firm in FIRMS:
            for keep in ((0, 2), (1, 0)):
                sliced = payoff_slice(params, asg, firm, keep, fixed)
                for mode in ("exact", "float"):
                    grid_minimax_pair(sliced, grid, mode=mode)
                _outer_derivative_bound(sliced, m, s)
            for mode in ("exact", "float"):
                minimax_check(params, MinimaxSlice(firm, base_assignment=asg), grid, mode=mode)
    assert calls == []
    assert solves == []


def test_cold_operator_does_no_fraction_arithmetic(monkeypatch):
    b = Fraction(5, 1_000_003)
    params = ModelParams("37/3", b, "7/2", "11/5", 3)
    _operator.cache_clear()
    calls = _count_fraction_arithmetic(monkeypatch)
    for asg in ALL_ASSIGNMENTS:
        op = _operator(*b.as_integer_ratio(), asg)
        op.adjugate
    assert calls == []
    # The solves, the payoff slopes and the payoff slices read the operators built above.
    for asg in ALL_ASSIGNMENTS:
        solve_equilibrium(params, asg)
        own_payoff_slopes(params, asg, (7, -3, 2), 5)
        for firm in FIRMS:
            payoff_slice(params, asg, firm, (0, 2), 1)
    assert _operator.cache_info().misses == len(ALL_ASSIGNMENTS)


def test_cold_table_does_no_fraction_arithmetic(monkeypatch):
    params = ModelParams("37/3", Fraction(5, 1_000_003), "7/2", "7/2", 3)
    _printed_output_table.cache_clear()
    calls = _count_fraction_arithmetic(monkeypatch)
    for pattern in sorted(PATTERNS):
        closed_form_outputs(params, pattern)
    assert calls == []
    assert _printed_output_table.cache_info().misses == 1


def test_resolve_rejects_a_corrupted_pinning_row(monkeypatch):
    # The committed values are checked on the state's integers. Shifting one
    # pinning row's intercept column moves that firm's output, and so its
    # price, away from any committed value: the check must catch either.
    params = ModelParams("37/3", Fraction(5, 1_000_003), "7/2", "11/5", 3)
    chosen = (Fraction(7, 3), Fraction(-2, 5), 4)
    expected = {asg: resolve_market(params, asg, chosen) for asg in ALL_ASSIGNMENTS}
    for asg in ALL_ASSIGNMENTS:
        op = _operator.__wrapped__(*params.b.as_integer_ratio(), asg)
        monkeypatch.setattr("triopoly.equilibrium._operator", lambda n, e, asg: op)
        assert resolve_market(params, asg, chosen) == expected[asg]
        for i in range(3):
            pin = tuple((*row[:3], row[3] + 1) if k == i else row
                        for k, row in enumerate(op.pin))
            corrupted = dataclasses.replace(op, pin=pin)
            monkeypatch.setattr("triopoly.equilibrium._operator",
                                lambda n, e, asg: corrupted)
            with pytest.raises(ArithmeticError,
                               match="does not reproduce the committed values"):
                resolve_market(params, asg, chosen)


def test_corrupted_pinning_row_fails_the_solve_before_any_field_is_read(monkeypatch):
    # The committed-value check runs on the state's integers inside the solve,
    # not when a lazily built field is first read.
    params = ModelParams("37/3", Fraction(5, 1_000_003), "7/2", "11/5", 3)
    for asg in ALL_ASSIGNMENTS:
        op = _operator(*params.b.as_integer_ratio(), asg)
        for i in range(3):
            pin = tuple((*row[:3], row[3] + 1) if k == i else row
                        for k, row in enumerate(op.pin))
            corrupted = dataclasses.replace(op, pin=pin)
            monkeypatch.setattr("triopoly.equilibrium._operator", lambda n, e, asg: corrupted)
            with pytest.raises(ArithmeticError,
                               match="does not reproduce the committed values"):
                solve_equilibrium(params, asg)


def test_singular_gain_names_the_solve(monkeypatch):
    params = ModelParams(10, "1/3", 2, 2, 3)
    op = _operator(*params.b.as_integer_ratio(), PATTERNS[1])
    singular = dataclasses.replace(op, foc=(op.foc[0], op.foc[0], op.foc[2]))
    monkeypatch.setattr("triopoly.equilibrium._operator", lambda n, e, asg: singular)
    for route in (solve_equilibrium, committed_values):
        with pytest.raises(SingularSystem, match=r"\(stacked first-order conditions "
                                                 r"for QQQ at a=10/1 b=1/3 "):
            route(params, 1)


def test_corrupted_adjugate_fails_its_first_order_conditions_on_every_route(monkeypatch):
    # The first-order conditions are checked on the committed numerators that
    # the solve, committed_values and so the minimax check's pinned value read.
    # Adding 1 to adj[i][i] moves v_i by -r_i, r = L theta, off the solution.
    params = ModelParams("37/3", Fraction(5, 1_000_003), "7/2", "11/5", 3)
    for asg in ALL_ASSIGNMENTS:
        op = _operator(*params.b.as_integer_ratio(), asg)
        (rows, adj, det), corrupted = op.adjugate, dataclasses.replace(op)
        for i in range(3):
            bad = tuple(tuple(v + (k == j == i) for j, v in enumerate(row))
                        for k, row in enumerate(adj))
            corrupted.__dict__["adjugate"] = (rows, bad, det)
            monkeypatch.setattr("triopoly.equilibrium._operator", lambda n, e, asg: corrupted)
            for route in (lambda: solve_equilibrium(params, asg),
                          lambda: committed_values(params, asg),
                          lambda: minimax_check(params, MinimaxSlice(FIRMS[i],
                                                                     base_assignment=asg))):
                with pytest.raises(ArithmeticError, match=f"first-order condition of firm "
                                                          f"[ABC] does not vanish for {asg} "):
                    route()


@pytest.mark.parametrize("step, matrix", [
    (0, ((0, 1, 2), (0, 3, 4), (0, 5, 7))),  # column 0 vanishes
    (1, ((1, 2, 3), (2, 4, 5), (3, 6, 1))),  # column 1 is twice column 0
    (2, ((1, 2, 3), (4, 5, 6), (7, 8, 9))),  # rank 2
])
def test_cofactor_solve_reports_the_elimination_pivot_step(step, matrix):
    # ``step`` only labels the case: the step at which Gaussian elimination with
    # partial pivoting would find no pivot. The adjugate gives det M = 0, on ints
    # and on Fractions, and an operator whose M it is reports a singular system.
    assert _adjugate(matrix)[1] == 0
    assert _adjugate([[Fraction(v) for v in row] for row in matrix])[1] == 0
    op = _operator(1, 3, PATTERNS[1])
    singular = dataclasses.replace(op, foc=tuple((*m, *row[3:])
                                                 for m, row in zip(matrix, op.foc)))
    with pytest.raises(SingularSystem):
        singular.adjugate


def _adj_times(adj, m) -> tuple:
    """adj . m for 3x3 rows, on any ring."""
    return tuple(tuple(a0 * c0 + a1 * c1 + a2 * c2 for c0, c1, c2 in zip(*m))
                 for a0, a1, a2 in adj)


@given(_b_values)
@settings(max_examples=40, deadline=None)
def test_adjugate_times_matrix_is_the_determinant_times_identity(b):
    # On the operator's ints and on the reference's M in a field that is not
    # Fraction. The operator holds its first-order rows over their contents,
    # and an adjugate of their M with det M > 0.
    n, e = b.as_integer_ratio()
    for asg in ALL_ASSIGNMENTS:
        op = _operator(n, e, asg)
        rows, held_adj, held_det = op.adjugate
        assert rows == tuple(tuple(v // math.gcd(*row) for v in row) for row in op.foc)
        ints = tuple(row[:3] for row in op.foc)
        for m, adj, det in ((ints, *_adjugate(ints)), (tuple(row[:3] for row in rows),
                                                       held_adj, held_det)):
            identity = tuple(tuple(det if r == s else 0 for s in range(3)) for r in range(3))
            assert _adj_times(adj, m) == _adj_times(m, adj) == identity
        assert held_det > 0
        field = _reference_operator(_Exact(b), asg).foc
        adj, det = _adjugate(field)
        det = _unwrap(det)
        identity = tuple(tuple(det if r == s else 0 for s in range(3)) for r in range(3))
        assert _unwrap(_adj_times(adj, field)) == _unwrap(_adj_times(field, adj)) == identity


@pytest.mark.parametrize("asg", ALL_ASSIGNMENTS, ids=str)
def test_operator_with_positive_determinant_gives_the_same_solve(monkeypatch, asg):
    # det M < 0 on the cached operators, so the adjugate is negated there.
    # Negating [M | L] keeps the equations and gives det M > 0 as built; the
    # rows' contents are positive, so they keep the sign.
    params = ModelParams("37/3", Fraction(5, 1_000_003), "7/2", "11/5", 3)
    op = _operator(*params.b.as_integer_ratio(), asg)
    expected = solve_equilibrium(params, asg)
    flipped = dataclasses.replace(op, foc=tuple(tuple(-v for v in row) for row in op.foc))
    assert _adjugate([row[:3] for row in op.foc])[1] < 0
    assert _adjugate([row[:3] for row in flipped.foc])[1] > 0
    monkeypatch.setattr("triopoly.equilibrium._operator", lambda n, e, asg: flipped)
    solved = solve_equilibrium(params, asg)
    # soc_ok reads the diagonal of M, negated here, so it is not compared.
    assert solved._ints == expected._ints
    assert (solved.chosen, solved.state, solved.payoffs, solved.interior) == \
        (expected.chosen, expected.state, expected.payoffs, expected.interior)
    assert committed_values(params, asg) == expected.chosen


def test_operator_cache_is_bounded_and_holds_the_sampler():
    # The sampler draws 63 values of b, each solved under up to 8 assignments.
    maxsize = _operator.cache_info().maxsize
    assert maxsize is not None
    assert maxsize >= 63 * len(ALL_ASSIGNMENTS)


class _Exact:
    """A minimal exact field element that wraps a Fraction without being one."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = Fraction(value)

    def __add__(self, other):
        return _Exact(self.value + _raw(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _Exact(self.value - _raw(other))

    def __rsub__(self, other):
        return _Exact(_raw(other) - self.value)

    def __mul__(self, other):
        return _Exact(self.value * _raw(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _Exact(self.value / _raw(other))

    def __rtruediv__(self, other):
        return _Exact(_raw(other) / self.value)

    def __pow__(self, n):
        return _Exact(self.value**n)

    def __neg__(self):
        return _Exact(-self.value)

    def __eq__(self, other):
        return self.value == _raw(other)

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return bool(self.value)


def _raw(x):
    return x.value if isinstance(x, _Exact) else x


def _unwrap(entries):
    """Fractions of a nested tuple/dict of _Exact values; fails on anything else."""
    if isinstance(entries, dict):
        return {k: _unwrap(v) for k, v in entries.items()}
    if isinstance(entries, tuple):
        return tuple(map(_unwrap, entries))
    assert isinstance(entries, _Exact), f"left the field: {entries!r}"
    return entries.value


def _over(rows, den) -> list:
    return [tuple(Fraction(v, den) for v in row) for row in rows]


def _row(den, a, c_ab, c_c) -> tuple:
    """One transcribed entry: its numerator's (a, c_AB, c_C) coefficients over den."""
    return (a / den, c_ab / den, c_c / den)


def _transcribed_output_table(b) -> dict:
    """All six transcribed output triples at b, as rows on (a, c_AB, c_C), on any exact field.

    The reference for the integer tables of ``_printed_output_table``.
    """
    d12 = (4 - b) * (b + 2)
    x12_ab = _row(d12, 4 - b, -4, b)
    # Transcribed with denominator (b - 4)(b + 2); equals the negative of the
    # solver's value for pattern 1 and the true value for pattern 2.
    x1_c_printed = _row(d12, b - 4, -2 * b, b + 4)
    x2_c = _row((b - 4) * (b + 2), b - 4, -2 * b, b + 4)

    d3 = (4 - b) * (1 - b) * (b + 2) * (3 * b + 4)
    a3 = 3 * b**3 - 11 * b**2 - 8 * b + 16
    x3_a = _row(d3, a3, -3 * b**3 + 6 * b**2 + 4 * b - 16, 5 * b**2 + 4 * b)
    x3_c = _row(d3, a3, -3 * b**3 + 4 * b**2 + 8 * b, 7 * b**2 - 16)

    d46 = (1 - b) * (b + 2) * (5 * b + 4)
    a46 = -5 * b**2 + b + 4
    x46_ab = _row(d46, a46, 3 * b**2 - 2 * b - 4, 2 * b**2 + b)
    x46_c = _row(d46, a46, 4 * b**2 + 2 * b, b**2 - 3 * b - 4)

    d5 = (1 - b) * (b + 2) * (b + 4) * (5 * b + 4)
    a5 = -5 * b**3 - 19 * b**2 + 8 * b + 16
    x5_a = _row(d5, a5, 6 * b**3 + 16 * b**2 - 12 * b - 16, -(b**3) + 3 * b**2 + 4 * b)
    x5_c = _row(d5, a5, b**3 + 12 * b**2 + 8 * b, 4 * b**3 + 7 * b**2 - 16 * b - 16)

    return {
        1: (x12_ab, x12_ab, x1_c_printed),
        2: (x12_ab, x12_ab, x2_c),
        3: (x3_a, x12_ab, x3_c),
        4: (x46_ab, x46_ab, x46_c),
        5: (x5_a, x46_ab, x5_c),
        6: (x46_ab, x46_ab, x46_c),
    }


def _coefficient_output_table(n, e) -> dict:
    """The integer tables of ``_printed_output_table`` from coefficient tuples: the reference.

    Each transcribed entry is its coefficients in b, highest power first,
    dotted with the monomials n^j e^(k - j) of its denominator's degree k.
    """
    monomials = {degree: [n**k * e**(degree - k) for k in range(degree + 1)]
                 for degree in (2, 3, 4)}

    def row(degree: int, *polynomials: tuple[int, ...]) -> tuple:
        # e^degree p(n / e) for each p, given by its coefficients in b, highest power first.
        return tuple(sum(map(mul, reversed(p), monomials[degree])) for p in polynomials)

    u, v, h = 4 * e - n, n + 2 * e, e - n
    w3, w5, w4 = 3 * n + 4 * e, 5 * n + 4 * e, n + 4 * e
    d12 = u * v
    x12_ab = row(2, (-1, 4), (-4,), (1, 0))
    x12_c = row(2, (1, -4), (-2, 0), (1, 4))
    d3 = d12 * h * w3
    a3 = (3, -11, -8, 16)
    x3_a = row(4, a3, (-3, 6, 4, -16), (5, 4, 0))
    x3_c = row(4, a3, (-3, 4, 8, 0), (7, 0, -16))
    d46 = h * v * w5
    a46 = (-5, 1, 4)
    x46_ab = row(3, a46, (3, -2, -4), (2, 1, 0))
    x46_c = row(3, a46, (4, 2, 0), (1, -3, -4))
    d5 = d46 * w4
    a5 = (-5, -19, 8, 16)
    x5_a = row(4, a5, (6, 16, -12, -16), (-1, 3, 4, 0))
    x5_c = row(4, a5, (1, 12, 8, 0), (4, 7, -16, -16))
    pattern46 = ((x46_ab, x46_ab, x46_c), d46)
    return {
        1: ((x12_ab, x12_ab, x12_c), d12),
        2: ((x12_ab, x12_ab, tuple(-c for c in x12_c)), d12),
        3: ((x3_a, tuple(c * h * w3 for c in x12_ab), x3_c), d3),
        4: pattern46,
        5: ((x5_a, tuple(c * w4 for c in x46_ab), x5_c), d5),
        6: pattern46,
    }


def test_table_integers_are_the_coefficient_evaluation():
    # Every integer row and denominator, at the sampler's 63 values of b and
    # at b over a Mersenne prime and over 10^6 + 3.
    for b in [Fraction(k, 64) for k in range(1, 64)] + [Fraction(5, 2**61 - 1),
                                                        Fraction(123457, 1000003)]:
        n, e = b.as_integer_ratio()
        table = _printed_output_table.__wrapped__(n, e)
        assert table == _coefficient_output_table(n, e)
        assert all(type(v) is int for rows, den in table.values()
                   for v in (den, *(v for row in rows for v in row)))


def _reference_rows(ref) -> tuple:
    """The reference's pinning, free and first-order rows, each row ending in its constants."""
    return ([(*x, c) for x, c in zip(ref.x_map, ref.x_const)],
            [(*f, c) for f, c in zip(ref.free_map, ref.free_const)],
            [(*m, *l) for m, l in zip(ref.foc, ref.foc_rhs)])


def _minus_adj_times(adj, rhs) -> tuple:
    """-adj(M) R on any ring: over det M, the gain -M^-1 R."""
    return tuple(tuple(-(a0 * r0 + a1 * r1 + a2 * r2) for r0, r1, r2 in zip(*rhs))
                 for a0, a1, a2 in adj)


def _reference_gain(ref) -> tuple:
    """(N, D): the reference's gain -M^-1 L as N / D, from the adjugate on its field."""
    adj, det = _adjugate(ref.foc)
    return _minus_adj_times(adj, ref.foc_rhs), det


def _assert_operator_matches(op, ref, psi_quad, gain, det):
    """The integer operator holds the reference's maps, and its adjugate gives the gain N / D.

    The held adjugate and determinant share no factor, and det > 0.
    """
    rows, adj, int_det = op.adjugate
    assert int_det > 0 and math.gcd(int_det, *(v for row in adj for v in row)) == 1
    int_gain = _minus_adj_times(adj, [row[3:] for row in rows])
    assert [[n / det for n in row] for row in gain] == \
        [[Fraction(n, int_det) for n in row] for row in int_gain]
    assert _reference_rows(ref) == (_over(op.pin, op.q), _over(op.free, op.q * op.e),
                                    _over(op.foc, 2 * op.q * op.e))
    assert psi_quad == tuple(tuple(_over(quad, 4 * op.q * op.e)) for quad in op.psi_quad)


@pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(57, 64), Fraction(123457, 1000003)])
def test_gain_and_tables_run_on_any_exact_field(b):
    # Only field operations on b: the route a symbolic b would take. The integer
    # operator must hold the same maps as the reference built on that field.
    for asg in ALL_ASSIGNMENTS:
        ref = _reference_operator(_Exact(b), asg)
        gain, det = _unwrap(_reference_gain(ref))
        _assert_operator_matches(_operator(*b.as_integer_ratio(), asg), ref,
                                 _unwrap(ref.psi_quad), gain, det)
    table = _unwrap(_transcribed_output_table(_Exact(b)))
    assert table == _transcribed_output_table(b)
    for pattern, (rows, den) in _printed_output_table(*b.as_integer_ratio()).items():
        assert tuple(tuple(Fraction(n, den) for n in row) for row in rows) == table[pattern]


@given(_b_values)
@settings(max_examples=60, deadline=None)
def test_unrolled_operator_matches_fraction_reference_at_drawn_b(b):
    # Every entry of the straight-line build and gain, at b over 64 and over
    # primes up to 2^61 - 1, against the Fraction reference and its own gain.
    for asg in ALL_ASSIGNMENTS:
        ref = _reference_operator(b, asg)
        gain, det = _reference_gain(ref)
        _assert_operator_matches(_operator(*b.as_integer_ratio(), asg), ref, ref.psi_quad,
                                 gain, det)


@given(_b_values)
@settings(max_examples=60, deadline=None)
def test_cached_operator_and_table_are_their_ring_generic_bodies(b):
    # The caches hold what the bodies return: the operator the rows of
    # _operator_rows verbatim, and the table body, run on a field that is
    # not Fraction, the transcribed entries over their denominators.
    n, e = b.as_integer_ratio()
    for asg in ALL_ASSIGNMENTS:
        op = _operator(n, e, asg)
        assert (op.q, op.pin, op.free, op.foc) == _operator_rows(n, e, asg)
    transcribed = _transcribed_output_table(b)
    for pattern, (rows, den) in _printed_output_table.__wrapped__(_Exact(b), 1).items():
        assert _unwrap(tuple(tuple(v / den for v in row) for row in rows)) == transcribed[pattern]


@given(_b_values)
@settings(max_examples=30, deadline=None)
def test_operator_rows_run_on_any_exact_ring(b):
    # The row builder uses only +, -, * on n and e: at n = b, e = 1 in a field
    # that is not Fraction, its rows over q, q e and 2 q e are the reference maps.
    for asg in ALL_ASSIGNMENTS:
        q, pin, free, foc = _operator_rows(_Exact(b), 1, asg)
        rows = tuple(_unwrap(tuple(tuple(v / den for v in row) for row in rows))
                     for rows, den in ((pin, q), (free, q), (foc, 2 * q)))
        assert _reference_rows(_reference_operator(b, asg)) == tuple(map(list, rows))


@given(_b_values)
@settings(max_examples=60, deadline=None)
def test_pinning_denominator_is_the_committed_systems_determinant(b):
    # S has the row e_i for a quantity chooser and the demand row (n, .., e, .., n)
    # for a price chooser, so det S depends only on how many choose a price. The
    # state needs q > 0. Rows scaled by a common factor give the same maps, so
    # only q tells such a build apart.
    n, e = b.as_integer_ratio()
    by_prices = (1, e, (e - n) * (e + n), (e - n) ** 2 * (e + 2 * n))
    for asg in ALL_ASSIGNMENTS:
        q = _operator(n, e, asg).q
        assert q == by_prices[asg.choices.count(PRICE)] and q > 0


def _comprehension_psi_quad(f) -> tuple:
    """The payoff matrices from the free rows f as a nested comprehension: the reference.

    Row and column i of firm i's matrix are its own entries, the rest ``shared``.
    """
    shared = [[-f[r][s] - f[s][r] for s in range(3)] for r in range(3)]
    own = [[4 * f[i][i] if s == i else shared[i][s] + 3 * f[i][s] for s in range(3)]
           for i in range(3)]
    return tuple(tuple(tuple(own[i][s] if r == i else own[i][r] if s == i else shared[r][s]
                             for s in range(3)) for r in range(3)) for i in range(3))


@given(_b_values)
@settings(max_examples=60, deadline=None)
def test_straight_line_psi_quad_equals_the_comprehension(b):
    n, e = b.as_integer_ratio()
    for asg in ALL_ASSIGNMENTS:
        op = _operator.__wrapped__(n, e, asg)
        assert op.psi_quad == _comprehension_psi_quad(op.free)
        assert all(type(v) is int for matrix in op.psi_quad for row in matrix for v in row)


def test_solve_accepts_string_and_int():
    assert solve_equilibrium(SPOT, "QQQ") == solve_equilibrium(SPOT, 1)
    assert solve_equilibrium(SPOT, "2") == solve_equilibrium(SPOT, 2)


def test_equilibrium_serialization():
    doc = solve_equilibrium(SPOT, 1).to_dict()
    assert doc["assignment"] == "QQQ"
    assert doc["pattern"] == 1
    assert doc["x"] == ["114/35", "114/35", "94/35"]
    assert doc["x_dec"][0] == "3.25714285714"
    assert doc["flags"] == {"interior": True, "soc_ok": True}
    assert doc["params"]["b"] == "1/2"


def test_mirror_assignments_swap_ab():
    eq_mirror = solve_equilibrium(SPOT, "QPP")
    eq_base = solve_equilibrium(SPOT, 5)
    assert eq_mirror.state == eq_base.state.swap_ab()


# --- closed-form output tables ----------------------------------------------------------


def test_closed_forms_spot_pattern1():
    table = closed_form_outputs(SPOT, 1)
    assert table.corrected == SPOT_X[1]
    assert table.printed == (SPOT_X[1][0], SPOT_X[1][1], -SPOT_X[1][2])
    assert not table.printed_matches_corrected
    doc = table.to_dict()
    assert doc["printed"][2] == "-94/35"
    assert doc["corrected"][2] == "94/35"
    assert doc["printed_matches_corrected"] is False


@pytest.mark.parametrize("pattern", [2, 3, 4, 5, 6])
def test_closed_forms_match_solver_above_pattern1(pattern):
    table = closed_form_outputs(SPOT, pattern)
    assert table.printed_matches_corrected
    assert table.corrected == SPOT_X[pattern]


def test_closed_forms_random_draws_match_solver():
    rng = random.Random(23)
    for _ in range(25):
        params = sample_model_params(rng)
        for pattern in sorted(PATTERNS):
            table = closed_form_outputs(params, pattern)
            assert table.corrected == solve_equilibrium(params, pattern).state.x


@st.composite
def _table_params(draw):
    """c_A = c_B, b over 64, 10^6 + 3 or 2^61 - 1, and a and the costs over small ints."""
    den = draw(st.sampled_from((64, 10**6 + 3, 2**61 - 1)))
    b = Fraction(draw(st.integers(1, den - 1)), den)
    c_ab, c_c, margin = (Fraction(draw(st.integers(lo, 10**6)), draw(st.integers(1, 999)))
                         for lo in (0, 0, 1))
    return ModelParams(max(c_ab, c_c) + margin, b, c_ab, c_ab, c_c)


@settings(max_examples=300, deadline=None)
@given(_table_params(), st.sampled_from(sorted(PATTERNS)))
def test_table_numerators_are_the_tables_outputs(params, pattern):
    # The property suite compares the integers; closed_form_outputs builds its
    # Fractions from them, and the corrected ones are the solver's outputs.
    printed, corrected, den = ClosedFormOutputs._numerators(params, pattern)
    assert den > 0
    table = closed_form_outputs(params, pattern)
    assert tuple(Fraction(v, den) for v in printed) == table.printed
    assert tuple(Fraction(v, den) for v in corrected) == table.corrected
    assert table.corrected == solve_equilibrium(params, pattern).state.x
    flipped = (table.printed[0], table.printed[1], -table.printed[2])
    assert table.corrected == (flipped if pattern == 1 else table.printed)


def test_table_cache_is_keyed_on_b():
    # One verify run meets at most 64 distinct b: the given one and the sampler's 63.
    assert _printed_output_table.cache_info().maxsize >= 64
    _printed_output_table.cache_clear()
    rng = random.Random(41)
    draws = [sample_model_params(rng) for _ in range(200)]
    for params in draws:
        for pattern in sorted(PATTERNS):
            closed_form_outputs(params, pattern)
    assert _printed_output_table.cache_info().currsize == len({p.b for p in draws})


def test_cold_caches_never_compare_values_of_b(monkeypatch):
    # Every Fraction over 2^61 - 1, the modulus of Python's numeric hash, hashes
    # alike, so caches keyed on such b would tell their keys apart by __eq__.
    den = 2**61 - 1
    rng = random.Random(61)
    draws = [ModelParams(10, Fraction(rng.randrange(1, den), den), 2, 2, 3) for _ in range(120)]
    compared = []
    real_eq = Fraction.__eq__

    def counted(self, other):
        if self.denominator == den == getattr(other, "denominator", None):
            compared.append((self, other))
        return real_eq(self, other)

    _operator.cache_clear()
    _printed_output_table.cache_clear()
    monkeypatch.setattr(Fraction, "__eq__", counted)
    for params in draws:
        for asg in ALL_ASSIGNMENTS:
            solve_equilibrium(params, asg)
        closed_form_outputs(params, 1)
    assert compared == []
    assert _operator.cache_info().misses == len(draws) * len(ALL_ASSIGNMENTS)


def test_closed_forms_validation():
    with pytest.raises(ValueError, match="c_A = c_B"):
        closed_form_outputs(ModelParams(10, "1/2", 2, 3, 3), 1)
    for costs, text in ((("7/2", "11/5"), "cA=7/2 cB=11/5"),
                        ((2, "2/1000001"), "cA=2 cB=2/1000001")):
        params = ModelParams("37/3", Fraction(5, 1_000_003), *costs, 3)
        with pytest.raises(ValueError) as raised:
            closed_form_outputs(params, 2)
        assert str(raised.value) == f"closed-form output tables assume c_A = c_B, got {text}"
    with pytest.raises(ValueError, match="pattern"):
        closed_form_outputs(SPOT, 0)


@pytest.mark.parametrize("pattern", [True, False, 1.0, Fraction(1), 0, 7, "1"])
def test_closed_forms_take_only_an_int_pattern_number(pattern):
    # True, 1.0 and Fraction(1) compare equal to 1, and must not stand for pattern 1.
    with pytest.raises(ValueError) as raised:
        closed_form_outputs(SPOT, pattern)
    assert str(raised.value) == f"pattern number must be 1..6, got {pattern!r}"


# --- best-response iteration ----------------------------------------------------------


def test_iteration_symmetric_case():
    params = ModelParams(10, "1/2", 4, 4, 4)
    result = best_response_iteration(params, 1)
    assert result.converged
    expected = 12 / 5
    assert all(abs(v - expected) < 1e-10 for v in result.chosen)


def test_iteration_matches_exact_solver_spot():
    result = best_response_iteration(SPOT, 1)
    assert result.converged
    exact = solve_equilibrium(SPOT, 1).chosen
    for approx, truth in zip(result.chosen, exact):
        assert abs(approx - float(truth)) < 1e-10


def test_iteration_zero_budget_returns_init():
    result = best_response_iteration(SPOT, 1, init=(1.0, 2.0, 3.0), max_iter=0)
    assert result.chosen == (1.0, 2.0, 3.0)
    assert not result.converged
    assert result.iterations == 0


def test_iteration_reports_non_convergence():
    result = best_response_iteration(SPOT, 1, max_iter=3)
    assert not result.converged
    assert result.iterations == 3


def test_iteration_stops_at_first_non_finite_iterate():
    # Valid parameters on which the damped iteration diverges for QQP, QPQ and PQQ.
    params = ModelParams(50, "57/64", "181/8", "201/8", "237/8")
    for asg in ("QQP", "QPQ", "PQQ"):
        with pytest.raises(FloatingPointError, match=r"at iteration (\d+)$") as info:
            best_response_iteration(params, asg)
        n = int(info.value.args[0].rsplit(" ", 1)[1])
        assert n == 5387
        result = best_response_iteration(params, asg, max_iter=n - 1)
        assert not result.converged
        assert result.iterations == n - 1
        assert all(math.isfinite(v) for v in result.chosen)


def test_iteration_within_ten_tol_of_exact():
    rng = random.Random(31)
    tol = 1e-12
    for _ in range(5):
        params = sample_model_params(rng)
        for pattern in (1, 6):
            result = best_response_iteration(params, pattern, tol=tol)
            if not result.converged:
                continue
            exact = solve_equilibrium(params, pattern).chosen
            for approx, truth in zip(result.chosen, exact):
                assert abs(approx - float(truth)) <= 10 * tol


def test_iteration_validation():
    with pytest.raises(ValueError, match="damping"):
        best_response_iteration(SPOT, 1, damping=0)
    with pytest.raises(ValueError, match="tol"):
        best_response_iteration(SPOT, 1, tol=0)
    # tol=inf would stop at the first iterate and report it converged.
    with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
        best_response_iteration(SPOT, 1, tol=math.inf)
    with pytest.raises(ValueError, match="max_iter"):
        best_response_iteration(SPOT, 1, max_iter=-1)
    with pytest.raises(ValueError, match="init"):
        best_response_iteration(SPOT, 1, init=(0.0, 0.0))
    with pytest.raises(ValueError, match="init must be finite"):
        best_response_iteration(SPOT, 1, init=(0.0, math.inf, 0.0), max_iter=0)
    near_one = ModelParams(10, Fraction(10**7 - 1, 10**7), 2, 2, 3)
    with pytest.raises(ValueError, match="float mode"):
        best_response_iteration(near_one, 1)


@pytest.mark.parametrize("max_iter", [True, False, 2.5, "3", None, Fraction(3)], ids=repr)
def test_iteration_budget_must_be_an_int_not_a_bool(max_iter):
    with pytest.raises(ValueError, match=re.escape(f"max_iter must be an integer >= 0, "
                                                   f"got {max_iter!r}")):
        best_response_iteration(SPOT, 1, max_iter=max_iter)


@pytest.mark.parametrize("option", ["tol", "damping"])
def test_iteration_tolerance_and_damping_are_no_bools(option):
    # tol=True would stop at the second iterate and report it converged.
    with pytest.raises(ValueError, match=f"^{option} must .*, got True$"):
        best_response_iteration(SPOT, 1, **{option: True})
