"""Verification layer tests: equivalence, minimax scans, property suite."""

import copy
import dataclasses
import math
import pickle
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triopoly.verify
from triopoly.equilibrium import payoff_slice, resolve_market, solve_equilibrium
from triopoly.exact import QuadraticForm, as_rational, format_rational
from triopoly.market import (
    ALL_ASSIGNMENTS,
    FIRMS,
    MarketState,
    ModelParams,
    as_assignment,
    firm_index,
    payoff_vector,
)
from triopoly.verify import (
    DegenerateSlice,
    GridSpec,
    MinimaxSlice,
    _compare,
    check_equivalence,
    closed_form_discrepancies,
    equal_pattern_pairs,
    equivalence_matrix,
    grid_minimax_pair,
    minimax_check,
    property_suite,
    sample_model_params,
)

SPOT = ModelParams(10, "1/2", 2, 2, 3)
SYMMETRIC = ModelParams(10, "1/2", 2, 2, 2)


# --- equivalence ------------------------------------------------------------------


def test_equivalent_pair_1_2():
    report = check_equivalence(SPOT, 1, 2)
    assert report.equal
    assert report.max_abs_diff == 0
    assert report.witness is None
    assert (report.left, report.right) == ("1", "2")


def test_non_equivalent_pair_1_3():
    report = check_equivalence(SPOT, 1, 3)
    assert not report.equal
    assert report.max_abs_diff > 0
    assert report.witness is not None
    left_state, right_state = report.witness
    assert left_state != right_state
    doc = report.to_dict()
    assert doc["witness"]["left"]["x"][0] == "114/35"


def test_full_symmetry_makes_1_and_6_equal():
    report = check_equivalence(SYMMETRIC, 1, 6)
    assert report.equal
    expected = (SYMMETRIC.a - 2) / (2 + SYMMETRIC.b)
    assert solve_equilibrium(SYMMETRIC, 1).state.x == (expected,) * 3


def test_equivalence_accepts_assignment_strings():
    report = check_equivalence(SPOT, "QPP", 5)
    assert report.left == "QPP"
    assert report.right == "5"
    assert not report.equal  # mirrored assignment, same values only after A/B swap


def test_matrix_spot_equal_pairs():
    assert equal_pattern_pairs(SPOT) == [(1, 2), (4, 6)]


def test_matrix_symmetric_all_equal():
    matrix = equivalence_matrix(SYMMETRIC)
    assert all(report.equal for row in matrix for report in row)
    assert len(equal_pattern_pairs(SYMMETRIC)) == 15


def test_matrix_diagonal_trivial():
    matrix = equivalence_matrix(SPOT)
    for i in range(6):
        assert matrix[i][i].equal
        assert matrix[i][i].max_abs_diff == 0


_state_values = st.fractions(min_value=-20, max_value=20, max_denominator=60)
_state_vectors = st.tuples(_state_values, _state_values, _state_values)


@st.composite
def _state_pairs(draw):
    """Two states, each made with ``MarketState(x, p)`` or ``from_outputs``."""
    params = ModelParams("101/3", draw(st.sampled_from(("1/2", "5/7", "3/1000003"))), 2, 3, 4)

    def made(x, p):
        return MarketState.from_outputs(params, x) if draw(st.booleans()) else MarketState(x, p)

    x, p = draw(_state_vectors), draw(_state_vectors)
    kind = draw(st.sampled_from(("identical", "same_x", "zeros", "sign_flip", "independent")))
    if kind == "zeros":
        x = p = (Fraction(0),) * 3
    left = made(x, p)
    if kind in ("identical", "zeros"):
        right = draw(st.sampled_from((left, MarketState(left.x, left.p), made(left.x, left.p))))
    elif kind == "same_x":
        right = MarketState(left.x, draw(_state_vectors))
    elif kind == "sign_flip":
        right = made(tuple(-v for v in left.x), tuple(-v for v in left.p))
    else:
        right = made(draw(_state_vectors), draw(_state_vectors))
    return left, right


@settings(max_examples=400, deadline=None)
@given(_state_pairs())
def test_compare_matches_the_definition(pair):
    left, right = pair
    el, er = SimpleNamespace(state=left), SimpleNamespace(state=right)
    report = _compare(1, "QPP", el, er)
    max_diff = max(abs(u - v) for u, v in zip(left.x + left.p, right.x + right.p))
    assert (report.left, report.right) == ("1", "QPP")
    assert report.equal == (max_diff == 0) == (left == right)
    assert type(report.max_abs_diff) is Fraction and report.max_abs_diff == max_diff
    if report.equal:
        assert report.witness is None
    else:
        assert report.witness[0] is left and report.witness[1] is right


def test_closed_form_discrepancies_spot():
    entries = closed_form_discrepancies(SPOT)
    assert entries == [{
        "pattern": 1,
        "component": "xC",
        "printed": "-94/35",
        "corrected": "94/35",
    }]
    assert closed_form_discrepancies(ModelParams(10, "1/2", 2, 3, 3)) == []


# --- grid spec --------------------------------------------------------------------


def test_grid_spec_values():
    grid = GridSpec(0, 1, 5)
    assert grid.step == Fraction(1, 4)
    assert grid.values() == [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1]
    floats = grid.float_values()
    assert len(floats) == 5 and floats[0] == 0.0 and floats[-1] == 1.0


def test_grid_integer_form_is_never_stale():
    # Every route that makes a grid must leave it holding the integers of its own
    # bounds and step, which the chains and the tolerance read.
    grid = GridSpec("-1/3", "7/2", 5)
    made = [grid, dataclasses.replace(grid, hi=Fraction(5, 4)),
            dataclasses.replace(grid, points=1001), copy.deepcopy(grid),
            pickle.loads(pickle.dumps(grid))]
    for held in made:
        s, w_lo, w_hi, dt = held._ints
        assert (Fraction(w_lo, s), Fraction(w_hi, s), Fraction(dt, s)) == (
            held.lo, held.hi, held.step)
    assert made[3] == grid and hash(made[3]) == hash(grid) and "_ints" not in repr(grid)


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        GridSpec(1, 1, 5)
    with pytest.raises(ValueError, match="at least 3"):
        GridSpec(0, 1, 2)
    with pytest.raises(ValueError, match="integer"):
        GridSpec(0, 1, "5")


def test_grid_bounds_are_no_bools():
    # Not the grid [0, 1].
    with pytest.raises(TypeError, match="cannot convert bool"):
        GridSpec(False, True, 3)


@pytest.mark.parametrize("points", [True, False, 5.0, "5", Fraction(5)])
def test_grid_points_must_be_an_int_not_a_bool(points):
    with pytest.raises(ValueError, match=f"^points must be an integer, got {re.escape(repr(points))}$"):
        GridSpec(0, 1, points)


# --- minimax ----------------------------------------------------------------------


def bilinear_saddle():
    # u(t, s) = t * s has its saddle at the origin.
    half = Fraction(1, 2)
    return QuadraticForm(((0, half), (half, 0)), (0, 0), 0)


def test_toy_bilinear_saddle_exact_zero():
    grid = GridSpec(-1, 1, 5)
    for mode in ("exact", "float"):
        min_max, max_min = grid_minimax_pair(bilinear_saddle(), grid, mode=mode)
        assert min_max == 0
        assert max_min == 0


def test_degenerate_slice_detected():
    constant_in_min = QuadraticForm(((1, 0), (0, 0)), (0, 0), 0)
    with pytest.raises(DegenerateSlice, match="minimized"):
        grid_minimax_pair(constant_in_min, GridSpec(-1, 1, 5))


def test_grid_minimax_pair_validation():
    with pytest.raises(ValueError, match="two-variable"):
        grid_minimax_pair(QuadraticForm.from_numerators(((0, 0, 0),) * 3, (0, 0, 0), 0, 1),
                          GridSpec(0, 1, 5))
    with pytest.raises(ValueError, match="mode"):
        grid_minimax_pair(bilinear_saddle(), GridSpec(0, 1, 5), mode="fast")


def _full_scan_chain(form, grid, outer, *, inner_maximize, outer_pick_max, mode):
    """Oracle: the inner extreme at every grid point, then the outer extreme."""
    inner = 1 - outer
    num = float if mode == "float" else as_rational
    q_ii, q_io, q_oo = (num(form.quad[r][c])
                        for r, c in ((inner, inner), (inner, outer), (outer, outer)))
    l_i, l_o, k = num(form.lin[inner]), num(form.lin[outer]), num(form.const)
    lo, hi = num(grid.lo), num(grid.hi)
    points = grid.float_values() if mode == "float" else grid.values()
    best = None
    for t in points:
        beta = 2 * q_io * t + l_i
        gamma = (q_oo * t + l_o) * t + k
        val = triopoly.verify._segment_extreme(q_ii, beta, gamma, lo, hi, inner_maximize)
        if best is None or (val > best if outer_pick_max else val < best):
            best = val
    return best


_DENOMINATORS = (1, 2, 3, 7, 64, 999983, 1000003)


@st.composite
def _chains(draw, points):
    """A two-variable form, a grid and a chain shape; the kinds are named by the inner variable."""
    rng = random.Random(draw(st.integers(0, 2**64)))

    def rational(bound=5):
        den = rng.choice(_DENOMINATORS)
        return Fraction(rng.randint(-bound * den, bound * den), den)

    alpha, q_io, q_oo, l_i, l_o, k = (rational() for _ in range(6))
    kind = draw(st.sampled_from(
        ("general", "alpha_zero", "q_io_zero", "flat_vertex", "flat_constant_vertex",
         "nearly_flat_vertex", "nearly_constant", "bilinear_saddle", "small_integers",
         "narrow_saddle_box", "vertex_crossing", "concave_convex")))
    inner_maximize, outer_pick_max = draw(st.booleans()), draw(st.booleans())

    def tiny():
        return Fraction(rng.choice((1, -1)), 10 ** rng.randint(12, 18))

    if kind == "alpha_zero":
        alpha = Fraction(0)
    elif kind == "q_io_zero":
        q_io = Fraction(0)
    elif kind in ("flat_vertex", "flat_constant_vertex", "nearly_flat_vertex"):
        # q_oo alpha = q_io^2: the vertex piece is linear, or constant in t.
        # Nearly flat, its values differ by less than the float rounding.
        alpha = alpha or Fraction(1)
        q_oo = q_io * q_io / alpha
        if kind != "flat_vertex":
            l_o = q_io * l_i / alpha
        if kind == "nearly_flat_vertex":
            q_oo += tiny()
            l_o += tiny()
    elif kind == "nearly_constant":
        # Endpoint pieces that vary with t only below the float rounding.
        alpha, q_io, q_oo, l_o = Fraction(0), Fraction(0), tiny(), tiny()
    elif kind == "bilinear_saddle":
        alpha = q_oo = l_i = l_o = k = Fraction(0)
        q_io = Fraction(rng.choice((1, -1)), 2)
    elif kind == "small_integers":
        alpha, q_io, q_oo, l_i, l_o, k = (Fraction(rng.randint(-2, 2)) for _ in range(6))
    outer = draw(st.integers(0, 1))
    lo = rational()
    den = rng.choice(_DENOMINATORS)
    width = Fraction(rng.randint(1, 20 * den), den)
    if kind == "narrow_saddle_box":
        # Saddle at (lo, lo) in a box 10^-9 to 10^-2 wide around it: near the
        # optimum, float rounding outweighs the change from one index to the
        # next, and the float pick can land off the exact one.
        l_o, l_i = -2 * (q_oo + q_io) * lo, -2 * (q_io + alpha) * lo
        width /= 10 ** rng.randint(3, 9)
        lo -= width * Fraction(rng.randint(1, 999), 1000)
    elif kind == "vertex_crossing":
        # The inner vertex -(2 q_io t + l_i) / (2 alpha) reaches lo or hi at an
        # outer value t inside the grid: the chain hands over between the
        # vertex piece and an end piece there.
        alpha, q_io = alpha or Fraction(-1), q_io or Fraction(1)
        t = lo + width * Fraction(rng.randint(1, 999), 1000)
        l_i = -2 * (alpha * rng.choice((lo, lo + width)) + q_io * t)
    elif kind == "concave_convex":
        # A saddle: the inner curvature strictly of the inner player's sign
        # (negative for a maximizer), the outer one weakly of the outer
        # player's, and the stationary point (w, t) placed by the linear
        # terms. w lies strictly inside [lo, hi], on lo, on hi or outside; t
        # inside the grid or off it, where its index is clipped to 0 or n.
        # Half the draws give both players the same role, which is no saddle.
        alpha = abs(alpha or 1) * (-1 if inner_maximize else 1)
        q_oo = abs(q_oo) * (-1 if outer_pick_max else 1)

        def place():  # strictly inside the side [lo, lo + width], on an end or outside
            share = rng.choice((Fraction(rng.randint(1, 999), 1000), 0, 1,
                                Fraction(-rng.randint(1, 2000), 1000),
                                Fraction(rng.randint(1001, 3000), 1000)))
            return lo + width * share

        w, t = place(), place()
        l_i, l_o = -2 * (alpha * w + q_io * t), -2 * (q_io * w + q_oo * t)
    quad = [[q_oo, q_io], [q_io, q_oo]]
    quad[1 - outer][1 - outer] = alpha
    lin = [l_o, l_o]
    lin[1 - outer] = l_i
    grid = GridSpec(lo, lo + width, draw(st.sampled_from(points)))
    shape = {"outer": outer, "inner_maximize": inner_maximize, "outer_pick_max": outer_pick_max}
    return QuadraticForm(tuple(map(tuple, quad)), tuple(lin), k), grid, shape


@settings(max_examples=2000, deadline=None)
@given(_chains((3, 11, 1001)))
def test_chain_value_float_equals_full_scan_bit_for_bit(chain):
    form, grid, shape = chain
    got = triopoly.verify._chain_value(form, grid, mode="float", **shape)
    want = _full_scan_chain(form, grid, mode="float", **shape)
    assert (type(got), repr(got)) == (type(want), repr(want))


_FLOAT_PICK_OFF_CASES = pytest.mark.parametrize(
    "coefficients, lo, hi, inner_maximize, outer_pick_max", [
        # The float pick lies after the exact optimum, inside a prefix window.
        (("-3", "8/3", "-3304738/1000003", "-4/3", "-7656760/3000009", "20/7"),
         "-200000143/100000000", "-199999043/100000000", True, True),
        # ... and before it, inside a suffix window.
        (("-2988318/1000003", "4", "3", "4143206625304/1000006000009", "28667212/1000003",
          "-4"),
         "-2047662979014937/1000003000000000", "-2047649978975937/1000003000000000", False,
         True),
        (("4860430/1000003", "-3", "-14/3", "14883368/1000003", "-184/3", "-1"),
         "-2000001963/500000000", "-1999995463/500000000", False, False),
    ])


def _float_pick_off_chain(coefficients, lo, hi, inner_maximize, outer_pick_max):
    q_oo, q_io, alpha, l_o, l_i, k = coefficients
    form = QuadraticForm(((q_oo, q_io), (q_io, alpha)), (l_o, l_i), k)
    shape = {"outer": 0, "inner_maximize": inner_maximize, "outer_pick_max": outer_pick_max}
    return form, GridSpec(lo, hi, 1001), shape


@_FLOAT_PICK_OFF_CASES
def test_chain_value_float_pick_off_the_exact_optimum(coefficients, lo, hi, inner_maximize,
                                                      outer_pick_max):
    form, grid, shape = _float_pick_off_chain(coefficients, lo, hi, inner_maximize,
                                              outer_pick_max)
    got = triopoly.verify._chain_value(form, grid, mode="float", **shape)
    assert repr(got) == repr(_full_scan_chain(form, grid, mode="float", **shape))


@_FLOAT_PICK_OFF_CASES
def test_chain_value_float_window_needs_the_error_bound(monkeypatch, coefficients, lo, hi,
                                                       inner_maximize, outer_pick_max):
    # Negative control: with no margin the window holds only the candidates'
    # best value, and each of these chains then misses the float pick.
    form, grid, shape = _float_pick_off_chain(coefficients, lo, hi, inner_maximize,
                                              outer_pick_max)
    monkeypatch.setattr(triopoly.verify, "_float_error_bound", lambda *args: 0.0)
    got = triopoly.verify._chain_value(form, grid, mode="float", **shape)
    assert repr(got) != repr(_full_scan_chain(form, grid, mode="float", **shape))


@settings(max_examples=1000, deadline=None)
@given(_chains((3, 11, 1001, 10**6 + 1)), st.data())
def test_float_error_bound_holds_pointwise(chain, data):
    # The float window rests on this bound alone: at each index the scan's
    # float expression lies within eps of the exact chain value.
    form, grid, shape = chain
    inner, outer = 1 - shape["outer"], shape["outer"]
    q, lin = form.quad, form.lin
    coefs = (q[inner][inner], q[inner][outer], q[outer][outer], lin[inner], lin[outer],
             form.const)
    floats = tuple(map(float, coefs))
    lo, hi, step = float(grid.lo), float(grid.hi), float(grid.step)
    eps = triopoly.verify._float_error_bound(floats, lo, hi)
    n = grid.points - 1
    for i in (0, n, data.draw(st.integers(0, n)), data.draw(st.integers(0, n))):
        t, exact_t = lo + i * step, grid.lo + i * grid.step
        got = triopoly.verify._segment_extreme(
            floats[0], 2 * floats[1] * t + floats[3], (floats[2] * t + floats[4]) * t + floats[5],
            lo, hi, shape["inner_maximize"])
        want = triopoly.verify._segment_extreme(
            coefs[0], 2 * coefs[1] * exact_t + coefs[3],
            (coefs[2] * exact_t + coefs[4]) * exact_t + coefs[5], grid.lo, grid.hi,
            shape["inner_maximize"])
        assert eps == math.inf or abs(Fraction(got) - want) <= Fraction(eps)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.booleans(), max_size=300), st.integers(-500, 500))
def test_last_true_holds_for_any_predicate(tail, lo):
    # Any pattern with pred(lo) true; lo may be negative, as in a leftward gallop.
    bits, hi, calls = [True, *tail], lo + 1 + len(tail), []

    def pred(j):
        assert lo < j < hi
        calls.append(j)
        return bits[j - lo]

    j = triopoly.verify._last_true(pred, lo, hi)
    assert lo <= j < hi and bits[j - lo] and (j + 1 == hi or not bits[j + 1 - lo])
    assert len(calls) <= 2 * math.ceil(math.log2(hi - lo))


@settings(max_examples=400, deadline=None)
@given(_chains((3, 11, 101)))
def test_chain_value_exact_equals_full_scan(chain):
    form, grid, shape = chain
    got = triopoly.verify._chain_value(form, grid, mode="exact", **shape)
    want = _full_scan_chain(form, grid, mode="exact", **shape)
    assert type(got) is Fraction and got == want


def test_chain_value_exact_equals_full_scan_on_default_grid():
    # The psi_A slice that minimax_check scans on SPOT: max over xA, min over xC, xB pinned.
    sliced = payoff_slice(SPOT, 1, "A", (0, 2), Fraction(114, 35))
    grid = GridSpec(0, SPOT.a, 1001)
    for outer, inner_maximize in ((1, True), (0, False)):
        shape = {"outer": outer, "inner_maximize": inner_maximize,
                 "outer_pick_max": not inner_maximize}
        got = triopoly.verify._chain_value(sliced, grid, mode="exact", **shape)
        assert got == _full_scan_chain(sliced, grid, mode="exact", **shape)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("form, grid, shape", [
    pytest.param(QuadraticForm(((-1, 1), (1, -3)), (3, 1), 2), GridSpec(-4, 1, 11),
                 {"outer": 0, "inner_maximize": False, "outer_pick_max": True},
                 id="vertex_of_A"),
    pytest.param(QuadraticForm(((-3, 2), (2, 1)), (-3, 1), 1), GridSpec(-1, 5, 11),
                 {"outer": 0, "inner_maximize": True, "outer_pick_max": True},
                 id="vertex_of_B"),
    pytest.param(QuadraticForm(((-3, 3), (3, -1)), (0, -1), -2), GridSpec(-1, 5, 7),
                 {"outer": 1, "inner_maximize": False, "outer_pick_max": True},
                 id="A_B_switch"),
    pytest.param(QuadraticForm(((0, 3), (3, 3)), (0, 1), -3), GridSpec(-1, 4, 9),
                 {"outer": 0, "inner_maximize": False, "outer_pick_max": True},
                 id="vertex_of_V"),
])
def test_chain_value_needs_each_candidate(form, grid, shape, mode):
    # Each chain's grid optimum sits next to one candidate point and at no
    # other candidate: the chain value is wrong without that point.
    got = triopoly.verify._chain_value(form, grid, mode=mode, **shape)
    assert repr(got) == repr(_full_scan_chain(form, grid, mode=mode, **shape))


_BOTH_MINIMIZE = {"outer": 0, "inner_maximize": False, "outer_pick_max": False}
_MIN_MAX = {"outer": 1, "inner_maximize": True, "outer_pick_max": False}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("form, grid, shape, saddle", [
    # q_ii = 0 with D = -q_io^2 < 0, and both players minimizing.
    pytest.param(QuadraticForm.from_numerators(((2, -1), (-1, 0)), (0, 1), 1, 1),
                 GridSpec(-4, Fraction(19, 7), 11), _BOTH_MINIMIZE, False,
                 id="inner_curvature_zero"),
    # q_ii > 0, q_oo > 0 and D < 0 with both players minimizing: the chain is
    # concave, and its optimum sits at a grid end, not next to the saddle.
    pytest.param(QuadraticForm.from_numerators(
        ((89269587807960, -103998543994696), (-103998543994696, 111998431994288)),
        (-90214856643758, 48999313997501), -176678340417152, 55999215997144),
        GridSpec(Fraction(-1225003, 400000), Fraction(-1224943, 400000), 3), _BOTH_MINIMIZE,
        False, id="both_minimize"),
    # Boxes so narrow that every index lies within the float reach of the
    # optimum: the window runs from the one candidate to the far grid end.
    # Here the saddle lies above the grid, so the candidate is n, and the
    # float scan picks index 0 ...
    pytest.param(QuadraticForm.from_numerators(((-500, -12250), (-12250, 0)), (57161, 42679),
                                               -10500, 1750),
                 GridSpec(Fraction(17419999989, 10**10), Fraction(17420000089, 10**10), 3),
                 _MIN_MAX, True, id="pick_at_0"),
    # ... and here below it, with the candidate 0 and the pick at n.
    pytest.param(QuadraticForm.from_numerators(((-7000, 2500), (2500, 0)), (37071, -11120),
                                               -24500, 3500),
                 GridSpec(Fraction(5559999999843, 2500000000000),
                          Fraction(5560000000093, 2500000000000), 3),
                 _MIN_MAX, True, id="pick_at_n"),
])
def test_chain_value_saddle_selection(form, grid, shape, saddle, mode):
    inner, outer = 1 - shape["outer"], shape["outer"]
    q, lin = form.quad_num, form.lin_num
    coefs = (q[inner][inner], q[inner][outer], q[outer][outer], lin[inner], lin[outer])
    floor = triopoly.verify._saddle_floor(coefs, grid, inner_maximize=shape["inner_maximize"],
                                          outer_pick_max=shape["outer_pick_max"])
    assert (floor is not None) == saddle
    got = triopoly.verify._chain_value(form, grid, mode=mode, **shape)
    assert repr(got) == repr(_full_scan_chain(form, grid, mode=mode, **shape))


def test_every_readme_chain_is_a_saddle_chain(monkeypatch):
    floors = []
    real = triopoly.verify._saddle_floor

    def recorded(*args, **kwargs):
        floors.append(real(*args, **kwargs))
        return floors[-1]

    monkeypatch.setattr(triopoly.verify, "_saddle_floor", recorded)
    for firm in ("A", "B", "C"):
        assert minimax_check(SPOT, MinimaxSlice(firm)).passed
    assert len(floors) == 12 and None not in floors


def test_chain_evaluates_few_float_indices_on_the_default_grid(monkeypatch):
    counts = []
    real_extreme = triopoly.verify._segment_extreme
    real_chain = triopoly.verify._chain_value

    def counted_extreme(*args):
        counts[-1] += 1
        return real_extreme(*args)

    def counted_chain(*args, **kwargs):
        counts.append(0)
        return real_chain(*args, **kwargs)

    monkeypatch.setattr(triopoly.verify, "_segment_extreme", counted_extreme)
    monkeypatch.setattr(triopoly.verify, "_chain_value", counted_chain)
    for firm in ("A", "B", "C"):
        assert minimax_check(SPOT, MinimaxSlice(firm)).passed
    assert len(counts) == 12
    assert max(counts) <= 16


def test_minimax_check_spot_psi_a():
    report = minimax_check(SPOT, MinimaxSlice("A"))
    assert report.passed
    assert report.max_firm == "A"
    assert report.min_firm == "C"
    assert report.fixed_firm == "B"
    assert report.fixed_value == Fraction(114, 35)
    assert sorted(report.quantities) == [
        "max_min_direct", "max_min_transformed",
        "min_max_direct", "min_max_transformed",
    ]
    assert report.spread <= report.tolerance


def test_minimax_check_spot_psi_b():
    report = minimax_check(SPOT, MinimaxSlice("B"))
    assert report.passed
    assert report.max_firm == "B"
    assert report.min_firm == "C"
    assert report.fixed_firm == "A"


def test_minimax_direct_only():
    report = minimax_check(SPOT, MinimaxSlice("A", transform="direct"))
    assert sorted(report.quantities) == ["max_min_direct", "min_max_direct"]
    assert report.passed


def test_minimax_exact_mode_agrees_with_float():
    slice_spec = MinimaxSlice("A", transform="direct")
    grid = GridSpec(0, 10, 101)
    exact = minimax_check(SPOT, slice_spec, grid, mode="exact")
    approx = minimax_check(SPOT, slice_spec, grid, mode="float")
    assert exact.passed and approx.passed
    for key in exact.quantities:
        assert abs(exact.quantities[key] - approx.quantities[key]) < 1e-9


def test_minimax_explicit_fixed_value():
    pinned = minimax_check(SPOT, MinimaxSlice("A", fixed_value=Fraction(114, 35)))
    default = minimax_check(SPOT, MinimaxSlice("A"))
    assert pinned.quantities == default.quantities


def test_minimax_slice_validation():
    with pytest.raises(ValueError, match="transform"):
        MinimaxSlice("A", transform="sideways")
    with pytest.raises(ValueError, match="differ"):
        MinimaxSlice("A", max_firm="C", min_firm="C").resolve_firms()
    with pytest.raises(ValueError, match="unknown firm"):
        MinimaxSlice("Z")


@pytest.mark.parametrize("firms", [{"min_firm": "A"}, {"max_firm": "B", "min_firm": "B"},
                                   {"payoff_firm": "C", "min_firm": "C"}])
def test_minimax_slice_refuses_equal_max_and_min_firms_at_construction(firms):
    with pytest.raises(ValueError, match="max_firm and min_firm must differ"):
        MinimaxSlice(**{"payoff_firm": "A", **firms})


def test_minimax_check_pins_with_payoff_slice_alone(monkeypatch):
    # The slices come from the operator in one pass: no 3-variable payoff form
    # is built, and the reports are those of the slices built on the market.
    specs = [MinimaxSlice(firm, base_assignment=asg, transform=transform)
             for firm in FIRMS for asg in ("QQQ", "PQP")
             for transform in ("direct", "via_other_variable", "both")]
    specs.append(MinimaxSlice("B", max_firm="C", min_firm="A", fixed_value=Fraction(-7, 3)))
    expected = [[minimax_check(SPOT, spec, mode=mode).to_dict() for spec in specs]
                for mode in ("float", "exact")]
    dims = []
    real_fill = QuadraticForm._fill

    def counted(self, quad, lin, const, den):
        dims.append(len(lin))
        return real_fill(self, quad, lin, const, den)

    monkeypatch.setattr(QuadraticForm, "_fill", counted)
    assert [[minimax_check(SPOT, spec, mode=mode).to_dict() for spec in specs]
            for mode in ("float", "exact")] == expected
    assert dims and set(dims) == {2}
    for spec in specs[:-1]:
        max_firm, min_firm, fixed_firm = spec.resolve_firms()
        keep = (firm_index(max_firm), firm_index(min_firm))
        value = solve_equilibrium(SPOT, spec.base_assignment).chosen[firm_index(fixed_firm)]
        assert payoff_slice(SPOT, spec.base_assignment, spec.payoff_firm, keep, value) == \
            _market_slice(SPOT, spec.base_assignment, spec.payoff_firm, keep, value)


def test_minimax_report_serialization():
    doc = minimax_check(SPOT, MinimaxSlice("A")).to_dict()
    assert doc["pass"] is True
    assert doc["fixed_value"] == "114/35"
    assert doc["grid"] == {"lo": "0/1", "hi": "10/1", "points": 1001}
    assert doc["base_assignment"] == "QQQ"


def _market_slice(params, asg, firm, keep, value) -> QuadraticForm:
    """Firm ``firm``'s psi in the coordinates ``keep``, the third at ``value``, from the market.

    psi is quadratic in the committed values, so its values at the six points
    (0, 0), (1, 0), (0, 1), (2, 0), (1, 1) and (0, 2) of the two kept
    coordinates give its coefficients by finite differences.
    """
    i = firm_index(firm)

    def psi(y0, y1):
        v = [value] * 3
        v[keep[0]], v[keep[1]] = y0, y1
        return payoff_vector(params, resolve_market(params, asg, v)).psi[i]

    f00, f10, f01, f20, f11, f02 = (psi(*y) for y in ((0, 0), (1, 0), (0, 1), (2, 0),
                                                      (1, 1), (0, 2)))
    q00, q11 = (f20 - 2 * f10 + f00) / 2, (f02 - 2 * f01 + f00) / 2
    q01 = (f11 - f10 - f01 + f00) / 2
    return QuadraticForm(((q00, q01), (q01, q11)), (f10 - f00 - q00, f01 - f00 - q11), f00)


def _fraction_minimax(params, slice_spec, grid, mode):
    """Oracle: the pinned value from a full solve, the market's slices, 2 h G and the spread."""
    max_firm, min_firm, fixed_firm = slice_spec.resolve_firms()
    fixed = firm_index(fixed_firm)
    value = solve_equilibrium(params, slice_spec.base_assignment).chosen[fixed]
    keep = (firm_index(max_firm), firm_index(min_firm))
    base, flipped = slice_spec.base_assignment, slice_spec.base_assignment.flip(min_firm)
    assignments = {"direct": (base,), "via_other_variable": (flipped,),
                   "both": (base, flipped)}[slice_spec.transform]
    forms = [_market_slice(params, asg, slice_spec.payoff_firm, keep, value)
             for asg in assignments]
    reach = max(abs(grid.lo), abs(grid.hi))
    bound = max(2 * (abs(form.quad[w][w]) + abs(form.quad[w][1 - w])) * reach
                + abs(form.lin[w]) for form in forms for w in (0, 1))
    tolerance = 2 * grid.step * bound
    values = [v for form in forms for v in grid_minimax_pair(form, grid, mode=mode)]
    spread = max(values) - min(values)
    passed = spread <= (tolerance if mode == "exact" else float(tolerance))
    return value, float(tolerance), float(spread), passed, [float(v) for v in values]


_minimax_b = st.sampled_from((64, 999_983, 1_000_003, 1_000_033)).flatmap(
    lambda den: st.integers(1, den - 2).map(lambda k: Fraction(k, den)))
_minimax_costs = st.fractions(min_value=0, max_value=30, max_denominator=1000)


@st.composite
def _minimax_cases(draw):
    costs = draw(st.tuples(_minimax_costs, _minimax_costs, _minimax_costs)
                 .filter(lambda c: c[0] != c[1]))
    margin = Fraction(draw(st.integers(1, 400)), draw(st.sampled_from((1, 3, 7, 97))))
    params = ModelParams(max(costs) + margin, draw(_minimax_b), *costs)
    slice_spec = MinimaxSlice(draw(st.sampled_from(FIRMS)),
                              base_assignment=draw(st.sampled_from(ALL_ASSIGNMENTS)),
                              transform=draw(st.sampled_from(
                                  ("direct", "via_other_variable", "both"))))
    den = draw(st.sampled_from((1, 2, 3, 64)))
    lo = Fraction(draw(st.integers(-10 * den, 5 * den)), den)
    width = Fraction(draw(st.integers(1, 60 * den)), den)
    grid = GridSpec(lo, lo + width, draw(st.sampled_from((3, 101, 1001))))
    return params, slice_spec, grid


@settings(max_examples=200, deadline=None)
@given(_minimax_cases())
def test_minimax_check_matches_the_fraction_oracle(case):
    params, slice_spec, grid = case
    for mode in ("exact", "float"):
        value, tolerance, spread, passed, values = _fraction_minimax(params, slice_spec, grid,
                                                                     mode)
        report = minimax_check(params, slice_spec, grid, mode=mode)
        assert type(report.fixed_value) is Fraction and report.fixed_value == value
        assert repr(report.tolerance) == repr(tolerance)
        assert repr(report.spread) == repr(spread)
        assert report.passed == passed
        assert list(report.quantities.values()) == values


# --- sampler and property suite --------------------------------------------------------


def test_sampler_ranges_and_determinism():
    first = [sample_model_params(random.Random(3)) for _ in range(20)]
    second = [sample_model_params(random.Random(3)) for _ in range(20)]
    assert first == second
    for params in first:
        assert 5 <= params.a <= 50
        assert 0 < params.b < 1
        assert params.b.denominator in (1, 2, 4, 8, 16, 32, 64)
        assert params.c_a == params.c_b
        assert 0 <= params.c_c < params.a


def test_suite_passes_on_spot():
    report = property_suite(SPOT, draws=25, seed=42)
    assert report.passed
    statuses = {p.name: p.status for p in report.properties}
    assert statuses["zero_sum"] == "pass"
    assert statuses["closed_form_agreement"] == "pass"
    assert statuses["cross_pattern_non_equivalence"] == "pass"
    assert all(s in ("pass", "skipped") for s in statuses.values())


def test_suite_printed_oracle_negative_control():
    report = property_suite(SPOT, draws=5, seed=42, oracle="printed")
    outcome = {p.name: p for p in report.properties}
    agreement = outcome["closed_form_agreement"]
    assert agreement.status == "fail"
    assert agreement.counterexample["pattern"] == 1
    assert agreement.counterexample["component"] == "xC"
    assert not report.passed


def test_suite_draw0_is_given_params():
    # c_C = c_A: non-equivalence is vacuous on the single draw, collapse is not.
    report = property_suite(SYMMETRIC, draws=1, seed=0)
    statuses = {p.name: p.status for p in report.properties}
    assert statuses["cross_pattern_non_equivalence"] == "skipped"
    assert statuses["full_symmetry_collapse"] == "pass"
    # c_C != c_A flips which property is vacuous.
    report = property_suite(SPOT, draws=1, seed=0)
    statuses = {p.name: p.status for p in report.properties}
    assert statuses["cross_pattern_non_equivalence"] == "pass"
    assert statuses["full_symmetry_collapse"] == "skipped"


def test_suite_asymmetric_costs_skip_table_checks():
    asymmetric = ModelParams(10, "1/2", 2, 3, 4)
    report = property_suite(asymmetric, draws=1, seed=0)
    statuses = {p.name: p.status for p in report.properties}
    assert statuses["closed_form_agreement"] == "skipped"
    assert statuses["ab_symmetry"] == "skipped"
    assert statuses["zero_sum"] == "pass"


def test_suite_validation():
    with pytest.raises(ValueError, match="draws"):
        property_suite(SPOT, draws=0)
    with pytest.raises(ValueError, match="oracle"):
        property_suite(SPOT, draws=1, oracle="guess")


@pytest.mark.parametrize("draws", [True, False, 2.5, "3", Fraction(3), None])
def test_suite_draws_must_be_an_int_not_a_bool(draws):
    with pytest.raises(ValueError, match=f"^draws must be an integer, got {re.escape(repr(draws))}$"):
        property_suite(SPOT, draws=draws)


def test_suite_deterministic():
    left = property_suite(SPOT, draws=10, seed=9).to_dict()
    right = property_suite(SPOT, draws=10, seed=9).to_dict()
    assert left == right


def test_suite_keeps_counting_after_another_property_fails():
    # Draw 0 has cA != cB, so the table checks first apply at draw 1.
    report = property_suite(ModelParams(10, "1/2", 2, 3, 4), draws=5, seed=0,
                            oracle="printed")
    outcome = {p.name: p for p in report.properties}
    agreement = outcome["closed_form_agreement"]
    assert (agreement.status, agreement.checked) == ("fail", 1)
    assert agreement.counterexample["draw"] == 1
    assert outcome["zero_sum"].checked == 5
    assert outcome["ab_symmetry"].checked == 4
    assert outcome["full_symmetry_collapse"].status == "skipped"
    assert all(p.status == "pass" for p in report.properties
               if p.name not in ("closed_form_agreement", "full_symmetry_collapse"))


@pytest.fixture
def solve_calls(monkeypatch):
    """Count the solves the verify module runs."""
    calls = []
    real = triopoly.verify.solve_equilibrium

    def counted(params, assignment):
        calls.append(assignment)
        return real(params, assignment)

    monkeypatch.setattr(triopoly.verify, "solve_equilibrium", counted)
    return calls


def test_suite_solves_each_draw_once(solve_calls):
    property_suite(SPOT, draws=10)
    assert len(solve_calls) <= 80
    solve_calls.clear()
    equivalence_matrix(SPOT)
    assert len(solve_calls) <= 6


def test_verify_command_solves_each_key_once(solve_calls, capsys):
    from triopoly.cli import run_cli

    # 100 draws of eight assignments; the matrix reuses draw 0's solves.
    assert run_cli(["verify", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2",
                    "--cC", "3", "--draws", "100"]) == 0
    assert "verification: PASS" in capsys.readouterr().out
    assert len(solve_calls) == 800


def test_verify_command_builds_no_payoff_form_when_every_property_passes(monkeypatch, capsys):
    from triopoly.cli import run_cli

    # The first-order-condition check runs on the solves' integers; a form is
    # built only to report a failure.
    calls = []
    real = QuadraticForm.from_numerators.__func__

    def counted(cls, *args):
        calls.append(args)
        return real(cls, *args)

    monkeypatch.setattr(QuadraticForm, "from_numerators", classmethod(counted))
    assert QuadraticForm.from_numerators(((1,),), (0,), 0, 1) and calls  # the counter sees calls
    calls.clear()
    assert run_cli(["verify", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2",
                    "--cC", "3", "--draws", "100"]) == 0
    assert "verification: PASS" in capsys.readouterr().out
    assert calls == []


def test_verify_command_calls_no_fraction_demand_map_when_every_property_passes(
        monkeypatch, capsys):
    import triopoly
    from triopoly.cli import run_cli

    # The demand round trip runs on ints, both ways; the public Fraction maps are
    # not called, wherever a module holds them.
    calls = []
    for name in ("direct_demand", "inverse_demand"):
        for module in (triopoly, triopoly.market, triopoly.equilibrium, triopoly.verify,
                       triopoly.cli):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name,
                                    lambda *args, _real=real, _name=name:
                                    calls.append(_name) or _real(*args))
    assert run_cli(["verify", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2",
                    "--cC", "3", "--draws", "100"]) == 0
    assert "verification: PASS" in capsys.readouterr().out
    assert calls == []


def test_demand_round_trip_fails_on_a_corrupted_pinning_row(monkeypatch):
    # The outputs -> prices -> outputs and prices -> outputs -> prices directions
    # each apply the all-price pinning rows once; shifting one row's intercept
    # column must fail either, with the vector that failed as the counterexample.
    from triopoly.equilibrium import _operator
    from triopoly.market import PATTERNS
    from triopoly.verify import _check_demand_round_trip, _SuiteCase

    x = (35, -6, 0), 15  # (7/3, -2/5, 0), as the suite holds a vector: ints over a den
    p = (72, 0, -1), 16  # (9/2, 0, -1/16)
    only_x = _SuiteCase(SPOT, (x,), (), {})
    only_p = _SuiteCase(SPOT, (), (p,), {})
    op = _operator.__wrapped__(*SPOT.b.as_integer_ratio(), PATTERNS[6])
    monkeypatch.setattr("triopoly.equilibrium._operator", lambda n, e, asg: op)
    assert _check_demand_round_trip(only_x, "corrected") == ("ok", None)
    assert _check_demand_round_trip(only_p, "corrected") == ("ok", None)
    for i in range(3):
        pin = tuple((*row[:3], row[3] + 1) if k == i else row for k, row in enumerate(op.pin))
        corrupted = dataclasses.replace(op, pin=pin)
        monkeypatch.setattr("triopoly.equilibrium._operator", lambda n, e, asg: corrupted)
        assert _check_demand_round_trip(only_x, "corrected") == (
            "fail", {"x": ["7/3", "-2/5", "0/1"]})
        assert _check_demand_round_trip(only_p, "corrected") == (
            "fail", {"p": ["9/2", "0/1", "-1/16"]})


def test_verify_command_rejects_draws_before_solving(solve_calls, capsys):
    from triopoly.cli import run_cli

    assert run_cli(["verify", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2",
                    "--cC", "3", "--draws", "0"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: draws must be at least 1, got 0\n")
    assert solve_calls == []


def test_own_concavity_fails_on_a_solve_without_its_second_order_flag(monkeypatch):
    real = triopoly.verify.solve_equilibrium

    def flagged(params, assignment):
        eq = real(params, assignment)
        return dataclasses.replace(eq, soc_ok=False) if str(assignment) == "QPP" else eq

    monkeypatch.setattr(triopoly.verify, "solve_equilibrium", flagged)
    outcome = {p.name: p for p in property_suite(SPOT, draws=1).properties}
    concavity = outcome["own_concavity"]
    assert (concavity.status, concavity.checked) == ("fail", 1)
    example = concavity.counterexample
    assert (example["draw"], example["assignment"]) == (0, "QPP")
    # Each firm's d^2 psi_i / d v_i^2 under QPP at SPOT. psi is quadratic in v, so
    # the market's second difference in v_i with step 1 is the same number.
    assert example["curvature"] == ["-4/3", "-8/3", "-8/3"]
    unit = [tuple(int(j == i) for j in range(3)) for i in range(3)]
    assert example["curvature"] == [
        format_rational(_market_psi("QPP", unit[i])[i] - 2 * _market_psi("QPP", (0, 0, 0))[i]
                        + _market_psi("QPP", tuple(-x for x in unit[i]))[i]) for i in range(3)]
    assert all(p.status != "fail" for name, p in outcome.items() if name != "own_concavity")


def test_verify_command_builds_the_matrix_once(solve_calls, capsys):
    from triopoly.cli import run_cli

    # Six solves for the matrix and eight for the single suite draw.
    assert run_cli(["verify", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2",
                    "--cC", "3", "--draws", "1"]) == 0
    assert "equal pairs: (1,2) (4,6)" in capsys.readouterr().out
    assert len(solve_calls) <= 14


def _market_psi(asg, v) -> tuple:
    """The relative payoffs at SPOT and committed values v, by their definition on the market."""
    return payoff_vector(SPOT, resolve_market(SPOT, asg, v)).psi


def _replace_in_draw(monkeypatch, key, change):
    """Make the suite's solve of ``key`` return ``change(eq)`` in place of its equilibrium eq."""
    real = triopoly.verify.solve_equilibrium

    def patched(params, assignment):
        eq = real(params, assignment)
        return change(eq) if as_assignment(assignment) == as_assignment(key) else eq

    monkeypatch.setattr(triopoly.verify, "solve_equilibrium", patched)


def test_foc_residual_fails_on_perturbed_committed_values(monkeypatch):
    # An equilibrium made by dataclasses.replace holds no integer form, so the
    # check reads its committed values over their lcm.
    v = solve_equilibrium(SPOT, 3).chosen
    perturbed = (v[0] + Fraction(1, 7), v[1], v[2])
    _replace_in_draw(monkeypatch, 3, lambda eq: dataclasses.replace(eq, chosen=perturbed))
    outcome = {p.name: p for p in property_suite(SPOT, draws=1).properties}
    residual = outcome["foc_residual"]
    assert (residual.status, residual.checked) == ("fail", 1)
    # psi is quadratic in v, so the market's central difference is firm A's own slope.
    slope = (_market_psi(3, (perturbed[0] + 1, *perturbed[1:]))[0]
             - _market_psi(3, (perturbed[0] - 1, *perturbed[1:]))[0]) / 2
    assert slope != 0
    assert residual.counterexample == {"draw": 0, "params": SPOT.to_dict(), "pattern": 3,
                                       "firm": "A", "residual": format_rational(slope)}
    assert all(p.status != "fail" for name, p in outcome.items() if name != "foc_residual")


def test_foc_residual_passes_on_committed_values_without_their_integer_form(monkeypatch):
    _replace_in_draw(monkeypatch, 4, lambda eq: dataclasses.replace(eq, chosen=eq.chosen))
    outcome = {p.name: p for p in property_suite(SPOT, draws=3).properties}
    assert (outcome["foc_residual"].status, outcome["foc_residual"].checked) == ("pass", 3)


def _state_with(state: MarketState, x0) -> MarketState:
    """A state from the public constructor: ``state`` with its first output replaced."""
    return MarketState((x0, *state.x[1:]), state.p)


def test_ab_symmetry_fails_on_an_asymmetric_state(monkeypatch):
    state = _state_with(solve_equilibrium(SPOT, 4).state, 1)
    _replace_in_draw(monkeypatch, 4, lambda eq: dataclasses.replace(eq, state=state))
    outcome = {p.name: p for p in property_suite(SPOT, draws=1).properties}
    symmetry = outcome["ab_symmetry"]
    assert (symmetry.status, symmetry.checked) == ("fail", 1)
    assert symmetry.counterexample == {"draw": 0, "params": SPOT.to_dict(), "pattern": 4,
                                       "state": state.to_dict()}


def test_ab_swap_covariance_fails_on_a_mirror_state_that_is_no_swap(monkeypatch):
    mirror = solve_equilibrium(SPOT, "QPP").state
    _replace_in_draw(monkeypatch, "QPP",
                     lambda eq: dataclasses.replace(eq, state=_state_with(mirror, 1)))
    outcome = {p.name: p for p in property_suite(SPOT, draws=1).properties}
    covariance = outcome["ab_swap_covariance"]
    assert (covariance.status, covariance.checked) == ("fail", 1)
    assert covariance.counterexample == {"draw": 0, "params": SPOT.to_dict(),
                                         "assignment": "QPP", "pattern": 5}


def test_ab_checks_pass_on_equal_states_from_the_public_constructor(monkeypatch):
    # The constructor's integer form is the solver's: equal states compare equal on it.
    for key in (4, "QPP"):
        _replace_in_draw(monkeypatch, key, lambda eq: dataclasses.replace(
            eq, state=MarketState(eq.state.x, eq.state.p)))
        outcome = {p.name: p.status for p in property_suite(SPOT, draws=3).properties}
        assert outcome["ab_symmetry"] == outcome["ab_swap_covariance"] == "pass"


def test_quantity_price_c_equivalence_fails_on_a_pattern_2_state_unlike_pattern_1s(monkeypatch):
    left = solve_equilibrium(SPOT, 1).state
    right = _state_with(solve_equilibrium(SPOT, 2).state, 1)
    _replace_in_draw(monkeypatch, 2, lambda eq: dataclasses.replace(eq, state=right))
    outcome = {p.name: p for p in property_suite(SPOT, draws=1).properties}
    equivalence = outcome["quantity_price_c_equivalence"]
    assert (equivalence.status, equivalence.checked) == ("fail", 1)
    assert equivalence.counterexample == {
        "draw": 0, "params": SPOT.to_dict(), "left": "1", "right": "2", "equal": False,
        "max_abs_diff": format_rational(abs(left.x[0] - 1)),
        "witness": {"left": left.to_dict(), "right": right.to_dict()}}


def test_non_equivalence_fails_on_a_pattern_3_state_equal_to_pattern_1s(monkeypatch):
    state = solve_equilibrium(SPOT, 1).state
    _replace_in_draw(monkeypatch, 3, lambda eq: dataclasses.replace(eq, state=state))
    outcome = {p.name: p for p in property_suite(SPOT, draws=1).properties}
    non_equivalence = outcome["cross_pattern_non_equivalence"]
    assert (non_equivalence.status, non_equivalence.checked) == ("fail", 1)
    assert non_equivalence.counterexample == {"draw": 0, "params": SPOT.to_dict(), "left": 1,
                                              "right": 3, "state": state.to_dict()}


@pytest.mark.parametrize("pattern, moved", [
    # An output off (a - c)/(2 + b) on the first state, which no other state is compared with.
    (1, lambda state: _state_with(state, state.x[0] + Fraction(1, 3))),
    # Outputs kept, one price moved: the state differs from pattern 1's, its outputs do not.
    (4, lambda state: MarketState(state.x, (state.p[0] + 1, *state.p[1:]))),
])
def test_full_symmetry_collapse_fails_on_a_moved_state(monkeypatch, pattern, moved):
    state = moved(solve_equilibrium(SYMMETRIC, pattern).state)
    _replace_in_draw(monkeypatch, pattern, lambda eq: dataclasses.replace(eq, state=state))
    outcome = {p.name: p for p in property_suite(SYMMETRIC, draws=1).properties}
    collapse = outcome["full_symmetry_collapse"]
    assert (collapse.status, collapse.checked) == ("fail", 1)
    assert collapse.counterexample == {"draw": 0, "params": SYMMETRIC.to_dict(),
                                       "pattern": pattern, "state": state.to_dict(),
                                       "expected_x": "16/5"}  # (10 - 2)/(2 + 1/2)


@pytest.mark.parametrize("params", [SPOT, SYMMETRIC, ModelParams("37/3", "5/64", "7/2", "7/2", 3)])
def test_table_and_equivalence_checks_build_no_fraction_on_a_passing_draw(params):
    # Each compares the solver's and the table's integer forms; a Fraction, a
    # report or a table is built only for a failing draw.
    from triopoly.verify import (_check_closed_form_agreement, _check_full_symmetry_collapse,
                                 _check_non_equivalence, _check_quantity_price_c_equivalence,
                                 _solve_draw, _SuiteCase)

    case = _SuiteCase(params, (), (), _solve_draw(params))
    checks = (_check_closed_form_agreement, _check_quantity_price_c_equivalence,
              _check_non_equivalence, _check_full_symmetry_collapse)
    real = Fraction.__dict__["__new__"]
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        assert Fraction(1, 2) and len(built) == 1  # the counter sees constructions
        built.clear()
        statuses = [check(case, "corrected")[0] for check in checks]
    finally:
        Fraction.__new__ = real
    assert built == []
    assert set(statuses) <= {"ok", "vacuous"} and statuses.count("ok") == 3
