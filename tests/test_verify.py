"""Verification layer tests: equivalence, minimax scans, property suite."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triopoly.verify
from triopoly.equilibrium import build_payoff_quadratic, solve_equilibrium
from triopoly.exact import QuadraticForm, as_rational, format_rational
from triopoly.market import ALL_ASSIGNMENTS, FIRMS, MarketState, ModelParams, firm_index
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
         "narrow_saddle_box")))

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
    quad = [[q_oo, q_io], [q_io, q_oo]]
    quad[1 - outer][1 - outer] = alpha
    lin = [l_o, l_o]
    lin[1 - outer] = l_i
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
    grid = GridSpec(lo, lo + width, draw(st.sampled_from(points)))
    shape = {"outer": outer, "inner_maximize": draw(st.booleans()),
             "outer_pick_max": draw(st.booleans())}
    return QuadraticForm(tuple(map(tuple, quad)), tuple(lin), k), grid, shape


@settings(max_examples=2000, deadline=None)
@given(_chains((3, 11, 1001)))
def test_chain_value_float_equals_full_scan_bit_for_bit(chain):
    form, grid, shape = chain
    got = triopoly.verify._chain_value(form, grid, mode="float", **shape)
    want = _full_scan_chain(form, grid, mode="float", **shape)
    assert (type(got), repr(got)) == (type(want), repr(want))


@pytest.mark.parametrize("coefficients, lo, hi, inner_maximize, outer_pick_max", [
    # The float pick lies after the exact optimum, inside a prefix window.
    (("-3", "8/3", "-3304738/1000003", "-4/3", "-7656760/3000009", "20/7"),
     "-200000143/100000000", "-199999043/100000000", True, True),
    # ... and before it, inside a suffix window.
    (("-2988318/1000003", "4", "3", "4143206625304/1000006000009", "28667212/1000003", "-4"),
     "-2047662979014937/1000003000000000", "-2047649978975937/1000003000000000", False, True),
    (("4860430/1000003", "-3", "-14/3", "14883368/1000003", "-184/3", "-1"),
     "-2000001963/500000000", "-1999995463/500000000", False, False),
])
def test_chain_value_float_pick_off_the_exact_optimum(coefficients, lo, hi, inner_maximize,
                                                      outer_pick_max):
    q_oo, q_io, alpha, l_o, l_i, k = coefficients
    form = QuadraticForm(((q_oo, q_io), (q_io, alpha)), (l_o, l_i), k)
    grid = GridSpec(lo, hi, 1001)
    shape = {"outer": 0, "inner_maximize": inner_maximize, "outer_pick_max": outer_pick_max}
    got = triopoly.verify._chain_value(form, grid, mode="float", **shape)
    assert repr(got) == repr(_full_scan_chain(form, grid, mode="float", **shape))


@settings(max_examples=400, deadline=None)
@given(_chains((3, 11, 101)))
def test_chain_value_exact_equals_full_scan(chain):
    form, grid, shape = chain
    got = triopoly.verify._chain_value(form, grid, mode="exact", **shape)
    want = _full_scan_chain(form, grid, mode="exact", **shape)
    assert type(got) is Fraction and got == want


def test_chain_value_exact_equals_full_scan_on_default_grid():
    # The psi_A slice that minimax_check scans on SPOT: max over xA, min over xC, xB pinned.
    form = build_payoff_quadratic(SPOT, 1, "A").form
    sliced = form.slice((0, 2), {1: Fraction(114, 35)})
    grid = GridSpec(0, SPOT.a, 1001)
    for outer, inner_maximize in ((1, True), (0, False)):
        shape = {"outer": outer, "inner_maximize": inner_maximize,
                 "outer_pick_max": not inner_maximize}
        got = triopoly.verify._chain_value(sliced, grid, mode="exact", **shape)
        assert got == _full_scan_chain(sliced, grid, mode="exact", **shape)


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


def test_minimax_report_serialization():
    doc = minimax_check(SPOT, MinimaxSlice("A")).to_dict()
    assert doc["pass"] is True
    assert doc["fixed_value"] == "114/35"
    assert doc["grid"] == {"lo": "0/1", "hi": "10/1", "points": 1001}
    assert doc["base_assignment"] == "QQQ"


def _fraction_minimax(params, slice_spec, grid, mode):
    """Oracle: the pinned value from a full solve, and 2 h G and the spread as Fractions."""
    max_firm, min_firm, fixed_firm = slice_spec.resolve_firms()
    fixed = firm_index(fixed_firm)
    value = solve_equilibrium(params, slice_spec.base_assignment).chosen[fixed]
    keep = (firm_index(max_firm), firm_index(min_firm))
    base, flipped = slice_spec.base_assignment, slice_spec.base_assignment.flip(min_firm)
    assignments = {"direct": (base,), "via_other_variable": (flipped,),
                   "both": (base, flipped)}[slice_spec.transform]
    forms = [build_payoff_quadratic(params, asg, slice_spec.payoff_firm).form
             .slice(keep, {fixed: value}) for asg in assignments]
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
        return dataclasses.replace(eq, soc_ok=False) if assignment == "QPP" else eq

    monkeypatch.setattr(triopoly.verify, "solve_equilibrium", flagged)
    outcome = {p.name: p for p in property_suite(SPOT, draws=1).properties}
    concavity = outcome["own_concavity"]
    assert (concavity.status, concavity.checked) == ("fail", 1)
    example = concavity.counterexample
    assert (example["draw"], example["assignment"]) == (0, "QPP")
    assert example["curvature"] == [
        format_rational(build_payoff_quadratic(SPOT, "QPP", firm).own_curvature)
        for firm in "ABC"]
    assert all(p.status != "fail" for name, p in outcome.items() if name != "own_concavity")


def test_verify_command_builds_the_matrix_once(solve_calls, capsys):
    from triopoly.cli import run_cli

    # Six solves for the matrix and eight for the single suite draw.
    assert run_cli(["verify", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2",
                    "--cC", "3", "--draws", "1"]) == 0
    assert "equal pairs: (1,2) (4,6)" in capsys.readouterr().out
    assert len(solve_calls) <= 14
