"""Verification layer tests: equivalence, minimax scans, property suite."""

import random
from fractions import Fraction

import pytest

import triopoly.verify
from triopoly.equilibrium import solve_equilibrium
from triopoly.exact import QuadraticForm
from triopoly.market import ModelParams
from triopoly.verify import (
    DegenerateSlice,
    GridSpec,
    MinimaxSlice,
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
        grid_minimax_pair(QuadraticForm.zero(3), GridSpec(0, 1, 5))
    with pytest.raises(ValueError, match="mode"):
        grid_minimax_pair(bilinear_saddle(), GridSpec(0, 1, 5), mode="fast")


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


def test_verify_command_builds_the_matrix_once(solve_calls, capsys):
    from triopoly.cli import run_cli

    # Six solves for the matrix and eight for the single suite draw.
    assert run_cli(["verify", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2",
                    "--cC", "3", "--draws", "1"]) == 0
    assert "equal pairs: (1,2) (4,6)" in capsys.readouterr().out
    assert len(solve_calls) <= 14
