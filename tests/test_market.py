"""Market model tests: parameters, assignments, demand, resolution, payoffs."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triopoly.market import (
    ALL_ASSIGNMENTS,
    FIRMS,
    PATTERNS,
    MarketState,
    ModelParams,
    as_assignment,
    direct_demand,
    ensure_float_safe,
    firm_index,
    inverse_demand,
    payoff_vector,
    profit,
    resolve_market,
)

SPOT = ModelParams(10, "1/2", 2, 2, 3)

outputs = st.tuples(*([st.fractions(min_value=-16, max_value=16, max_denominator=32)] * 3))


# --- parameters ---------------------------------------------------------------


def test_params_accept_strings_and_ints():
    params = ModelParams("10", "1/2", 2, "2", "3")
    assert params.b == Fraction(1, 2)
    assert params.costs == (2, 2, 3)
    assert params.cost("C") == 3


@pytest.mark.parametrize("bad_b", ["3/2", 1, 0, "-1/4"])
def test_params_reject_bad_b(bad_b):
    with pytest.raises(ValueError, match="b must satisfy 0 < b < 1"):
        ModelParams(10, bad_b, 2, 2, 3)


def test_params_reject_negative_cost():
    with pytest.raises(ValueError, match="nonnegative"):
        ModelParams(10, "1/2", 2, "-1", 3)


def test_params_reject_small_intercept():
    with pytest.raises(ValueError, match="exceed every marginal cost"):
        ModelParams(3, "1/2", 2, 2, 3)
    with pytest.raises(ValueError, match="exceed every marginal cost"):
        ModelParams(10, "1/2", 2, 2, 10)


def test_b_near_one_exact_ok_float_rejected():
    params = ModelParams(10, Fraction(10**7 - 1, 10**7), 2, 2, 3)
    with pytest.raises(ValueError, match="float mode"):
        ensure_float_safe(params)
    # Far enough from 1 passes the guard.
    ensure_float_safe(SPOT)


def test_params_dict_round_trip():
    doc = SPOT.to_dict()
    assert doc == {"a": "10/1", "b": "1/2", "cA": "2/1", "cB": "2/1", "cC": "3/1"}
    assert ModelParams.from_dict(doc) == SPOT
    with pytest.raises(ValueError, match="cC"):
        ModelParams.from_dict({"a": "10", "b": "1/2", "cA": "2", "cB": "2"})


def test_firm_index():
    assert [firm_index(f) for f in FIRMS] == [0, 1, 2]
    with pytest.raises(ValueError):
        firm_index("D")


# --- assignments ---------------------------------------------------------------


def test_pattern_constants():
    expected = {1: "QQQ", 2: "QQP", 3: "QPQ", 4: "PPQ", 5: "PQP", 6: "PPP"}
    for number, text in expected.items():
        assert str(PATTERNS[number]) == text
        assert PATTERNS[number].pattern == number


def test_eight_assignments_two_unnumbered():
    assert len(ALL_ASSIGNMENTS) == 8
    unnumbered = sorted(str(a) for a in ALL_ASSIGNMENTS if a.pattern is None)
    assert unnumbered == ["PQQ", "QPP"]


def test_assignment_parsing():
    assert as_assignment("QQP") == PATTERNS[2]
    assert as_assignment("qqp") == PATTERNS[2]
    assert as_assignment(3) == PATTERNS[3]
    assert as_assignment("4") == PATTERNS[4]
    assert as_assignment(PATTERNS[5]) is PATTERNS[5]
    with pytest.raises(ValueError):
        as_assignment("QX P")
    with pytest.raises(ValueError):
        as_assignment(7)
    with pytest.raises(TypeError):
        as_assignment(None)


def test_assignment_helpers():
    asg = PATTERNS[2]
    assert asg.choice("C") == "P"
    assert asg.variable_name("C") == "pC"
    assert asg.variable_name("A") == "xA"
    assert str(asg.flip("C")) == "QQQ"
    assert str(asg.flip("A")) == "PQP"
    assert str(PATTERNS[5].swap_ab()) == "QPP"


# --- demand --------------------------------------------------------------------


def test_inverse_demand_examples():
    assert inverse_demand(SPOT, (0, 0, 0)) == (10, 10, 10)
    assert inverse_demand(SPOT, (2, 2, 2)) == (6, 6, 6)
    prices = inverse_demand(SPOT, ("114/35", "114/35", "94/35"))
    assert prices[0] == Fraction(132, 35)


def test_direct_demand_examples():
    assert direct_demand(SPOT, (10, 10, 10)) == (0, 0, 0)
    assert direct_demand(SPOT, (6, 6, 6)) == (2, 2, 2)


@given(outputs)
@settings(max_examples=80, deadline=None)
def test_demand_round_trips(vec):
    assert direct_demand(SPOT, inverse_demand(SPOT, vec)) == vec
    assert inverse_demand(SPOT, direct_demand(SPOT, vec)) == vec


# --- market resolution -----------------------------------------------------------


def test_resolve_pattern2_example():
    state = resolve_market(SPOT, 2, (2, 2, 4))
    assert state.x == (2, 2, 4)
    assert state.p[2] == 4


def test_resolve_pattern3_example():
    state = resolve_market(SPOT, 3, (2, 4, 2))
    assert state.x[1] == 4
    assert state.p[0] == 5
    assert state.p[1] == 4


@given(outputs)
@settings(max_examples=40, deadline=None)
def test_resolve_pattern1_is_identity(vec):
    state = resolve_market(SPOT, 1, vec)
    assert state == MarketState.from_outputs(SPOT, vec)


@given(st.sampled_from(ALL_ASSIGNMENTS), outputs)
@settings(max_examples=100, deadline=None)
def test_resolve_pins_choices_and_satisfies_demand(asg, chosen):
    state = resolve_market(SPOT, asg, chosen)
    assert state.p == inverse_demand(SPOT, state.x)
    for i, choice in enumerate(asg.choices):
        pinned = state.x[i] if choice == "Q" else state.p[i]
        assert pinned == chosen[i]


def test_market_state_swap():
    state = MarketState.from_outputs(SPOT, (1, 2, 3))
    swapped = state.swap_ab()
    assert swapped.x == (2, 1, 3)
    assert swapped.p == (state.p[1], state.p[0], state.p[2])


# --- profits and relative payoffs -------------------------------------------------


def test_profit_examples():
    state = MarketState.from_outputs(SPOT, (2, 2, 2))
    assert profit(SPOT, "A", state) == 8
    assert profit(SPOT, "C", state) == 6
    zero_a = MarketState.from_outputs(SPOT, (0, 2, 2))
    assert profit(SPOT, "A", zero_a) == 0


def test_payoff_vector_spot():
    state = MarketState.from_outputs(SPOT, (2, 2, 2))
    payoffs = payoff_vector(SPOT, state)
    assert payoffs.pi == (8, 8, 6)
    assert payoffs.psi == (1, 1, -2)


def test_payoff_vector_symmetric_zero():
    params = ModelParams(10, "1/2", 2, 2, 2)
    state = MarketState.from_outputs(params, (3, 3, 3))
    assert payoff_vector(params, state).psi == (0, 0, 0)


@given(outputs)
@settings(max_examples=80, deadline=None)
def test_zero_sum_identity(vec):
    payoffs = payoff_vector(SPOT, MarketState.from_outputs(SPOT, vec))
    assert sum(payoffs.psi, start=Fraction(0)) == 0


# Float profits (1e16, 1, 1) round so that the relative payoffs sum to 2.
_BROKEN_ZERO_SUM = """
import triopoly.market as market
from triopoly.market import MarketState, ModelParams, payoff_vector

market.profit = lambda params, firm, state: {"A": 1e16, "B": 1.0, "C": 1.0}[firm]
params = ModelParams(10, "1/2", 2, 2, 3)
try:
    payoff_vector(params, MarketState.from_outputs(params, (2, 2, 2)))
except ArithmeticError as exc:
    print(exc)
else:
    raise SystemExit("payoff_vector accepted a nonzero sum")
"""


def test_zero_sum_check_survives_optimize_flag(src_env):
    run = subprocess.run([sys.executable, "-O", "-c", _BROKEN_ZERO_SUM], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "do not sum to zero" in run.stdout


def test_state_serialization():
    state = MarketState.from_outputs(SPOT, (2, 2, 2))
    doc = state.to_dict()
    assert doc["x"] == ["2/1", "2/1", "2/1"]
    assert doc["p"] == ["6/1", "6/1", "6/1"]
