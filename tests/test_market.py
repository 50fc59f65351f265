"""Market model tests: parameters, assignments, demand, resolution, payoffs."""

import copy
import dataclasses
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triopoly.exact import _over_lcm
from triopoly.market import (
    ALL_ASSIGNMENTS,
    FIRMS,
    PATTERNS,
    MarketState,
    ModelParams,
    PayoffVector,
    StrategyAssignment,
    _interior,
    as_assignment,
    ensure_float_safe,
    firm_index,
    inverse_demand,
    payoff_vector,
    profit,
)
from triopoly.equilibrium import Equilibrium, direct_demand, resolve_market, solve_equilibrium

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


def test_params_reject_bools():
    # True is an int, but costs of 1 and 0 are not what it says.
    with pytest.raises(TypeError, match="cannot convert bool"):
        ModelParams(10, "1/2", True, False, 3)


def test_params_reject_negative_cost():
    with pytest.raises(ValueError, match="nonnegative"):
        ModelParams(10, "1/2", 2, "-1", 3)


def test_params_reject_small_intercept():
    with pytest.raises(ValueError, match="exceed every marginal cost"):
        ModelParams(3, "1/2", 2, 2, 3)
    with pytest.raises(ValueError, match="exceed every marginal cost"):
        ModelParams(10, "1/2", 2, 2, 10)


# Invalid inputs and the messages they raise, checked in this order: b, each
# cost in firm order, then a against the largest cost.
_INVALID_PARAMS = [
    ((10, 0, 2, 2, 3), "b must satisfy 0 < b < 1, got 0"),
    ((10, 1, 2, 2, 3), "b must satisfy 0 < b < 1, got 1"),
    (("5/2", 2, -1, 3, "9/4"), "b must satisfy 0 < b < 1, got 2"),
    ((10, "1/2", 2, "-1/3", 3), "marginal cost of firm B must be nonnegative, got -1/3"),
    ((10, "1/2", -2, "-1/3", 3), "marginal cost of firm A must be nonnegative, got -2"),
    ((10, "1/2", 2, 2, 10), "a must exceed every marginal cost, got a=10 with costs (2, 2, 10)"),
    (("7/2", "1/2", "7/2", 0, 0),
     "a must exceed every marginal cost, got a=7/2 with costs (7/2, 0, 0)"),
    (("5/2", "1/2", "1/8", 3, "9/4"),
     "a must exceed every marginal cost, got a=5/2 with costs (1/8, 3, 9/4)"),
]


@pytest.mark.parametrize("values, message", _INVALID_PARAMS)
def test_params_reject_invalid_input_with_its_message(values, message):
    with pytest.raises(ValueError) as info:
        ModelParams(*values)
    assert str(info.value) == message


_P61 = 2**61 - 1


# (b, whether float mode rejects it); every such b is a valid exact-mode parameter.
_NEAR_ONE = [
    (Fraction(10**7 - 1, 10**7), True),
    (Fraction(1, 2), False),  # far enough from 1 passes the guard
    (1 - Fraction(1, 10**6), False),  # the comparison is strict
    (1 - Fraction(1, 10**6) + Fraction(1, 10**13), True),
    (Fraction(_P61 - 10**12, _P61), True),  # 1 - b is about 4.3e-7
    (Fraction(_P61 - _P61 // 10**6 - 1, _P61), False),  # 1 - b just above 1e-6
]


def test_b_near_one_exact_ok_float_rejected():
    for b, rejected in _NEAR_ONE:
        params = ModelParams(10, b, 2, 2, 3)
        if rejected:
            with pytest.raises(ValueError, match="float mode"):
                ensure_float_safe(params)
        else:
            ensure_float_safe(params)


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


@pytest.mark.parametrize("value", [True, False, 0, 7])
def test_assignment_rejects_bools_as_pattern_numbers(value):
    # bool is an int, but True must not stand for pattern 1.
    with pytest.raises(ValueError, match=f"^pattern number must be 1..6, got {value}$"):
        as_assignment(value)


@pytest.mark.parametrize("text, message", [
    ("٣", "assignment string must have exactly 3 letters"),  # Arabic-Indic 3
    ("１", "assignment string must have exactly 3 letters"),  # fullwidth 1
    ("²", "assignment string must have exactly 3 letters"),  # superscript 2
    ("³³³", "choices must be three letters from"),
], ids=["arabic_indic_3", "fullwidth_1", "superscript_2", "superscript_333"])
def test_assignment_takes_only_ascii_digits_as_pattern_numbers(text, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        as_assignment(text)


def test_assignment_helpers():
    asg = PATTERNS[2]
    assert asg.choice("C") == "P"
    assert asg.variable_name("C") == "pC"
    assert asg.variable_name("A") == "xA"
    assert str(asg.flip("C")) == "QQQ"
    assert str(asg.flip("A")) == "PQP"
    assert str(PATTERNS[5].swap_ab()) == "QPP"


def test_flip_and_swap_return_members_of_all_assignments():
    # One object per assignment, so the (b, assignment) operator cache matches a
    # flipped or swapped assignment by identity.
    members = {id(asg) for asg in ALL_ASSIGNMENTS}
    assert {id(asg) for asg in PATTERNS.values()} <= members
    for asg in (*ALL_ASSIGNMENTS, StrategyAssignment(("q", "P", "p"))):
        for made in (asg.swap_ab(), *(asg.flip(firm) for firm in FIRMS)):
            assert id(made) in members
        assert asg.swap_ab().swap_ab() == asg
        assert all(asg.flip(firm).flip(firm) == asg for firm in FIRMS)


def test_assignment_strings_give_members_of_all_assignments():
    # A string is read to the member itself, in either case and with spaces
    # around it, so the property suite's QPP and PQQ match the caches by identity.
    from triopoly.verify import _SUITE_ASSIGNMENTS

    for asg in ALL_ASSIGNMENTS:
        for text in (str(asg), str(asg).lower(), f"  {str(asg).lower()} ", f"\t{asg}\n"):
            assert as_assignment(text) is asg
            assert StrategyAssignment.from_string(text) is asg
    members = {id(asg) for asg in ALL_ASSIGNMENTS}
    assert all(id(asg) in members for asg in _SUITE_ASSIGNMENTS.values())


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


# b over 64 and over large primes, so the pinning map's denominators mix.
_b_values = st.sampled_from([64, 1_000_003, 10**9 + 7, 2**61 - 1]).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda k: Fraction(k, den)))


@given(_b_values, st.fractions(min_value=4, max_value=40, max_denominator=997), outputs)
@settings(max_examples=100, deadline=None)
def test_resolve_pins_choices_and_satisfies_demand(b, a, chosen):
    params = ModelParams(a, b, "1/3", "2/7", 3)
    for asg in ALL_ASSIGNMENTS:
        state = resolve_market(params, asg, chosen)
        assert state.p == inverse_demand(params, state.x)
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


# Float profit numerators (1e16, 1, 1) over denominator 1 round so that the
# relative payoff numerators 3 pi_i - sum pi sum to 8.
_BROKEN_ZERO_SUM = """
import triopoly.market as market
from triopoly.equilibrium import solve_equilibrium
from triopoly.market import MarketState, ModelParams, payoff_vector

market._profit_numerators = lambda params, state: ((1e16, 1.0, 1.0), 1)
params = ModelParams(10, "1/2", 2, 2, 3)
try:
    payoff_vector(params, MarketState.from_outputs(params, (2, 2, 2)))
except ArithmeticError as exc:
    print(exc)
else:
    raise SystemExit("payoff_vector accepted a nonzero sum")
equilibrium = solve_equilibrium(params, 1)  # the solve reads no payoff
try:
    equilibrium.payoffs
except ArithmeticError as exc:
    print(exc)
else:
    raise SystemExit("an equilibrium's payoffs accepted a nonzero sum")
"""


def test_zero_sum_check_survives_optimize_flag(src_env):
    run = subprocess.run([sys.executable, "-O", "-c", _BROKEN_ZERO_SUM], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count("do not sum to zero") == 2


# --- exactness against the textbook formulas ---------------------------------------

# b from _b_values above (direct_demand reads the operator cached per b), costs
# and a with mixed denominators, and outputs and prices that may be negative or zero.
_costs = st.fractions(min_value=0, max_value=40, max_denominator=10**4)
_margins = st.fractions(min_value=0, max_value=40, max_denominator=997).filter(lambda m: m > 0)
_values = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
_vectors = st.tuples(_values, _values, _values)


@st.composite
def _market_params(draw):
    costs = draw(st.tuples(_costs, _costs, _costs))
    return ModelParams(max(costs) + draw(_margins), draw(_b_values), *costs)


def _reference_prices(params, x):
    return tuple(params.a - x[i] - params.b * (x[(i + 1) % 3] + x[(i + 2) % 3])
                 for i in range(3))


def _reference_outputs(params, p):
    a, b = params.a, params.b
    return tuple(
        (a * (1 - b) - (1 + b) * p[i] + b * (p[(i + 1) % 3] + p[(i + 2) % 3]))
        / ((1 - b) * (1 + 2 * b))
        for i in range(3)
    )


def _assert_fractions_equal(got, expected):
    assert got == expected
    assert all(type(v) is Fraction for v in got)


def _textbook_payoffs(params, state):
    pi = tuple((state.p[i] - params.costs[i]) * state.x[i] for i in range(3))
    psi = tuple(pi[i] - (pi[(i + 1) % 3] + pi[(i + 2) % 3]) / 2 for i in range(3))
    return pi, psi


@given(_market_params(), _vectors, _vectors)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_textbook_formulas(params, x, p):
    _assert_fractions_equal(inverse_demand(params, x), _reference_prices(params, x))
    _assert_fractions_equal(direct_demand(params, p), _reference_outputs(params, p))
    on_demand = MarketState.from_outputs(params, x)
    _assert_fractions_equal(on_demand.p, _reference_prices(params, x))
    # payoff_vector takes any state, so also one whose prices are off the demand system.
    for state in (on_demand, MarketState(x, p)):
        pi, psi = _textbook_payoffs(params, state)
        payoffs = payoff_vector(params, state)
        _assert_fractions_equal(payoffs.pi, pi)
        _assert_fractions_equal(payoffs.psi, psi)
        _assert_fractions_equal(tuple(profit(params, f, state) for f in FIRMS), pi)


# The public constructor's inputs: ints, strings like "-7/3" and Fractions.
_entries = st.one_of(st.integers(-50, 50), _values.map(str), _values)


@given(_market_params(), st.tuples(_entries, _entries, _entries),
       st.tuples(_entries, _entries, _entries), _vectors)
@settings(max_examples=60, deadline=None)
def test_integer_form_is_never_stale(params, x, p, chosen):
    # Every route that makes a state must leave it holding the integer form of
    # its own x and p, which the payoffs and the interior flag read.
    made = [MarketState(x, p), MarketState.from_outputs(params, x)]
    for asg in ALL_ASSIGNMENTS:
        made += [resolve_market(params, asg, chosen), solve_equilibrium(params, asg).state]
    derived = [route(state) for state in made for route in (
        MarketState.swap_ab,
        lambda s: dataclasses.replace(s, p=s.x),
        copy.copy,
        lambda s: pickle.loads(pickle.dumps(s)),
    )]
    for state in made + derived:
        (x_num, x_den), (p_num, p_den) = _over_lcm(state.x), _over_lcm(state.p)
        assert state._ints == (tuple(x_num), x_den, tuple(p_num), p_den)
        payoffs = payoff_vector(params, state)
        assert (payoffs.pi, payoffs.psi) == _textbook_payoffs(params, state)
        assert _interior(state) == all(v >= 0 for v in (*state.x, *state.p))


def _eager_twin(obj):
    """The same result built eagerly by the public constructors from obj's field values."""
    if isinstance(obj, MarketState):
        return MarketState(obj.x, obj.p)
    if isinstance(obj, PayoffVector):
        return PayoffVector(obj.pi, obj.psi)
    return Equilibrium(obj.params, obj.assignment, obj.chosen, _eager_twin(obj.state),
                       _eager_twin(obj.payoffs), obj.interior, obj.soc_ok)


_ROUND_TRIPS = (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)))


@given(_market_params(), _vectors, _vectors)
@settings(max_examples=30, deadline=None)
def test_lazy_fields_keep_the_dataclass_contract(params, x, chosen):
    # States, payoff vectors and equilibria from the solve, the pinning map and
    # the state -> payoff path build their public Fractions on first read; an
    # unread one must behave as the eagerly built object with the same values.
    makers = [lambda: MarketState.from_outputs(params, x),
              lambda: payoff_vector(params, MarketState.from_outputs(params, x))]
    for asg in ALL_ASSIGNMENTS:
        makers += [lambda asg=asg: solve_equilibrium(params, asg),
                   lambda asg=asg: resolve_market(params, asg, chosen)]
    for make in makers:
        twin = _eager_twin(make())
        cls, names = type(twin), [f.name for f in dataclasses.fields(twin)]
        assert not set(names) <= set(vars(make()))  # some field is still unbuilt
        for view in (lambda obj: obj, *_ROUND_TRIPS):
            got = view(make())
            assert type(got) is cls and got == twin and hash(got) == hash(twin)
            assert repr(view(make())) == repr(twin)
            assert dataclasses.asdict(view(make())) == dataclasses.asdict(twin)
        unread = make()
        for name in names:
            assert getattr(unread, name) is getattr(unread, name)
        for obj in (make(), object.__new__(cls)):
            with pytest.raises(AttributeError, match="'no_such_field'"):
                obj.no_such_field
            assert not hasattr(obj, "__setstate__")
        with pytest.raises(AttributeError, match=f"'{names[0]}'"):
            getattr(object.__new__(cls), names[0])


def test_state_from_outputs_builds_x_on_its_first_read():
    state = MarketState.from_outputs(SPOT, (Fraction(7, 3), "-2/5", 4))
    assert set(vars(state)) == {"_ints"}
    assert state.x == (Fraction(7, 3), Fraction(-2, 5), Fraction(4))
    assert set(vars(state)) == {"_ints", "x"}


def test_solve_builds_payoffs_on_their_first_read():
    for asg in ALL_ASSIGNMENTS:
        eq = solve_equilibrium(SPOT, asg)
        assert "payoffs" not in vars(eq)
        payoffs = eq.payoffs
        assert payoffs == payoff_vector(SPOT, eq.state)
        assert "payoffs" in vars(eq) and eq.payoffs is payoffs


def _spellings(value):
    """Constructor inputs meaning value >= 0: itself, "n/d", and an int or a decimal string."""
    forms = [value, f"{value.numerator}/{value.denominator}"]
    if value.denominator == 1:
        forms.append(int(value))
    for k in range(1, 13):
        if 10**k % value.denominator == 0:
            scaled = value.numerator * (10**k // value.denominator)
            forms.append(f"{scaled // 10**k}.{scaled % 10**k:0{k}d}")
            break
    return forms


_decimals = st.integers(0, 40 * 10**4).map(lambda k: Fraction(k, 10**4))


@st.composite
def _spelled_params(draw):
    costs = draw(st.tuples(*[st.one_of(_costs, _decimals)] * 3))
    a = max(costs) + draw(st.one_of(_margins, st.integers(1, 40).map(Fraction)))
    b = draw(st.one_of(_b_values, st.integers(1, 999).map(lambda k: Fraction(k, 1000))))
    values = (a, b, *costs)
    return values, [draw(st.sampled_from(_spellings(v))) for v in values]


@given(_spelled_params(), _b_values, _costs)
@settings(max_examples=100, deadline=None)
def test_params_integer_form_is_never_stale(drawn, b, cost):
    # Every route that makes a ModelParams must leave it holding the integers
    # of its own b and theta, which every kernel reads instead of re-deriving.
    values, spelled = drawn
    params = ModelParams(*spelled)
    assert (params.a, params.b, *params.costs) == values
    made = [
        params,
        ModelParams.from_dict(dict(zip(("a", "b", "cA", "cB", "cC"), spelled))),
        dataclasses.replace(params, b=b),
        dataclasses.replace(params, c_b=cost % params.a),
        copy.copy(params),
        copy.deepcopy(params),
        pickle.loads(pickle.dumps(params)),
    ]
    assert made[2].b == b and made[3].c_b == cost % params.a
    for held in made:
        theta_num, t = _over_lcm((held.a, *held.costs))
        assert held._ints == (*held.b.as_integer_ratio(), tuple(theta_num), t)
    assert made[1] == params and hash(made[1]) == hash(params) and "_ints" not in repr(params)
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["a", "b", "c_a", "c_b", "c_c"]


@pytest.mark.parametrize("x, p, interior", [
    ((0, 1, 2), (3, 2, 1), True),  # an output of exactly 0
    ((1, 2, 3), (3, 0, 1), True),  # a price of exactly 0
    ((0, 0, 10), None, True),  # on the demand system at SPOT: p = (5, 5, 0)
    ((0, 0, 0), (0, 0, 0), True),
    ((1, "-1/1000000007", 3), (3, 2, 1), False),
    ((1, 2, 3), (3, 2, "-7/3"), False),
    (("-1/2", 2, 3), ("-1/3", 2, 1), False),
])
def test_interior_matches_the_fraction_definition_at_the_boundary(x, p, interior):
    state = MarketState.from_outputs(SPOT, x) if p is None else MarketState(x, p)
    assert min(*state.x, *state.p) == 0 or not interior
    assert all(v >= 0 for v in (*state.x, *state.p)) == interior
    assert _interior(state) == interior


def test_vectors_coerce_ints_strings_and_lists():
    state = MarketState([1, "1/2", Fraction(3, 4)], ("2", 3, " 0.5 "))
    _assert_fractions_equal(state.x, (Fraction(1), Fraction(1, 2), Fraction(3, 4)))
    _assert_fractions_equal(state.p, (Fraction(2), Fraction(3), Fraction(1, 2)))
    payoffs = PayoffVector(["-3", 0, "7/9"], (1, Fraction(-1, 2), "-1/2"))
    _assert_fractions_equal(payoffs.pi, (Fraction(-3), Fraction(0), Fraction(7, 9)))
    _assert_fractions_equal(payoffs.psi, (Fraction(1), Fraction(-1, 2), Fraction(-1, 2)))
    assert type(state.x) is tuple and type(payoffs.pi) is tuple


@pytest.mark.parametrize("cls", [MarketState, PayoffVector])
def test_vectors_reject_floats_bad_strings_and_wrong_lengths(cls):
    good = (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(TypeError):
        cls((Fraction(1), Fraction(2), 0.5), good)
    with pytest.raises(TypeError):
        cls(good, [1.0, 2, 3])
    with pytest.raises(ValueError, match="invalid rational literal"):
        cls(good, ("1/0x", 2, 3))
    with pytest.raises(ValueError, match="length 3"):
        cls(good[:2], good)
    with pytest.raises(ValueError, match="length 3"):
        cls(good, good + (Fraction(4),))


# Denominators over a few small primes, so that a triple's denominators share
# some prime powers and are coprime in others, and up to Python's hash modulus.
_prime_powers = st.builds(lambda i, j, k: 2**i * 3**j * 5**k,
                          st.integers(0, 12), st.integers(0, 8), st.integers(0, 6))
_reduction_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-2**70, 2**70),
              st.one_of(_prime_powers, st.just(2**61 - 1), st.integers(1, 2**61 - 1))),
)


@given(_market_params(), st.tuples(*[_reduction_entries] * 3))
@settings(max_examples=200, deadline=None)
def test_from_outputs_needs_no_second_reduction(params, x):
    # Reduced Fractions over the lcm of their denominators share no factor with it,
    # so from_outputs keeps those numerators as they are.
    state = MarketState.from_outputs(params, x)
    x_num, x_den, p_num, p_den = state._ints
    assert x_den > 0 and gcd(x_den, *x_num) == 1
    assert p_den > 0 and gcd(p_den, *p_num) == 1
    assert tuple(Fraction(n, x_den) for n in x_num) == x
    assert state.p == inverse_demand(params, x)


def test_state_to_payoff_path_builds_fractions_only_on_read():
    params = ModelParams("37/3", Fraction(5, 1_000_003), "7/2", "11/5", 3)
    x = (Fraction(7, 3), Fraction(-5, 16), Fraction(0))
    real = Fraction.__dict__["__new__"]
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        assert Fraction(1, 2) and len(built) == 1  # the counter sees constructions
        built.clear()
        payoffs = payoff_vector(params, MarketState.from_outputs(params, x))
        assert built == []
        psi = payoffs.psi
        assert len(built) == 3
        assert payoffs.psi is psi and len(built) == 3
    finally:
        Fraction.__new__ = real
    assert sum(psi, start=Fraction(0)) == 0


def test_state_to_payoff_path_does_no_fraction_arithmetic(monkeypatch):
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        real = getattr(Fraction, name)

        def counted(self, other, _real=real, _name=name):
            calls.append(_name)
            return _real(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    params = ModelParams("37/3", Fraction(5, 1_000_003), "7/2", "11/5", 3)
    x = (Fraction(7, 3), Fraction(-5, 16), Fraction(0))
    assert Fraction(1, 2) * Fraction(1, 3) == Fraction(1, 6)
    assert calls == ["__mul__"]  # the counters see Fraction arithmetic
    calls.clear()
    payoffs = payoff_vector(params, MarketState.from_outputs(params, x))
    assert calls == []
    assert payoffs.psi[2] == -payoffs.psi[0] - payoffs.psi[1]


def test_state_serialization():
    state = MarketState.from_outputs(SPOT, (2, 2, 2))
    doc = state.to_dict()
    assert doc["x"] == ["2/1", "2/1", "2/1"]
    assert doc["p"] == ["6/1", "6/1", "6/1"]
