"""Three-firm differentiated-goods market with linear demand.

The model: each firm i sells a differentiated good whose inverse demand is

    p_i = a - x_i - b (x_j + x_k),        0 < b < 1,

with a common demand intercept ``a`` and substitutability ``b``. Firm i
produces at constant marginal cost c_i, earns profit (p_i - c_i) x_i, and is
scored by its profit relative to the average of the rivals' profits:

    psi_i = pi_i - (pi_j + pi_k) / 2.

The three relative payoffs sum to zero identically, which is what makes the
game zero-sum no matter which strategic variables the firms pick.

Each firm independently commits to either its quantity or its price as the
strategic variable. A :class:`StrategyAssignment` records that choice per
firm.

This module holds the model's primitives: inverse demand, profits and
payoffs. Every map derived from them lives in :mod:`triopoly.equilibrium`,
among them the pinning map from three committed values to the full market
state (``resolve_market``) and its all-price case, the demand inversion
(``direct_demand``).

Every :class:`ModelParams` and :class:`MarketState` holds its integer form,
made once at construction. A state's integer form has one builder, which
takes reduced output numerators and adds the prices from the integer
kernel of :func:`inverse_demand`. The pinning map reduces its outputs
before it calls the builder. :meth:`MarketState.from_outputs` needs no
second reduction: reduced Fractions over the lcm of their denominators
share no factor with it. The state -> payoff path (:func:`profit`,
:func:`payoff_vector`) and the interior flag read those integers. A
state, a payoff vector or an equilibrium made from integers builds each
public ``Fraction`` once, on its first read, by the :class:`_Lazy`
descriptor declared at the field; an equilibrium's payoffs are built the
same way, by :func:`payoff_vector`, with its zero-sum check at that read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

from .exact import (
    RationalLike,
    _over_lcm,
    as_rational,
    format_rational,
    rational_vector,
)

FIRMS = ("A", "B", "C")
QUANTITY = "Q"
PRICE = "P"

_FIRM_INDEX = {name: i for i, name in enumerate(FIRMS)}

__all__ = [
    "FIRMS",
    "QUANTITY",
    "PRICE",
    "firm_index",
    "ModelParams",
    "ensure_float_safe",
    "StrategyAssignment",
    "PATTERNS",
    "ALL_ASSIGNMENTS",
    "as_assignment",
    "MarketState",
    "PayoffVector",
    "inverse_demand",
    "profit",
    "payoff_vector",
]


def firm_index(firm: str) -> int:
    """Map a firm label A/B/C to its coordinate 0/1/2."""
    try:
        return _FIRM_INDEX[firm]
    except KeyError:
        raise ValueError(f"unknown firm {firm!r}; expected one of {', '.join(FIRMS)}") from None


@dataclass(frozen=True)
class ModelParams:
    """Market primitives: demand intercept ``a``, substitutability ``b``, marginal costs.

    Validation enforces 0 < b < 1 (goods are imperfect substitutes), costs
    nonnegative, and a strictly above every cost so that producing can pay.
    All fields are exact rationals; strings like "1/2" are accepted. Their
    integer form, b = n / e and theta = (a, c_A, c_B, c_C) = theta_num / t
    over its lcm, is made here and nowhere else. It is not a field, so
    equality, hashing and repr see only the five rationals.
    """

    a: Fraction
    b: Fraction
    c_a: Fraction
    c_b: Fraction
    c_c: Fraction

    def __post_init__(self):
        a, b = as_rational(self.a), as_rational(self.b)
        c_a, c_b, c_c = as_rational(self.c_a), as_rational(self.c_b), as_rational(self.c_c)
        # Every check reads the integer form: b = n / e with e > 0, theta over t > 0.
        n, e = b.as_integer_ratio()
        if not (0 < n < e):
            raise ValueError(f"b must satisfy 0 < b < 1, got {b}")
        (an, ad), (n0, d0), (n1, d1), (n2, d2) = (
            a.as_integer_ratio(), c_a.as_integer_ratio(), c_b.as_integer_ratio(),
            c_c.as_integer_ratio())
        t = lcm(ad, d0, d1, d2)
        theta = (an * (t // ad), n0 * (t // d0), n1 * (t // d1), n2 * (t // d2))
        if n0 < 0 or n1 < 0 or n2 < 0:
            i = 0 if n0 < 0 else 1 if n1 < 0 else 2
            raise ValueError(f"marginal cost of firm {FIRMS[i]} must be nonnegative, "
                             f"got {(c_a, c_b, c_c)[i]}")
        if theta[0] <= max(theta[1], theta[2], theta[3]):
            raise ValueError(
                f"a must exceed every marginal cost, got a={a} with costs ({c_a}, {c_b}, {c_c})")
        self.__dict__.update(a=a, b=b, c_a=c_a, c_b=c_b, c_c=c_c, _ints=(n, e, theta, t))

    @property
    def costs(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c_a, self.c_b, self.c_c)

    def cost(self, firm: str) -> Fraction:
        return self.costs[firm_index(firm)]

    def to_dict(self) -> dict:
        return {
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "cA": format_rational(self.c_a),
            "cB": format_rational(self.c_b),
            "cC": format_rational(self.c_c),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        try:
            return cls(data["a"], data["b"], data["cA"], data["cB"], data["cC"])
        except KeyError as exc:
            raise ValueError(f"missing parameter key {exc.args[0]!r}") from None

    def describe(self) -> str:
        pairs = self.to_dict()
        return " ".join(f"{k}={v}" for k, v in pairs.items())


def ensure_float_safe(params: ModelParams) -> None:
    """Refuse, in float mode, a b within 1e-6 of 1; exact mode accepts every 0 < b < 1.

    This is a fixed part of the float-mode contract, not a rounding guard:
    no float routine inverts the demand system. Whether the float
    best-response iteration converges depends on b and the assignment (at
    damping 1/2 some assignments diverge well below b = 1), and the refusal
    stays as it is until float mode decides convergence up front.
    """
    n, e, _, _ = params._ints
    if (e - n) * 10**6 < e:
        raise ValueError(
            f"b={params.b} is within 1e-6 of 1; float mode rejects it, use exact mode"
        )


@dataclass(frozen=True)
class StrategyAssignment:
    """Which strategic variable each firm commits to, in firm order A, B, C.

    ``choices`` holds "Q" or "P" per firm. The six assignments studied as
    numbered patterns are exposed in :data:`PATTERNS`; the remaining two
    ("QPP", "PQQ") are mirror images of patterns 5 and 3 under swapping the
    symmetric firms A and B.
    """

    choices: tuple[str, str, str]

    def __post_init__(self):
        choices = tuple(str(c).upper() for c in self.choices)
        if len(choices) != 3 or any(c not in (QUANTITY, PRICE) for c in choices):
            raise ValueError(
                f"choices must be three letters from {{Q, P}}, got {self.choices!r}"
            )
        object.__setattr__(self, "choices", choices)

    @classmethod
    def from_string(cls, text: str) -> "StrategyAssignment":
        """The member of :data:`ALL_ASSIGNMENTS`, not a copy, spelt by ``text`` in either case."""
        text = text.strip()
        if len(text) != 3:
            raise ValueError(f"assignment string must have exactly 3 letters, got {text!r}")
        return _ASSIGNMENT_OF[cls(tuple(text)).choices]

    def choice(self, firm: str) -> str:
        return self.choices[firm_index(firm)]

    def flip(self, firm: str) -> "StrategyAssignment":
        """Switch one firm's strategic variable between quantity and price.

        Like :meth:`swap_ab`, it returns the member of :data:`ALL_ASSIGNMENTS`
        it is equal to, so a cache keyed on the assignment matches it by identity.
        """
        i, choices = firm_index(firm), list(self.choices)
        choices[i] = QUANTITY if choices[i] == PRICE else PRICE
        return _ASSIGNMENT_OF[tuple(choices)]

    def swap_ab(self) -> "StrategyAssignment":
        c = self.choices
        return _ASSIGNMENT_OF[(c[1], c[0], c[2])]

    @property
    def pattern(self) -> int | None:
        """Pattern number 1..6 when this assignment is one of the studied six."""
        return _PATTERN_OF.get(self.choices)

    def variable_name(self, firm: str) -> str:
        prefix = "x" if self.choice(firm) == QUANTITY else "p"
        return prefix + firm

    def __str__(self) -> str:
        return "".join(self.choices)


ALL_ASSIGNMENTS: tuple[StrategyAssignment, ...] = tuple(
    StrategyAssignment((a, b, c))
    for a in (QUANTITY, PRICE)
    for b in (QUANTITY, PRICE)
    for c in (QUANTITY, PRICE)
)

_ASSIGNMENT_OF = {asg.choices: asg for asg in ALL_ASSIGNMENTS}

# The numbered patterns are members of ALL_ASSIGNMENTS.
PATTERNS: dict[int, StrategyAssignment] = {
    num: _ASSIGNMENT_OF[tuple(text)]
    for num, text in enumerate(("QQQ", "QQP", "QPQ", "PPQ", "PQP", "PPP"), start=1)
}

_PATTERN_OF = {asg.choices: num for num, asg in PATTERNS.items()}

AssignmentLike = Union[StrategyAssignment, str, int]


def as_assignment(value: AssignmentLike) -> StrategyAssignment:
    """Normalize a pattern number, a string like "QQP", or an assignment object."""
    if isinstance(value, StrategyAssignment):
        return value
    if isinstance(value, int):
        return PATTERNS[_pattern_number(value)]
    if isinstance(value, str):
        text = value.strip()
        if text.isascii() and text.isdigit():
            return as_assignment(int(text))
        return StrategyAssignment.from_string(text)
    raise TypeError(f"cannot interpret {value!r} as a strategy assignment")


def _pattern_number(value) -> int:
    """``value`` if it is a pattern number: an int, not a bool, in 1..6."""
    if isinstance(value, bool) or not isinstance(value, int) or value not in PATTERNS:
        raise ValueError(f"pattern number must be 1..6, got {value!r}")
    return value


def _fractions(nums: Sequence[int], den: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three Fractions nums_i / den."""
    return Fraction(nums[0], den), Fraction(nums[1], den), Fraction(nums[2], den)


class _Lazy:
    """A field ``= _Lazy(at, build)``: ``build(_ints[at], _ints[at + 1])``, on first read.

    ``build`` defaults to :func:`_fractions`, the Fractions ``_ints[at]`` /
    ``_ints[at + 1]``. The value is stored in the instance, which then hides
    the descriptor; a build that raises stores nothing. Read on the class,
    or on an instance without ``_ints``, it raises AttributeError: the field
    has no default.
    """

    def __init__(self, at: int, build=_fractions):
        self.at, self.build = at, build

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner):
        try:
            ints = obj._ints
        except AttributeError:
            message = f"{owner.__name__!r} object has no attribute {self.name!r}"
            raise AttributeError(message) from None
        value = obj.__dict__[self.name] = self.build(ints[self.at], ints[self.at + 1])
        return value


@dataclass(frozen=True)
class MarketState:
    """A full market outcome: all three quantities and all three prices.

    Instances are meant to be built through :meth:`from_outputs`, directly or
    by ``triopoly.equilibrium.resolve_market``, which guarantees that prices
    and quantities lie on the demand system. The constructor itself only
    coerces, sizes and derives the state's integer form.

    That form, made with the state and never changed, is ``x`` and ``p``
    each as integer numerators over the lcm of their denominators; the
    payoffs and the interior flag read it. It is not a field, so equality,
    hashing and repr see only ``x`` and ``p``. A state made from integers
    (:meth:`from_outputs`, the pinning map) builds each field from that
    form on its first read, so its ``vars()`` shows only the fields read
    so far.
    """

    x: tuple[Fraction, Fraction, Fraction] = _Lazy(0)
    p: tuple[Fraction, Fraction, Fraction] = _Lazy(2)

    def __post_init__(self):
        x, p = rational_vector(self.x, 3), rational_vector(self.p, 3)
        (x_num, x_den), (p_num, p_den) = _over_lcm(x), _over_lcm(p)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_ints", (tuple(x_num), x_den, tuple(p_num), p_den))

    @classmethod
    def from_outputs(cls, params: ModelParams, x: Sequence[RationalLike]) -> "MarketState":
        x0, x1, x2 = rational_vector(x, 3)
        n0, d0 = x0.as_integer_ratio()
        n1, d1 = x1.as_integer_ratio()
        n2, d2 = x2.as_integer_ratio()
        # No second reduction: for each prime p of the lcm, the output whose
        # denominator d holds p's full power has a numerator prime to p, and its
        # scale lcm / d is prime to p, so the numerators share no factor with the lcm.
        den = lcm(d0, d1, d2)
        return _state(cls, params, (n0 * (den // d0), n1 * (den // d1), n2 * (den // d2)), den)

    def swap_ab(self) -> "MarketState":
        return MarketState((self.x[1], self.x[0], self.x[2]), (self.p[1], self.p[0], self.p[2]))

    def to_dict(self) -> dict:
        return {
            "x": [format_rational(v) for v in self.x],
            "p": [format_rational(v) for v in self.p],
        }


@dataclass(frozen=True)
class PayoffVector:
    """Per-firm absolute profits and the relative payoffs they induce.

    :func:`payoff_vector` makes one that holds both as integer numerators
    over one denominator each, and builds each field on its first read.
    """

    pi: tuple[Fraction, Fraction, Fraction] = _Lazy(0)
    psi: tuple[Fraction, Fraction, Fraction] = _Lazy(2)

    def __post_init__(self):
        object.__setattr__(self, "pi", rational_vector(self.pi, 3))
        object.__setattr__(self, "psi", rational_vector(self.psi, 3))


def _state(cls, params: ModelParams, x_num: tuple[int, int, int], x_den: int) -> MarketState:
    """The ``cls`` state at reduced outputs x_num / x_den, x_den > 0, and its reduced prices.

    The one builder of a state's integer form from outputs, for
    :meth:`MarketState.from_outputs` and the pinning map alike.
    """
    return _built(cls, _ints=(x_num, x_den, *_reduced(*_price_numerators(params, x_num, x_den))))


def _built(cls, **attributes):
    """An instance of the frozen dataclass ``cls`` holding ``attributes`` as given.

    It skips ``__post_init__``: every value must already have its final type.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(attributes)
    return obj


def _reduced(nums: Sequence[int], den: int) -> tuple[tuple[int, int, int], int]:
    """Three numerators over den > 0, their common factor removed: the form ``_over_lcm`` gives."""
    g = gcd(den, *nums)
    return (nums[0] // g, nums[1] // g, nums[2] // g), den // g


def _interior(state: MarketState) -> bool:
    """Whether every output and price is nonnegative, read off the state's numerators."""
    x_num, _, p_num, _ = state._ints
    return min(*x_num, *p_num) >= 0


def _price_numerators(params: ModelParams, n: Sequence[int],
                      xd: int) -> tuple[tuple[int, int, int], int]:
    """Integers m_i over one denominator den with p_i = m_i / den at the outputs n / xd.

    p_i = a - b sum(x) - (1 - b) x_i. With b = bn / bd and a = an / ad, den = lcm(xd bd, ad).
    """
    bn, bd, (an, _, _, _), ad = params._ints
    xbd = xd * bd
    den = lcm(xbd, ad)
    b_scale = bn * (den // xbd)
    shared = an * (den // ad) - b_scale * (n[0] + n[1] + n[2])
    own = den // xd - b_scale
    return (shared - own * n[0], shared - own * n[1], shared - own * n[2]), den


def inverse_demand(params: ModelParams,
                   x: Sequence[RationalLike]) -> tuple[Fraction, Fraction, Fraction]:
    """Prices cleared by the given outputs: p_i = a - x_i - b (x_j + x_k).

    The prices are computed on integers over one denominator; only the
    results become Fractions.
    """
    return _fractions(*_price_numerators(params, *_over_lcm(rational_vector(x, 3))))


def _profit_numerators(params: ModelParams,
                       state: MarketState) -> tuple[tuple[int, int, int], int]:
    """Integers n_i and one denominator d with (p_i - c_i) x_i = n_i / d for every firm.

    The state holds its prices over pd and its outputs over xd. With the
    costs over theta's lcm cd and m = lcm(pd, cd), d = m xd.
    """
    (x0, x1, x2), x_den, (p0, p1, p2), p_den = state._ints
    _, _, (_, c0, c1, c2), c_den = params._ints
    m = lcm(p_den, c_den)
    ps, cs = m // p_den, m // c_den
    return ((p0 * ps - c0 * cs) * x0, (p1 * ps - c1 * cs) * x1,
            (p2 * ps - c2 * cs) * x2), m * x_den


def profit(params: ModelParams, firm: str, state: MarketState) -> Fraction:
    """Absolute profit (p_i - c_i) x_i of one firm at the given state."""
    i = firm_index(firm)
    nums, den = _profit_numerators(params, state)
    return Fraction(nums[i], den)


def payoff_vector(params: ModelParams, state: MarketState) -> PayoffVector:
    """All profits and relative payoffs at a state; the psi entries sum to zero.

    With pi_i = n_i / d, psi_i = pi_i - (pi_j + pi_k) / 2 = (3 n_i - sum n) / (2 d),
    so the zero-sum check runs on integer numerators.
    """
    nums, den = _profit_numerators(params, state)
    n0, n1, n2 = nums
    total = n0 + n1 + n2
    psi = (3 * n0 - total, 3 * n1 - total, 3 * n2 - total)
    if psi[0] + psi[1] + psi[2] != 0:
        raise ArithmeticError(
            f"relative payoffs with numerators {psi} over {2 * den} do not sum to zero"
        )
    return _built(PayoffVector, _ints=(nums, den, psi, 2 * den))
