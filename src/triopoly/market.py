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
(``direct_demand``). Both end in :meth:`MarketState.from_outputs` here.

The state -> payoff path (:func:`inverse_demand`, :func:`profit`,
:func:`payoff_vector`) works on exact integer numerators over a shared
denominator and builds ``Fraction``s only for the values it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    All fields are exact rationals; strings like "1/2" are accepted.
    """

    a: Fraction
    b: Fraction
    c_a: Fraction
    c_b: Fraction
    c_c: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c_a", "c_b", "c_c"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if not (0 < self.b < 1):
            raise ValueError(f"b must satisfy 0 < b < 1, got {self.b}")
        for firm, cost in zip(FIRMS, self.costs):
            if cost < 0:
                raise ValueError(f"marginal cost of firm {firm} must be nonnegative, got {cost}")
        if self.a <= max(self.costs):
            raise ValueError(
                f"a must exceed every marginal cost, got a={self.a} "
                f"with costs ({', '.join(map(str, self.costs))})"
            )

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
    """Reject parameter sets that float-mode routines cannot treat reliably.

    The demand inversion divides by (1 - b)(1 + 2b); when b sits within 1e-6
    of 1 that division amplifies float noise past any useful tolerance, so
    float mode refuses such inputs (exact mode accepts them).
    """
    if Fraction(1) - params.b < Fraction(1, 10**6):
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
        text = text.strip()
        if len(text) != 3:
            raise ValueError(f"assignment string must have exactly 3 letters, got {text!r}")
        return cls(tuple(text))

    def choice(self, firm: str) -> str:
        return self.choices[firm_index(firm)]

    def flip(self, firm: str) -> "StrategyAssignment":
        """Switch one firm's strategic variable between quantity and price."""
        i = firm_index(firm)
        flipped = QUANTITY if self.choices[i] == PRICE else PRICE
        return StrategyAssignment(
            tuple(flipped if j == i else c for j, c in enumerate(self.choices))
        )

    def swap_ab(self) -> "StrategyAssignment":
        c = self.choices
        return StrategyAssignment((c[1], c[0], c[2]))

    @property
    def pattern(self) -> int | None:
        """Pattern number 1..6 when this assignment is one of the studied six."""
        return _PATTERN_OF.get(self.choices)

    def variable_name(self, firm: str) -> str:
        prefix = "x" if self.choice(firm) == QUANTITY else "p"
        return prefix + firm

    def __str__(self) -> str:
        return "".join(self.choices)


PATTERNS: dict[int, StrategyAssignment] = {
    1: StrategyAssignment(("Q", "Q", "Q")),
    2: StrategyAssignment(("Q", "Q", "P")),
    3: StrategyAssignment(("Q", "P", "Q")),
    4: StrategyAssignment(("P", "P", "Q")),
    5: StrategyAssignment(("P", "Q", "P")),
    6: StrategyAssignment(("P", "P", "P")),
}

_PATTERN_OF = {asg.choices: num for num, asg in PATTERNS.items()}

ALL_ASSIGNMENTS: tuple[StrategyAssignment, ...] = tuple(
    StrategyAssignment((a, b, c))
    for a in (QUANTITY, PRICE)
    for b in (QUANTITY, PRICE)
    for c in (QUANTITY, PRICE)
)

AssignmentLike = Union[StrategyAssignment, str, int]


def as_assignment(value: AssignmentLike) -> StrategyAssignment:
    """Normalize a pattern number, a string like "QQP", or an assignment object."""
    if isinstance(value, StrategyAssignment):
        return value
    if isinstance(value, int):
        if value not in PATTERNS:
            raise ValueError(f"pattern number must be 1..6, got {value}")
        return PATTERNS[value]
    if isinstance(value, str):
        text = value.strip()
        if text.isdigit():
            return as_assignment(int(text))
        return StrategyAssignment.from_string(text)
    raise TypeError(f"cannot interpret {value!r} as a strategy assignment")


@dataclass(frozen=True)
class MarketState:
    """A full market outcome: all three quantities and all three prices.

    Instances are meant to be built through :meth:`from_outputs`, directly or
    by ``triopoly.equilibrium.resolve_market``, which guarantees that prices
    and quantities lie on the demand system. The constructor itself only
    coerces and sizes.
    """

    x: tuple[Fraction, Fraction, Fraction]
    p: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "x", rational_vector(self.x, 3))
        object.__setattr__(self, "p", rational_vector(self.p, 3))

    @classmethod
    def from_outputs(cls, params: ModelParams, x: Sequence[RationalLike]) -> "MarketState":
        quantities = rational_vector(x, 3)
        return cls(quantities, inverse_demand(params, quantities))

    def swap_ab(self) -> "MarketState":
        return MarketState((self.x[1], self.x[0], self.x[2]), (self.p[1], self.p[0], self.p[2]))

    def to_dict(self) -> dict:
        return {
            "x": [format_rational(v) for v in self.x],
            "p": [format_rational(v) for v in self.p],
        }


@dataclass(frozen=True)
class PayoffVector:
    """Per-firm absolute profits and the relative payoffs they induce."""

    pi: tuple[Fraction, Fraction, Fraction]
    psi: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "pi", rational_vector(self.pi, 3))
        object.__setattr__(self, "psi", rational_vector(self.psi, 3))


def inverse_demand(params: ModelParams,
                   x: Sequence[RationalLike]) -> tuple[Fraction, Fraction, Fraction]:
    """Prices cleared by the given outputs: p_i = a - x_i - b (x_j + x_k).

    With outputs n_i / xd and b = bn / bd, prices are computed over
    den = lcm(xd bd, den(a)) on integers; only the results become Fractions.
    """
    n, xd = _over_lcm(rational_vector(x, 3))
    (an, ad), (bn, bd) = params.a.as_integer_ratio(), params.b.as_integer_ratio()
    den = lcm(xd * bd, ad)
    a_num = an * (den // ad)
    x_scale = den // xd
    b_scale = bn * (den // (xd * bd))
    total = n[0] + n[1] + n[2]
    return tuple(Fraction(a_num - x_scale * n[i] - b_scale * (total - n[i]), den)
                 for i in range(3))


def _profit_numerators(params: ModelParams,
                       state: MarketState) -> tuple[tuple[int, int, int], int]:
    """Integers n_i and one denominator d with (p_i - c_i) x_i = n_i / d for every firm.

    Prices and costs share one denominator md and outputs another, xd; d = md xd.
    """
    pc, md = _over_lcm(state.p + params.costs)
    xn, xd = _over_lcm(state.x)
    return tuple((pc[i] - pc[i + 3]) * xn[i] for i in range(3)), md * xd


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
    total = nums[0] + nums[1] + nums[2]
    psi = tuple(3 * n - total for n in nums)
    if psi[0] + psi[1] + psi[2] != 0:
        raise ArithmeticError(
            f"relative payoffs with numerators {psi} over {2 * den} do not sum to zero"
        )
    return PayoffVector(tuple(Fraction(n, den) for n in nums),
                        tuple(Fraction(n, 2 * den) for n in psi))
