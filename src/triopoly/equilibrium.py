"""Nash equilibria of the relative-payoff game, one solve per strategy assignment.

For a fixed substitutability ``b`` and assignment, the whole equilibrium is a
linear map of theta = (a, c_A, c_B, c_C). The solver keeps everything that
does not depend on theta in one operator, cached on the ints n, e of
b = n / e and the assignment, and built without Fraction arithmetic:

1. The pinning map x = X(b) v + x0(b) a from the committed values
   v = (v_A, v_B, v_C) to the outputs, in closed form: a quantity chooser's
   output is its committed value, and the price choosers' outputs solve a
   demand block (1 - b) I + b J whose inverse is explicit. With m price
   choosers, d = 1 + (m - 1) b = g / e and 1 - b = h / e, and [X | x0] is
   ints over q = g h. It is the package's one route from committed values
   to a market state: ``solve_equilibrium`` and ``resolve_market`` both
   apply it, hand the output numerators to the state as ints, and check on
   the state's integers that it reproduces every committed value.
   ``direct_demand``, the inverse of the demand system, is its all-price
   case, applied without that check.
2. Each firm's free variable (its price, or its output) is affine in v, ints
   over q e, so its profit and its relative payoff psi_i = sum_k W_ik pi_k
   are exact quadratics in v. Differentiating psi_i in the own variable
   gives the stacked first-order conditions M(b) v + L(b) theta = 0, ints
   over 2 q e; second-order conditions reduce to M_ii < 0, which is checked.
3. The gain K(b) = -M^-1 L = N / D comes from a cofactor solve with no
   pivoting, N = -adj(M) L and D = det M, on [M | L] as ints, checked
   (M N + D L = 0) and reduced by their gcd. A solve is then integer dot
   products with theta over its lcm, its first-order conditions checked on
   the same ints; a Fraction of the result is built only when a caller
   reads it. A payoff form's linear and constant terms are integer dot
   products the same way.

Printed closed-form output tables exist for the six numbered patterns and
are kept here in two variants: ``printed`` is the table as transcribed, and
``corrected`` the variant that agrees with the solver. They differ in a
single entry, the sign of the all-quantity pattern's third output. Like the
solver, the tables are linear maps cached per b, on its ints n, e, and
built without Fraction arithmetic: each output is a row of coefficients on
(a, c_AB, c_C). A transcribed entry is a polynomial in b over a product of
linear factors in b; scaled by e to the denominator's degree, both are
integer polynomials in n and e, so each pattern's rows are ints over one
denominator, dotted with (a, c_AB, c_C) over their lcm. The solver is
ground truth; the tables are cross-checks and documentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Sequence

from .exact import (
    QuadraticForm,
    RationalLike,
    SingularSystem,
    _over_lcm,
    decimal_string,
    format_rational,
    rational_vector,
)
from .market import (
    FIRMS,
    PATTERNS,
    PRICE,
    AssignmentLike,
    MarketState,
    ModelParams,
    PayoffVector,
    StrategyAssignment,
    _built,
    _interior,
    _view,
    as_assignment,
    ensure_float_safe,
    firm_index,
    payoff_vector,
)

__all__ = [
    "ConcavityViolation",
    "QuadraticPayoff",
    "build_payoff_quadratic",
    "best_response",
    "Equilibrium",
    "solve_equilibrium",
    "committed_values",
    "resolve_market",
    "direct_demand",
    "ClosedFormOutputs",
    "closed_form_outputs",
    "IterationResult",
    "best_response_iteration",
]


class ConcavityViolation(Exception):
    """A payoff is not strictly concave in the firm's own variable."""


# psi_i = pi_i - (pi_j + pi_k) / 2: twice the weight of firm k's profit in psi_i.
_TWICE_WEIGHTS = tuple(tuple(2 if k == i else -1 for k in range(3)) for i in range(3))


def _dot(u, v):
    # Start from the first product: an int start would cost one more Fraction add.
    products = map(mul, u, v)
    return sum(products, next(products))


def _cofactor_solve(m, rhs, assignment: StrategyAssignment):
    """N = -adj(M) R and D = det M for a 3x3 M on any exact ring, checked M N + D R = 0.

    D = 0 raises SingularSystem.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if det == 0:
        raise SingularSystem()
    gain = tuple(tuple(-_dot(row, col) for col in zip(*rhs)) for row in adj)
    for row, r in zip(m, rhs):
        if any(_dot(row, col) + det * r_t != 0 for col, r_t in zip(zip(*gain), r)):
            raise ArithmeticError(f"gain of {assignment} fails its first-order conditions")
    return gain, det


@dataclass(frozen=True)
class _Operator:
    """Everything about one (b, assignment) game that does not depend on theta, on ints.

    With b = n / e, the rows of ``pin``, [X | x0] over ``q``, are the pinning
    map x = X v + x0 a. Firm i's free variable, its price when it commits a
    quantity and its output when it commits a price, is [F | f0]_i . (v, a)
    over q e, from the rows of ``free``. The stacked own-variable
    first-order conditions read [M | L] . (v, theta) = 0, from the rows of
    ``foc`` over ``foc_den`` > 0.

    These rows are the package's only copy of each map: the pinning map and
    ``direct_demand`` apply ``pin``, ``payoff_form`` reads ``free`` and the
    columns of ``pin``, and the solve and its second-order flag read ``foc``.
    Nothing outside this module reads them.
    """

    assignment: StrategyAssignment
    e: int
    q: int
    pin: tuple[tuple[int, ...], ...]
    free: tuple[tuple[int, ...], ...]
    foc: tuple[tuple[int, ...], ...]
    foc_den: int

    @cached_property
    def integer_solve(self) -> tuple:
        """(N, D): the gain K = N / D on ints, gcd(N, D) = 1 and D > 0.

        For theta = theta_n / t, the committed values are v = N theta_n / (D t).
        """
        foc = self.foc
        gain, det = _cofactor_solve([row[:3] for row in foc], [row[3:] for row in foc],
                                    self.assignment)
        g = math.gcd(det, *(n for row in gain for n in row)) * (1 if det > 0 else -1)
        return tuple(tuple(n // g for n in row) for row in gain), det // g

    def output_numerators(self, nums: Sequence[int], a_num: int) -> list[int]:
        """Outputs x = [X | x0] . (nums, a_num) over q den, at v = nums / den, a = a_num / den."""
        values = (*nums, a_num)
        return [_dot(row, values) for row in self.pin]

    def resolve(self, params: ModelParams, nums: Sequence[int], a_num: int,
                den: int) -> MarketState:
        """The state at committed values v = nums / den and a = a_num / den, checked.

        The state's outputs are those of :meth:`output_numerators`, and it must
        reproduce each committed value, a price chooser's p_i and a quantity
        chooser's x_i: on the state's integers, by cross-multiplication.
        """
        state = MarketState._from_numerators(params, self.output_numerators(nums, a_num),
                                       self.q * den)
        x_num, x_den, p_num, p_den = state._ints
        for i, choice in enumerate(self.assignment.choices):
            held, held_den = (p_num[i], p_den) if choice == PRICE else (x_num[i], x_den)
            if held * den != nums[i] * held_den:
                raise ArithmeticError(
                    f"market state does not reproduce the committed values "
                    f"for {self.assignment} at {params.describe()}"
                )
        return state

    @cached_property
    def psi_quad(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The relative payoffs' quadratic matrices in v, derived apart from ``foc``.

        pi_k = v_k (F_k . v) / (q e) + ..., so psi_i = 3/2 pi_i - 1/2 sum(pi)
        has the matrix 3/2 sym(e_i F_i') + shared over q e, where shared is
        -1/2 sum_k sym(e_k F_k'): row and column i are ``own[i]``, the rest
        is ``shared``. Each entry is an int over 4 q e. Only ``payoff_form``
        reads it.
        """
        f = self.free
        shared = [[-f[r][s] - f[s][r] for s in range(3)] for r in range(3)]
        own = [[4 * f[i][i] if s == i else shared[i][s] + 3 * f[i][s] for s in range(3)]
               for i in range(3)]
        return tuple(tuple(tuple(own[i][s] if r == i else own[i][r] if s == i else shared[r][s]
                                 for s in range(3)) for r in range(3)) for i in range(3))

    def payoff_form(self, i: int, params: ModelParams) -> QuadraticForm:
        """Firm i's relative payoff as a quadratic in v at the theta of params, on ints.

        Profit pi_k = (p_k - c_k) x_k has the linear term a f0_k e_k - c_k X_k
        and the constant -a c_k x0_k; psi_i weights them by half of
        _TWICE_WEIGHTS[i]. Both are dot products on ints over q e: f0_j from
        ``free[j]``, and column j of ``pin`` times e. With theta over its lcm
        t, as params holds it, and the weights doubled, the linear part is
        over 2 q e t and the constant over 2 q e t^2; with ``psi_quad`` over
        4 q e, the form is over 4 q e t^2.
        """
        e, pin = self.e, self.pin
        _, _, (a, *costs), t = params._ints
        weights = _TWICE_WEIGHTS[i]
        scaled_costs = tuple(map(mul, weights, costs))
        lin = [2 * t * (a * weights[j] * f[3] - e * _dot(scaled_costs, (x[j] for x in pin)))
               for j, f in enumerate(self.free)]
        const = -2 * a * e * _dot(scaled_costs, (x[3] for x in pin))
        tt = t * t
        quad = [[v * tt for v in row] for row in self.psi_quad[i]]
        return QuadraticForm.from_numerators(quad, lin, const, 4 * self.q * e * tt)


@lru_cache(maxsize=1024)
def _operator(n: int, e: int, assignment: StrategyAssignment) -> _Operator:
    """Build the theta-free operator of b = n / e on ints; keyed by (n, e, assignment) only.

    The key holds ints, not b: every Fraction over 2^61 - 1, the modulus of
    Python's numeric hash, hashes alike, so a b-keyed cache would compare
    such keys one by one.

    The m price choosers' outputs solve ((1 - b) I + b J) x_P = a - v_P -
    b sum(v_Q), and that block's inverse is (I - b J / d) / (1 - b) with
    d = 1 + (m - 1) b, so no elimination is needed. With d = g / e and
    1 - b = h / e, every entry of [X | x0] is an int over q = g h.
    """
    price = tuple(choice == PRICE for choice in assignment.choices)
    g, h = e + (sum(price) - 1) * n, e - n
    q = g * h
    own, cross_price, cross_quantity = (n - g) * e, n * e, -n * h
    pin = []
    for i in range(3):
        if price[i]:
            pin.append((*(own if j == i else cross_price if price[j] else cross_quantity
                          for j in range(3)), e * h))
        else:
            pin.append((*(q if j == i else 0 for j in range(3)), 0))

    # Over q e: a price chooser's free variable is its output, and a quantity
    # chooser's is its price p_i = a - x_i - b (x_j + x_k).
    free = []
    for i, row in enumerate(pin):
        if price[i]:
            free.append(tuple(e * v for v in row))
        else:
            j, k = (i + 1) % 3, (i + 2) % 3
            *f, f0 = (-e * x - n * (y + z) for x, y, z in zip(row, pin[j], pin[k]))
            free.append((*f, q * e + f0))

    # psi_i = sum_k W_ik pi_k, pi_k = v_k (F_k . v + f0_k a) - c_k x_k: in d psi_i / d v_i,
    # v_j has the coefficient F_ij + W_ij F_ji. With W = T / 2, [M | L] is over 2 q e.
    t = _TWICE_WEIGHTS
    foc = [(*(2 * free[i][j] + t[i][j] * free[j][i] for j in range(3)), 2 * free[i][3],
            *(-t[i][k] * e * pin[k][i] for k in range(3))) for i in range(3)]
    c = math.gcd(2 * q * e, *(v for row in foc for v in row))
    return _Operator(assignment, e, q, tuple(pin), tuple(free),
                     tuple(tuple(v // c for v in row) for row in foc), 2 * q * e // c)


@dataclass(frozen=True)
class QuadraticPayoff:
    """One firm's relative payoff as an exact quadratic in the committed vector."""

    firm: str
    assignment: StrategyAssignment
    form: QuadraticForm

    @property
    def own_index(self) -> int:
        return firm_index(self.firm)

    @property
    def own_curvature(self) -> Fraction:
        """Second derivative in the firm's own variable; negative means concave."""
        i = self.own_index
        return Fraction(2 * self.form.quad_num[i][i], self.form.den)

    def respond(self, others: Sequence[RationalLike]) -> Fraction:
        """Payoff-maximizing own value against two fixed rival values.

        ``others`` lists the rivals' committed values in firm order with this
        firm skipped. Raises ConcavityViolation when the payoff has no
        interior maximum in the own variable.
        """
        rivals = rational_vector(others, 2)
        i, quad = self.own_index, self.form.quad_num
        if quad[i][i] >= 0:
            raise ConcavityViolation(
                f"payoff of firm {self.firm} under {self.assignment} is not concave "
                f"in its own variable (curvature {self.own_curvature})"
            )
        # With the rivals over their lcm s, the own slope is over den s.
        nums, s = _over_lcm(rivals)
        nums.insert(i, 0)
        slope = self.form.lin_num[i] * s + 2 * _dot(quad[i], nums)
        return Fraction(-slope, 2 * quad[i][i] * s)


def build_payoff_quadratic(params: ModelParams, assignment: AssignmentLike,
                           firm: str) -> QuadraticPayoff:
    """Exact quadratic representation of one firm's relative payoff."""
    asg = as_assignment(assignment)
    op = _operator(*params._ints[:2], asg)
    return QuadraticPayoff(firm, asg, op.payoff_form(firm_index(firm), params))


def best_response(params: ModelParams, assignment: AssignmentLike, firm: str,
                  others: Sequence[RationalLike]) -> Fraction:
    """Exact best response of one firm to fixed rival values."""
    return build_payoff_quadratic(params, assignment, firm).respond(others)


@dataclass(frozen=True)
class Equilibrium:
    """A solved assignment: committed values, resulting state, payoffs, and flags.

    ``interior`` records whether all quantities and prices are nonnegative;
    ``soc_ok`` whether every firm's own curvature is negative. Both are
    reported rather than enforced, so degenerate corners stay visible. One
    made by :func:`solve_equilibrium` holds ``chosen`` as integer
    numerators over one denominator, and builds it on its first read.
    """

    params: ModelParams
    assignment: StrategyAssignment
    chosen: tuple[Fraction, Fraction, Fraction]
    state: MarketState
    payoffs: PayoffVector
    interior: bool
    soc_ok: bool

    def __getattr__(self, name: str):
        return _view(self, name, ("chosen",))

    def to_dict(self) -> dict:
        doc = {"assignment": str(self.assignment), "pattern": self.assignment.pattern,
               "params": self.params.to_dict()}
        for key, values in (("chosen", self.chosen), ("x", self.state.x), ("p", self.state.p),
                            ("pi", self.payoffs.pi), ("psi", self.payoffs.psi)):
            doc[key] = [format_rational(v) for v in values]
            doc[f"{key}_dec"] = [decimal_string(v) for v in values]
        doc["flags"] = {"interior": self.interior, "soc_ok": self.soc_ok}
        return doc


def _committed_numerators(params: ModelParams,
                          asg: StrategyAssignment) -> tuple[_Operator, tuple[int, ...], int]:
    """(op, nums, det): the committed values v = nums / (det t), checked, on ints.

    With theta = theta_n / t, v = N theta_n / (D t) from the (b, assignment)
    operator's gain N / D, and every firm's own first-order condition is
    checked to vanish at v, M N theta_n + D L theta_n = 0.
    """
    n, e, theta, _ = params._ints
    op = _operator(n, e, asg)
    try:
        gain, det = op.integer_solve
    except SingularSystem:
        raise SingularSystem(
            f"stacked first-order conditions for {asg} at {params.describe()}") from None
    nums = tuple(_dot(row, theta) for row in gain)
    for i, row in enumerate(op.foc):
        if _dot(row[:3], nums) + det * _dot(row[3:], theta) != 0:
            raise ArithmeticError(
                f"first-order condition of firm {FIRMS[i]} does not vanish "
                f"for {asg} at {params.describe()}"
            )
    return op, nums, det


def committed_values(params: ModelParams,
                     assignment: AssignmentLike) -> tuple[Fraction, Fraction, Fraction]:
    """The equilibrium's committed values alone: ``solve_equilibrium(...).chosen``.

    They come from the same checked numerators as the solve's, with their
    first-order conditions verified, but no market state or payoff is built.
    """
    _, nums, det = _committed_numerators(params, as_assignment(assignment))
    den = det * params._ints[3]
    return tuple(Fraction(n, den) for n in nums)


def solve_equilibrium(params: ModelParams, assignment: AssignmentLike) -> Equilibrium:
    """Solve the stacked first-order conditions of one assignment exactly.

    The committed values are v = K theta from the (b, assignment) operator,
    on integer numerators, each firm's own first-order condition checked to
    vanish at v (see :func:`committed_values`), before the operator's pinning
    map resolves v into the checked state. Every check runs here, on
    integers; the result's public Fractions are built on their first read.
    """
    asg = as_assignment(assignment)
    op, nums, det = _committed_numerators(params, asg)
    _, _, theta, t = params._ints
    state = op.resolve(params, nums, det * theta[0], det * t)
    return _built(Equilibrium, params=params, assignment=asg, state=state,
                  payoffs=payoff_vector(params, state), interior=_interior(state),
                  soc_ok=all(op.foc[i][i] < 0 for i in range(3)), _ints=(nums, det * t))


def resolve_market(params: ModelParams, assignment: AssignmentLike,
                   chosen: Sequence[RationalLike]) -> MarketState:
    """Resolve committed strategic values into the full market state.

    A quantity chooser's value pins its output, a price chooser's its
    inverse-demand equation; the (b, assignment) operator's pinning map
    solves that system in closed form, on a and the values over their lcm,
    and the state is checked to reproduce every committed value.
    """
    asg = as_assignment(assignment)
    (a_num, *nums), den = _over_lcm((params.a, *rational_vector(chosen, 3)))
    return _operator(*params._ints[:2], asg).resolve(params, nums, a_num, den)


def direct_demand(params: ModelParams,
                  p: Sequence[RationalLike]) -> tuple[Fraction, Fraction, Fraction]:
    """Outputs demanded at the given prices, the exact inverse of ``inverse_demand``.

    This is the all-price pinning map: the PPP operator's rows applied to the
    prices and a over their lcm. Unlike :func:`resolve_market` it runs no
    back-substitution check, so a round trip through ``inverse_demand``
    tests the pinning rows independently.
    """
    (a_num, *nums), den = _over_lcm((params.a, *rational_vector(p, 3)))
    op = _operator(*params._ints[:2], PATTERNS[6])
    return tuple(Fraction(n, op.q * den) for n in op.output_numerators(nums, a_num))


@dataclass(frozen=True)
class ClosedFormOutputs:
    """Equilibrium outputs from the transcribed reference formulas for one pattern.

    ``printed`` is the table exactly as transcribed; ``corrected`` agrees
    with the solver everywhere. The two differ only for pattern 1, whose
    transcribed third output has the wrong sign. Both variants assume firms
    A and B share a marginal cost c_AB: each output is a row of transcribed
    coefficients on (a, c_AB, c_C) at the given b, dotted with those values.
    """

    pattern: int
    printed: tuple[Fraction, Fraction, Fraction]
    corrected: tuple[Fraction, Fraction, Fraction]

    @property
    def printed_matches_corrected(self) -> bool:
        return self.printed == self.corrected

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "printed": [format_rational(v) for v in self.printed],
            "corrected": [format_rational(v) for v in self.corrected],
            "printed_matches_corrected": self.printed_matches_corrected,
        }


def closed_form_outputs(params: ModelParams, pattern: int) -> ClosedFormOutputs:
    """Evaluate the transcribed reference output formulas for one numbered pattern.

    The formulas contain only the shared cost of firms A and B plus firm C's
    cost, so parameter sets with c_A != c_B are rejected.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"pattern number must be 1..6, got {pattern}")
    if params.c_a != params.c_b:
        raise ValueError(
            "closed-form output tables assume c_A = c_B, "
            f"got cA={params.c_a} cB={params.c_b}"
        )
    # With c_A = c_B, (a, c_AB, c_C) is over theta's lcm t.
    n, e, (a, c_ab, _, c_c), t = params._ints
    rows, den = _printed_output_table(n, e)[pattern]
    printed = tuple(Fraction(_dot(row, (a, c_ab, c_c)), den * t) for row in rows)
    corrected = printed if pattern != 1 else (printed[0], printed[1], -printed[2])
    return ClosedFormOutputs(pattern, printed, corrected)


@lru_cache(maxsize=64)
def _printed_output_table(n: int, e: int) -> dict:
    """Each pattern's three transcribed rows at b = n / e as ints over one denominator.

    An output is its row dotted with (a, c_AB, c_C), over that denominator.
    Every transcribed numerator is a polynomial in b, and every denominator
    a product of linear factors in b; scaled by e to the pattern
    denominator's degree, both are integer polynomials in n and e. Keyed by
    the ints of b alone, as ``_operator`` is: one verify run meets at most
    64 distinct b, the given one and the sampler's.
    """
    monomials = {degree: [n**k * e**(degree - k) for k in range(degree + 1)]
                 for degree in (2, 3, 4)}

    def row(degree: int, *polynomials: tuple[int, ...]) -> list[int]:
        # e^degree p(n / e) for each p, given by its coefficients in b, highest power first.
        return [sum(map(mul, reversed(p), monomials[degree])) for p in polynomials]

    # e (4 - b), e (b + 2), e (1 - b), e (3 b + 4), e (5 b + 4) and e (b + 4).
    u, v, h = 4 * e - n, n + 2 * e, e - n
    w3, w5, w4 = 3 * n + 4 * e, 5 * n + 4 * e, n + 4 * e

    # Over (4 - b)(b + 2). Pattern 1's x_C is transcribed over (4 - b)(b + 2)
    # and pattern 2's over (b - 4)(b + 2), with one numerator: the sign slip
    # of pattern 1.
    d12 = u * v
    x12_ab = row(2, (-1, 4), (-4,), (1, 0))
    x12_c = row(2, (1, -4), (-2, 0), (1, 4))

    # Over (4 - b)(1 - b)(b + 2)(3 b + 4).
    d3 = d12 * h * w3
    a3 = (3, -11, -8, 16)
    x3_a = row(4, a3, (-3, 6, 4, -16), (5, 4, 0))
    x3_c = row(4, a3, (-3, 4, 8, 0), (7, 0, -16))

    # Over (1 - b)(b + 2)(5 b + 4).
    d46 = h * v * w5
    a46 = (-5, 1, 4)
    x46_ab = row(3, a46, (3, -2, -4), (2, 1, 0))
    x46_c = row(3, a46, (4, 2, 0), (1, -3, -4))

    # Over (1 - b)(b + 2)(b + 4)(5 b + 4).
    d5 = d46 * w4
    a5 = (-5, -19, 8, 16)
    x5_a = row(4, a5, (6, 16, -12, -16), (-1, 3, 4, 0))
    x5_c = row(4, a5, (1, 12, 8, 0), (4, 7, -16, -16))

    tables = {
        1: ((x12_ab, x12_ab, x12_c), d12),
        2: ((x12_ab, x12_ab, [-c for c in x12_c]), d12),
        3: ((x3_a, [c * h * w3 for c in x12_ab], x3_c), d3),
        4: ((x46_ab, x46_ab, x46_c), d46),
        5: ((x5_a, [c * w4 for c in x46_ab], x5_c), d5),
    }
    reduced = {k: _reduced_rows(*table) for k, table in tables.items()}
    reduced[6] = reduced[4]  # patterns 4 and 6 are transcribed with the same rows
    return reduced


def _reduced_rows(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Int rows over den > 0 with their common factor removed.

    The result is over the lcm of the entries' reduced denominators, as
    ``_over_lcm`` puts their Fractions.
    """
    g = math.gcd(den, *(c for row in rows for c in row))
    return tuple(tuple(c // g for c in row) for row in rows), den // g


@dataclass(frozen=True)
class IterationResult:
    """Outcome of the damped best-response iteration (float arithmetic)."""

    chosen: tuple[float, float, float]
    converged: bool
    iterations: int


def best_response_iteration(params: ModelParams, assignment: AssignmentLike,
                            init: Sequence[float] | None = None, *,
                            damping: float = 0.5, tol: float = 1e-12,
                            max_iter: int = 10000) -> IterationResult:
    """Simultaneous damped best-response dynamics in float arithmetic.

    All three firms respond at once to the previous iterate and the update is
    averaged with weight ``damping`` toward the response. Stops when the
    iterate moves by less than ``tol`` in the max norm, and raises
    FloatingPointError at the first iterate that leaves the finite floats.
    This is the package's independent numeric route to the same equilibria
    the exact solver finds.
    """
    asg = as_assignment(assignment)
    ensure_float_safe(params)
    if not 0 < damping <= 1:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if init is None:
        current = [0.0, 0.0, 0.0]
    else:
        current = [float(v) for v in init]
        if len(current) != 3:
            raise ValueError(f"init must have 3 components, got {len(current)}")
        if not all(map(math.isfinite, current)):
            raise ValueError(f"init must be finite, got {current}")

    n, e, theta, t = params._ints
    op = _operator(n, e, asg)
    den = op.foc_den
    curvature, slope, intercept = [], [], []
    # int / int rounds correctly, so each float is the exact rational's float.
    for i, row in enumerate(op.foc):
        own = row[i] / den
        if own >= 0:
            raise ConcavityViolation(
                f"payoff of firm {FIRMS[i]} under {asg} is not concave in its own variable"
            )
        curvature.append(own)
        slope.append([m / den for m in row[:3]])
        intercept.append(_dot(row[3:], theta) / (den * t))

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        responses = [
            -(intercept[i] + sum(slope[i][j] * current[j] for j in range(3) if j != i))
            / curvature[i]
            for i in range(3)
        ]
        nxt = [(1 - damping) * c + damping * r for c, r in zip(current, responses)]
        if not all(map(math.isfinite, nxt)):
            raise FloatingPointError(
                f"best-response iteration for {asg} left the finite floats "
                f"at iteration {iterations}"
            )
        delta = max(abs(nxt[i] - current[i]) for i in range(3))
        current = nxt
        if delta < tol:
            converged = True
            break
    return IterationResult(tuple(current), converged, iterations)
