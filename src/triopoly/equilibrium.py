"""Nash equilibria of the relative-payoff game, one solve per strategy assignment.

For a fixed substitutability ``b`` and assignment, the whole equilibrium is a
linear map of theta = (a, c_A, c_B, c_C). The solver keeps everything that
does not depend on theta in one operator, cached on (b, assignment):

1. The pinning map x = X(b) v + x0(b) a from the committed values
   v = (v_A, v_B, v_C) to the outputs, in closed form: a quantity chooser's
   output is its committed value, and the price choosers' outputs solve a
   demand block (1 - b) I + b J whose inverse is explicit.
2. Each firm's relative payoff psi_i is then an exact quadratic in v whose
   quadratic matrix depends on b only and whose linear and constant terms
   are linear in theta. Stacking the own-variable first-order conditions
   gives M(b) v + L(b) theta = 0. Second-order conditions reduce to the own
   curvature of each quadratic being negative, which is checked, not assumed.
3. The gain K(b) = -M^-1 L = N / D comes from a cofactor solve with no
   pivoting, N = -adj(M) L and D = det M, built once on [M | L] over one
   denominator as ints, checked (M N + D L = 0) and reduced by their gcd.
   A solve is then integer dot products with theta over its lcm: the
   committed values, their first-order conditions and the pinning rows
   [X | x0]. Fractions are built only for the committed values and outputs.

Printed closed-form output tables exist for the six numbered patterns and
are kept here in two variants: ``printed`` is the table as transcribed, and
``corrected`` the variant that agrees with the solver. They differ in a
single entry, the sign of the all-quantity pattern's third output. Like the
solver, the tables are linear maps cached per b: each output is a row of
coefficients on (a, c_AB, c_C), the transcribed numerator's terms over its
denominator. The solver is ground truth; the tables are cross-checks and
documentation.
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
    _over_lcm,
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
    "ClosedFormOutputs",
    "closed_form_outputs",
    "IterationResult",
    "best_response_iteration",
]


class ConcavityViolation(Exception):
    """A payoff is not strictly concave in the firm's own variable."""


# psi_i = pi_i - (pi_j + pi_k) / 2: the weight of firm k's profit in psi_i.
_WEIGHTS = tuple(
    tuple(Fraction(1) if k == i else Fraction(-1, 2) for k in range(3)) for i in range(3)
)


def _dot(u, v):
    # Start from the first product: an int start would cost one more Fraction add.
    products = map(mul, u, v)
    return sum(products, next(products))


def _theta(params: ModelParams) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return (params.a, params.c_a, params.c_b, params.c_c)


def _over_lcm_rows(rows) -> tuple[list[list[int]], int]:
    """Integer rows of a rational matrix over the lcm of its denominators, and that lcm."""
    flat, den = _over_lcm([v for row in rows for v in row])
    return [flat[k:k + len(rows[0])] for k in range(0, len(flat), len(rows[0]))], den


def _cofactor_solve(m, rhs, assignment: StrategyAssignment):
    """N = -adj(M) R and D = det M for a 3x3 M on any exact ring, checked M N + D R = 0.

    D = 0 raises SingularSystem at the elimination step that finds no pivot:
    0 if column 0 vanishes, 1 if columns 0 and 1 are dependent (the
    cofactors of column 2 vanish), else 2.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if det == 0:
        raise SingularSystem(0 if not (a or d or g) else 1 if not any(adj[2]) else 2)
    gain = tuple(tuple(-_dot(row, col) for col in zip(*rhs)) for row in adj)
    for row, r in zip(m, rhs):
        if any(_dot(row, col) + det * r_t != 0 for col, r_t in zip(zip(*gain), r)):
            raise ArithmeticError(f"gain of {assignment} fails its first-order conditions")
    return gain, det


@dataclass(frozen=True)
class _Operator:
    """Everything about one (b, assignment) game that does not depend on theta.

    ``x_map``/``x_const`` are the pinning map x = X v + x0 a. ``free_const[i]``
    is the coefficient of a in firm i's free variable: its price when it
    commits a quantity, its output when it commits a price. ``psi_quad``
    holds the three relative payoffs' quadratic matrices, and the stacked
    own-variable first-order conditions read ``foc . v + foc_rhs . theta = 0``.
    """

    assignment: StrategyAssignment
    x_map: tuple[tuple[Fraction, ...], ...]
    x_const: tuple[Fraction, ...]
    free_const: tuple[Fraction, ...]
    psi_quad: tuple[tuple[tuple[Fraction, ...], ...], ...]
    foc: tuple[tuple[Fraction, ...], ...]
    foc_rhs: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def gain(self) -> tuple[tuple[Fraction, ...], ...]:
        """K = -M^-1 L = N / D, so the equilibrium is v = K theta, on the field of b."""
        gain, det = _cofactor_solve(self.foc, self.foc_rhs, self.assignment)
        return tuple(tuple(n / det for n in row) for row in gain)

    @cached_property
    def integer_solve(self) -> tuple:
        """(N, D, [M | D L], [X | D x0], q D): the solve on ints, gcd(N, D) = 1 and D > 0.

        [M | L] and [X | x0] are each over one denominator, q for the latter.
        For theta = theta_n / t, v = N theta_n / (D t), the first-order
        conditions read [M | D L] . (N theta_n, theta_n) = 0, and the outputs
        are x = [X | D x0] . (N theta_n, a_n) / (q D t).
        """
        m_l, _ = _over_lcm_rows([(*m, *l) for m, l in zip(self.foc, self.foc_rhs)])
        foc, foc_rhs = [row[:3] for row in m_l], [row[3:] for row in m_l]
        gain, det = _cofactor_solve(foc, foc_rhs, self.assignment)
        g = math.gcd(det, *(n for row in gain for n in row)) * (1 if det > 0 else -1)
        gain, det = tuple(tuple(n // g for n in row) for row in gain), det // g
        pin, q = _over_lcm_rows([(*x, c) for x, c in zip(self.x_map, self.x_const)])
        return (gain, det, tuple((*m, *(det * n for n in l)) for m, l in zip(foc, foc_rhs)),
                tuple((*row[:3], det * row[3]) for row in pin), q * det)

    def payoff_form(self, i: int, theta: Sequence[Fraction]) -> QuadraticForm:
        """Firm i's relative payoff as a quadratic in v at the given theta.

        Profit pi_k = (p_k - c_k) x_k has the linear term a free_const[k] e_k
        - c_k X_k and the constant -a c_k x0_k; psi_i weights them by
        _WEIGHTS[i].
        """
        a = theta[0]
        weights = _WEIGHTS[i]
        scaled_costs = tuple(map(mul, weights, theta[1:]))
        lin = tuple(
            a * weights[j] * self.free_const[j]
            - _dot(scaled_costs, (row[j] for row in self.x_map))
            for j in range(3)
        )
        const = -a * _dot(scaled_costs, self.x_const)
        return QuadraticForm(self.psi_quad[i], lin, const)


@lru_cache(maxsize=1024)
def _operator(b: Fraction, assignment: StrategyAssignment) -> _Operator:
    """Build the theta-free operator; keyed by (b, assignment) only.

    The m price choosers' outputs solve ((1 - b) I + b J) x_P = a - v_P -
    b sum(v_Q), and that block's inverse is (I - b J / D) / (1 - b) with
    D = 1 + (m - 1) b, so no elimination is needed.
    """
    price = tuple(choice == PRICE for choice in assignment.choices)
    d = 1 + (sum(price) - 1) * b
    own = (b - d) / (d * (1 - b))
    cross_price = b / (d * (1 - b))
    cross_quantity = -b / d
    zero, one = Fraction(0), Fraction(1)
    x_map, x_const = [], []
    for i in range(3):
        if price[i]:
            x_map.append(tuple(
                own if j == i else cross_price if price[j] else cross_quantity for j in range(3)
            ))
            x_const.append(1 / d)
        else:
            x_map.append(tuple(one if j == i else zero for j in range(3)))
            x_const.append(zero)

    # Each firm's free variable is free_map[i] . v + free_const[i] a; a quantity
    # chooser's is its price p_i = a - x_i - b (x_j + x_k).
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

    # pi_k = v_k (free_map[k] . v) + ..., so psi_i = 3/2 pi_i - 1/2 sum(pi) has
    # the quadratic matrix 3/2 sym(e_i free_map[i]') + shared, where shared is
    # -1/2 sum_k sym(e_k free_map[k]').
    shared = [[-(free_map[r][s] + free_map[s][r]) / 4 for s in range(3)] for r in range(3)]
    psi_quad = []
    for i in range(3):
        quad = [row[:] for row in shared]
        for s in range(3):
            quad[i][s] = quad[s][i] = (
                free_map[i][i] if s == i else shared[i][s] + 3 * free_map[i][s] / 4
            )
        psi_quad.append(tuple(map(tuple, quad)))
    foc = tuple(tuple(2 * psi_quad[i][i][j] for j in range(3)) for i in range(3))
    foc_rhs = tuple((free_const[i], *(-_WEIGHTS[i][k] * x_map[k][i] for k in range(3)))
                    for i in range(3))
    return _Operator(assignment, tuple(x_map), tuple(x_const), tuple(free_const),
                     tuple(psi_quad), foc, foc_rhs)


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
        return 2 * self.form.quad[i][i]

    def respond(self, others: Sequence[RationalLike]) -> Fraction:
        """Payoff-maximizing own value against two fixed rival values.

        ``others`` lists the rivals' committed values in firm order with this
        firm skipped. Raises ConcavityViolation when the payoff has no
        interior maximum in the own variable.
        """
        rivals = rational_vector(others, 2)
        if self.own_curvature >= 0:
            raise ConcavityViolation(
                f"payoff of firm {self.firm} under {self.assignment} is not concave "
                f"in its own variable (curvature {self.own_curvature})"
            )
        i = self.own_index
        full = list(rivals)
        full.insert(i, Fraction(0))
        slope = self.form.lin[i] + 2 * sum(
            self.form.quad[i][j] * full[j] for j in range(3) if j != i
        )
        return -slope / self.own_curvature


def build_payoff_quadratic(params: ModelParams, assignment: AssignmentLike,
                           firm: str) -> QuadraticPayoff:
    """Exact quadratic representation of one firm's relative payoff."""
    asg = as_assignment(assignment)
    form = _operator(params.b, asg).payoff_form(firm_index(firm), _theta(params))
    return QuadraticPayoff(firm, asg, form)


def best_response(params: ModelParams, assignment: AssignmentLike, firm: str,
                  others: Sequence[RationalLike]) -> Fraction:
    """Exact best response of one firm to fixed rival values."""
    return build_payoff_quadratic(params, assignment, firm).respond(others)


@dataclass(frozen=True)
class Equilibrium:
    """A solved assignment: committed values, resulting state, payoffs, and flags.

    ``interior`` records whether all quantities and prices are nonnegative;
    ``soc_ok`` whether every firm's own curvature is negative. Both are
    reported rather than enforced, so degenerate corners stay visible.
    """

    params: ModelParams
    assignment: StrategyAssignment
    chosen: tuple[Fraction, Fraction, Fraction]
    state: MarketState
    payoffs: PayoffVector
    interior: bool
    soc_ok: bool

    def to_dict(self) -> dict:
        doc = {"assignment": str(self.assignment), "pattern": self.assignment.pattern,
               "params": self.params.to_dict()}
        for key, values in (("chosen", self.chosen), ("x", self.state.x), ("p", self.state.p),
                            ("pi", self.payoffs.pi), ("psi", self.payoffs.psi)):
            doc[key] = [format_rational(v) for v in values]
            doc[f"{key}_dec"] = [decimal_string(v) for v in values]
        doc["flags"] = {"interior": self.interior, "soc_ok": self.soc_ok}
        return doc


def solve_equilibrium(params: ModelParams, assignment: AssignmentLike) -> Equilibrium:
    """Solve the stacked first-order conditions of one assignment exactly.

    The committed values are v = K theta from the (b, assignment) operator,
    on integer numerators. Before the state is expanded, every firm's own
    first-order condition is checked to vanish at v, and the state is
    checked to reproduce each committed value.
    """
    asg = as_assignment(assignment)
    op = _operator(params.b, asg)
    try:
        gain, det, foc_check, pin, pin_den = op.integer_solve
    except SingularSystem as exc:
        detail = f"stacked first-order conditions for {asg} at {params.describe()}"
        raise SingularSystem(exc.pivot_step, detail) from None
    theta, t = _over_lcm(_theta(params))
    nums = [_dot(row, theta) for row in gain]
    for i in range(3):
        if _dot(foc_check[i], (*nums, *theta)) != 0:
            raise ArithmeticError(
                f"first-order condition of firm {FIRMS[i]} does not vanish "
                f"for {asg} at {params.describe()}"
            )
    chosen = tuple(Fraction(n, det * t) for n in nums)
    x = tuple(Fraction(_dot(row, (*nums, theta[0])), pin_den * t) for row in pin)
    state = MarketState.from_outputs(params, x)
    committed = tuple(
        state.p[i] if choice == PRICE else state.x[i] for i, choice in enumerate(asg.choices)
    )
    if committed != chosen:
        raise ArithmeticError(
            f"market state does not reproduce the committed values "
            f"for {asg} at {params.describe()}"
        )
    payoffs = payoff_vector(params, state)
    soc_ok = all(op.foc[i][i] < 0 for i in range(3))
    interior = all(v >= 0 for v in state.x) and all(v >= 0 for v in state.p)
    return Equilibrium(params, asg, chosen, state, payoffs, interior, soc_ok)


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
    theta = (params.a, params.c_a, params.c_c)
    printed = tuple(_dot(row, theta) for row in _printed_output_table(params.b)[pattern])
    corrected = printed if pattern != 1 else (printed[0], printed[1], -printed[2])
    return ClosedFormOutputs(pattern, printed, corrected)


def _row(den, a, c_ab, c_c) -> tuple:
    """One transcribed entry: its numerator's (a, c_AB, c_C) coefficients over den."""
    return (a / den, c_ab / den, c_c / den)


@lru_cache(maxsize=64)
def _printed_output_table(b: Fraction) -> dict:
    """All six transcribed output triples at one b, as rows on (a, c_AB, c_C).

    Each output is its row dotted with (a, c_AB, c_C). Keyed by b alone: one
    verify run meets at most 64 distinct b, the given one and the sampler's.
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

    op = _operator(params.b, asg)
    theta = _theta(params)
    curvature, slope, intercept = [], [], []
    for i in range(3):
        own = float(op.foc[i][i])
        if own >= 0:
            raise ConcavityViolation(
                f"payoff of firm {FIRMS[i]} under {asg} is not concave in its own variable"
            )
        curvature.append(own)
        slope.append([float(m) for m in op.foc[i]])
        intercept.append(float(_dot(op.foc_rhs[i], theta)))

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
