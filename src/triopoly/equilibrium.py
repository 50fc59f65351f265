"""Nash equilibria of the relative-payoff game, one solve per strategy assignment.

For a fixed substitutability ``b`` and assignment, the whole equilibrium is a
linear map of theta = (a, c_A, c_B, c_C). The solver keeps everything that
does not depend on theta in one operator, cached on the ints n, e of
b = n / e and the assignment, and built without Fraction arithmetic:

1. The pinning map x = X(b) v + x0(b) a from the committed values
   v = (v_A, v_B, v_C) to the outputs. The committed values fix the outputs
   through a 3x3 system S x = r: a quantity chooser's row pins its output,
   and a price chooser's is its demand equation. So [X | x0] is adj(S)
   times the map from (v, a) to r, ints over q = det S. It is the
   package's one route from committed values to a market state:
   ``solve_equilibrium`` and ``resolve_market`` both apply it, hand the
   output numerators to the state as ints, and check on the state's
   integers that it reproduces every committed value. ``direct_demand``,
   the inverse of the demand system, is its all-price case, applied
   without that check, and ``direct_demand_numerators`` the same map on
   ints.
2. Each firm's free variable (its price, or its output) is affine in v, ints
   over q e, so its profit and its relative payoff psi_i = sum_k W_ik pi_k
   are exact quadratics in v. Differentiating psi_i in the own variable
   gives the stacked first-order conditions M(b) v + L(b) theta = 0, ints
   over 2 q e; second-order conditions reduce to M_ii < 0, which is checked.
3. The operator keeps the first-order rows [M | L], each divided by its
   content, and adj M and det M of theirs, divided by their common factor
   and signed so that det M > 0; no gain -M^-1 L is formed. The model has
   three firms, so the cold build, the adjugate and every per-call kernel
   are straight-line 3x3 integer arithmetic. A solve takes r = L theta with
   theta over its lcm, v = -adj(M) r over det M, and checks its
   first-order conditions on the same ints, M v + det(M) r = 0; a
   Fraction of the result is built only when a caller reads it. A payoff
   form's linear and constant terms are 3-term sums over the pinning
   columns the same way, through the columns' cost-weighted sums, which
   every firm shares. The rows of items 1 and 2 come from a builder that
   uses only +, -, * on n and e, so it runs on any ring, as ``_adjugate``
   does; the cached operator holds the rows as the builder returns them.

Printed closed-form output tables exist for the six numbered patterns and
are kept here in two variants: ``printed`` is the table as transcribed, and
``corrected`` the variant that agrees with the solver. They differ in a
single entry, the sign of the all-quantity pattern's third output. Like the
solver, the tables are linear maps cached per b, on its ints n, e, and
built without Fraction arithmetic: each output is a row of coefficients on
(a, c_AB, c_C). A transcribed entry is a polynomial in b over a product of
linear factors in b; scaled by e to the denominator's degree, both are
integer polynomials in n and e, so each pattern's rows are ints over its
transcribed denominator, and the table's body, like the operator's rows,
runs on any ring. An output is its row dotted with (a, c_AB, c_C) over
their lcm, on ints; the property suite compares these integers. The
solver is ground truth; the tables are cross-checks and documentation.
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
    as_rational,
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
    _fractions,
    _interior,
    _Lazy,
    _pattern_number,
    _reduced,
    _state,
    as_assignment,
    ensure_float_safe,
    firm_index,
    payoff_vector,
)

__all__ = [
    "ConcavityViolation",
    "QuadraticPayoff",
    "build_payoff_quadratic",
    "payoff_slice",
    "own_payoff_slopes",
    "best_response",
    "Equilibrium",
    "solve_equilibrium",
    "committed_values",
    "resolve_market",
    "direct_demand",
    "direct_demand_numerators",
    "ClosedFormOutputs",
    "closed_form_outputs",
    "IterationResult",
    "best_response_iteration",
]


class ConcavityViolation(Exception):
    """A payoff is not strictly concave in the firm's own variable."""


# psi_i = pi_i - (pi_j + pi_k) / 2: twice the weight of firm k's profit in psi_i.
_TWICE_WEIGHTS = tuple(tuple(2 if k == i else -1 for k in range(3)) for i in range(3))


def _adjugate(m) -> tuple:
    """(adj M, det M) of a 3x3 M on any ring: only +, - and * touch the entries.

    adj(M) M = M adj(M) = det(M) I, so M v = r has v = adj(M) r / det M
    whenever det M != 0.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    a00, a01, a02 = e * i - f * h, c * h - b * i, b * f - c * e
    a10, a11, a12 = f * g - d * i, a * i - c * g, c * d - a * f
    a20, a21, a22 = d * h - e * g, b * g - a * h, a * e - b * d
    return ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)), a * a00 + b * a10 + c * a20


@dataclass(frozen=True)
class _Operator:
    """Everything about one (b, assignment) game that does not depend on theta, on ints.

    With b = n / e, the rows of ``pin``, [X | x0] over ``q`` = det S > 0, are
    the pinning map x = X v + x0 a. Firm i's free variable, its price when
    it commits a quantity and its output when it commits a price, is
    [F | f0]_i . (v, a) over q e, from the rows of ``free``. The stacked
    own-variable first-order conditions read [M | L] . (v, theta) = 0, from
    the rows of ``foc`` over 2 q e.

    These rows are the package's only copy of each map: the pinning map and
    ``direct_demand_numerators`` apply ``pin``, the payoff terms
    (``cost_sums``, ``linear_term`` and ``constant_term``, and through them
    ``payoff_form``, ``payoff_slice`` and ``own_payoff_slopes``) read
    ``free`` and the columns of ``pin``, the second-order flag reads
    ``foc``, and the solve reads it as :attr:`adjugate` holds it, each row
    over its content. Nothing outside this module reads them.
    """

    assignment: StrategyAssignment
    e: int
    q: int
    pin: tuple[tuple[int, ...], ...]
    free: tuple[tuple[int, ...], ...]
    foc: tuple[tuple[int, ...], ...]

    @cached_property
    def adjugate(self) -> tuple:
        """(rows, adj, det): the first-order rows on smaller ints, adj M and det M of theirs.

        Each row of ``foc`` is divided by its content, which keeps its
        equation, and adj M and det M by their common factor, signed so that
        det M > 0, which keeps adj(M) M = det(M) I. det M = 0 raises
        SingularSystem. With r = L theta_n for theta = theta_n / t, the
        committed values are v = -adj(M) r / (det(M) t).
        """
        rows = []
        for m0, m1, m2, l0, l1, l2, l3 in self.foc:
            g = math.gcd(m0, m1, m2, l0, l1, l2, l3) or 1
            rows.append((m0 // g, m1 // g, m2 // g, l0 // g, l1 // g, l2 // g, l3 // g))
        r0, r1, r2 = rows
        ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)), det = _adjugate(
            (r0[:3], r1[:3], r2[:3]))
        if det == 0:
            raise SingularSystem()
        g = math.gcd(det, a00, a01, a02, a10, a11, a12, a20, a21, a22) * (1 if det > 0 else -1)
        return tuple(rows), ((a00 // g, a01 // g, a02 // g), (a10 // g, a11 // g, a12 // g),
                             (a20 // g, a21 // g, a22 // g)), det // g

    def output_numerators(self, nums: Sequence[int], a_num: int) -> list[int]:
        """Outputs x = [X | x0] . (nums, a_num) over q den, at v = nums / den, a = a_num / den."""
        v0, v1, v2 = nums
        return [x0 * v0 + x1 * v1 + x2 * v2 + x3 * a_num for x0, x1, x2, x3 in self.pin]

    def resolve(self, params: ModelParams, nums: Sequence[int], a_num: int,
                den: int) -> MarketState:
        """The state at committed values v = nums / den and a = a_num / den, checked.

        The state's outputs are those of :meth:`output_numerators`, and it must
        reproduce each committed value, a price chooser's p_i and a quantity
        chooser's x_i: on the state's integers, by cross-multiplication.
        """
        state = _state(MarketState, params,
                       *_reduced(self.output_numerators(nums, a_num), self.q * den))
        x_num, x_den, p_num, p_den = state._ints
        for i, choice in enumerate(self.assignment.choices):
            held, held_den = (p_num[i], p_den) if choice == PRICE else (x_num[i], x_den)
            if held * den != nums[i] * held_den:
                raise ArithmeticError(f"market state does not reproduce the committed values "
                                      f"for {self.assignment} at {params.describe()}")
        return state

    @cached_property
    def psi_quad(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The relative payoffs' quadratic matrices in v, derived apart from ``foc``.

        pi_k = v_k (F_k . v) / (q e) + ..., so psi_i = 3/2 pi_i - 1/2 sum(pi)
        has the matrix 3/2 sym(e_i F_i') + shared over q e, where shared is
        -1/2 sum_k sym(e_k F_k'): row and column i are firm i's own entries
        (4 F_ii on the diagonal, 2 F_is - F_si off it), the rest is
        ``shared`` (-2 F_rr on the diagonal, -F_rs - F_sr off it). Each entry
        is an int over 4 q e. Only ``payoff_form``, ``payoff_slice`` and
        ``own_payoff_slopes`` read it.
        """
        (f00, f01, f02, _), (f10, f11, f12, _), (f20, f21, f22, _) = self.free
        s00, s11, s22 = -2 * f00, -2 * f11, -2 * f22
        s01, s02, s12 = -f01 - f10, -f02 - f20, -f12 - f21
        o01, o02, o10 = 2 * f01 - f10, 2 * f02 - f20, 2 * f10 - f01
        o12, o20, o21 = 2 * f12 - f21, 2 * f20 - f02, 2 * f21 - f12
        return (((4 * f00, o01, o02), (o01, s11, s12), (o02, s12, s22)),
                ((s00, o10, s02), (o10, 4 * f11, o12), (s02, o12, s22)),
                ((s00, s01, o20), (s01, s11, o21), (o20, o21, 4 * f22)))

    def cost_sums(self, params: ModelParams) -> list[int]:
        """C_j = sum_k c_k [X | x0]_kj, ints over q t: the pinning columns weighted by the costs.

        Firm i's payoff weights c_k [X | x0]_kj by T_ik = _TWICE_WEIGHTS[i][k],
        and sum_k T_ik c_k [X | x0]_kj = 3 c_i [X | x0]_ij - C_j, so one pass
        over the columns serves every firm.
        """
        _, _, (_, c0, c1, c2), _ = params._ints
        return [c0 * x0 + c1 * x1 + c2 * x2 for x0, x1, x2 in zip(*self.pin)]

    def linear_term(self, i: int, j: int, params: ModelParams, sums: Sequence[int]) -> int:
        """The coefficient of v_j in firm i's payoff, an int over 4 q e t^2.

        ``sums`` are :meth:`cost_sums`. Profit pi_k = (p_k - c_k) x_k has the
        linear term a f0_k e_k - c_k X_k, and psi_i weights it by half of
        _TWICE_WEIGHTS[i]: on ints over q e, f0_j from ``free[j]`` and the
        cost part from column j of ``pin`` times e. With theta over its lcm
        t, as params holds it, and the weights doubled, that is over
        2 q e t, scaled here to 4 q e t^2, the denominator of ``psi_quad``
        times t^2. This is the package's one formula for the linear term.
        """
        _, _, theta, t = params._ints
        return 2 * t * (theta[0] * _TWICE_WEIGHTS[i][j] * self.free[j][3]
                        - self.e * (3 * theta[i + 1] * self.pin[i][j] - sums[j]))

    def constant_term(self, i: int, params: ModelParams, sums: Sequence[int]) -> int:
        """Firm i's payoff at v = 0, an int over 4 q e t^2, like :meth:`linear_term`.

        Profit pi_k has the constant -a c_k x0_k, weighted like the cost part
        of the linear terms: the same sum, on column 3 of ``pin``, x0. This is
        the package's one formula for the constant term.
        """
        _, _, theta, _ = params._ints
        return -2 * theta[0] * self.e * (3 * theta[i + 1] * self.pin[i][3] - sums[3])

    def payoff_form(self, i: int, params: ModelParams) -> QuadraticForm:
        """Firm i's relative payoff as a quadratic in v at the theta of params, on ints.

        The matrix is ``psi_quad[i]``, the linear terms :meth:`linear_term`
        and the constant :meth:`constant_term`. With theta over its lcm t,
        the form is over 4 q e t^2.
        """
        sums = self.cost_sums(params)
        lin = [self.linear_term(i, j, params, sums) for j in range(3)]
        tt = params._ints[3] ** 2
        quad = [[v * tt for v in row] for row in self.psi_quad[i]]
        return QuadraticForm.from_numerators(quad, lin, self.constant_term(i, params, sums),
                                             4 * self.q * self.e * tt)


def _operator_rows(n, e, assignment: StrategyAssignment) -> tuple:
    """(q, pin, free, foc): the rows of b = n / e over q, q e and 2 q e, on any ring.

    Only +, -, * touch n and e, so the rows are polynomials in them; with
    e = 1 they are the maps at b = n on any exact field.

    The committed values fix the outputs through S x = r: a quantity chooser's
    row of S is e_i, with r_i = v_i, and a price chooser's its demand row
    (n, .., e, .., n), with r_i = e (a - v_i). With r_i = k_i v_i + w_i a,
    [X | x0] is adj(S) [diag(k) | w] over q = det S > 0.
    """
    c0, c1, c2 = assignment.choices
    p0, p1, p2 = c0 == PRICE, c1 == PRICE, c2 == PRICE
    zero = n - n  # a ring zero, so every entry stays in the ring of n
    ((s00, s01, s02), (s10, s11, s12), (s20, s21, s22)), q = _adjugate(
        ((e, n, n) if p0 else (1, zero, zero),
         (n, e, n) if p1 else (zero, 1, zero),
         (n, n, e) if p2 else (zero, zero, 1)))
    k0, w0 = (-e, e) if p0 else (1, zero)
    k1, w1 = (-e, e) if p1 else (1, zero)
    k2, w2 = (-e, e) if p2 else (1, zero)
    pin = ((x00, x01, x02, _), (x10, x11, x12, _), (x20, x21, x22, _)) = (
        (s00 * k0, s01 * k1, s02 * k2, s00 * w0 + s01 * w1 + s02 * w2),
        (s10 * k0, s11 * k1, s12 * k2, s10 * w0 + s11 * w1 + s12 * w2),
        (s20 * k0, s21 * k1, s22 * k2, s20 * w0 + s21 * w1 + s22 * w2))

    # Over q e: a price chooser's free variable is its output, and a quantity
    # chooser's is its price p_i = a - x_i - b (x_j + x_k), from its pinning
    # row y and its rivals' z and u.
    r0, r1, r2 = pin
    free = []
    for p, (y0, y1, y2, y3), (z0, z1, z2, z3), (u0, u1, u2, u3) in (
            (p0, r0, r1, r2), (p1, r1, r2, r0), (p2, r2, r0, r1)):
        free.append((e * y0, e * y1, e * y2, e * y3) if p else
                    (-e * y0 - n * (z0 + u0), -e * y1 - n * (z1 + u1),
                     -e * y2 - n * (z2 + u2), q * e - e * y3 - n * (z3 + u3)))

    # psi_i = sum_k W_ik pi_k, pi_k = v_k (F_k . v + f0_k a) - c_k x_k: in d psi_i / d v_i,
    # v_j has the coefficient F_ij + W_ij F_ji. With W = T / 2 and T = _TWICE_WEIGHTS,
    # [M | L] is over 2 q e: M_ij = 2 F_ij + T_ij F_ji and L_i = (2 f0_i, -T_ik e X_ki).
    (f00, f01, f02, f03), (f10, f11, f12, f13), (f20, f21, f22, f23) = free
    foc = ((4 * f00, 2 * f01 - f10, 2 * f02 - f20, 2 * f03, -2 * e * x00, e * x10, e * x20),
           (2 * f10 - f01, 4 * f11, 2 * f12 - f21, 2 * f13, e * x01, -2 * e * x11, e * x21),
           (2 * f20 - f02, 2 * f21 - f12, 4 * f22, 2 * f23, e * x02, e * x12, -2 * e * x22))
    return q, pin, tuple(free), foc


@lru_cache(maxsize=1024)
def _operator(n: int, e: int, assignment: StrategyAssignment) -> _Operator:
    """The theta-free operator of b = n / e on ints; keyed by (n, e, assignment) only.

    The key holds ints, not b: every Fraction over 2^61 - 1, the modulus of
    Python's numeric hash, hashes alike, so a b-keyed cache would compare
    such keys one by one. The operator holds the rows of ``_operator_rows``
    as that builder returns them.
    """
    q, pin, free, foc = _operator_rows(n, e, assignment)
    return _built(_Operator, assignment=assignment, e=e, q=q, pin=pin, free=free, foc=foc)


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
        slope = self.form.lin_num[i] * s + 2 * sum(map(mul, quad[i], nums))
        return Fraction(-slope, 2 * quad[i][i] * s)


def build_payoff_quadratic(params: ModelParams, assignment: AssignmentLike,
                           firm: str) -> QuadraticPayoff:
    """Exact quadratic representation of one firm's relative payoff."""
    asg = as_assignment(assignment)
    op = _operator(*params._ints[:2], asg)
    return QuadraticPayoff(firm, asg, op.payoff_form(firm_index(firm), params))


def payoff_slice(params: ModelParams, assignment: AssignmentLike, firm: str,
                 keep: Sequence[int], value: RationalLike) -> QuadraticForm:
    """One firm's relative payoff in the coordinates ``keep``, the third pinned at ``value``.

    ``keep`` is two distinct indices in 0..2, else ValueError; the result's
    coordinate 0 is ``keep[0]``. It equals
    ``build_payoff_quadratic(params, assignment, firm).form.slice(keep,
    {f: value})`` for the remaining index f, built in one pass on the
    operator's ints: with value = n / d, the matrix ``psi_quad`` times
    t^2 d^2, the linear terms (lin_k d + 2 t^2 Q_kf n) d and the constant
    (const d + lin_f n) d + t^2 Q_ff n^2, all over 4 q e t^2 d^2, and
    reduced once.
    """
    keep = tuple(keep)
    if (len(keep) != 2 or keep[0] == keep[1]
            or not all(type(k) is int and 0 <= k < 3 for k in keep)):
        raise ValueError(f"keep must be two distinct indices in 0..2, got {keep!r}")
    f = 3 - keep[0] - keep[1]
    i = firm_index(firm)
    n, d = as_rational(value).as_integer_ratio()
    op = _operator(*params._ints[:2], as_assignment(assignment))
    sums = op.cost_sums(params)
    tt = params._ints[3] ** 2
    quad = op.psi_quad[i]
    q_f, lin_f = quad[f], op.linear_term(i, f, params, sums)
    scale = tt * d * d
    return QuadraticForm.from_numerators(
        [[quad[r][c] * scale for c in keep] for r in keep],
        [(op.linear_term(i, r, params, sums) * d + 2 * tt * q_f[r] * n) * d for r in keep],
        (op.constant_term(i, params, sums) * d + lin_f * n) * d + tt * q_f[f] * n * n,
        4 * op.q * op.e * scale)


def _int_numerators(nums: Sequence[int], den: int) -> tuple[int, int, int]:
    """``nums`` if they are three ints (no bool) over an int ``den`` > 0, else ValueError."""
    if type(den) is not int:
        raise ValueError(f"den must be an int, got {den!r}")
    if den <= 0:
        raise ValueError(f"den must be positive, got {den}")
    if len(nums) != 3 or not (type(nums[0]) is type(nums[1]) is type(nums[2]) is int):
        raise ValueError(f"nums must be three ints, got {nums!r}")
    return nums[0], nums[1], nums[2]


def own_payoff_slopes(params: ModelParams, assignment: AssignmentLike, nums: Sequence[int],
                      den: int) -> tuple[list[int], int]:
    """Each firm's own payoff slope d psi_i / d v_i at v = nums / den, on ints.

    ``nums`` are three int numerators over the int ``den`` > 0, else
    ValueError. Returns the slopes' numerators over one int denominator,
    the payoff forms' unreduced one, 4 q e t^2 (q = det S), times ``den``.
    Firm i's is lin_i den + 2 t^2 (row i of its matrix) . nums, the own
    component of its form's gradient without the form: it reads the forms'
    matrices and the one formula of their linear terms, the route of
    :func:`build_payoff_quadratic`, never the first-order rows the solver
    reads, so at an equilibrium the slopes vanish by a route of their own.
    The cost-weighted column sums are made once for the three firms.
    """
    v0, v1, v2 = _int_numerators(nums, den)
    op = _operator(*params._ints[:2], as_assignment(assignment))
    tt = params._ints[3] ** 2
    sums = op.cost_sums(params)
    slopes = []
    for i, matrix in enumerate(op.psi_quad):
        q0, q1, q2 = matrix[i]
        slopes.append(op.linear_term(i, i, params, sums) * den
                      + 2 * tt * (q0 * v0 + q1 * v1 + q2 * v2))
    return slopes, 4 * op.q * op.e * tt * den


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
    made by :func:`solve_equilibrium` builds ``chosen`` and ``payoffs`` on
    their first read, from ``_ints``: integer numerators over one
    denominator, then ``params`` and ``state`` for :func:`payoff_vector`.
    """

    params: ModelParams
    assignment: StrategyAssignment
    chosen: tuple[Fraction, Fraction, Fraction] = _Lazy(0)
    state: MarketState
    payoffs: PayoffVector = _Lazy(2, payoff_vector)
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


def _committed_numerators(params: ModelParams,
                          asg: StrategyAssignment) -> tuple[_Operator, tuple[int, ...], int]:
    """(op, nums, det): the committed values v = nums / (det t), checked, on ints.

    With theta = theta_n / t, [M | L] the adjugate's rows and r = L theta_n,
    v = -adj(M) r / (det(M) t) from the (b, assignment) operator, and every
    firm's own first-order condition is checked to vanish at v,
    M nums + det r = 0. The numerators are not reduced; det > 0.
    """
    n, e, (a, c0, c1, c2), _ = params._ints
    op = _operator(n, e, asg)
    try:
        rows, ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)), det = op.adjugate
    except SingularSystem:
        raise SingularSystem(
            f"stacked first-order conditions for {asg} at {params.describe()}") from None
    ((m00, m01, m02, l00, l01, l02, l03), (m10, m11, m12, l10, l11, l12, l13),
     (m20, m21, m22, l20, l21, l22, l23)) = rows
    r0 = l00 * a + l01 * c0 + l02 * c1 + l03 * c2
    r1 = l10 * a + l11 * c0 + l12 * c1 + l13 * c2
    r2 = l20 * a + l21 * c0 + l22 * c1 + l23 * c2
    v0 = -(a00 * r0 + a01 * r1 + a02 * r2)
    v1 = -(a10 * r0 + a11 * r1 + a12 * r2)
    v2 = -(a20 * r0 + a21 * r1 + a22 * r2)
    for i, residual in enumerate((m00 * v0 + m01 * v1 + m02 * v2 + det * r0,
                                  m10 * v0 + m11 * v1 + m12 * v2 + det * r1,
                                  m20 * v0 + m21 * v1 + m22 * v2 + det * r2)):
        if residual:
            raise ArithmeticError(
                f"first-order condition of firm {FIRMS[i]} does not vanish "
                f"for {asg} at {params.describe()}"
            )
    return op, (v0, v1, v2), det


def committed_values(params: ModelParams,
                     assignment: AssignmentLike) -> tuple[Fraction, Fraction, Fraction]:
    """The equilibrium's committed values alone: ``solve_equilibrium(...).chosen``.

    They come from the same checked numerators as the solve's, with their
    first-order conditions verified, but no market state or payoff is built.
    """
    _, nums, det = _committed_numerators(params, as_assignment(assignment))
    return _fractions(nums, det * params._ints[3])


def solve_equilibrium(params: ModelParams, assignment: AssignmentLike) -> Equilibrium:
    """Solve the stacked first-order conditions of one assignment exactly.

    The committed values are v = -M^-1 L theta from the (b, assignment)
    operator's adjugate, on integer numerators, each firm's own first-order
    condition checked to vanish at v (see :func:`committed_values`), before
    the operator's pinning map resolves v into the checked state. Those
    checks run here, on integers. ``chosen`` is built on its first read,
    and ``payoffs`` too, with the zero-sum check of :func:`payoff_vector`.
    """
    asg = as_assignment(assignment)
    op, nums, det = _committed_numerators(params, asg)
    _, _, theta, t = params._ints
    state = op.resolve(params, nums, det * theta[0], det * t)
    return _built(Equilibrium, params=params, assignment=asg, state=state,
                  interior=_interior(state), _ints=(nums, det * t, params, state),
                  soc_ok=op.foc[0][0] < 0 and op.foc[1][1] < 0 and op.foc[2][2] < 0)


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


def direct_demand_numerators(params: ModelParams, nums: Sequence[int],
                             den: int) -> tuple[list[int], int]:
    """Outputs demanded at the prices nums / den, on ints: the map of :func:`direct_demand`.

    ``nums`` are three int numerators over the int ``den`` > 0, else
    ValueError. The prices and a go over the lcm m of ``den`` and theta's
    denominator; the PPP pinning rows give the outputs' numerators over q m,
    returned unreduced with it: q = det S = (e - n)^2 (e + 2 n), b = n / e.
    """
    v0, v1, v2 = _int_numerators(nums, den)
    n, e, theta, t = params._ints
    op = _operator(n, e, PATTERNS[6])
    m = math.lcm(den, t)
    s = m // den
    return op.output_numerators((v0 * s, v1 * s, v2 * s),
                                theta[0] * (m // t)), op.q * m


def direct_demand(params: ModelParams,
                  p: Sequence[RationalLike]) -> tuple[Fraction, Fraction, Fraction]:
    """Outputs demanded at the given prices, the exact inverse of ``inverse_demand``.

    This is the all-price pinning map, :func:`direct_demand_numerators` on
    the prices over their lcm. Unlike :func:`resolve_market` it runs no
    back-substitution check, so a round trip through ``inverse_demand``
    tests the pinning rows independently.
    """
    return _fractions(*direct_demand_numerators(params, *_over_lcm(rational_vector(p, 3))))


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

    @staticmethod
    def _numerators(params: ModelParams, pattern: int) -> tuple[tuple, tuple, int]:
        """(printed, corrected, den): a numbered pattern's two variants as ints over den > 0.

        Each printed numerator is a transcribed row dotted with (a, c_AB, c_C)
        over their lcm t, and den is the row denominator times t, unreduced.
        Here, and only here, pattern 1's x_C gets its sign corrected. The
        pattern is not checked; c_A != c_B is rejected.
        """
        # theta is over one denominator t: c_A = c_B compares numerators.
        n, e, (a, c_ab, c_b, c_c), t = params._ints
        if c_ab != c_b:
            raise ValueError(
                "closed-form output tables assume c_A = c_B, "
                f"got cA={params.c_a} cB={params.c_b}"
            )
        ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)), den = \
            _printed_output_table(n, e)[pattern]
        x = (r00 * a + r01 * c_ab + r02 * c_c, r10 * a + r11 * c_ab + r12 * c_c,
             r20 * a + r21 * c_ab + r22 * c_c)
        return x, (x[0], x[1], -x[2]) if pattern == 1 else x, den * t

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
    _pattern_number(pattern)
    (x0, x1, x2), (_, _, y2), den = ClosedFormOutputs._numerators(params, pattern)
    printed = Fraction(x0, den), Fraction(x1, den), Fraction(x2, den)
    # The variants can differ only in x_C.
    corrected = printed if y2 == x2 else (printed[0], printed[1], Fraction(y2, den))
    return _built(ClosedFormOutputs, pattern=pattern, printed=printed, corrected=corrected)


@lru_cache(maxsize=64)
def _printed_output_table(n: int, e: int) -> dict:
    """Each pattern's three transcribed rows at b = n / e over its transcribed denominator.

    An output is its row dotted with (a, c_AB, c_C), over that denominator.
    Every transcribed numerator is a polynomial in b, and every denominator
    a product of linear factors in b; scaled by e to the pattern
    denominator's degree k, both are polynomials in n and e. Each scaled
    numerator is written out as one integer expression over the monomials
    n^j e^(k - j), made once per call; the comments give each in b. Only
    +, -, * touch n and e, so, like ``_operator_rows``, the body runs on
    any ring, and on ints the rows are ints over a positive int. Keyed by
    the ints of b alone, as ``_operator`` is: one verify run meets at most
    64 distinct b, the given one and the sampler's.
    """
    # The monomials n^j e^(k - j) of degrees k = 2, 3, 4 that the entries use.
    e2, ne = e * e, n * e
    e3, ne2, n2e = e2 * e, ne * e, n * ne
    e4, ne3, n2e2, n3e = e3 * e, ne2 * e, ne * ne, n * n2e

    # e (4 - b), e (b + 2), e (1 - b), e (3 b + 4), e (5 b + 4) and e (b + 4).
    u, v, h = 4 * e - n, n + 2 * e, e - n
    w3, w5, w4 = 3 * n + 4 * e, 5 * n + 4 * e, n + 4 * e

    # Each row's entries are the coefficients of (a, c_AB, c_C).
    # Over (4 - b)(b + 2): x_AB (4 - b, -4, b) and pattern 1's x_C
    # (b - 4, -2 b, b + 4). Pattern 2's x_C is transcribed with the same
    # numerator over (b - 4)(b + 2): the sign slip of pattern 1.
    d12 = u * v
    x12_ab = (4 * e2 - ne, -4 * e2, ne)
    x1_c = (ne - 4 * e2, -2 * ne, ne + 4 * e2)

    # Over (4 - b)(1 - b)(b + 2)(3 b + 4), with a3 = 3 b^3 - 11 b^2 - 8 b + 16:
    # x_A (a3, -3 b^3 + 6 b^2 + 4 b - 16, 5 b^2 + 4 b) and
    # x_C (a3, -3 b^3 + 4 b^2 + 8 b, 7 b^2 - 16); x_B is x_AB over (4 - b)(b + 2).
    hw3 = h * w3
    d3 = d12 * hw3
    a3 = 3 * n3e - 11 * n2e2 - 8 * ne3 + 16 * e4
    x3_a = (a3, -3 * n3e + 6 * n2e2 + 4 * ne3 - 16 * e4, 5 * n2e2 + 4 * ne3)
    x3_c = (a3, -3 * n3e + 4 * n2e2 + 8 * ne3, 7 * n2e2 - 16 * e4)

    # Over (1 - b)(b + 2)(5 b + 4), with a46 = -5 b^2 + b + 4:
    # x_AB (a46, 3 b^2 - 2 b - 4, 2 b^2 + b) and x_C (a46, 4 b^2 + 2 b, b^2 - 3 b - 4).
    d46 = h * v * w5
    a46 = -5 * n2e + ne2 + 4 * e3
    x46_ab = (a46, 3 * n2e - 2 * ne2 - 4 * e3, 2 * n2e + ne2)
    x46_c = (a46, 4 * n2e + 2 * ne2, n2e - 3 * ne2 - 4 * e3)

    # Over (1 - b)(b + 2)(b + 4)(5 b + 4), with a5 = -5 b^3 - 19 b^2 + 8 b + 16:
    # x_A (a5, 6 b^3 + 16 b^2 - 12 b - 16, -b^3 + 3 b^2 + 4 b) and
    # x_C (a5, b^3 + 12 b^2 + 8 b, 4 b^3 + 7 b^2 - 16 b - 16); x_B is pattern 4's
    # x_AB over (1 - b)(b + 2)(5 b + 4).
    d5 = d46 * w4
    a5 = -5 * n3e - 19 * n2e2 + 8 * ne3 + 16 * e4
    x5_a = (a5, 6 * n3e + 16 * n2e2 - 12 * ne3 - 16 * e4, -n3e + 3 * n2e2 + 4 * ne3)
    x5_c = (a5, n3e + 12 * n2e2 + 8 * ne3, 4 * n3e + 7 * n2e2 - 16 * ne3 - 16 * e4)

    # Patterns 4 and 6 are transcribed with the same rows.
    pattern46 = ((x46_ab, x46_ab, x46_c), d46)
    (c0, c1, c2), (y0, y1, y2) = x12_ab, x46_ab
    return {
        1: ((x12_ab, x12_ab, x1_c), d12),
        2: ((x12_ab, x12_ab, (-x1_c[0], -x1_c[1], -x1_c[2])), d12),
        3: ((x3_a, (c0 * hw3, c1 * hw3, c2 * hw3), x3_c), d3),
        4: pattern46,
        5: ((x5_a, (y0 * w4, y1 * w4, y2 * w4), x5_c), d5),
        6: pattern46,
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
    if isinstance(damping, bool) or not 0 < damping <= 1:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if isinstance(tol, bool) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
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
    den = 2 * op.q * e
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
        intercept.append(sum(map(mul, row[3:], theta)) / (den * t))

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
