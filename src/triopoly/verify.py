"""Cross-checks on the solver: equivalences, minimax equalities, property sweeps.

Three layers, in increasing breadth:

* pairwise and matrix equilibrium comparison across strategy assignments,
  exact equality in market-state space;
* grid saddle scans certifying the minimax equalities that a zero-sum game
  must satisfy, with an a-priori tolerance derived from the grid step and an
  exact bound on the outer derivative;
* a seeded property suite that re-runs the structural identities of the
  model on randomly drawn parameter sets; each draw's eight assignments are
  solved once, and every property reads those solved states. All but the
  zero-sum check, which tests the public Fraction functions, compare the
  solver's integer forms, and build Fractions only to report a failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import QuadraticForm, _over_lcm, as_rational, format_rational
from .market import (
    ALL_ASSIGNMENTS,
    FIRMS,
    PATTERNS,
    AssignmentLike,
    MarketState,
    ModelParams,
    StrategyAssignment,
    _price_numerators,
    as_assignment,
    ensure_float_safe,
    firm_index,
    payoff_vector,
)
from .equilibrium import (
    ClosedFormOutputs,
    Equilibrium,
    build_payoff_quadratic,
    closed_form_outputs,
    committed_values,
    direct_demand_numerators,
    own_payoff_slopes,
    payoff_slice,
    solve_equilibrium,
)

__all__ = [
    "EquivalenceReport",
    "check_equivalence",
    "equivalence_matrix",
    "equal_pattern_pairs",
    "closed_form_discrepancies",
    "GridSpec",
    "DegenerateSlice",
    "MinimaxSlice",
    "MinimaxReport",
    "grid_minimax_pair",
    "minimax_check",
    "PropertyResult",
    "SuiteReport",
    "property_suite",
    "sample_model_params",
]

PATTERN_NUMBERS = tuple(sorted(PATTERNS))

# Witness pairs whose equilibria provably differ whenever c_C != c_A.
NON_EQUIVALENT_PAIRS = ((1, 3), (6, 5), (1, 6))


# ---------------------------------------------------------------------------
# equivalence of assignments


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing the equilibrium states of two assignments."""

    left: str
    right: str
    equal: bool
    max_abs_diff: Fraction
    witness: tuple[MarketState, MarketState] | None

    def to_dict(self) -> dict:
        doc = {
            "left": self.left,
            "right": self.right,
            "equal": self.equal,
            "max_abs_diff": format_rational(self.max_abs_diff),
        }
        if self.witness is None:
            doc["witness"] = None
        else:
            doc["witness"] = {
                "left": self.witness[0].to_dict(),
                "right": self.witness[1].to_dict(),
            }
        return doc


def _assignment_label(value: AssignmentLike) -> str:
    if isinstance(value, int):
        return str(value)
    asg = as_assignment(value)
    return str(asg.pattern) if asg.pattern is not None else str(asg)


def _compare(left: AssignmentLike, right: AssignmentLike, el: Equilibrium,
             er: Equilibrium) -> EquivalenceReport:
    # A state's integer form is canonical: the states are equal iff their forms are.
    forms = el.state._ints, er.state._ints
    equal = forms[0] == forms[1]
    if equal:
        max_diff, witness = Fraction(0), None
    else:
        # x, then p: each block's differences over the product of its two
        # denominators, the larger block kept by cross-multiplication.
        num, den = 0, 1
        (lx, lx_den, lp, lp_den), (rx, rx_den, rp, rp_den) = forms
        for l_num, l_den, r_num, r_den in ((lx, lx_den, rx, rx_den), (lp, lp_den, rp, rp_den)):
            block = max(abs(u * r_den - v * l_den) for u, v in zip(l_num, r_num))
            if block * den > num * l_den * r_den:
                num, den = block, l_den * r_den
        max_diff, witness = Fraction(num, den), (el.state, er.state)
    return EquivalenceReport(_assignment_label(left), _assignment_label(right),
                             equal, max_diff, witness)


def check_equivalence(params: ModelParams, left: AssignmentLike,
                      right: AssignmentLike) -> EquivalenceReport:
    """Compare two assignments' equilibrium states by exact equality.

    The states either coincide component for component or they do not; the
    report carries the largest componentwise difference and, when they
    differ, both states as a witness.
    """
    return _compare(left, right, solve_equilibrium(params, left),
                    solve_equilibrium(params, right))


def _matrix(solved: dict) -> list[list[EquivalenceReport]]:
    return [
        [_compare(i, j, solved[i], solved[j]) for j in PATTERN_NUMBERS]
        for i in PATTERN_NUMBERS
    ]


def equivalence_matrix(params: ModelParams) -> list[list[EquivalenceReport]]:
    """All pairwise comparisons of the six numbered patterns (6x6, diagonal trivial)."""
    return _matrix({k: solve_equilibrium(params, k) for k in PATTERN_NUMBERS})


def _equal_pairs(matrix: list[list[EquivalenceReport]]) -> list[tuple[int, int]]:
    """Pattern pairs (i < j) marked equal in an :func:`equivalence_matrix`."""
    return [
        (i, j)
        for i, row in zip(PATTERN_NUMBERS, matrix)
        for j, report in zip(PATTERN_NUMBERS, row)
        if i < j and report.equal
    ]


def equal_pattern_pairs(params: ModelParams) -> list[tuple[int, int]]:
    """Unordered pattern pairs (i < j) whose equilibria coincide exactly."""
    return _equal_pairs(equivalence_matrix(params))


def closed_form_discrepancies(params: ModelParams) -> list[dict]:
    """Entries where the transcribed output tables disagree with their correction.

    Returns one record per differing component, with both values rendered as
    rationals. Empty when c_A != c_B because the tables do not apply there.
    """
    if params.c_a != params.c_b:
        return []
    entries = []
    for pattern in PATTERN_NUMBERS:
        table = closed_form_outputs(params, pattern)
        for idx, name in enumerate(("xA", "xB", "xC")):
            if table.printed[idx] != table.corrected[idx]:
                entries.append({
                    "pattern": pattern,
                    "component": name,
                    "printed": format_rational(table.printed[idx]),
                    "corrected": format_rational(table.corrected[idx]),
                })
    return entries


# ---------------------------------------------------------------------------
# minimax grid checks


@dataclass(frozen=True)
class GridSpec:
    """A uniform closed grid on [lo, hi] with the given number of points.

    Its integer form (s, w_lo, w_hi, dt), with lo = w_lo / s, hi = w_hi / s
    and the i-th point (w_lo + i dt) / s, is made here once: s is the lcm of
    the bounds' denominators times points - 1, so the step dt / s is an int
    over s too. It is not a field, so equality, hashing and repr see only
    lo, hi and points.
    """

    lo: Fraction
    hi: Fraction
    points: int

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if isinstance(self.points, bool) or not isinstance(self.points, int):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.lo >= self.hi:
            raise ValueError(f"grid bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 3:
            raise ValueError(f"grid needs at least 3 points, got {self.points}")
        n = self.points - 1
        s = math.lcm(self.lo.denominator, self.hi.denominator) * n
        w_lo, w_hi = (x.numerator * (s // x.denominator) for x in (self.lo, self.hi))
        object.__setattr__(self, "_ints", (s, w_lo, w_hi, (w_hi - w_lo) // n))

    @property
    def step(self) -> Fraction:
        return (self.hi - self.lo) / (self.points - 1)

    def values(self) -> list[Fraction]:
        lo, step = self.lo, self.step
        return [lo + i * step for i in range(self.points)]

    def float_values(self) -> list[float]:
        lo, step = float(self.lo), float(self.step)
        return [lo + i * step for i in range(self.points)]

    def to_dict(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "points": self.points,
        }


class DegenerateSlice(Exception):
    """The sliced payoff is constant in one of its two scan variables."""


def _segment_extreme(alpha, beta, gamma, lo, hi, maximize: bool):
    """Exact extreme of alpha w^2 + beta w + gamma over [lo, hi].

    Works identically over Fractions and floats: candidates are the two
    endpoints plus the vertex when it lies inside the segment.
    """
    candidates = [lo, hi]
    if alpha != 0:
        vertex = -beta / (2 * alpha)
        if lo <= vertex <= hi:
            candidates.append(vertex)
    values = [(alpha * w + beta) * w + gamma for w in candidates]
    return max(values) if maximize else min(values)


def _check_not_degenerate(form: QuadraticForm) -> None:
    quad, lin = form.quad_num, form.lin_num
    for coord, role in ((0, "maximized"), (1, "minimized")):
        if quad[coord][coord] == 0 and quad[coord][1 - coord] == 0 and lin[coord] == 0:
            raise DegenerateSlice(f"payoff is constant in the {role} variable")


def _last_true(pred, lo: int, hi: int) -> int:
    """A j in [lo, hi) with pred(j), and j + 1 == hi or not pred(j + 1), given pred(lo).

    pred needs no monotonicity: on one that holds on a prefix of [lo, hi), j
    ends that prefix. It is called at most 2 ceil(log2(hi - lo)) times, never
    at lo or at hi, so hi may lie one past the grid.
    """
    step = 1
    while lo + step < hi and pred(lo + step):
        lo, step = lo + step, 2 * step
    hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return lo


def _float_error_bound(coefs, lo: float, hi: float) -> float:
    """Bound on |float chain value at grid index i - exact chain value at t_i|.

    ``coefs`` are the float (alpha, q_io, q_oo, l_i, l_o, k) of the chain.
    Sums, with a factor 2 to spare: the rounding of the float evaluation (at
    most five roundings deep over terms no larger than ``size``); the
    conversion of the coefficients and of [lo, hi] to floats; the offset
    |float t_i - t_i| <= 16 u W times the outer slope; and the loss from a
    vertex that rounding moves or drops, at most |alpha| dv^2 for a vertex
    off by dv, since an endpoint then lies within dv of it (and dv <= 2 W,
    as only a vertex in [lo, hi] counts). A tail of 2^-1000 (1 + W)^2
    (1 + slopes) covers underflow. Beyond 2^900 the float evaluation may
    overflow, and the bound is infinite.
    """
    u = 2.0 ** -53
    w = max(abs(lo), abs(hi)) * (1 + 2.0 ** -40) + 2.0 ** -1000
    a, c, o, l_i, l_o, k = map(abs, coefs)
    size = ((a + 2 * c + o) * w + l_i + l_o) * w + k
    if not size <= 2.0 ** 900:
        return math.inf
    slopes = 2 * (a + c) * w + l_i, 2 * (o + c) * w + l_o
    dv = min(4 * u * (2 * c * w + l_i) / (2 * a) + 2 * u * w, 2 * w) if a else 0
    return 2 * (10 * u * size + 2 * u * w * slopes[0] + 16 * u * w * slopes[1] + a * dv * dv
                + 2.0 ** -1000 * (1 + w) ** 2 * (1 + sum(slopes)))


# Float mode refuses a chain whose window holds more grid indices than this
# (each is one float evaluation); exact mode never evaluates more than 10.
_MAX_FLOAT_EVALUATIONS = 10**7


def _saddle_floor(coefs, grid: GridSpec, *, inner_maximize: bool,
                  outer_pick_max: bool) -> int | None:
    """floor(i*) for the index i* of the chain's saddle, or None when it has none.

    ``coefs`` start with the integer (q_ii, q_io, q_oo, l_i, l_o) of the
    chain. The saddle (w*, t*) is its one stationary point, and it counts
    only when the two roles are opposite, the inner curvature q_ii is
    strictly of the inner player's sign (< 0 for a maximizer), the outer
    q_oo weakly of the outer player's (>= 0 for a minimizer), D = q_ii q_oo
    - q_io^2 < 0 and w* lies in [lo, hi]. With -2D > 0, w* = (q_oo l_i -
    q_io l_o) / (-2D) and t* = (q_ii l_o - q_io l_i) / (-2D), so i* = (t* s
    - w_lo) / dt is compared and floored on integers.
    """
    q_ii, q_io, q_oo, l_i, l_o = coefs[:5]
    neg_2d = 2 * (q_io * q_io - q_ii * q_oo)
    if (inner_maximize == outer_pick_max or neg_2d <= 0
            or (q_ii >= 0 if inner_maximize else q_ii <= 0)
            or (q_oo > 0 if outer_pick_max else q_oo < 0)):
        return None
    s, w_lo, w_hi, dt = grid._ints
    if not w_lo * neg_2d <= (q_oo * l_i - q_io * l_o) * s <= w_hi * neg_2d:
        return None
    return ((q_ii * l_o - q_io * l_i) * s - w_lo * neg_2d) // (neg_2d * dt)


def _chain_value(form: QuadraticForm, grid: GridSpec, outer: int, *,
                 inner_maximize: bool, outer_pick_max: bool, mode: str):
    """Outer extreme over the grid of the inner extreme over [lo, hi].

    Equals the scan of every grid index ``i`` (outer value t_i = lo + i h)
    without scanning. Write f(t, w) for the form with t the outer and w the
    inner variable, and h(t) for the inner extreme at t, taken over lo, hi
    and the vertex when it lies inside.

    A saddle chain (:func:`_saddle_floor`) has two candidates. Take the
    min-max case: q_ii < 0, q_oo >= 0, w maximized and t minimized (the
    max-min case is its mirror). h is the max over w of functions convex in
    t, so h is convex. With w* in [lo, hi], h(t) >= f(t, w*) >= f(t*, w*) =
    h(t*), since f(., w*) is convex with zero slope at t* and f(t*, .) is
    concave with zero slope at w*. So t* minimizes h, and h's grid minimum
    lies at floor(i*) or floor(i*) + 1, clipped to [0, n]. Both roles
    must be opposite: when both minimize, h is concave and its optimum sits
    at a grid end.

    Every other chain falls back to more candidates. As a function of the
    index, h is the extreme of three quadratics A (w = lo), B (w = hi) and V
    (the vertex, only where it lies in [lo, hi]). V is picked only when the
    inner variable is maximized with q_ii < 0 or minimized with q_ii > 0.
    There the chain hands over between V and A exactly where the vertex
    crosses lo, and there V = A and V' = A', since d/dt of the inner
    extreme is df/dt taken at w = lo (the envelope theorem); likewise
    between V and B at hi. So the chain is C^1 at both. In every other
    case, q_ii = 0 included, V is never picked: the chain is the max or min
    of A and B, with one kink where the linear A - B vanishes. The
    candidates are both grid ends and floor and floor + 1 of that switch
    and of the vertices of A, B and V. Between consecutive candidates the
    chain's derivative is continuous and piecewise linear, and does not
    change sign: it could only do so at a piece's vertex, which no index
    separates from its two candidates. So the chain is monotone there, and
    its grid extreme is among the candidates: 2 on a saddle chain, at most
    10 otherwise. Exact mode evaluates them on integer numerators over one
    scale per chain.

    Float mode returns what the full float scan returns, and evaluates no
    exact value. Write F for the scan's float expression, eps for
    :func:`_float_error_bound`, so |F - h| <= eps at every index, and ref
    for the outer pick of F over the candidates. The window is searched
    with near(i): |F(i) - ref| <= 2 eps, every F kept for the scan. Take a
    min (a max is the mirror). h's grid optimum h* is at a candidate, so
    |ref - h*| <= eps, and the full scan's pick j* is near: F(j*) <= ref
    and F(j*) >= h* - eps >= ref - 2 eps. An index f that is not near has
    F(f) > ref + 2 eps, so h(f) > ref + eps; rounding is monotone, so a
    computed difference above 2 eps is one in truth. Between consecutive
    candidates h is monotone, so past such a fence, and inside a piece
    neither of whose ends is near, every index has h > ref + eps and so F
    > ref >= F(j*): it is neither the pick nor ties with it. A gallop
    (:func:`_last_true`, correct for any predicate) from each near
    candidate finds the fence. Before the first candidate and after the
    last, h is monotone too: on a saddle chain it is convex (concave for a
    max-min) around h*, and otherwise the candidates hold 0 and n, so
    those gallops find nothing. The scan's comparison then runs on the
    window alone, in index order. A flat piece, whose indices all tie,
    widens the window to that piece only; no index is evaluated twice, so
    the float evaluations never outnumber the full scan's. A window of more
    than ``_MAX_FLOAT_EVALUATIONS`` indices raises ValueError before it is
    scanned.
    """
    inner = 1 - outer
    quad, lin, d = form.quad_num, form.lin_num, form.den
    coefs = (quad[inner][inner], quad[inner][outer], quad[outer][outer],
             lin[inner], lin[outer], form.const_num)
    q_ii, q_io, q_oo, l_i, l_o, k = coefs
    # t_i = (t0 + i dt) / s and w = W / s, with integers t0, dt, s and W.
    n = grid.points - 1
    s, w_lo, w_hi, dt = grid._ints
    t0 = w_lo
    outer_pick = max if outer_pick_max else min
    i0 = _saddle_floor(coefs, grid, inner_maximize=inner_maximize,
                       outer_pick_max=outer_pick_max)
    if i0 is not None:
        cands = [i0, i0 + 1] if 0 <= i0 < n else [min(max(i0, 0), n)]
    if i0 is None or mode == "exact":
        # d s^2 f(t_i, W / s) = q_ii W^2 + beta_i W + gamma_i with beta_i = b0 + b1 i
        # and gamma_i = (g2 i + g1) i + g0; m puts the vertex value on integers.
        b1, b0 = 2 * q_io * dt, 2 * q_io * t0 + l_i * s
        g2, g1 = q_oo * dt * dt, (2 * q_oo * t0 + l_o * s) * dt
        m, sign = (4 * abs(q_ii), 1 if q_ii > 0 else -1) if q_ii else (1, 0)
    if i0 is None:
        # As index fractions: the A = B switch (beta at -q_ii (lo + hi)) and
        # the vertices of A, B and V.
        points = [(-q_ii * (w_lo + w_hi) - b0, b1), (-(b1 * w_lo + g1), 2 * g2),
                  (-(b1 * w_hi + g1), 2 * g2),
                  (2 * sign * b1 * b0 - m * g1, 2 * (m * g2 - sign * b1 * b1))]
        cands = sorted({0, n}.union(*((num // den, num // den + 1)
                                      for num, den in points if den)))
        cands = [i for i in cands if 0 <= i <= n]
    if mode == "exact":
        g0 = (q_oo * t0 + l_o * s) * t0 + k * s * s
        v_min, v_max = sorted((-2 * q_ii * w_lo, -2 * q_ii * w_hi))
        inner_pick = max if inner_maximize else min

        def exact(i: int) -> int:
            beta, gamma = b0 + b1 * i, m * ((g2 * i + g1) * i + g0)
            ends = (m * (q_ii * w_lo + beta) * w_lo + gamma,
                    m * (q_ii * w_hi + beta) * w_hi + gamma)
            if q_ii and v_min <= beta <= v_max:
                return inner_pick(*ends, gamma - sign * beta * beta)
            return inner_pick(ends)

        return Fraction(outer_pick(map(exact, cands)), m * d * s * s)

    # int / int rounds correctly, so each float is the exact rational's float.
    floats = f_ii, f_io, f_oo, f_li, f_lo, f_k = (q_ii / d, q_io / d, q_oo / d, l_i / d,
                                                  l_o / d, k / d)
    lo, hi, step = w_lo / s, w_hi / s, dt / s

    def scan(i: int) -> float:
        t = lo + i * step
        return _segment_extreme(f_ii, 2 * f_io * t + f_li, (f_oo * t + f_lo) * t + f_k,
                                lo, hi, inner_maximize)

    reach = 2 * _float_error_bound(floats, lo, hi)
    values, window = {}, [(0, n)]  # values: index -> scan(index), for the window search
    if not math.isinf(reach):
        values = dict(zip(cands, map(scan, cands)))
        ref = outer_pick(values.values())

        def near(i: int) -> bool:
            if i not in values:
                values[i] = scan(i)
            return abs(values[i] - ref) <= reach

        # Left of the first candidate, between each pair, right of the last.
        window = []
        if near(cands[0]):
            window.append((-_last_true(lambda j: near(-j), -cands[0], 1), cands[0]))
        for left, right in zip(cands, cands[1:]):
            if near(left):
                window.append((left, right if near(right) else _last_true(near, left, right)))
            elif near(right):
                window.append((-_last_true(lambda j: near(-j), -right, -left), right))
        if near(cands[-1]):
            window.append((cands[-1], _last_true(near, cands[-1], n + 1)))

    spans, start = [], 0  # the window's indices, each once, in index order
    for first, last in window:
        spans.append(range(max(first, start), last + 1))
        start = last + 1
    count = sum(map(len, spans))
    if count > _MAX_FLOAT_EVALUATIONS:
        raise ValueError(f"float mode would evaluate {count} grid points in one minimax chain "
                         f"(at most {_MAX_FLOAT_EVALUATIONS}); use --mode exact")

    # min and max keep the first of equal values, as the scan's strict comparison does.
    return outer_pick(values[i] if i in values else scan(i) for span in spans for i in span)


def grid_minimax_pair(form: QuadraticForm, grid: GridSpec, *, mode: str = "float"):
    """min-max and max-min of a two-variable quadratic over the grid box.

    Coordinate 0 is the maximizer's variable, coordinate 1 the minimizer's.
    The outer variable ranges over the grid points and the inner one over
    the whole interval [lo, hi], where the inner extreme is taken over the
    endpoints and the vertex. The result equals a scan of every grid point:
    exact mode evaluates a few candidate indices exactly, and float mode
    runs the float scan expression only on those candidates and on the
    indices whose float value is within twice the certified float error of
    the candidates' best (see :func:`_chain_value`), and raises ValueError
    when those indices number more than ``_MAX_FLOAT_EVALUATIONS`` in a
    chain. Returns (min_max, max_min) in the arithmetic of ``mode``.
    """
    if form.dim != 2:
        raise ValueError(f"expected a two-variable form, got dimension {form.dim}")
    if mode not in ("float", "exact"):
        raise ValueError(f"mode must be 'float' or 'exact', got {mode!r}")
    _check_not_degenerate(form)
    min_max = _chain_value(form, grid, outer=1, inner_maximize=True,
                           outer_pick_max=False, mode=mode)
    max_min = _chain_value(form, grid, outer=0, inner_maximize=False,
                           outer_pick_max=True, mode=mode)
    return min_max, max_min


@dataclass(frozen=True)
class MinimaxSlice:
    """What to scan: whose payoff, who maximizes, who minimizes, what is pinned.

    Defaults follow the payoff owner maximizing its own variable against the
    remaining firm C (or A when the owner is C), with the third firm pinned
    at its equilibrium value under ``base_assignment``. ``transform``
    selects which payoff representations are scanned: the base assignment's
    own variables ("direct"), the same payoff with the minimizer's variable
    flipped between quantity and price ("via_other_variable"), or "both".
    """

    payoff_firm: str
    max_firm: str | None = None
    min_firm: str | None = None
    fixed_value: Fraction | None = None
    base_assignment: StrategyAssignment = PATTERNS[1]
    transform: str = "both"

    def __post_init__(self):
        firm_index(self.payoff_firm)
        if self.max_firm is not None:
            firm_index(self.max_firm)
        if self.min_firm is not None:
            firm_index(self.min_firm)
        if self.fixed_value is not None:
            object.__setattr__(self, "fixed_value", as_rational(self.fixed_value))
        object.__setattr__(self, "base_assignment", as_assignment(self.base_assignment))
        if self.transform not in ("direct", "via_other_variable", "both"):
            raise ValueError(
                f"transform must be 'direct', 'via_other_variable' or 'both', "
                f"got {self.transform!r}"
            )
        self.resolve_firms()

    def resolve_firms(self) -> tuple[str, str, str]:
        """Concrete (max_firm, min_firm, fixed_firm) with defaults filled in."""
        max_firm = self.max_firm or self.payoff_firm
        min_firm = self.min_firm or ("C" if max_firm != "C" else "A")
        if max_firm == min_firm:
            raise ValueError("max_firm and min_firm must differ")
        fixed = next(f for f in FIRMS if f not in (max_firm, min_firm))
        return max_firm, min_firm, fixed


@dataclass
class MinimaxReport:
    """Scanned chain quantities plus the certified tolerance and the verdict."""

    payoff_firm: str
    max_firm: str
    min_firm: str
    fixed_firm: str
    fixed_value: Fraction
    base_assignment: str
    transform: str
    mode: str
    grid: GridSpec
    quantities: dict[str, float]
    spread: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "payoff_firm": self.payoff_firm,
            "max_firm": self.max_firm,
            "min_firm": self.min_firm,
            "fixed_firm": self.fixed_firm,
            "fixed_value": format_rational(self.fixed_value),
            "base_assignment": self.base_assignment,
            "transform": self.transform,
            "mode": self.mode,
            "grid": self.grid.to_dict(),
            "quantities": dict(self.quantities),
            "spread": self.spread,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _outer_derivative_bound(form: QuadraticForm, m: int, s: int) -> tuple[int, int]:
    """Exact bound on |d/dw| of the form over the box [-m/s, m/s]^2, both coordinates.

    Returned as (num, den) with den > 0: an int over the form's den times s.
    """
    quad, lin = form.quad_num, form.lin_num
    return (max(2 * (abs(quad[w][w]) + abs(quad[w][1 - w])) * m + abs(lin[w]) * s
                for w in (0, 1)), form.den * s)


def minimax_check(params: ModelParams, slice_spec: MinimaxSlice,
                  grid: GridSpec | None = None, *, mode: str = "float") -> MinimaxReport:
    """Scan the minimax equalities of one payoff slice and certify the spread.

    The payoff owner's relative payoff is restricted to the (max_firm,
    min_firm) plane with the third firm pinned (:func:`payoff_slice`, one
    pass on the operator's ints), by default at its committed value in the
    base assignment's equilibrium (:func:`committed_values`, checked on its
    first-order conditions; no market state is built). For a
    zero-sum-game payoff with an interior saddle on the box, min-max and
    max-min coincide, in the base variables and equally after flipping the
    minimizer's variable; the scan checks that all requested chain
    quantities agree within 2 h G, where h is the grid step and G an exact
    bound on the outer derivative. The verdict is decided in exact
    arithmetic when ``mode="exact"``.
    """
    if mode not in ("float", "exact"):
        raise ValueError(f"mode must be 'float' or 'exact', got {mode!r}")
    if mode == "float":
        ensure_float_safe(params)
    max_firm, min_firm, fixed_firm = slice_spec.resolve_firms()
    base = slice_spec.base_assignment
    if grid is None:
        grid = GridSpec(Fraction(0), params.a, 1001)

    if slice_spec.fixed_value is not None:
        fixed_value = slice_spec.fixed_value
    else:
        fixed_value = committed_values(params, base)[firm_index(fixed_firm)]

    keep = (firm_index(max_firm), firm_index(min_firm))
    scans: list[tuple[str, QuadraticForm]] = []
    if slice_spec.transform in ("direct", "both"):
        scans.append(("direct", payoff_slice(params, base, slice_spec.payoff_firm, keep,
                                             fixed_value)))
    if slice_spec.transform in ("via_other_variable", "both"):
        scans.append(("transformed", payoff_slice(params, base.flip(min_firm),
                                                  slice_spec.payoff_firm, keep, fixed_value)))

    # The box lies in [-m/s, m/s]^2 and the grid step is h = dt / s.
    s, w_lo, w_hi, dt = grid._ints
    m = max(abs(w_lo), abs(w_hi))
    quantities_raw = {}
    bound, bound_den = 0, 1  # G, the largest bound, compared by cross-multiplication
    for label, sliced in scans:
        min_max, max_min = grid_minimax_pair(sliced, grid, mode=mode)
        quantities_raw[f"min_max_{label}"] = min_max
        quantities_raw[f"max_min_{label}"] = max_min
        num, den = _outer_derivative_bound(sliced, m, s)
        if num * bound_den > bound * den:
            bound, bound_den = num, den

    # 2 h G, and in exact mode the spread, on ints; int / int rounds
    # correctly, so each float is the exact rational's float.
    tol_num, tol_den = 2 * dt * bound, s * bound_den
    tolerance = tol_num / tol_den
    high, low = max(quantities_raw.values()), min(quantities_raw.values())
    if mode == "exact":
        spread_num = high.numerator * low.denominator - low.numerator * high.denominator
        spread_den = high.denominator * low.denominator
        spread = spread_num / spread_den
        passed = spread_num * tol_den <= tol_num * spread_den
    else:
        spread = high - low
        passed = spread <= tolerance
    return MinimaxReport(
        payoff_firm=slice_spec.payoff_firm,
        max_firm=max_firm,
        min_firm=min_firm,
        fixed_firm=fixed_firm,
        fixed_value=fixed_value,
        base_assignment=str(base),
        transform=slice_spec.transform,
        mode=mode,
        grid=grid,
        quantities={k: float(v) for k, v in quantities_raw.items()},
        spread=spread,
        tolerance=tolerance,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# seeded property suite


def sample_model_params(rng: random.Random) -> ModelParams:
    """Draw a random parameter set with firms A and B sharing a marginal cost.

    a is an integer in [5, 50], b a multiple of 1/64 strictly inside (0, 1),
    costs multiples of 1/8 strictly below a. The shared A/B cost keeps every
    sampled set inside the regime where the closed-form tables apply.
    """
    a = rng.randint(5, 50)
    b = Fraction(rng.randint(1, 63), 64)
    c_ab = Fraction(rng.randint(0, 8 * a - 1), 8)
    c_c = Fraction(rng.randint(0, 8 * a - 1), 8)
    return ModelParams(Fraction(a), b, c_ab, c_ab, c_c)


def _sample_vector(rng: random.Random) -> tuple[tuple[int, int, int], int]:
    """A vector in [-16, 64]^3 as three int numerators over 16, and that 16."""
    return (rng.randint(-256, 1024), rng.randint(-256, 1024), rng.randint(-256, 1024)), 16


# What each draw solves once, by key: patterns 1-6 and the A/B mirrors of 5 and 3.
_SUITE_ASSIGNMENTS = {key: as_assignment(key) for key in (*PATTERN_NUMBERS, "QPP", "PQQ")}


def _solve_draw(params: ModelParams) -> dict:
    return {key: solve_equilibrium(params, asg) for key, asg in _SUITE_ASSIGNMENTS.items()}


@dataclass(frozen=True)
class _SuiteCase:
    params: ModelParams
    outputs: tuple  # of (nums, den): three int numerators over one int den > 0
    prices: tuple  # likewise
    solved: dict  # key of _SUITE_ASSIGNMENTS -> Equilibrium


@dataclass(frozen=True)
class PropertyResult:
    """One property's aggregate over all draws it applied to."""

    name: str
    status: str  # "pass", "fail", or "skipped" (vacuous on every draw)
    checked: int
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "checked": self.checked,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class SuiteReport:
    draws: int
    seed: int
    oracle: str
    properties: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(p.status != "fail" for p in self.properties)

    def to_dict(self) -> dict:
        return {
            "draws": self.draws,
            "seed": self.seed,
            "oracle": self.oracle,
            "passed": self.passed,
            "properties": [p.to_dict() for p in self.properties],
        }


def _check_zero_sum(case: _SuiteCase, oracle: str):
    # On the public Fraction path, which it tests.
    for nums, den in case.outputs:
        x = Fraction(nums[0], den), Fraction(nums[1], den), Fraction(nums[2], den)
        state = MarketState.from_outputs(case.params, x)
        pv = payoff_vector(case.params, state)
        total = sum(pv.psi, start=Fraction(0))
        if total != 0:
            return "fail", {"state": state.to_dict(), "sum_psi": format_rational(total)}
    return "ok", None


def _check_demand_round_trip(case: _SuiteCase, oracle: str):
    # Outputs -> prices -> outputs, and prices -> outputs -> prices, both maps on
    # ints; each vector is compared with its image by cross-multiplication.
    params = case.params
    for key, vectors, there, back in (
            ("x", case.outputs, _price_numerators, direct_demand_numerators),
            ("p", case.prices, direct_demand_numerators, _price_numerators)):
        for nums, den in vectors:
            image, image_den = back(params, *there(params, nums, den))
            if any(u * den != v * image_den for u, v in zip(image, nums)):
                return "fail", {key: [format_rational(Fraction(v, den)) for v in nums]}
    return "ok", None


def _check_foc_residual(case: _SuiteCase, oracle: str):
    # The payoff forms' matrices and terms are a route to the first-order conditions
    # apart from the solver's rows: each own slope must vanish at the solve's
    # numerators, or at the committed values over their lcm for an equilibrium
    # made without them. No form and no Fraction is built unless a slope does not.
    for pattern in PATTERN_NUMBERS:
        eq = case.solved[pattern]
        nums, den, *_ = getattr(eq, "_ints", None) or _over_lcm(eq.chosen)
        slopes, slope_den = own_payoff_slopes(case.params, pattern, nums, den)
        for firm, slope in zip(FIRMS, slopes):
            if slope != 0:
                return "fail", {"pattern": pattern, "firm": firm,
                                "residual": format_rational(Fraction(slope, slope_den))}
    return "ok", None


def _check_own_concavity(case: _SuiteCase, oracle: str):
    # Every solve flags whether each firm's own curvature is negative.
    for asg in ALL_ASSIGNMENTS:
        if not case.solved[asg.pattern or str(asg)].soc_ok:
            forms = (build_payoff_quadratic(case.params, asg, firm) for firm in FIRMS)
            curvature = [format_rational(form.own_curvature) for form in forms]
            return "fail", {"assignment": str(asg), "curvature": curvature}
    return "ok", None


def _check_closed_form_agreement(case: _SuiteCase, oracle: str):
    if case.params.c_a != case.params.c_b:
        return "vacuous", None
    for pattern in PATTERN_NUMBERS:
        printed, corrected, den = ClosedFormOutputs._numerators(case.params, pattern)
        target = corrected if oracle == "corrected" else printed
        # The solved outputs on the state's integers, against the table's by cross-multiplication.
        x_num, x_den, _, _ = case.solved[pattern].state._ints
        for name, num, value in zip(("xA", "xB", "xC"), x_num, target):
            if num * den != value * x_den:
                return "fail", {"pattern": pattern, "component": name,
                                "solver": format_rational(Fraction(num, x_den)),
                                "oracle": format_rational(Fraction(value, den))}
    return "ok", None


def _check_ab_symmetry(case: _SuiteCase, oracle: str):
    if case.params.c_a != case.params.c_b:
        return "vacuous", None
    for pattern in (1, 2, 4, 6):
        # Outputs, and prices, share one denominator in a state's integer form.
        state = case.solved[pattern].state
        x_num, _, p_num, _ = state._ints
        if x_num[0] != x_num[1] or p_num[0] != p_num[1]:
            return "fail", {"pattern": pattern, "state": state.to_dict()}
    return "ok", None


def _check_ab_swap_covariance(case: _SuiteCase, oracle: str):
    if case.params.c_a != case.params.c_b:
        return "vacuous", None
    for mirror, pattern in (("QPP", 5), ("PQQ", 3)):
        # A state's integer form is canonical, and swapping A and B permutes it.
        (x0, x1, x2), x_den, (p0, p1, p2), p_den = case.solved[pattern].state._ints
        if case.solved[mirror].state._ints != ((x1, x0, x2), x_den, (p1, p0, p2), p_den):
            return "fail", {"assignment": mirror, "pattern": pattern}
    return "ok", None


def _check_quantity_price_c_equivalence(case: _SuiteCase, oracle: str):
    if case.params.c_a != case.params.c_b:
        return "vacuous", None
    for left, right in ((1, 2), (6, 4)):  # on canonical integer forms, as _compare
        el, er = case.solved[left], case.solved[right]
        if el.state._ints != er.state._ints:
            return "fail", _compare(left, right, el, er).to_dict()
    return "ok", None


def _check_non_equivalence(case: _SuiteCase, oracle: str):
    if case.params.c_a != case.params.c_b or case.params.c_c == case.params.c_a:
        return "vacuous", None
    for left, right in NON_EQUIVALENT_PAIRS:
        state = case.solved[left].state
        if state._ints == case.solved[right].state._ints:
            return "fail", {"left": left, "right": right, "state": state.to_dict()}
    return "ok", None


def _check_full_symmetry_collapse(case: _SuiteCase, oracle: str):
    p = case.params
    if not (p.c_a == p.c_b == p.c_c):
        return "vacuous", None
    # Every state's integer form is pattern 1's, and each output x / x_den is
    # (a - c)/(2 + b) = (a - c) e / (t (n + 2 e)), by cross-multiplication.
    n, e, (a, c, _, _), t = p._ints
    scale, target = t * (n + 2 * e), (a - c) * e
    first = case.solved[1].state._ints
    for pattern in PATTERN_NUMBERS:
        state = case.solved[pattern].state
        x_num, x_den, _, _ = ints = state._ints
        if ints != first or any(x * scale != target * x_den for x in x_num):
            return "fail", {"pattern": pattern, "state": state.to_dict(),
                            "expected_x": format_rational((p.a - p.c_a) / (2 + p.b))}
    return "ok", None


_SUITE_CHECKS = (
    ("zero_sum", _check_zero_sum),
    ("demand_round_trip", _check_demand_round_trip),
    ("foc_residual", _check_foc_residual),
    ("own_concavity", _check_own_concavity),
    ("closed_form_agreement", _check_closed_form_agreement),
    ("ab_symmetry", _check_ab_symmetry),
    ("ab_swap_covariance", _check_ab_swap_covariance),
    ("quantity_price_c_equivalence", _check_quantity_price_c_equivalence),
    ("cross_pattern_non_equivalence", _check_non_equivalence),
    ("full_symmetry_collapse", _check_full_symmetry_collapse),
)


def property_suite(params: ModelParams, draws: int = 100, seed: int = 0, *,
                   oracle: str = "corrected") -> SuiteReport:
    """Run every structural property on the given params plus sampled draws.

    Draw 0 is the caller's parameter set verbatim; the remaining draws - 1
    sets come from :func:`sample_model_params` seeded with ``seed``, so a
    report is reproducible byte for byte. Each draw's eight assignments
    (patterns 1-6 plus the mirrors QPP and PQQ) are solved once, and every
    property that has not failed yet reads those solved states. A property
    stops at its first failing draw. A property that applies to no draw at
    all (for example the fully symmetric collapse when no draw has equal
    costs) is reported as skipped rather than silently passing.

    ``oracle`` picks which closed-form table variant the agreement property
    compares against; "printed" exists to demonstrate that the suite catches
    the transcription error.
    """
    return _property_suite(params, draws, seed, oracle)


def _validate_draws(draws: int) -> None:
    if isinstance(draws, bool) or not isinstance(draws, int):
        raise ValueError(f"draws must be an integer, got {draws!r}")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")


def _property_suite(params: ModelParams, draws: int, seed: int, oracle: str,
                    first: dict | None = None) -> SuiteReport:
    # ``first``, when given, is _solve_draw(params): draw 0's solves, shared
    # with a caller that already holds them.
    _validate_draws(draws)
    if oracle not in ("corrected", "printed"):
        raise ValueError(f"oracle must be 'corrected' or 'printed', got {oracle!r}")
    rng = random.Random(seed)
    checked = {name: 0 for name, _ in _SUITE_CHECKS}
    failures = {}
    for index in range(draws):
        p = params if index == 0 else sample_model_params(rng)
        outputs = tuple(_sample_vector(rng) for _ in range(3))
        prices = tuple(_sample_vector(rng) for _ in range(2))
        solved = first if index == 0 and first is not None else _solve_draw(p)
        case = _SuiteCase(p, outputs, prices, solved)
        for name, check in _SUITE_CHECKS:
            if name in failures:
                continue
            status, detail = check(case, oracle)
            if status == "vacuous":
                continue
            checked[name] += 1
            if status == "fail":
                failures[name] = {"draw": index, "params": p.to_dict(), **detail}

    results = []
    for name in checked:
        status = "fail" if name in failures else "pass" if checked[name] else "skipped"
        results.append(PropertyResult(name, status, checked[name], failures.get(name)))
    return SuiteReport(draws, seed, oracle, tuple(results))
