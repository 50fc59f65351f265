"""The benchmark's workloads: seeded input generators and one checked item each.

Every workload is a closed loop: one caller in one thread starts the next
item when the previous one has returned. A pass runs the workload's first
``pass_items`` inputs in a fresh process, so caches start cold and are not
warmed, because every CLI call and every sweep script pays the cache fill
itself. Inputs come only from the benchmark's own seeded generators; the
package's sampler is not called, so a change to it cannot change a workload.

The parameter draws reproduce the acceptance sampler's distribution: ``a`` an
integer in [5, 50], ``b = k/64`` with 1 <= k <= 63, costs multiples of 1/8 below
``a``, and firms A and B sharing a cost.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import triopoly

PATTERNS = (1, 2, 3, 4, 5, 6)
VERIFY_ARGS = ("verify", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2", "--cC", "3",
               "--draws", "100")


@dataclass(frozen=True)
class Workload:
    """An input stream and the checked unit of work done per input.

    ``run`` returns whether the item's outputs check out, and the text that
    must repeat byte for byte when the same item runs again (or None).
    """

    pass_items: int
    inputs: Callable[[random.Random], Iterator]
    run: Callable[[object], tuple[bool, str | None]]


def _draw(rng: random.Random) -> tuple[int, Fraction, Fraction, Fraction]:
    """(a, b, c_AB, c_C) from the acceptance sampler's distribution."""
    a = rng.randint(5, 50)
    b = Fraction(rng.randint(1, 63), 64)
    c_ab = Fraction(rng.randint(0, 8 * a - 1), 8)
    c_c = Fraction(rng.randint(0, 8 * a - 1), 8)
    return a, b, c_ab, c_c


def _params(a, b, c_ab, c_c):
    return triopoly.ModelParams(a, b, c_ab, c_ab, c_c)


# -- sweep -------------------------------------------------------------------
# The cold-solve path of acceptance criterion 1: one draw solved for patterns
# 1-6 plus closed_form_outputs 1-6, checked against the corrected tables.
# Exact forms and the linear solve dominate. b takes only 63 values, so most
# solves repeat a (b, assignment) seen earlier in the pass: the sharing a
# b-keyed operator cache would exploit.

def _sweep_inputs(rng):
    while True:
        yield _draw(rng)


def _sweep_item(draw) -> tuple[bool, None]:
    params = _params(*draw)
    solved = [triopoly.solve_equilibrium(params, k).state.x for k in PATTERNS]
    tables = [triopoly.closed_form_outputs(params, k).corrected for k in PATTERNS]
    return solved == tables, None


# -- states ------------------------------------------------------------------
# The shape of criterion 6: one draw and 100 output vectors (multiples of 1/16
# in [-16, 64]) through payoff_vector(MarketState.from_outputs(...)), checked
# for an exact zero sum. No solve runs, so a solver change should leave this
# workload unchanged; a fraction-free payoff kernel shows here.

def _states_inputs(rng):
    while True:
        draw = _draw(rng)
        outputs = [tuple(Fraction(rng.randint(-256, 1024), 16) for _ in range(3))
                   for _ in range(100)]
        yield draw, outputs


def _states_item(item) -> tuple[bool, None]:
    draw, outputs = item
    params = _params(*draw)
    ok = True
    for x in outputs:
        payoffs = triopoly.payoff_vector(params, triopoly.MarketState.from_outputs(params, x))
        ok = ok and sum(payoffs.psi, start=Fraction(0)) == 0
    return ok, None


# -- minimax -----------------------------------------------------------------
# The shape of criterion 7: float minimax_check on the psi_A and psi_B slices
# with the default 1001-point grid on [0, a]; the grid scan dominates. Each
# draw's b has a fresh large prime denominator, so no (b, assignment) repeats
# across draws: the no-sharing case for a b-keyed cache, where the cold cost
# of building it shows. Draws whose pattern-1 x_C <= 0 are dropped, decided on
# the corrected closed form so that no solve warms a cache: there the saddle
# leaves the [0, a] box and minimax_check reports FAIL in float and exact
# mode, a property of the box scan and not a regression.

def _is_prime(n: int) -> bool:
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _minimax_inputs(rng):
    used = set()
    while True:
        a, _, c_ab, c_c = _draw(rng)
        p = rng.randrange(10**6, 2 * 10**6)
        while p in used or not _is_prime(p):
            p += 1
        used.add(p)
        b = Fraction(rng.randint(-(-p // 64), 63 * p // 64), p)
        # Pattern-1 x_C from the corrected closed form, whose denominator
        # (4 - b)(b + 2) is positive: keep the draw only when x_C > 0.
        if a * (4 - b) + 2 * b * c_ab - c_c * (4 + b) > 0:
            yield a, b, c_ab, c_c


def _minimax_item(draw) -> tuple[bool, None]:
    params = _params(*draw)
    return all(triopoly.minimax_check(params, triopoly.MinimaxSlice(firm)).passed
               for firm in ("A", "B")), None


# -- verify ------------------------------------------------------------------
# One `triopoly verify --draws 100` CLI call, run_cli in a fresh process: the
# only path through the CLI and the property suite. It reads cached
# equilibria rather than solving cold, and its working set (600 solves, 800
# payoff forms) exceeds the 512-entry caches, so a cache that thrashes or
# slows the hit path shows here. Each seed's stdout must repeat byte for byte
# in every pass.

def _verify_inputs(rng):
    while True:
        yield rng.randrange(2**31)


def _verify_item(seed) -> tuple[bool, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = triopoly.run_cli([*VERIFY_ARGS, "--seed", str(seed)])
    stdout = out.getvalue()
    return code == 0 and "verification: PASS" in stdout.splitlines(), stdout


# Items per pass: at least 100, so that p90 has ten items beyond it, and a
# pass short enough (about 1-2 s) that a run repeats it often; an item's
# fastest time over many passes is what makes the figures steady on a busy
# machine. A verify item takes seconds, so its pass is one item and its p50
# and p90 are that item's time.
PASS_ITEMS = {"sweep": 200, "states": 300, "verify": 1, "minimax": 100}


def workload(name: str) -> Workload:
    inputs, run = {
        "sweep": (_sweep_inputs, _sweep_item),
        "states": (_states_inputs, _states_item),
        "verify": (_verify_inputs, _verify_item),
        "minimax": (_minimax_inputs, _minimax_item),
    }[name]
    return Workload(PASS_ITEMS[name], inputs, run)
