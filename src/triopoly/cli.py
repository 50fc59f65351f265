"""Command-line front end: solve, verify, minimax.

All output is deterministic for a fixed argument vector, so runs can be
diffed byte for byte. Exit codes: 0 success, 1 bad arguments or parameters,
2 a verification check failed.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from fractions import Fraction

from .exact import as_rational, decimal_string, format_rational
from .market import (
    PATTERNS,
    ModelParams,
    StrategyAssignment,
    _interior,
    as_assignment,
    payoff_vector,
)
from .equilibrium import (
    ConcavityViolation,
    best_response_iteration,
    resolve_market,
    solve_equilibrium,
)
from .verify import (
    DegenerateSlice,
    GridSpec,
    MinimaxSlice,
    _equal_pairs,
    _matrix,
    _property_suite,
    _solve_draw,
    _validate_draws,
    closed_form_discrepancies,
    minimax_check,
)

__all__ = ["run_cli"]


class _CliError(Exception):
    pass


class _CliExit(Exception):
    """argparse ended the run itself, after printing the help; args[0] is the exit code."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read -1/2 and -1e3 as values, as argparse already reads -0.5.
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d_./eE+-]*$")

    # Route argparse's sys.exit through _CliError and _CliExit so run_cli
    # controls the exit code.
    def error(self, message):
        raise _CliError(message)

    def exit(self, status=0, message=None):
        raise _CliExit(status)


def _rational(text: str) -> Fraction:
    try:
        value = as_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        format_rational(value)
    except ValueError:
        # Beyond Python's int-string limit no output could print the value.
        raise argparse.ArgumentTypeError(
            f"{text} has too many digits: a numerator or denominator longer than "
            f"{sys.get_int_max_str_digits()} digits cannot be printed") from None
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="triopoly", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--a", type=_rational, required=True, help="demand intercept")
        p.add_argument("--b", type=_rational, required=True,
                       help="substitutability, 0 < b < 1")
        p.add_argument("--cA", type=_rational, required=True, help="marginal cost of firm A")
        p.add_argument("--cB", type=_rational, required=True, help="marginal cost of firm B")
        p.add_argument("--cC", type=_rational, required=True, help="marginal cost of firm C")

    solve = sub.add_parser("solve", help="solve equilibria for one or all assignments")
    add_params(solve)
    solve.add_argument("--pattern", default="all",
                       help="pattern number 1..6, an assignment like QPP, or 'all'")
    solve.add_argument("--format", choices=("table", "json", "csv"), default="table")
    solve.add_argument("--mode", choices=("exact", "float"), default="exact",
                       help="exact FOC solve or damped best-response iteration")

    verify = sub.add_parser("verify", help="equivalence matrix, typo ledger, property suite")
    add_params(verify)
    verify.add_argument("--draws", type=int, default=100,
                        help="parameter draws for the property suite (given set counts)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", choices=("table", "json", "csv"), default="table")

    minimax = sub.add_parser("minimax", help="grid scan of the minimax equalities")
    add_params(minimax)
    minimax.add_argument("--firm", choices=("A", "B", "C"), default="A",
                         help="whose relative payoff to scan")
    minimax.add_argument("--fix", action="append", default=[], metavar="VAR=VALUE",
                         help="pin the bystander firm's variable, e.g. xB=114/35")
    minimax.add_argument("--grid-lo", type=_rational, default=Fraction(0))
    minimax.add_argument("--grid-hi", type=_rational, default=None,
                         help="defaults to the demand intercept a")
    minimax.add_argument("--grid-points", type=int, default=1001)
    minimax.add_argument("--mode", choices=("exact", "float"), default="float")
    minimax.add_argument("--format", choices=("table", "json", "csv"), default="table")
    return parser


def _params_from_args(args) -> ModelParams:
    return ModelParams(args.a, args.b, args.cA, args.cB, args.cC)


def _render_table(headers, rows) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


# json and csv are imported where they are used: every CLI call pays for its
# imports, and most print neither JSON nor CSV.
def _json_text(doc, **options) -> str:
    import json

    return json.dumps(doc, **options)


def _csv_text(header, rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _flag(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# solve

_SOLVE_CSV_HEADER = [
    "pattern", "assignment",
    "xA", "xB", "xC", "pA", "pB", "pC", "psiA", "psiB", "psiC",
    "xA_f", "xB_f", "xC_f", "pA_f", "pB_f", "pC_f", "psiA_f", "psiB_f", "psiC_f",
    "interior", "soc_ok",
]


def _parse_selection(text: str) -> list[StrategyAssignment]:
    if text.strip().lower() == "all":
        return [PATTERNS[k] for k in sorted(PATTERNS)]
    try:
        return [as_assignment(text)]
    except (ValueError, TypeError) as exc:
        raise _CliError(f"invalid --pattern value {text!r}: {exc}") from None


def _pattern_label(asg: StrategyAssignment) -> str:
    return str(asg.pattern) if asg.pattern is not None else "-"


def _cmd_solve(args) -> tuple[str, bool]:
    params = _params_from_args(args)
    selection = _parse_selection(args.pattern)
    solve_rows = _solve_exact_rows if args.mode == "exact" else _solve_float_rows
    rows, docs = solve_rows(params, selection)
    if args.format == "json":
        doc = {"params": params.to_dict(), "mode": args.mode, "equilibria": docs}
        text = _json_text(doc, indent=2)
    elif args.format == "csv":
        text = _csv_text(_SOLVE_CSV_HEADER, rows)
    else:
        headers = _SOLVE_CSV_HEADER[:11] + ["interior", "soc_ok"]
        table_rows = [r[:11] + r[20:] for r in rows]
        text = _render_table(headers, table_rows)
    return text, True


def _solve_exact_rows(params, selection):
    rows = []
    docs = []
    for asg in selection:
        doc = solve_equilibrium(params, asg).to_dict()
        rows.append(
            [_pattern_label(asg), str(asg)]
            + doc["x"] + doc["p"] + doc["psi"]
            + doc["x_dec"] + doc["p_dec"] + doc["psi_dec"]
            + [_flag(doc["flags"]["interior"]), _flag(doc["flags"]["soc_ok"])]
        )
        docs.append(doc)
    return rows, docs


def _solve_float_rows(params, selection):
    rows = []
    docs = []
    for asg in selection:
        result = best_response_iteration(params, asg)
        if not result.converged:
            print(
                f"warning: best-response iteration did not converge for {asg}",
                file=sys.stderr,
            )
        chosen = tuple(Fraction(v) for v in result.chosen)
        state = resolve_market(params, asg, chosen)
        payoffs = payoff_vector(params, state)
        values = state.x + state.p + payoffs.psi
        decimals = [decimal_string(v) for v in values]
        # A returned iterate has soc_ok: the iteration raises ConcavityViolation otherwise.
        soc_ok = True
        interior = _interior(state)
        rows.append(
            [_pattern_label(asg), str(asg)]
            + decimals + decimals
            + [_flag(interior), _flag(soc_ok)]
        )
        docs.append({
            "assignment": str(asg),
            "pattern": asg.pattern,
            "converged": result.converged,
            "iterations": result.iterations,
            "chosen_dec": [decimal_string(v) for v in result.chosen],
            "x_dec": decimals[0:3],
            "p_dec": decimals[3:6],
            "psi_dec": decimals[6:9],
            "flags": {"interior": interior, "soc_ok": soc_ok},
        })
    return rows, docs


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> tuple[str, bool]:
    params = _params_from_args(args)
    _validate_draws(args.draws)  # before the solves below
    # The suite's draw 0 is the given set: its solves also build the matrix.
    solved = _solve_draw(params)
    suite = _property_suite(params, args.draws, args.seed, "corrected", solved)
    if args.format == "csv":
        rows = [[p.name, p.status, str(p.checked)] for p in suite.properties]
        return _csv_text(["property", "status", "checked"], rows), suite.passed
    # CSV prints the suite alone; the table and JSON also print these.
    matrix = _matrix(solved)
    pairs = _equal_pairs(matrix)
    ledger = closed_form_discrepancies(params)
    if args.format == "json":
        doc = {
            "params": params.to_dict(),
            "equivalence_matrix": [[r.to_dict() for r in row] for row in matrix],
            "equal_pairs": [list(p) for p in pairs],
            "typo_ledger": ledger,
            "suite": suite.to_dict(),
        }
        text = _json_text(doc, indent=2)
    else:
        lines = [f"params: {params.describe()}"]
        lines.append("equivalence matrix (patterns 1..6, '=' equal, '.' different):")
        for i, row in enumerate(matrix, start=1):
            cells = " ".join("=" if r.equal else "." for r in row)
            lines.append(f"  {i}  {cells}")
        pair_text = " ".join(f"({i},{j})" for i, j in pairs) if pairs else "none"
        lines.append(f"equal pairs: {pair_text}")
        lines.append("typo ledger (printed vs corrected closed forms):")
        if params.c_a != params.c_b:
            lines.append("  not applicable (cA != cB)")
        elif not ledger:
            lines.append("  none")
        else:
            for entry in ledger:
                lines.append(
                    f"  pattern {entry['pattern']} {entry['component']}: "
                    f"printed {entry['printed']}, corrected {entry['corrected']}"
                )
        lines.append(
            f"property suite: draws={suite.draws} seed={suite.seed} oracle={suite.oracle}"
        )
        for prop in suite.properties:
            line = f"  {prop.name:<32} {prop.status:<8} checked={prop.checked}"
            lines.append(line.rstrip())
            if prop.counterexample is not None:
                lines.append(
                    "    counterexample: "
                    + _json_text(prop.counterexample, sort_keys=True)
                )
        lines.append(f"verification: {'PASS' if suite.passed else 'FAIL'}")
        text = "\n".join(lines)
    return text, suite.passed


# ---------------------------------------------------------------------------
# minimax


def _parse_fixes(args, slice_spec: MinimaxSlice) -> Fraction | None:
    if not args.fix:
        return None
    if len(args.fix) > 1:
        raise _CliError(f"--fix may be given once, got {len(args.fix)}: {' '.join(args.fix)}")
    _, _, fixed_firm = slice_spec.resolve_firms()
    expected = slice_spec.base_assignment.variable_name(fixed_firm)
    (item,) = args.fix
    var, sep, text = item.partition("=")
    if not sep:
        raise _CliError(f"--fix expects {expected}=VALUE, got {item!r}")
    if var.strip() != expected:
        raise _CliError(
            f"--fix may only pin the bystander variable {expected}, got {var.strip()!r}"
        )
    try:
        return _rational(text.strip())
    except argparse.ArgumentTypeError as exc:
        raise _CliError(f"--fix {item!r}: {exc}") from None


def _cmd_minimax(args) -> tuple[str, bool]:
    params = _params_from_args(args)
    slice_spec = MinimaxSlice(payoff_firm=args.firm)
    fixed_value = _parse_fixes(args, slice_spec)
    if fixed_value is not None:
        slice_spec = MinimaxSlice(payoff_firm=args.firm, fixed_value=fixed_value)
    hi = args.grid_hi if args.grid_hi is not None else params.a
    grid = GridSpec(args.grid_lo, hi, args.grid_points)
    report = minimax_check(params, slice_spec, grid, mode=args.mode)
    if args.format == "json":
        doc = {"params": params.to_dict(), "minimax": report.to_dict()}
        text = _json_text(doc, indent=2)
    elif args.format == "csv":
        header = [
            "payoff_firm", "max_firm", "min_firm", "fixed_firm", "fixed_value",
            "base_assignment", "transform", "mode",
            "grid_lo", "grid_hi", "grid_points",
            "min_max_direct", "max_min_direct",
            "min_max_transformed", "max_min_transformed",
            "spread", "tolerance", "pass",
        ]
        q = report.quantities
        row = [
            report.payoff_firm, report.max_firm, report.min_firm, report.fixed_firm,
            format_rational(report.fixed_value),
            report.base_assignment, report.transform, report.mode,
            format_rational(report.grid.lo), format_rational(report.grid.hi),
            str(report.grid.points),
            *(repr(q[k]) if k in q else "" for k in (
                "min_max_direct", "max_min_direct",
                "min_max_transformed", "max_min_transformed")),
            repr(report.spread), repr(report.tolerance), _flag(report.passed),
        ]
        text = _csv_text(header, [row])
    else:
        fixed_var = as_assignment(report.base_assignment).variable_name(report.fixed_firm)
        lines = [
            f"params: {params.describe()}",
            f"minimax check: relative payoff of firm {report.payoff_firm}, "
            f"max over {report.max_firm}, min over {report.min_firm}",
            f"base assignment {report.base_assignment}, transform {report.transform}, "
            f"mode {report.mode}",
            f"fixed {fixed_var} = {format_rational(report.fixed_value)}",
            f"grid [{format_rational(report.grid.lo)}, {format_rational(report.grid.hi)}] "
            f"with {report.grid.points} points",
        ]
        for name, value in report.quantities.items():
            lines.append(f"  {name:<20} = {value!r}")
        lines.append(f"spread    = {report.spread!r}")
        lines.append(f"tolerance = {report.tolerance!r}")
        lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
        text = "\n".join(lines)
    return text, report.passed


def run_cli(argv=None) -> int:
    parser = _build_parser()
    commands = {"solve": _cmd_solve, "verify": _cmd_verify, "minimax": _cmd_minimax}
    try:
        args = parser.parse_args(argv)
        # A command returns its whole output, so a failure leaves stdout empty.
        text, passed = commands[args.command](args)
    except _CliExit as exc:
        return exc.args[0]
    except (_CliError, ValueError, ConcavityViolation, FloatingPointError,
            DegenerateSlice) as exc:
        # One line, even where the message echoes argument text that holds a line break.
        print("error: " + str(exc).replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: a value lies outside the float range ({exc})", file=sys.stderr)
        return 1
    print(text)
    return 0 if passed else 2
